import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from conftest import make_table, oracle_vector
from embcat import analysis, cli
from embcat.cli import main
from embcat.embio import Format, RandomBackfill, read_embeddings, write_embeddings
from embcat.manifest import file_sha256

FIXTURE = "tests/fixtures/tiny.glove"

CONLL = """EU NNP B-ORG
rejects VBZ O
German JJ B-MISC

Peter NNP B-PER
Blackburn NNP I-PER
"""


@pytest.fixture
def conll_file(tmp_path):
    p = tmp_path / "train.conll"
    p.write_text(CONLL)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------


def test_info_fixture(capsys):
    rep = run_json(capsys, "info", "--emb", FIXTURE, "--stable")
    assert rep["vocab"] == 2
    assert rep["dim"] == 3
    assert rep["format"] == "GloveText"
    man = rep["manifest"]
    assert man["subcommand"] == "info"
    assert man["seed"] == 1234
    assert len(man["input_sha256"]["emb"]) == 64
    assert "duration_s" not in man
    assert man["options"]["normalize"] == "exact,lowercase"
    assert "fold_case" not in man["options"]


def test_info_named_emb(capsys):
    rep = run_json(capsys, "info", "--emb", f"mytable={FIXTURE}", "--stable")
    assert rep["name"] == "mytable"


def test_stable_reports_are_byte_identical(capsys):
    _, out1, _ = run(capsys, "info", "--emb", FIXTURE, "--stable")
    _, out2, _ = run(capsys, "info", "--emb", FIXTURE, "--stable")
    assert out1 == out2


def test_unstable_report_has_duration(capsys):
    rep = run_json(capsys, "info", "--emb", FIXTURE)
    assert "duration_s" in rep["manifest"]


def test_text_format(capsys):
    code, out, _ = run(capsys, "info", "--emb", FIXTURE, "--format", "text", "--stable")
    assert code == 0
    assert "vocab" in out and "GloveText" in out
    assert not out.startswith("{")


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "combine", "--emb", FIXTURE, "--data", "x")
    assert code == 2  # --out is required
    code, _, _ = run(capsys, "nonsense")
    assert code == 2
    code, _, err = run(capsys, "info", "--emb", FIXTURE, "--normalize", "exact,stem")
    assert code == 2 and "stem" in err
    for spec in ("", "lowercase", "exact,exact", "lowercase,exact", "exact,lowercase,exact"):
        code, _, err = run(capsys, "info", "--emb", FIXTURE, "--normalize", spec)
        assert code == 2 and "--normalize" in err, spec
    for spec in ("exact", " exact , lowercase ", "exact,,lowercase,"):
        assert run(capsys, "info", "--emb", FIXTURE, "--normalize", spec)[0] == 0, spec
    code, _, _ = run(capsys, "info", "--emb", FIXTURE, "--threads", "0")
    assert code == 2


def test_data_errors_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.glove"
    bad.write_text("a 1 2\nb 3\n")
    code, _, err = run(capsys, "info", "--emb", str(bad))
    assert code == 1 and "bad.glove:2" in err
    code, _, _ = run(capsys, "info", "--emb", str(tmp_path / "missing.glove"))
    assert code == 1


def test_non_utf8_inputs_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.conll"
    bad.write_bytes(b"\xffEU NNP B-ORG\n")
    code, _, err = run(capsys, "coverage", "--emb", FIXTURE, "--data", str(bad))
    assert code == 1 and f"{bad}:1: not valid UTF-8" in err
    code, _, err = run(
        capsys, "convert-tags", "--data", str(bad), "--out", str(tmp_path / "o"),
        "--from", "bio", "--to", "iobes",
    )
    assert code == 1 and f"{bad}:1: not valid UTF-8" in err


def test_a_text_value_beyond_float32_is_one_error_line(tmp_path):
    # run as a program, so that a numpy warning would reach stderr
    p = tmp_path / "t.txt"
    p.write_text("a 1 2\nb 1e39 3\n")
    proc = subprocess.run(
        [sys.executable, "-m", "embcat.cli", "info", "--emb", str(p)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"error: {p}:2: non-finite value for token 'b'\n"


def test_empty_w2v_file_exits_1(capsys, tmp_path):
    emb = tmp_path / "empty.bin"
    emb.write_bytes(b"")
    for fmt in ([], ["--emb-format", "w2v"]):
        code, _, err = run(capsys, "info", "--emb", str(emb), *fmt)
        assert code == 1 and f"{emb}: empty file" in err


def test_impossible_header_count_exits_1_when_strict(capsys, tmp_path):
    emb = tmp_path / "huge.bin"
    emb.write_bytes(b"99999999999 2\na " + np.zeros(2, "<f4").tobytes() + b"\n")
    code, _, err = run(capsys, "info", "--emb", str(emb), "--strict")
    assert code == 1 and f"{emb}: header declares 99999999999" in err


def test_convert_round_trip(capsys, tmp_path):
    out = tmp_path / "tiny.bin"
    rep = run_json(capsys, "convert", "--emb", FIXTURE, "--out", str(out), "--to", "w2v", "--stable")
    assert rep["format"] == "Word2VecBinary"
    back = read_embeddings(out)
    orig = read_embeddings(FIXTURE)
    assert back.words == orig.words
    assert np.array_equal(back.vectors, orig.vectors)
    assert len(rep["output_sha256"]) == 64


def test_convert_in_place_hashes_the_input(capsys, tmp_path):
    # the manifest hashes the input before the output overwrites it
    emb = tmp_path / "x.txt"
    emb.write_text("a 0.10 0.20\nb 0.30 0.40\n")
    before = file_sha256(emb)
    rep = run_json(
        capsys, "convert", "--emb", str(emb), "--out", str(emb), "--to", "glove", "--stable"
    )
    assert rep["manifest"]["input_sha256"]["emb"] == before
    assert rep["output_sha256"] == file_sha256(emb) != before
    assert emb.read_text() == "a 0.1 0.2\nb 0.3 0.4\n"


def test_convert_tags_in_place_hashes_the_input(capsys, tmp_path):
    data = tmp_path / "x.conll"
    data.write_text("Peter I-PER\nBlackburn I-PER\n")
    before = file_sha256(data)
    rep = run_json(
        capsys, "convert-tags", "--data", str(data), "--out", str(data),
        "--from", "iob1", "--to", "bio", "--stable",
    )
    assert rep["manifest"]["input_sha256"]["data"] == before
    assert rep["output_sha256"] == file_sha256(data) != before
    assert data.read_text() == "Peter B-PER\nBlackburn I-PER\n"


def test_duration_is_the_last_manifest_key(capsys, tmp_path):
    out = str(tmp_path / "o")
    rep = run_json(capsys, "convert", "--emb", FIXTURE, "--out", out, "--to", "w2v")
    assert list(rep["manifest"])[-1] == "duration_s"


def test_info_detects_the_format_once(capsys, monkeypatch):
    from embcat import cli, embio

    calls = []
    detect = embio.detect_format

    def spy(path):
        calls.append(path)
        return detect(path)

    monkeypatch.setattr(embio, "detect_format", spy)
    monkeypatch.setattr(cli, "detect_format", spy)
    rep = run_json(capsys, "info", "--emb", FIXTURE, "--stable")
    assert rep["format"] == "GloveText"
    assert calls == [FIXTURE]


def test_convert_tags(capsys, tmp_path):
    src = tmp_path / "bio.conll"
    src.write_text("-DOCSTART- O\n\nMary B-PER\nSmith I-PER\nruns O\n\nParis B-LOC\n")
    out = tmp_path / "iobes.conll"
    rep = run_json(
        capsys,
        "convert-tags",
        "--data",
        str(src),
        "--out",
        str(out),
        "--from",
        "bio",
        "--to",
        "iobes",
        "--stable",
    )
    assert rep["n_sentences"] == 2
    assert rep["n_tags_changed"] == 2  # I-PER -> E-PER, B-LOC -> S-LOC
    text = out.read_text()
    assert "Smith E-PER" in text
    assert "Paris S-LOC" in text
    assert text.startswith("-DOCSTART- O\n")


def test_convert_tags_iob1_to_iobes(capsys, tmp_path):
    src = tmp_path / "iob1.conll"
    src.write_text("EU I-ORG\ncall O\n")
    out = tmp_path / "out.conll"
    rep = run_json(
        capsys,
        "convert-tags",
        "--data", str(src), "--out", str(out),
        "--from", "iob1", "--to", "iobes", "--stable",
    )
    assert "EU S-ORG" in out.read_text()
    assert rep["from"] == "iob1" and rep["to"] == "iobes"


# golden bytes over -DOCSTART- lines, whitespace-only and repeated blank
# lines, CRLF line ends, leading spaces and tabs: separators are written
# back verbatim, sentence lines re-joined with single spaces
TAGS_IN = (
    b"-DOCSTART- -X- O\r\n\nEU NNP I-ORG\nrejects VBZ O\nGerman JJ I-MISC\ncall NN O\n"
    b" \t \n\n  Peter NNP I-PER\r\nBlackburn\tNNP\tI-PER\nSmith NNP B-PER\nJones NNP I-PER\n"
    b"Paris NNP I-LOC\n\n\n   -DOCSTART- -X- O\nLondon NNP I-LOC\nBonn NNP B-LOC\nin IN O\n   "
)
_IOBES_OUT = (
    b"-DOCSTART- -X- O\n\nEU NNP S-ORG\nrejects VBZ O\nGerman JJ S-MISC\ncall NN O\n"
    b" \t \n\nPeter NNP B-PER\nBlackburn NNP E-PER\nSmith NNP B-PER\nJones NNP E-PER\n"
    b"Paris NNP S-LOC\n\n\n   -DOCSTART- -X- O\nLondon NNP S-LOC\nBonn NNP S-LOC\nin IN O\n   \n"
)
TAGS_OUT = {
    ("iob1", "bio"): (
        5,
        b"-DOCSTART- -X- O\n\nEU NNP B-ORG\nrejects VBZ O\nGerman JJ B-MISC\ncall NN O\n"
        b" \t \n\nPeter NNP B-PER\nBlackburn NNP I-PER\nSmith NNP B-PER\nJones NNP I-PER\n"
        b"Paris NNP B-LOC\n\n\n   -DOCSTART- -X- O\nLondon NNP B-LOC\nBonn NNP B-LOC\nin IN O\n   \n",
    ),
    ("iob1", "iobes"): (8, _IOBES_OUT),
    ("bio", "iobes"): (8, _IOBES_OUT),
}


@pytest.mark.parametrize("src, dst", sorted(TAGS_OUT))
def test_convert_tags_golden_bytes(capsys, tmp_path, src, dst):
    data = tmp_path / "in.conll"
    data.write_bytes(TAGS_IN)
    out = tmp_path / "out.conll"
    rep = run_json(
        capsys, "convert-tags", "--data", str(data), "--out", str(out),
        "--from", src, "--to", dst, "--stable",
    )
    n_changed, expected = TAGS_OUT[src, dst]
    assert out.read_bytes() == expected
    assert rep["n_sentences"] == 3 and rep["n_tags_changed"] == n_changed
    assert rep["output_sha256"] == file_sha256(out)


def test_convert_tags_malformed_tag_names_file_line(capsys, tmp_path):
    data = tmp_path / "bad.conll"
    data.write_text("a O\n\nb B-PER\nc X-PER\n")
    code, _, err = run(
        capsys, "convert-tags", "--data", str(data), "--out", str(tmp_path / "o"),
        "--from", "bio", "--to", "iobes",
    )
    assert code == 1 and f"{data}:3: malformed tag 'X-PER'" in err
    data.write_text("a O\nb\n")
    code, _, err = run(
        capsys, "convert-tags", "--data", str(data), "--out", str(tmp_path / "o"),
        "--from", "bio", "--to", "iobes", "--label-column", "1",
    )
    assert code == 1 and f"{data}:2: label column 1 out of range" in err


def test_convert_tags_rejects_noop(capsys, tmp_path):
    src = tmp_path / "x.conll"
    src.write_text("a O\n")
    code, _, _ = run(
        capsys, "convert-tags", "--data", str(src), "--out", str(src) + ".o",
        "--from", "bio", "--to", "bio",
    )
    assert code == 2


def test_coverage_cli(capsys, tmp_path, conll_file):
    emb = tmp_path / "emb.glove"
    # lowercased vocabulary: eu/german attested via the lowercase step
    emb.write_text("eu 1 0\ngerman 0 1\n")
    rep = run_json(
        capsys, "coverage", "--emb", str(emb), "--data", conll_file, "--split", "train", "--stable"
    )
    assert rep["split"] == "train"
    assert rep["unique_types"] == 5
    assert rep["attested_types"] == 2
    assert rep["attested_pct"] == 40.0
    # --raw counts surface forms and exact-only lookup misses the cased forms
    rep = run_json(
        capsys,
        "coverage",
        "--emb", str(emb), "--data", conll_file,
        "--normalize", "exact", "--raw", "--stable",
    )
    assert rep["attested_types"] == 0


def test_similarity_self_is_100(capsys, conll_file, tmp_path):
    emb = tmp_path / "t.glove"
    emb.write_text("eu 1 0\ngerman 0 1\npeter 1 1\n")
    rep = run_json(
        capsys,
        "similarity",
        "--emb-a", str(emb), "--emb-b", str(emb),
        "--data", conll_file, "--top-n", "5", "--k", "1", "--stable",
    )
    assert rep["mean_jaccard_pct"] == 100.0
    assert rep["n_used"] == 3
    assert rep["n_used"] + rep["n_skipped"] == rep["n_requested"]


def test_pair_report_cli(capsys, tmp_path, conll_file):
    emb = tmp_path / "t.glove"
    emb.write_text("eu 1 0\ngerman 0 1\npeter 1 1\nrejects 2 1\n")
    rep = run_json(
        capsys,
        "pair-report",
        "--emb-a", str(emb), "--emb-b", str(emb),
        "--train", conll_file, "--dev", conll_file,
        "--top-n", "4", "--k", "2", "--stable",
    )
    assert rep["overlap_train"] == 100.0
    assert rep["attested_dev"] == 80.0  # 4 of 5 lowercased types attested
    code, out, _ = run(
        capsys,
        "pair-report",
        "--emb-a", str(emb), "--emb-b", str(emb),
        "--train", conll_file, "--dev", conll_file,
        "--top-n", "4", "--k", "2", "--stable", "--format", "text",
    )
    assert code == 0
    head, row = out.splitlines()[:2]
    assert "overlap_train" in head and "100" in row


def test_combine_cli_with_sidecar(capsys, tmp_path, conll_file):
    emb1 = tmp_path / "one.glove"
    emb1.write_text("eu 1 0\npeter 0 1\n")
    emb2 = tmp_path / "two.glove"
    emb2.write_text("eu 5 5 5\n")
    out = tmp_path / "combined.glove"
    rep = run_json(
        capsys,
        "combine",
        "--emb", str(emb1), "--emb", str(emb2),
        "--data", f"train={conll_file}",
        "--out", str(out), "--seed", "99", "--stable",
    )
    assert rep["dim"] == 5
    assert rep["vocab"] == 5
    assert rep["sources"] == ["one", "two"]
    table = read_embeddings(out)
    assert table.dim == 5
    # backfill slice reproducible from the sidecar's seed
    bf = RandomBackfill(99)
    assert np.array_equal(table.row("peter")[2:], oracle_vector(bf, "two", "peter", 3))
    sidecar = json.loads((tmp_path / "combined.glove.manifest.json").read_text())
    assert sidecar["seed"] == 99
    assert sidecar["output_sha256"] == rep["output_sha256"]
    assert [s["name"] for s in sidecar["sources"]] == ["one", "two"]
    for src, path in zip(sidecar["sources"], (emb1, emb2)):
        assert src["sha256"] == rep["manifest"]["input_sha256"][f"emb:{src['name']}"]
        assert src["sha256"] == file_sha256(path)
    assert sidecar["normalization"] == ["exact", "lowercase"]
    assert sidecar["policy"] == {"kind": "Concat", "applies_to": None}
    run_json(
        capsys,
        "combine",
        "--emb", str(emb1), "--data", conll_file,
        "--out", str(out), "--normalize", "exact", "--stable",
    )
    sidecar = json.loads((tmp_path / "combined.glove.manifest.json").read_text())
    assert sidecar["normalization"] == ["exact"]


def test_combine_cli_special_tokens(capsys, tmp_path, conll_file):
    emb = tmp_path / "e.glove"
    emb.write_text("eu 1 1\n")
    out = tmp_path / "c.glove"
    run_json(
        capsys,
        "combine",
        "--emb", str(emb), "--data", conll_file,
        "--out", str(out), "--add-special-tokens", "--stable",
    )
    table = read_embeddings(out)
    assert table.words[:2] == ("<PAD>", "<UNK>")
    assert np.array_equal(table.row("<PAD>"), [0, 0])
    assert not np.array_equal(table.row("<UNK>"), [0, 0])


def test_combine_cli_policy(capsys, tmp_path, conll_file):
    emb1 = tmp_path / "one.glove"
    emb1.write_text("eu 1 0\n")
    emb2 = tmp_path / "two.glove"
    emb2.write_text("eu 5 5\ngerman 7 7\n")
    out = tmp_path / "c.glove"
    rep = run_json(
        capsys,
        "combine",
        "--emb", str(emb1), "--emb", str(emb2),
        "--data", conll_file, "--out", str(out),
        "--policy", "matched-second", "--seed", "4", "--stable",
    )
    assert rep["policy"] == "MatchedSecond"
    table = read_embeddings(out)
    # eu overlaps: kept; german is not in table one: randomized
    assert np.array_equal(table.row("eu")[2:], [5, 5])
    assert np.array_equal(
        table.row("german")[2:], oracle_vector(RandomBackfill(4), "two", "german", 2)
    )


def test_combine_cli_concat_rejects_applies_to(capsys, tmp_path, conll_file):
    emb = tmp_path / "e.glove"
    emb.write_text("eu 1 1\n")
    out = tmp_path / "c.glove"
    code, _, err = run(
        capsys,
        "combine",
        "--emb", str(emb), "--emb", f"two={emb}", "--data", conll_file,
        "--out", str(out), "--policy", "concat", "--applies-to", "3", "--stable",
    )
    assert code == 2 and "applies_to" in err
    assert not out.exists()


@pytest.mark.parametrize("low, high", [("-inf", "1"), ("-1e308", "1e308")])
def test_combine_rejects_an_infinite_backfill_range(capsys, tmp_path, conll_file, low, high):
    emb = tmp_path / "e.glove"
    emb.write_text("eu 1 1\n")
    code, _, err = run(
        capsys,
        "combine",
        "--emb", str(emb), "--emb", f"two={emb}", "--data", conll_file,
        "--out", str(tmp_path / "c.glove"), f"--backfill-low={low}", f"--backfill-high={high}",
    )
    assert code == 2
    want = f"need low < high, high - low finite, got [{float(low)}, {float(high)})"
    assert err == f"usage error: {want}\n"
    assert not (tmp_path / "c.glove").exists()


def test_combine_rejects_a_backfill_end_beyond_float32(tmp_path, conll_file):
    # run as a program, so that a numpy warning would reach stderr
    emb = tmp_path / "e.glove"
    emb.write_text("eu 1 1\n")
    proc = subprocess.run(
        [
            sys.executable, "-m", "embcat.cli", "combine", "--emb", str(emb), "--data", conll_file,
            "--out", str(tmp_path / "c.glove"), "--backfill-low", "1e39", "--backfill-high", "2e39",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    want = "need both ends in [-3.4028235e+38, 3.4028235e+38], got [1e+39, 2e+39)"
    assert proc.stderr == f"usage error: {want}\n"
    assert not (tmp_path / "c.glove").exists()


def test_combine_splits_strip_whitespace(capsys, tmp_path, conll_file):
    emb = tmp_path / "e.glove"
    emb.write_text("eu 1 1\n")
    dev = tmp_path / "dev.conll"
    dev.write_text("Paris NNP B-LOC\n")
    data = ["--data", f"train={conll_file}", "--data", f"dev={dev}"]
    for splits, vocab in (("train", 5), ("train, dev", 6), (" dev ,train ", 6)):
        rep = run_json(
            capsys,
            "combine", "--emb", str(emb), *data, "--out", str(tmp_path / "c.glove"),
            "--splits", splits, "--stable",
        )
        assert rep["vocab"] == vocab, splits


@pytest.mark.parametrize(
    "splits, named", [("train,trian", "'trian'"), ("train, Dev", "'Dev'"), (" , ", "no split")]
)
def test_combine_rejects_bad_splits_before_reading(capsys, tmp_path, splits, named):
    # the inputs do not exist: a usage error must come before any read
    code, out, err = run(
        capsys,
        "combine", "--emb", str(tmp_path / "missing.glove"),
        "--data", f"train={tmp_path / 'missing.conll'}",
        "--out", str(tmp_path / "c.glove"), "--splits", splits,
    )
    assert code == 2 and out == ""
    assert "--splits" in err and named in err


@pytest.mark.parametrize(
    "option, value, named",
    [
        ("--policy", "matched-secnd", "unknown combine kind 'matched-secnd'"),
        ("--applies-to", "0", "applies_to must be >= 1, got 0"),
        ("--min-count", "0", "min_count must be >= 1, got 0"),
        ("--seed", str(2**64), f"seed {2**64} does not fit in 64 bits"),
        ("--backfill-low", "0.5", "need low < high"),
        ("--backfill-high", "1e39", "need both ends in"),
    ],
    ids=["policy", "applies-to", "min-count", "seed", "backfill-low", "backfill-high"],
)
def test_combine_rejects_bad_options_before_reading(capsys, tmp_path, option, value, named):
    # the inputs do not exist: a usage error must come before any read
    code, out, err = run(
        capsys,
        "combine", "--emb", str(tmp_path / "missing.glove"),
        "--data", f"train={tmp_path / 'missing.conll'}",
        "--out", str(tmp_path / "c.glove"), "--policy", "random-second", option, value,
    )
    assert code == 2 and out == "" and named in err


@pytest.mark.parametrize("option", ["--top-n", "--k"])
@pytest.mark.parametrize("subcommand", ["similarity", "pair-report", "recommend"])
def test_top_n_and_k_below_1_are_usage_errors_before_reading(capsys, tmp_path, subcommand, option):
    missing = str(tmp_path / "missing")
    inputs = {
        "similarity": ["--emb-a", missing, "--emb-b", missing, "--data", missing],
        "pair-report": ["--emb-a", missing, "--emb-b", missing, "--train", missing, "--dev", missing],
        "recommend": ["--emb", missing, "--emb", missing, "--train", missing, "--dev", missing],
    }[subcommand]
    code, out, err = run(capsys, subcommand, *inputs, option, "0")
    assert code == 2 and out == "" and f"{option} must be >= 1, got 0" in err


def test_unknown_emb_format_lists_the_known_ones(capsys):
    code, out, err = run(capsys, "info", "--emb", FIXTURE, "--emb-format", "bogus")
    assert code == 2 and out == ""
    assert "unknown format 'bogus'; expected one of ['glove', 'glove-header', 'w2v']" in err


def test_similarity_shared_vocab_only_rejects_k_above_the_shared_rows(capsys, tmp_path):
    a = tmp_path / "A.glove"
    a.write_text("a 1 0\nb 0 1\nc 1 1\nd 1 2\ne 2 1\n")
    b = tmp_path / "B.glove"
    b.write_text("a 1 0\nb 0 1\nx 1 1\ny 1 2\nz 2 1\n")
    data = tmp_path / "q.conll"
    data.write_text("a O\nb O\n")
    argv = ["similarity", "--emb-a", str(a), "--emb-b", str(b), "--data", str(data),
            "--shared-vocab-only", "--stable"]
    # each table shares only a and b: a query has one candidate left
    code, out, err = run(capsys, *argv, "--k", "3")
    assert code == 1 and out == ""
    assert err == "error: k=3 out of range for table 'A': 2 shared rows\n"
    rep = run_json(capsys, *argv, "--k", "1")
    assert rep["k"] == 1 and rep["mean_jaccard_pct"] == 100.0
    # a query row outside the mask keeps every shared row: "The" finds
    # A's "the", which is not in B, so A's two shared rows serve k=2
    a.write_text("the 1 0\nx1 0 1\nx2 1 1\n")
    b.write_text("The 1 0\nx1 0 1\nx2 1 2\n")
    data.write_text("The O\n")
    rep = run_json(capsys, *argv, "--k", "2", "--raw")
    assert rep["per_query"] == {"The": 1.0}


def test_convert_refuses_a_token_with_a_space_before_writing(capsys, tmp_path):
    # a GloVe 840B-style token read leniently cannot be written back in
    # either format; the previous output stays as it was
    emb = tmp_path / "spacey.glove"
    emb.write_text("the 1 2 3\nNew York 4 5 6\ncity 7 8 9\n")
    out = tmp_path / "out.glove"
    out.write_bytes(b"previous output\n")
    for to in ("glove", "glove-header", "w2v"):
        code, stdout, err = run(
            capsys, "convert", "--emb", str(emb), "--out", str(out), "--to", to, "--stable"
        )
        assert code == 1 and stdout == ""
        assert "'New York'" in err
        assert out.read_bytes() == b"previous output\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.glove", "spacey.glove"]


def test_convert_to_w2v_refuses_a_token_too_long_to_read_back(capsys, tmp_path):
    # the binary reader finds a token's terminator only within 4096 bytes
    emb = tmp_path / "long.glove"
    emb.write_text(f"the 1 2\n{'x' * 5000} 3 4\n")
    out = tmp_path / "out.bin"
    out.write_bytes(b"previous output\n")
    code, stdout, err = run(
        capsys, "convert", "--emb", str(emb), "--out", str(out), "--to", "w2v", "--stable"
    )
    assert code == 1 and stdout == ""
    assert err.startswith("error: token 'xxx") and "5000 UTF-8 bytes, over 4095" in err
    assert out.read_bytes() == b"previous output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["long.glove", "out.bin"]


def test_combine_threads_change_only_the_recorded_option(capsys, tmp_path, conll_file):
    emb1 = tmp_path / "one.glove"
    emb1.write_text("eu 1 0\nEU 2 2\npeter 0 1\n")
    emb2 = tmp_path / "two.glove"
    emb2.write_text("eu 5 5 5\ngerman 7 7 7\n")
    out = tmp_path / "c.glove"
    runs = []
    for threads in ("1", "4"):
        rep = run_json(
            capsys,
            "combine", "--emb", str(emb1), "--emb", str(emb2), "--data", conll_file,
            "--out", str(out), "--policy", "complement-second", "--stable",
            "--threads", threads,
        )
        assert rep["manifest"]["options"].pop("threads") == int(threads)
        sidecar = (tmp_path / "c.glove.manifest.json").read_bytes()
        runs.append((rep, out.read_bytes(), sidecar))
    assert runs[0] == runs[1]


def test_recommend_cli(capsys, tmp_path, conll_file):
    emb1 = tmp_path / "one.glove"
    emb1.write_text("eu 1 0\ngerman 0 1\npeter 1 1\nrejects 1 2\nblackburn 2 1\n")
    emb2 = tmp_path / "two.glove"
    emb2.write_text("eu 1 0\ngerman 0 1\npeter 1 1\nrejects 1 2\nblackburn 2 1\n")
    rep = run_json(
        capsys,
        "recommend",
        "--emb", str(emb1), "--emb", str(emb2),
        "--train", conll_file, "--dev", conll_file,
        "--top-n", "5", "--k", "2", "--stable",
    )
    assert len(rep["pairs"]) == 1
    pair = rep["pairs"][0]
    assert pair["overlap"] == 100.0
    assert pair["recommended"] is False  # identical tables: overlap too high
    assert rep["tau_sim"] == 30.0
    code, _, _ = run(
        capsys, "recommend", "--emb", str(emb1),
        "--train", conll_file, "--dev", conll_file,
    )
    assert code == 1  # fewer than two tables is a data error


def test_recommend_cli_reports_an_unscored_pair(capsys, tmp_path, conll_file):
    # one and two share no corpus type, though each shares some with three
    tables = {
        "one": "eu 1 0\ngerman 0 1\nxa 1 1\n",
        "two": "peter 1 0\nblackburn 0 1\nxb 1 1\n",
        "three": "eu 1 0\npeter 0 1\nxc 1 1\n",
    }
    args = []
    for name, text in tables.items():
        (tmp_path / f"{name}.glove").write_text(text)
        args += ["--emb", str(tmp_path / f"{name}.glove")]
    common = ["--train", conll_file, "--dev", conll_file, "--top-n", "5", "--k", "1", "--stable"]
    rep = run_json(capsys, "recommend", *args, *common)
    pairs = [(p["embedding_a"], p["embedding_b"], p["overlap"], p["recommended"]) for p in rep["pairs"]]
    assert pairs[-1] == ("one", "two", None, False)
    assert all(overlap is not None for _, _, overlap, _ in pairs[:-1])
    code, out, _ = run(capsys, "recommend", *args, *common, "--format", "text")
    assert code == 0 and out.splitlines()[3].split() == ["one", "two", "None", "40", "40", "False"]
    code, _, err = run(capsys, "recommend", *args[:4], *common)
    assert code == 1 and "no shared queries" in err


def _table_args(tmp_path, subcommand, n_tables):
    """w2v tables over the CONLL fixture's types (lowercased) and some
    filler, as the subcommand's table arguments, and the last table's path."""
    rng = np.random.default_rng(21)
    words = ["eu", "german", "peter", "rejects", "blackburn"] + [f"x{i}" for i in range(20)]
    paths = []
    for name in "abcd"[:n_tables]:
        paths.append(tmp_path / f"{name}.bin")
        table = make_table(name, words, rng.standard_normal((len(words), 4)))
        write_embeddings(table, paths[-1], Format.WORD2VEC_BINARY)
    if subcommand == "pair-report":
        return ["--emb-a", str(paths[0]), "--emb-b", str(paths[1])], paths[-1]
    return [arg for path in paths for arg in ("--emb", str(path))], paths[-1]


@pytest.mark.parametrize(
    "subcommand, n_tables", [("recommend", 4), ("pair-report", 2)], ids=["recommend", "pair-report"]
)
def test_cli_holds_one_table_at_a_time(
    capsys, tmp_path, conll_file, monkeypatch, subcommand, n_tables
):
    emb, _ = _table_args(tmp_path, subcommand, n_tables)
    common = ["--train", conll_file, "--dev", conll_file, "--k", "2", "--stable"]
    whole = run_json(capsys, subcommand, *emb, *common)
    refs = []
    live_at_read = []
    read = cli.read_embeddings

    def tracked(*args, **kwargs):
        live_at_read.append(sum(ref() is not None for ref in refs))
        table = read(*args, **kwargs)
        refs.append(weakref.ref(table.vectors))
        return table

    monkeypatch.setattr(cli, "read_embeddings", tracked)
    assert run_json(capsys, subcommand, *emb, *common) == whole
    assert live_at_read == [0] * n_tables
    assert all(ref() is None for ref in refs)


@pytest.mark.parametrize(
    "subcommand, n_tables", [("recommend", 3), ("pair-report", 2)], ids=["recommend", "pair-report"]
)
def test_cli_error_order(capsys, tmp_path, conll_file, monkeypatch, subcommand, n_tables):
    emb, last = _table_args(tmp_path, subcommand, n_tables)
    last.write_bytes(last.read_bytes()[:-7])
    common = ["--dev", conll_file, "--k", "2", "--stable"]
    searched = []
    search = analysis._batch_topk

    def spy(table, *args, **kwargs):
        searched.append(table.name)
        return search(table, *args, **kwargs)

    monkeypatch.setattr(analysis, "_batch_topk", spy)
    # a truncated last table: read after the earlier ones were searched,
    # with the same message
    code, out, err = run(capsys, subcommand, *emb, "--train", conll_file, *common)
    assert (code, out, err) == (1, "", f"error: {last}: record for token 'x19' truncated\n")
    assert searched == ["a", "b", "c"][: n_tables - 1]
    # --train and --dev are read before any table, so a malformed corpus
    # is reported before a malformed table
    bad = tmp_path / "bad.conll"
    bad.write_text("EU NNP B-ORG\nrejects\n")
    code, out, err = run(
        capsys, subcommand, *emb, "--train", str(bad), *common, "--label-column", "2"
    )
    assert code == 1 and out == ""
    assert err == f"error: {bad}:2: label column 2 out of range for 1-field line 'rejects'\n"


@pytest.mark.parametrize(
    "option, value", [("--tau-sim", "nan"), ("--tau-cov", "inf"), ("--tau-sim", "-inf")]
)
def test_recommend_rejects_a_non_finite_threshold(capsys, tmp_path, conll_file, option, value):
    # no pair can pass `overlap < nan`, and NaN and Infinity are not JSON
    emb = tmp_path / "a.glove"
    emb.write_text("eu 1 0\ngerman 0 1\npeter 1 1\n")
    common = ["--train", conll_file, "--dev", conll_file, "--k", "2", f"{option}={value}"]
    code, out, err = run(capsys, "recommend", "--emb", f"a={emb}", "--emb", f"b={emb}", *common)
    assert code == 2 and out == "" and option in err
    # a usage error, raised before any file is read
    missing = str(tmp_path / "missing.glove")
    code, _, err = run(capsys, "recommend", "--emb", missing, "--emb", missing, *common)
    assert code == 2 and option in err


def test_combine_min_count_errors(capsys, tmp_path, conll_file):
    argv = ["combine", "--emb", FIXTURE, "--data", conll_file, "--out", str(tmp_path / "c.glove")]
    # every type of the corpus occurs once
    code, _, err = run(capsys, *argv, "--min-count", "2")
    assert code == 1 and "no types reach min_count=2" in err
    code, _, err = run(capsys, *argv, "--min-count", "0")
    assert code == 2 and "min_count must be >= 1" in err
    assert not (tmp_path / "c.glove").exists()


def test_convert_tags_without_sentences_exits_1(capsys, tmp_path):
    data = tmp_path / "empty.conll"
    data.write_text("-DOCSTART- -X- O\n\n\n")
    out = tmp_path / "out.conll"
    code, _, err = run(
        capsys, "convert-tags", "--data", str(data), "--out", str(out),
        "--from", "bio", "--to", "iobes",
    )
    assert code == 1 and err == f"error: {data}: no sentences\n"
    assert not out.exists()


def test_coverage_of_a_text_dataset_without_examples_exits_1(capsys, tmp_path):
    data = tmp_path / "blank.tsv"
    data.write_text("\n\n")
    code, _, err = run(
        capsys, "coverage", "--emb", FIXTURE, "--data", str(data), "--data-kind", "text"
    )
    assert code == 1 and f"{data}: no examples" in err


def test_similarity_text_report_lists_skipped_queries(capsys, tmp_path, conll_file):
    a = tmp_path / "A.glove"
    a.write_text("blackburn 1 0\neu 0 1\ngerman 1 1\n")
    b = tmp_path / "B.glove"
    b.write_text("eu 0 1\ngerman 1 1\nxb 1 0\n")
    # the top 3 types are blackburn, eu and german: blackburn is not in B
    code, out, _ = run(
        capsys, "similarity", "--emb-a", str(a), "--emb-b", str(b),
        "--data", conll_file, "--top-n", "3", "--k", "1", "--format", "text", "--stable",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[6].split() == ["n_skipped", "1"]
    # the skipped list renders one query and its reason per line
    assert lines[lines.index("skipped:") + 1] == "  blackburn  not in B"


def test_score_cli(capsys, tmp_path):
    gold = tmp_path / "gold.conll"
    gold.write_text("Mary B-PER\nruns O\n\nParis B-LOC\n")
    pred = tmp_path / "pred.conll"
    pred.write_text("Mary B-PER\nruns O\n\nParis B-ORG\n")
    rep = run_json(capsys, "score", "--gold", str(gold), "--pred", str(pred), "--stable")
    assert rep["n_gold"] == 2 and rep["n_pred"] == 2 and rep["n_correct"] == 1
    assert rep["precision"] == 0.5 and rep["recall"] == 0.5 and rep["f1"] == 0.5


def test_score_cli_token_mismatch(capsys, tmp_path):
    gold = tmp_path / "gold.conll"
    gold.write_text("Mary B-PER\n")
    pred = tmp_path / "pred.conll"
    pred.write_text("John B-PER\n")
    code, _, err = run(capsys, "score", "--gold", str(gold), "--pred", str(pred))
    assert code == 1 and "differ" in err


@pytest.mark.parametrize("side", ["gold", "pred"])
def test_score_malformed_tag_names_file_and_line(capsys, tmp_path, side):
    good = "-DOCSTART- O\n\nMary B-PER\n\nParis B-LOC\nis O\n"
    files = {name: tmp_path / f"{name}.conll" for name in ("gold", "pred")}
    for name, path in files.items():
        path.write_text(good.replace("B-LOC", "X-PER") if name == side else good)
    code, _, err = run(capsys, "score", "--gold", str(files["gold"]), "--pred", str(files["pred"]))
    assert code == 1
    assert err.startswith(f"error: {files[side]}:5: ") and "malformed tag 'X-PER'" in err


def test_score_token_mismatch_names_file_and_line(capsys, tmp_path):
    gold = tmp_path / "gold.conll"
    gold.write_text("Mary B-PER\n\nParis B-LOC\n")
    pred = tmp_path / "pred.conll"
    pred.write_text("Mary B-PER\n\n\nRome B-LOC\n")
    code, _, err = run(capsys, "score", "--gold", str(gold), "--pred", str(pred))
    assert code == 1
    assert err.startswith(f"error: {pred}:4: ") and f"{gold}:3" in err


@pytest.mark.parametrize("longer", ["gold", "pred"])
def test_score_sentence_count_mismatch_names_file_and_line(capsys, tmp_path, longer):
    files = {name: tmp_path / f"{name}.conll" for name in ("gold", "pred")}
    for name, path in files.items():
        path.write_text("Mary B-PER\n\n\nParis B-LOC\n" if name == longer else "Mary B-PER\n")
    code, _, err = run(capsys, "score", "--gold", str(files["gold"]), "--pred", str(files["pred"]))
    counts = (2, 1) if longer == "gold" else (1, 2)
    assert code == 1
    want = f"{files[longer]}:4: no partner; {counts[0]} gold sentences but {counts[1]} predicted"
    assert err == f"error: {want}\n"


def test_manifest_records_a_format_option_by_name(capsys, tmp_path):
    rep = run_json(capsys, "info", "--emb", FIXTURE, "--emb-format", "glove", "--stable")
    assert rep["manifest"]["options"]["emb_format"] == "GloveText"
    rep = run_json(capsys, "info", "--emb", FIXTURE, "--stable")
    assert rep["manifest"]["options"]["emb_format"] is None
    # --to is the report's "format", not an option
    out = str(tmp_path / "t.bin")
    rep = run_json(capsys, "convert", "--emb", FIXTURE, "--out", out, "--to", "w2v", "--stable")
    assert rep["format"] == "Word2VecBinary" and "to" not in rep["manifest"]["options"]


def test_omitted_threads_recorded_as_null_on_any_machine(capsys, monkeypatch):
    outs = []
    for cores in (1, 8):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        code, out, err = run(capsys, "info", "--emb", FIXTURE, "--stable")
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["manifest"]["options"]["threads"] is None
    rep = run_json(capsys, "info", "--emb", FIXTURE, "--stable", "--threads", "3")
    assert rep["manifest"]["options"]["threads"] == 3
    code, _, err = run(capsys, "info", "--emb", FIXTURE, "--threads", "0")
    assert code == 2 and "--threads" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "embcat.cli", "info", "--emb", FIXTURE, "--stable"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["vocab"] == 2
