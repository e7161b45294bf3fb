import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import make_table
from embcat.cli import main
from embcat.embio import Format, RandomBackfill, random_vector, read_embeddings, write_embeddings
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
    assert np.array_equal(table.row("peter")[2:], random_vector(bf, "two", "peter", 3))
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
        table.row("german")[2:], random_vector(RandomBackfill(4), "two", "german", 2)
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


def test_threads_env(capsys, monkeypatch):
    monkeypatch.setenv("EMBCAT_THREADS", "3")
    rep = run_json(capsys, "info", "--emb", FIXTURE, "--stable")
    assert rep["manifest"]["options"]["threads"] == 3
    monkeypatch.setenv("EMBCAT_THREADS", "zero")
    code, _, _ = run(capsys, "info", "--emb", FIXTURE)
    assert code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "embcat.cli", "info", "--emb", FIXTURE, "--stable"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["vocab"] == 2
