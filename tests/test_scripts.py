import importlib.util
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import make_table
from embcat import analysis
from embcat.embio import Format, read_embeddings, write_embeddings

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _reproduction_data(path):
    """The four tables and the CoNLL-2003 splits the reproduction reads, in
    miniature. senna and google-news share no corpus type, so recommend
    leaves their pair unscored; every pair with glove-6b shares two. Each
    table holds k=10 other rows besides its corpus types."""
    tables = {
        "glove.6B.100d.txt": ["a", "b", "c", "d"],
        "senna.txt": ["a", "b"],
        "glove.840B.300d.txt": ["a", "c"],
        "GoogleNews-vectors-negative300.bin": ["c", "d"],
    }
    for file, words in tables.items():
        words += [f"{file}-{i}" for i in range(10)]
        vectors = [[i + 1.0, 1.0] for i in range(len(words))]
        fmt = Format.WORD2VEC_BINARY if file.endswith(".bin") else Format.GLOVE_TEXT
        write_embeddings(make_table("t", words, vectors), path / file, fmt)
    (path / "conll2003").mkdir()
    for split in ("train", "valid"):
        (path / "conll2003" / f"{split}.txt").write_text("a O\nb O\nc O\nd O\n")


def test_reproduce_overlap_table_reports_an_unscored_pair(tmp_path, capsys):
    _reproduction_data(tmp_path)
    script = _load("reproduce_overlap_table")
    code = script.main(["--data", str(tmp_path), "--threads", "1"])
    out = capsys.readouterr().out
    # the tiny tables drift from the reference cells
    assert code == 1
    assert "senna + google-news: rejected (overlap not scored, min attested 50.0)" in out


def test_reproduce_overlap_table_holds_one_table_at_a_time(tmp_path, capsys, monkeypatch):
    # each table is read and searched once, and its matrix is freed before
    # the next one is read
    _reproduction_data(tmp_path)
    script = _load("reproduce_overlap_table")
    refs = []
    live_at_read = []
    read = script.read_embeddings

    def tracked(*args, **kwargs):
        live_at_read.append(sum(ref() is not None for ref in refs))
        table = read(*args, **kwargs)
        refs.append(weakref.ref(table.vectors))
        return table

    searched = []
    search = analysis._batch_topk

    def spy(table, *args, **kwargs):
        searched.append(table.name)
        return search(table, *args, **kwargs)

    monkeypatch.setattr(script, "read_embeddings", tracked)
    monkeypatch.setattr(analysis, "_batch_topk", spy)
    script.main(["--data", str(tmp_path), "--threads", "1"])
    assert live_at_read == [0] * 4
    assert all(ref() is None for ref in refs)
    assert searched == list(script.TABLES)
    assert "senna + google-news: rejected" in capsys.readouterr().out


def test_export_combined_tables_writes_every_policy_per_corpus(tmp_path, capsys):
    first, second = tmp_path / "first.glove", tmp_path / "second.glove"
    for path, words in ((first, ["the", "film", "eu"]), (second, ["the", "dull"])):
        table = make_table(path.stem, words, np.eye(len(words)))
        write_embeddings(table, path, Format.GLOVE_TEXT)
    (tmp_path / "conll2003").mkdir()
    (tmp_path / "conll2003" / "train.txt").write_text("EU NNP B-ORG\nrejects VBZ O\n")
    (tmp_path / "conll2003" / "valid.txt").write_text("-DOCSTART- O\n\nGerman JJ B-MISC\n")
    (tmp_path / "sst2").mkdir()
    (tmp_path / "sst2" / "stsa.binary.phrases.train").write_text("1 The film\n0 dull\n")
    (tmp_path / "sst2" / "stsa.binary.dev").write_text("0 a dull film\n")
    out = tmp_path / "exports"
    script = _load("export_combined_tables")
    argv = ["--data", str(tmp_path), "--out", str(out), "--first", str(first)]
    assert script.main([*argv, "--second", str(second)]) == 0
    capsys.readouterr()
    types = {
        "conll": {"eu", "rejects", "german"},
        "sst2": {"the", "film", "dull", "a"},
    }
    kinds = ("Concat", "RandomSecond", "ComplementSecond", "MatchedSecond")
    assert len(list(out.glob("*.glove"))) == len(list(out.glob("*.manifest.json"))) == 8
    for corpus, corpus_types in types.items():
        for policy, kind in zip(script.POLICIES, kinds):
            table = out / f"{corpus}.{policy}.glove"
            sidecar = json.loads((out / f"{corpus}.{policy}.glove.manifest.json").read_text())
            assert sidecar["policy"]["kind"] == kind
            words = read_embeddings(table, Format.GLOVE_TEXT).words
            assert sorted(words) == sorted(corpus_types | {"<PAD>", "<UNK>"})


def test_check_text_floats_on_the_smallest_subnormals(capsys):
    script = _load("check_text_floats")
    assert script.main(["-149", "-137"]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["mismatches"] == 0
    # binade e < -126 holds 2**(e + 149) values of each sign
    assert summary["values"] == 2 * (2**12 - 1)


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def line(wall, rows, correct=True, failed=0):
    """The last stdout line of a bench/run.py run."""
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "rows_per_s": {"value": rows, "unit": "1/s"}}
    return json.dumps({"correct": correct, "attempted": 4, "failed": failed, "metrics": metrics})


def summarize(parent, change, bound=0.25):
    """scripts/ab_bench.py's summary rows by metric, and its report."""
    ab = _load("ab_bench")
    spec = {"wall_s": {"better": "lower", "bound": bound},
            "rows_per_s": {"better": "higher", "bound": bound}}
    pairs = [(json.loads(p), json.loads(c)) for p, c in zip(parent, change)]
    return {r["metric"]: r for r in ab.summarize(pairs, spec)}, ab.report(pairs, spec)


def test_ab_bench_summary_of_canned_result_lines():
    ab = _load("ab_bench")
    assert ab.parse_seeds("9301-9304") == [9301, 9302, 9303, 9304]
    assert ab.parse_seeds("7") == [7]

    walls = (1.10, 1.20, 1.15, 1.30, 1.12, 1.18, 1.25, 1.14, 1.16, 1.22)
    parent = [line(w, 100.0) for w in walls]
    change = [line(w, r) for w, r in zip(
        (1.00, 1.05, 1.02, 1.20, 1.01, 1.21, 1.10, 1.00, 1.03, 1.08), [100.0] * 9 + [101.0])]
    change[3] = line(1.20, 100.0, correct=False, failed=1)
    rows, text = summarize(parent, change)
    wall = rows["wall_s"]
    assert wall["wins"] == 9 and wall["pairs"] == 10
    # nine wins of ten, but the change failed an operation the parent did not
    assert not wall["gain"]
    assert wall["parent"][0] == pytest.approx(1.17) and wall["change"][0] == pytest.approx(1.04)
    assert wall["parent"][1:] == pytest.approx((1.1425, 1.215))
    # better by less than the bound, the parent's quartiles inside it
    assert wall["verdict"] == "ok"
    # ties count for neither side
    assert rows["rows_per_s"]["wins"] == 1 and not rows["rows_per_s"]["gain"]
    assert rows["rows_per_s"]["verdict"] == "ok"
    assert "change: 1 of 10 runs not correct, 1 of 40 operations failed" in text
    assert "parent: 0 of 10 runs not correct, 0 of 40 operations failed" in text
    # the same times without the failure meet the gain rule
    change[3] = line(1.20, 100.0)
    assert summarize(parent, change)[0]["wall_s"]["gain"]
    # nine wins of nine are too few pairs
    nine = [i for i in range(10) if i != 5]
    short = summarize([parent[i] for i in nine], [change[i] for i in nine])[0]["wall_s"]
    assert short["wins"] == short["pairs"] == 9 and not short["gain"]
    # nine wins of ten, but the medians closer than the parent's quartiles
    close = [line(w - 0.01, 100.0) for w in walls]
    close[0] = line(1.11, 100.0)
    row = summarize(parent, close)[0]["wall_s"]
    assert row["wins"] == 9 and not row["gain"]
    # a median worse than the parent's by more than the bound
    slow = [line(w * 1.3, 100.0) for w in walls]
    assert summarize(parent, slow)[0]["wall_s"]["verdict"] == "worse"
    assert summarize(parent, slow, bound=0.35)[0]["wall_s"]["verdict"] == "ok"
    # the pairs' differences spread wider than a 5% bound: no verdict either
    # way, unless every change run beats every parent run
    scattered = [line(w + (0.08 if i % 2 else -0.08), 100.0) for i, w in enumerate(walls)]
    rows, text = summarize(parent, scattered, bound=0.05)
    assert rows["wall_s"]["verdict"] == "unresolved" and "unresolved" in text
    fast = [line(w - (0.35 if i % 2 else 0.25), 100.0) for i, w in enumerate(walls)]
    assert summarize(parent, fast, bound=0.05)[0]["wall_s"]["verdict"] == "ok"
    assert summarize(parent, slow, bound=0.05)[0]["wall_s"]["verdict"] == "worse"


def test_ab_bench_takes_the_spread_within_pairs():
    # each seed generates inputs of its own size, so the parent's runs
    # spread about 30% across seeds while each change run is within 0.1%
    # of the parent's run on its seed: the spread is the pairs' own
    walls = (1.00, 1.30, 0.90, 1.20, 1.05, 1.25, 0.95, 1.15, 1.10, 1.28)
    parent = [line(w, 100.0) for w in walls]
    change = [line(w * (1.0008 if i % 2 else 0.9993), 100.0) for i, w in enumerate(walls)]
    row = summarize(parent, change, bound=0.1)[0]["wall_s"]
    assert row["parent"][2] - row["parent"][1] > 0.1 * row["parent"][0]
    assert row["verdict"] == "ok" and not row["gain"]
