import importlib.util
import json
import weakref
from pathlib import Path

import pytest

from conftest import make_table
from embcat import analysis
from embcat.embio import Format, write_embeddings

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


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_ab_bench_summary_of_canned_result_lines():
    ab = _load("ab_bench")
    assert ab.parse_seeds("9301-9304") == [9301, 9302, 9303, 9304]
    assert ab.parse_seeds("7") == [7]

    def line(wall, rows, correct=True, failed=0):
        # the last stdout line of a bench/run.py run
        metrics = {"wall_s": {"value": wall, "unit": "s"}, "rows_per_s": {"value": rows, "unit": "1/s"}}
        return json.dumps({"correct": correct, "attempted": 4, "failed": failed, "metrics": metrics})

    parent = [line(w, 100.0) for w in (1.10, 1.20, 1.15, 1.30, 1.12, 1.18, 1.25, 1.14, 1.16, 1.22)]
    change = [line(w, r) for w, r in zip(
        (1.00, 1.05, 1.02, 1.20, 1.01, 1.21, 1.10, 1.00, 1.03, 1.08), [100.0] * 9 + [101.0])]
    change[3] = line(1.20, 100.0, correct=False, failed=1)
    pairs = [(json.loads(p), json.loads(c)) for p, c in zip(parent, change)]
    rows = {r["metric"]: r for r in ab.summarize(pairs, {"wall_s": "lower", "rows_per_s": "higher"})}
    wall = rows["wall_s"]
    assert wall["wins"] == 9 and wall["pairs"] == 10 and wall["gain"]
    assert wall["parent"][0] == pytest.approx(1.17) and wall["change"][0] == pytest.approx(1.04)
    assert wall["parent"][1:] == pytest.approx((1.1425, 1.215))
    # ties count for neither side
    assert rows["rows_per_s"]["wins"] == 1 and not rows["rows_per_s"]["gain"]
    text = ab.report(pairs, {"wall_s": "lower", "rows_per_s": "higher"})
    assert "change: 1 of 10 runs not correct, 1 of 40 operations failed" in text
    assert "parent: 0 of 10 runs not correct, 0 of 40 operations failed" in text
    # nine wins of ten, but the medians closer than the parent's quartiles
    close = [line(json.loads(p)["metrics"]["wall_s"]["value"] - 0.01, 100.0) for p in parent]
    close[0] = line(1.11, 100.0)
    pairs = [(json.loads(p), json.loads(c)) for p, c in zip(parent, close)]
    (row, _) = ab.summarize(pairs, {"wall_s": "lower", "rows_per_s": "higher"})
    assert row["wins"] == 9 and not row["gain"]
