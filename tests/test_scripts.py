import importlib.util
from pathlib import Path

from conftest import make_table
from embcat.embio import Format, write_embeddings

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_reproduce_overlap_table_reports_an_unscored_pair(tmp_path, capsys):
    # senna and google-news share no corpus type, so recommend leaves their
    # pair unscored; every pair with glove-6b shares two. Each table holds
    # k=10 other rows besides its corpus types
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
        write_embeddings(make_table("t", words, vectors), tmp_path / file, fmt)
    (tmp_path / "conll2003").mkdir()
    for split in ("train", "valid"):
        (tmp_path / "conll2003" / f"{split}.txt").write_text("a O\nb O\nc O\nd O\n")
    spec = importlib.util.spec_from_file_location("script", SCRIPTS / "reproduce_overlap_table.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    code = script.main(["--data", str(tmp_path), "--threads", "1"])
    out = capsys.readouterr().out
    # the tiny tables drift from the reference cells
    assert code == 1
    assert "senna + google-news: rejected (overlap not scored, min attested 50.0)" in out
