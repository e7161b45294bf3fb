from collections import Counter

import numpy as np
import pytest

from embcat.corpus import TokenDataset, VocabCounts
from embcat.embio import EmbeddingTable, RandomBackfill, random_vector
from embcat.errors import DataError


def make_table(name, words, vectors) -> EmbeddingTable:
    return EmbeddingTable(name, tuple(words), np.asarray(vectors, dtype=np.float32))


def random_table(rng, name="t", n=None, dim=None) -> EmbeddingTable:
    """Gaussian random table with distinct single-word tokens."""
    n = int(rng.integers(3, 40)) if n is None else n
    dim = int(rng.integers(2, 16)) if dim is None else dim
    words = tuple(f"w{i:04d}" for i in range(n))
    vecs = rng.standard_normal((n, dim)).astype(np.float32)
    return EmbeddingTable(name, words, vecs)


def tables_equal(a: EmbeddingTable, b: EmbeddingTable) -> bool:
    """Equality on the data a file round-trip must preserve."""
    return a.words == b.words and a.dim == b.dim and np.array_equal(a.vectors, b.vectors)


def glove_text_reference(table: EmbeddingTable, header: bool = False) -> bytes:
    """The text writer's bytes built one value at a time with str(), which
    prints a float32 in its shortest round-trip form: the reference the
    block formatter must match byte for byte."""
    lines = [f"{len(table)} {table.dim}"] if header else []
    lines += [f"{w} " + " ".join(str(x) for x in row) for w, row in zip(table.words, table.vectors)]
    return "".join(line + "\n" for line in lines).encode("utf-8")


def ablated_reference(
    second: EmbeddingTable, first_vocab: set[str], kind: str, backfill: RandomBackfill
) -> EmbeddingTable:
    """Whole-table rewrite of the ablated table, the reference `combine`'s
    per-row ablation must agree with: same vocabulary and width, each row
    kept verbatim or replaced by the keyed random vector of its token.
    RandomSecond replaces every row, ComplementSecond the rows whose token
    is in first_vocab, MatchedSecond the rows whose token is not."""
    replace = {
        "RandomSecond": lambda w: True,
        "ComplementSecond": lambda w: w in first_vocab,
        "MatchedSecond": lambda w: w not in first_vocab,
    }[kind]
    mat = second.vectors.copy()
    for i, w in enumerate(second.words):
        if replace(w):
            mat[i] = random_vector(backfill, second.name, w, second.dim)
    return EmbeddingTable(second.name, second.words, mat)


def merge_counts(parts: list[VocabCounts], split: str = "other") -> VocabCounts:
    """Sum counts across datasets that share a normalization."""
    if not parts:
        raise ValueError("nothing to merge")
    norms = {p.normalization for p in parts}
    if len(norms) != 1:
        raise ValueError(f"cannot merge counts with mixed normalizations {sorted(norms)}")
    total: Counter[str] = Counter()
    for p in parts:
        total.update(p.counts)
    return VocabCounts(dict(total), normalization=parts[0].normalization, split=split)


def write_conll(dataset: TokenDataset, path) -> None:
    """Two-column token/label file that read_conll parses back verbatim."""
    for i, sent in enumerate(dataset.sentences):
        for tok, lab in zip(sent.tokens, sent.labels):
            for v in (tok, lab):
                if not v or v.split() != [v]:
                    raise DataError(
                        f"sentence {i}: value {v!r} cannot be written to a column file"
                    )
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for k, sent in enumerate(dataset.sentences):
            if k:
                f.write("\n")
            for tok, lab in zip(sent.tokens, sent.labels):
                f.write(f"{tok} {lab}\n")


@pytest.fixture
def toy_table():
    # the 3-token table used in the nearest-neighbor contract examples
    return make_table("toy", ["a", "b", "c"], [[1, 0, 0], [0, 1, 0], [1, 1, 0]])
