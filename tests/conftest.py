import mmap
import os
from collections import Counter

import numpy as np
import pytest

from embcat.corpus import TokenDataset, VocabCounts
from embcat.embio import (
    _MAX_TOKEN_BYTES,
    EmbeddingTable,
    RandomBackfill,
    _preallocate,
    _two_ints,
    log,
    random_vector,
)
from embcat.errors import DataError, utf8_input


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


def read_glove_text_reference(path, name, header: bool, strict: bool) -> EmbeddingTable:
    """The GloVe text reader one line at a time, with a Python split and an
    np.array per line: the reference the block reader must match table for
    table, warning for warning and error message for error message."""
    words: list[str] = []
    index: dict[str, int] = {}
    dups = 0
    dim: int | None = None
    declared: int | None = None
    mat: np.ndarray | None = None
    n = 0
    with utf8_input(path), open(path, encoding="utf-8", newline="\n") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.rstrip("\n").rstrip("\r")
            if lineno == 1 and header:
                hdr = _two_ints(line.encode("utf-8", "surrogateescape"))
                if hdr is None:
                    raise DataError(f"{path}:1: expected '<vocab> <dim>' header, got {line!r}")
                declared, dim = hdr
                if dim < 1:
                    raise DataError(f"{path}:1: header dim must be >= 1, got {dim}")
                fits = os.fstat(f.fileno()).st_size // (2 * dim + 1)
                mat = _preallocate(min(max(declared, 1), fits), dim)
                continue
            if not line:
                raise DataError(f"{path}:{lineno}: blank line inside embedding file")
            fields = line.split(" ")
            if dim is None:
                dim = len(fields) - 1
                if dim < 1:
                    raise DataError(f"{path}:{lineno}: expected token and vector, got {line!r}")
                mat = np.empty((1024, dim), np.float32)
            if len(fields) - 1 < dim:
                raise DataError(
                    f"{path}:{lineno}: expected {dim} vector values, found {len(fields) - 1}"
                )
            if len(fields) - 1 > dim:
                if strict:
                    raise DataError(
                        f"{path}:{lineno}: expected {dim} vector values, found {len(fields) - 1}"
                    )
                token = " ".join(fields[: len(fields) - dim])
            else:
                token = fields[0]
            if not token:
                raise DataError(f"{path}:{lineno}: empty token")
            try:
                vec = np.array(fields[len(fields) - dim :], dtype=np.float32)
            except ValueError:
                raise DataError(f"{path}:{lineno}: unparseable vector value") from None
            if not np.isfinite(vec).all():
                raise DataError(f"{path}:{lineno}: non-finite value for token {token!r}")
            if token in index:
                dups += 1
                continue
            if n == mat.shape[0]:
                grown = np.empty((mat.shape[0] * 2, dim), np.float32)
                grown[:n] = mat[:n]
                mat = grown
            mat[n] = vec
            index[token] = n
            words.append(token)
            n += 1
    if n == 0:
        raise DataError(f"{path}: no embedding records")
    if declared is not None and n + dups != declared:
        msg = f"{path}: header declares {declared} records, file holds {n + dups}"
        if strict:
            raise DataError(msg)
        log.warning(msg)
    if dups:
        log.warning("%s: dropped %d duplicate tokens (keep-first)", path, dups)
    return EmbeddingTable(name, tuple(words), mat[:n].copy(), n_duplicates=dups)


def read_w2v_binary_reference(path, name, strict: bool) -> EmbeddingTable:
    """The word2vec binary reader one record at a time, each row assigned
    from the mmap on its own: the reference the block reader must match
    table for table, warning for warning and error message for error
    message on files whose values are all finite."""
    if os.path.getsize(path) == 0:
        raise DataError(f"{path}: empty file")
    with open(path, "rb") as f, mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as mm:
        size = mm.size()
        nl = mm.find(b"\n", 0, 128)
        if nl < 0:
            raise DataError(f"{path}: missing '<vocab> <dim>' header line")
        hdr = _two_ints(mm[:nl])
        if hdr is None:
            raise DataError(f"{path}: malformed header {mm[:nl]!r}")
        declared, dim = hdr
        if declared < 1 or dim < 1:
            raise DataError(f"{path}: header declares vocab {declared}, dim {dim}")
        rec_bytes = 4 * dim
        words: list[str] = []
        index: dict[str, int] = {}
        dups = 0
        # preallocate no more rows than the file can hold: each record is
        # at least a token byte, a space and dim float32 values
        fits = (size - nl - 1) // (rec_bytes + 2)
        mat = _preallocate(min(declared, fits), dim)
        n = 0
        pos = nl + 1
        read_recs = 0
        while read_recs < declared:
            while pos < size and mm[pos] in (0x20, 0x0A):
                pos += 1
            if pos >= size:
                break
            sep = mm.find(b" ", pos, min(pos + _MAX_TOKEN_BYTES, size))
            if sep < 0:
                raise DataError(
                    f"{path}: record {read_recs}: no token terminator within "
                    f"{_MAX_TOKEN_BYTES} bytes; file looks corrupt"
                )
            try:
                token = mm[pos:sep].decode("utf-8")
            except UnicodeDecodeError:
                raise DataError(f"{path}: record {read_recs}: token is not valid UTF-8") from None
            if not token:
                raise DataError(f"{path}: record {read_recs}: empty token")
            end = sep + 1 + rec_bytes
            if end > size:
                raise DataError(f"{path}: record for token {token!r} truncated")
            read_recs += 1
            if token in index:
                dups += 1
                pos = end
                continue
            # assign straight from the buffer view; holding it in a local
            # would pin the mmap open past the with block
            mat[n] = np.frombuffer(mm, dtype="<f4", count=dim, offset=sep + 1)
            pos = end
            index[token] = n
            words.append(token)
            n += 1
        if n == 0:
            raise DataError(f"{path}: no embedding records")
        if read_recs < declared:
            msg = f"{path}: header declares {declared} records, file holds {read_recs}"
            if strict:
                raise DataError(msg)
            log.warning(msg)
        else:
            tail = mm[pos:size].strip(b" \n")
            if tail:
                msg = f"{path}: {len(tail)} unexpected bytes after final record"
                if strict:
                    raise DataError(msg)
                log.warning(msg)
        finite = np.isfinite(mat[:n])
        if not finite.all():
            bad = int(np.nonzero(~finite.all(axis=1))[0][0])
            raise DataError(f"{path}: non-finite value for token {words[bad]!r}")
        if dups:
            log.warning("%s: dropped %d duplicate tokens (keep-first)", path, dups)
    # the mmap is closed and no view of mat exists, so it may shrink in place
    mat.resize((n, dim), refcheck=False)
    return EmbeddingTable(name, tuple(words), mat, n_duplicates=dups)


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
