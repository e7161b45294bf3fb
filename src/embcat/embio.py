"""Embedding table I/O and lookup.

Readers and writers for the two common distribution formats of pre-trained
word vectors (GloVe-style text, word2vec binary), plus normalized token
lookup and deterministic random backfill for types a table does not cover.

Format notes:
  - GloVe text: UTF-8, one record per line: token, then dim space-separated
    decimal reals, LF-terminated. Header variant: first line "<vocab> <dim>".
    The writer prints each value as numpy's str() of the float32 does.
  - word2vec binary: ASCII header "<vocab> <dim>\\n", then per record the
    token bytes, one 0x20 separator, dim little-endian float32 values and
    optionally a trailing 0x0A. The reader accepts both trailing-LF and
    no-LF records; the writer always emits the trailing LF.

Values are stored at single precision, which is what both formats carry.
"""

from __future__ import annotations

import codecs
import functools
import hashlib
import itertools
import logging
import os
import re
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DataError, utf8_input

log = logging.getLogger(__name__)

# longest token we are willing to scan for in a binary record before
# concluding the file is corrupt
_MAX_TOKEN_BYTES = 4096


class Format(Enum):
    GLOVE_TEXT = "GloveText"
    GLOVE_TEXT_HEADER = "GloveTextWithHeader"
    WORD2VEC_BINARY = "Word2VecBinary"


@dataclass(frozen=True)
class RandomBackfill:
    """Keyed uniform random vectors for types unattested in a table.

    The vector for (seed, table name, token, dim) is a pure function of
    those values, so construction order and thread count never matter.
    """

    seed: int
    low: float = -0.25
    high: float = 0.25

    def __post_init__(self):
        if not -(2**63) <= self.seed < 2**64:
            raise ValueError(f"seed {self.seed} does not fit in 64 bits")
        # numpy's uniform draw needs a finite width
        if not (self.low < self.high and np.isfinite(self.high - self.low)):
            raise ValueError(f"need low < high, high - low finite, got [{self.low}, {self.high})")
        # the draws are cast to float32: an end within ±big, the greatest
        # float32 as printed, rounds to a finite float32
        big = 3.4028235e38
        if not -big <= self.low < self.high <= big:
            raise ValueError(f"need both ends in [-{big}, {big}], got [{self.low}, {self.high})")
        lo, hi = _float32_range(self.low, self.high)
        if lo > hi:
            raise ValueError(f"no float32 value lies in [{self.low}, {self.high})")


@functools.lru_cache(maxsize=None)
def _float32_range(low: float, high: float) -> tuple[np.float32, np.float32]:
    """The least and the greatest float32 values inside [low, high)."""
    lo = np.float32(low)
    if float(lo) < low:
        lo = np.nextafter(lo, np.float32(np.inf))
    hi = np.float32(high)
    if float(hi) >= high:
        hi = np.nextafter(hi, np.float32(-np.inf))
    return lo, hi


def random_vectors(backfill: RandomBackfill, table_name: str, tokens, dim: int) -> np.ndarray:
    """The len(tokens)×dim float32 matrix whose row i is the keyed backfill
    vector of tokens[i]: entries uniform in [low, high).

    A token's key is the 8-byte blake2b digest of the seed modulo 2**64 (8
    bytes, little-endian), the length of the UTF-8 table name (4 bytes,
    little-endian), the name and the UTF-8 token, read as a little-endian
    integer. Its row is numpy's `default_rng(key).uniform(low, high, dim)`
    cast to float32 and clamped into [low, high), so identical inputs give
    identical vectors across runs, call orders and batches. The tokens are
    keyed one by one, and the rows drawn together.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    name_b = table_name.encode("utf-8")
    prefix = hashlib.blake2b(digest_size=8)
    prefix.update((backfill.seed % 2**64).to_bytes(8, "little"))
    prefix.update(len(name_b).to_bytes(4, "little"))
    prefix.update(name_b)
    digests = []
    for token in tokens:
        h = prefix.copy()
        h.update(token.encode("utf-8"))
        digests.append(h.digest())
    keys = np.frombuffer(b"".join(digests), "<u8").astype(np.uint64)
    return _uniform_rows(keys, backfill.low, backfill.high, dim)


def _uniform_rows(keys: np.ndarray, low: float, high: float, dim: int) -> np.ndarray:
    """Row i is numpy's `default_rng(keys[i]).uniform(low, high, dim)`
    cast to float32 and clamped into [low, high), for uint64 keys.

    The rows are drawn in blocks of _DRAW_KEYS keys. A block runs numpy's
    published algorithms for all its keys at once: SeedSequence over the
    key's 32-bit words, PCG64 seeding, then the XSL-RR 128/64 outputs as
    `uniform` turns them into float64 values; the bits equal those of a
    generator built per key.
    """
    out = np.empty((len(keys), dim), np.float32)
    width = float(high) - float(low)
    for a in range(0, len(keys), _DRAW_KEYS):
        block = slice(a, a + _DRAW_KEYS)
        hi, lo, inc_hi, inc_lo = _pcg64_seed(keys[block])
        for j in range(dim):
            hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
            # XSL-RR: the xor of the state's halves, rotated right by its
            # top 6 bits; then next_double and low + (high - low) * u
            x = hi ^ lo
            rot = hi >> 58
            x = (x >> rot) | (x << ((64 - rot) & 63))
            out[block, j] = float(low) + width * ((x >> 11).astype(np.float64) * 2.0**-53)
    # the cast rounds draws within half a float32 step of an end onto or
    # past it; clamping moves only those values
    return out.clip(*_float32_range(low, high), out=out)


# keys per draw block: a block's temporaries are a few columns of 32 KB
_DRAW_KEYS = 1 << 12

# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _pcg64_seed(keys: np.ndarray):
    """The PCG64 state and increment, as hi/lo uint64 arrays, of
    `default_rng(key)` for each uint64 key."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return r ^ (r >> 16)

    # SeedSequence's pool of four words over the key's 32-bit words, least
    # significant first. A key below 2**32 has one word; the pool then
    # hashes 0 into its second word, as a zero high word does.
    zero = np.zeros(len(keys), np.uint32)
    words = [(keys & _MASK32).astype(np.uint32), (keys >> 32).astype(np.uint32), zero, zero]
    pool = [hashmix(w) for w in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # generate_state(4, uint64): eight words cycling over the pool, paired
    # little-endian
    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state.append((value ^ (value >> 16)).astype(np.uint64))
    seed_hi, seed_lo, seq_hi, seq_lo = (state[k] | (state[k + 1] << 32) for k in range(0, 8, 2))
    # set_seed: inc = seq << 1 | 1; state = 0, step, add the seed, step
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    inc_lo = (seq_lo << 1) | 1
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < inc_lo)
    return (*_pcg64_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo)


def _pcg64_step(hi, lo, inc_hi, inc_lo):
    """state * multiplier + inc modulo 2**128 on hi/lo uint64 arrays; the
    high word of lo * multiplier takes four 32×32-bit products."""
    l0, l1 = lo & _MASK32, lo >> 32
    m0, m1 = _PCG_MULT_LO & _MASK32, _PCG_MULT_LO >> 32
    p00, p01, p10 = l0 * m0, l0 * m1, l1 * m0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry = l1 * m1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    new_lo = lo * _PCG_MULT_LO + inc_lo
    new_hi = carry + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


@dataclass
class EmbeddingTable:
    """A named vocabulary with one dense float32 vector row per token.

    The public constructor checks the whole structure (non-empty name,
    unique tokens, finite values, consistent shape), builds the token index
    and freezes the matrix. The tables the package builds (readers, `combine`,
    `zero_token_row`) are checked where their data enters and `_adopt`ed
    unchecked. Treat instances as immutable. `n_duplicates` records source
    rows dropped by keep-first deduplication during parsing.
    """

    name: str
    words: tuple[str, ...]
    vectors: np.ndarray
    n_duplicates: int = 0
    dim: int = field(init=False)
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.name:
            raise ValueError("table name must be non-empty")
        self.words = tuple(self.words)
        vec = np.ascontiguousarray(self.vectors, dtype=np.float32)
        if vec.ndim != 2:
            raise ValueError(f"vectors must be 2-D, got shape {vec.shape}")
        n, dim = vec.shape
        if n < 1 or dim < 1:
            raise ValueError(f"need at least one row and one column, got shape {vec.shape}")
        if len(self.words) != n:
            raise ValueError(f"{len(self.words)} words but {n} vector rows")
        finite = np.isfinite(vec)
        if not finite.all():
            bad = int(np.nonzero(~finite.all(axis=1))[0][0])
            raise ValueError(f"non-finite vector for token {self.words[bad]!r} (row {bad})")
        index: dict[str, int] = {}
        for i, w in enumerate(self.words):
            if w in index:
                raise ValueError(f"duplicate token {w!r} (rows {index[w]} and {i})")
            index[w] = i
        vec.setflags(write=False)
        self.vectors = vec
        self.dim = dim
        self.index = index

    @classmethod
    def _adopt(cls, name, words, vectors, index, n_duplicates=0) -> EmbeddingTable:
        """The table of checked parts, taken as they are: a non-empty name,
        n unique `words` in row order with the `index` of each one's row, and
        a C-contiguous n×dim float32 matrix of finite values (n, dim >= 1)."""
        table = cls.__new__(cls)
        vectors.setflags(write=False)
        table.name = name
        table.words = words
        table.vectors = vectors
        table.n_duplicates = n_duplicates
        table.dim = vectors.shape[1]
        table.index = index
        return table

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def row(self, token: str) -> np.ndarray:
        return self.vectors[self.index[token]]


def resolve_rows(table: EmbeddingTable, tokens, fold_case: bool = True) -> np.ndarray:
    """The row of each token under the lookup chain: the token as written,
    then, when fold_case, `token.lower()` for matching cased text against
    lowercased vocabularies. -1 where neither is found."""
    index = table.index
    if fold_case:
        rows = [index[t] if t in index else index.get(t.lower(), -1) for t in tokens]
    else:
        rows = [index.get(t, -1) for t in tokens]
    return np.array(rows, dtype=np.intp)


# ---------------------------------------------------------------------------
# format detection


def _two_ints(line: bytes) -> tuple[int, int] | None:
    try:
        parts = line.decode("ascii").split()
    except UnicodeDecodeError:
        return None
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        return None
    return int(parts[0]), int(parts[1])


def _is_text_record(line: bytes) -> bool:
    """token followed by at least one decimal real"""
    try:
        parts = line.decode("utf-8").split(" ")
    except UnicodeDecodeError:
        return False
    parts = [p for p in parts if p]
    if len(parts) < 2:
        return False
    try:
        for p in parts[1:]:
            float(p)
    except ValueError:
        return False
    return True


def detect_format(path) -> Format:
    """Classify an embedding file by inspecting its first bytes.

    Two leading ASCII integers followed by a parseable text record mean the
    header text variant; two integers followed by anything else mean
    word2vec binary; a token plus reals means plain GloVe text.
    """
    with open(path, "rb") as f:
        head = f.read(1 << 20)
    if not head.strip():
        raise DataError(f"{path}: empty file")
    nl = head.find(b"\n")
    if nl < 0:
        nl = len(head)
    first = head[:nl].rstrip(b"\r")
    rest = head[nl + 1 :]
    if _two_ints(first) is not None:
        second_nl = rest.find(b"\n")
        second = rest[: second_nl if second_nl >= 0 else len(rest)]
        if _is_text_record(second.rstrip(b"\r")):
            return Format.GLOVE_TEXT_HEADER
        return Format.WORD2VEC_BINARY
    if _is_text_record(first):
        return Format.GLOVE_TEXT
    raise DataError(f"{path}: unrecognized embedding format; first bytes {head[:40]!r}")


# ---------------------------------------------------------------------------
# readers


def read_embeddings(
    path,
    fmt: Format | None = None,
    *,
    name: str | None = None,
    strict: bool = False,
) -> EmbeddingTable:
    """Parse an embedding file into a validated table.

    Row order follows file order. Duplicate tokens are resolved keep-first
    and counted on the table. strict=True turns header/vocabulary-count
    mismatches and ragged text lines into errors instead of warnings.
    """
    if name is None:
        name = Path(path).stem or str(path)
    elif not name:
        raise ValueError("table name must be non-empty")
    if fmt is None:
        fmt = detect_format(path)
    if fmt is Format.WORD2VEC_BINARY:
        return _read_w2v_binary(path, name, strict)
    return _read_glove_text(path, name, fmt is Format.GLOVE_TEXT_HEADER, strict)


def _preallocate(rows: int, dim: int) -> np.ndarray:
    # with room for no row none is ever stored, and a header dim too large
    # for any allocation must not reach the shape
    return np.empty((rows, dim if rows else 0), np.float32)


# bytes per text read; the whole lines of each read are one block, parsed
# beside the matrix, so a block stays a few MB
_READ_BYTES = 1 << 20
# the bytes a plain line's vector values may hold besides their spaces, and
# the line end: on these, numpy's loadtxt and float() accept the same text
# and read the same value (loadtxt alone takes \x1c-\x1f as whitespace,
# float() alone takes 1_0 or Unicode digits)
_VALUE_BYTES = b"0123456789+-.eE\r\n"


def _read_glove_text(path, name, header: bool, strict: bool) -> EmbeddingTable:
    with utf8_input(path), open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        texts = _line_blocks(f)
        text = next(texts, None)
        if text is None:
            raise DataError(f"{path}: no embedding records")
        line = text.partition("\n")[0].rstrip("\r")
        declared = None
        if header:
            hdr = _two_ints(line.encode("utf-8", "surrogateescape"))
            if hdr is None:
                raise DataError(f"{path}:1: expected '<vocab> <dim>' header, got {line!r}")
            declared, dim = hdr
            if dim < 1:
                raise DataError(f"{path}:1: header dim must be >= 1, got {dim}")
            want = max(declared, 1)
            # the lines after the header, if the first block holds any
            texts = itertools.chain(text.split("\n", 1)[1:], texts)
        else:
            if not line:
                raise DataError(f"{path}:1: blank line inside embedding file")
            dim = len(line.split(" ")) - 1
            if dim < 1:
                raise DataError(f"{path}:1: expected token and vector, got {line!r}")
            # the rows the first block's share of the file suggests, and a
            # quarter to spare
            want = size * (text.count("\n") + 1) // len(text) * 5 // 4 + 1
            texts = itertools.chain([text], texts)
        # preallocate no more rows than the file can hold: each record is at
        # least a token byte plus dim " v" pairs, so with no room for one, no
        # record can parse and none is ever stored
        rows = min(want, size // (2 * dim + 1))
        blocks = _text_blocks(path, texts, int(header), dim, strict)
        return _collect(path, name, blocks, rows, dim, declared, strict)


def _collect(path, name, blocks, rows: int, dim: int, declared: int | None, strict: bool):
    """The table of `blocks`, (tokens, finite float32 values) of records in
    file order, kept first per token in an index and a matrix preallocated
    for `rows` rows; then the checks against the header's `declared` count."""
    index: dict[str, int] = {}
    dups = 0
    mat = _preallocate(rows, dim)
    for tokens, vals in blocks:
        # keep-first: each token's first row in the block, unless an
        # earlier block holds the token
        first = dict(zip(reversed(tokens), range(len(tokens) - 1, -1, -1)))
        for token in first.keys() & index.keys():
            del first[token]
        if len(first) < len(tokens):
            keep = sorted(first.values())
            dups += len(tokens) - len(keep)
            tokens = [tokens[i] for i in keep]
            vals = vals[keep]
        n = len(index)
        if n + len(vals) > len(mat):
            mat.resize((max(n + len(vals), len(mat) * 3 // 2), dim), refcheck=False)
        mat[n : n + len(vals)] = vals
        index.update(zip(tokens, range(n, n + len(tokens))))
        del tokens, vals  # free the block before the next one is parsed
    n = len(index)
    if n == 0:
        raise DataError(f"{path}: no embedding records")
    if declared is not None and n + dups != declared:
        msg = f"{path}: header declares {declared} records, file holds {n + dups}"
        if strict:
            raise DataError(msg)
        log.warning(msg)
    if dups:
        log.warning("%s: dropped %d duplicate tokens (keep-first)", path, dups)
    # no view of mat exists, so it may shrink in place
    mat.resize((n, dim), refcheck=False)
    return EmbeddingTable._adopt(name, tuple(index), mat, index, dups)


def _text_blocks(path, texts, lineno: int, dim: int, strict: bool):
    """Parse each run of lines in `texts`, from line lineno + 1 on: with
    numpy's loadtxt if all its lines are plain, else with _parse_lines,
    which reads each line on its own and names the first bad one."""
    for text in texts:
        lines = text.split("\n")
        block = _plain_block(text, lines, dim)
        if block is None:
            block = _parse_lines(path, lineno, lines, dim, strict)
        lineno += len(lines)
        yield block


def _line_blocks(f):
    """The file's text in runs of whole lines of about _READ_BYTES, each
    without its last "\\n". Each read is decoded whole, so an undecodable
    byte in it is found before any fault in its lines."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    pending: list[str] = []
    while data := f.read(_READ_BYTES):
        text = decoder.decode(data)
        cut = text.rfind("\n")
        if cut < 0:
            pending.append(text)
            continue
        yield "".join([*pending, text[:cut]])
        pending = [text[cut + 1 :]]
    rest = "".join(pending) + decoder.decode(b"", final=True)
    if rest:
        yield rest


def _plain_block(text: str, lines: list[str], dim: int):
    """(tokens, float32 values) of a block whose lines are all plain, else
    None. A plain line is a non-empty token and dim values, each after one
    space, that hold only _VALUE_BYTES and that loadtxt reads as finite; it
    may end in one CR. `lines` are the block `text` split at "\\n"."""
    if "\r" in text:
        lines = [line.removesuffix("\r") for line in lines]
        if any("\r" in line for line in lines):
            return None
    # a plain line holds at least a character per space
    if dim * len(lines) > len(text):
        return None
    tokens = [line.partition(" ")[0] for line in lines]
    if "" in tokens:
        return None
    try:
        vals = np.loadtxt(
            lines,
            dtype=np.float32,
            usecols=range(1, dim + 1),
            delimiter=" ",
            comments=None,
            quotechar=None,
            ndmin=2,
        )
    except ValueError:
        return None
    # a row for every line means at least dim spaces on each. Deleting the
    # value bytes leaves the spaces and every byte outside _VALUE_BYTES: dim
    # spaces a line plus the tokens' own such bytes exactly when each line
    # has dim spaces and plain values (loadtxt drops extra columns)
    others = len("".join(tokens).encode("utf-8").translate(None, _VALUE_BYTES))
    left = len(text.encode("utf-8").translate(None, _VALUE_BYTES))
    if len(vals) != len(lines) or left != dim * len(lines) + others:
        return None
    if not np.isfinite(vals).all():
        return None
    return tokens, vals


def _parse_lines(path, start: int, lines: list[str], dim: int, strict: bool):
    """(tokens, float32 values) of a block read line by line, its first
    line being line start + 1 of the file; the first bad line raises."""
    tokens: list[str] = []
    vecs: list[np.ndarray] = []
    for lineno, line in enumerate(lines, start + 1):
        line = line.rstrip("\r")
        if not line:
            raise DataError(f"{path}:{lineno}: blank line inside embedding file")
        fields = line.split(" ")
        if len(fields) - 1 < dim:
            raise DataError(
                f"{path}:{lineno}: expected {dim} vector values, found {len(fields) - 1}"
            )
        if len(fields) - 1 > dim:
            # GloVe 840B ships a handful of records whose token contains
            # spaces; fold the extra leading fields back into the token
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
            with np.errstate(over="ignore"):
                vec = np.array(fields[len(fields) - dim :], dtype=np.float32)
        except ValueError:
            raise DataError(f"{path}:{lineno}: unparseable vector value") from None
        if not np.isfinite(vec).all():
            raise DataError(f"{path}:{lineno}: non-finite value for token {token!r}")
        tokens.append(token)
        vecs.append(vec)
    return tokens, np.array(vecs)


def _read_w2v_binary(path, name, strict: bool) -> EmbeddingTable:
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size == 0:
            raise DataError(f"{path}: empty file")
        head = f.read(128)
        nl = head.find(b"\n")
        if nl < 0:
            raise DataError(f"{path}: missing '<vocab> <dim>' header line")
        hdr = _two_ints(head[:nl])
        if hdr is None:
            raise DataError(f"{path}: malformed header {head[:nl]!r}")
        declared, dim = hdr
        if declared < 1 or dim < 1:
            raise DataError(f"{path}: header declares vocab {declared}, dim {dim}")
        # preallocate no more rows than the file can hold: each record is
        # at least a token byte, a space and dim float32 values
        rows = min(declared, (size - nl - 1) // (4 * dim + 2))
        blocks = _w2v_blocks(path, f, head[nl + 1 :], size - nl - 1, declared, dim, strict)
        return _collect(path, name, blocks, rows, dim, declared, strict)


# a record's head: the spaces and LFs before it, then its token, of 1 to
# _MAX_TOKEN_BYTES - 1 bytes with no space and no LF first
_W2V_HEAD = rb"[ \n]*[^ \n][^ ]{0,%d}" % (_MAX_TOKEN_BYTES - 2)
_SPACES = re.compile(rb"[ \n]*")


def _w2v_blocks(path, f, buf: bytes, size: int, declared: int, dim: int, strict: bool):
    """(tokens, float32 values) of up to `declared` records of `dim` values
    from the file `f`, whose `size` bytes from here on begin with `buf`, in
    blocks of as many records as hold _READ_BYTES of values; bytes after
    those records are reported.

    The file is read with plain reads of at most _READ_BYTES, each no larger
    than the block still needs, so the buffer holds about one block. One
    pattern, a whole record or else the rest of the buffer, is scanned with
    `findall` from the first unparsed byte: each match starts where the last
    ended, so no byte is skipped, and each whole record's head (the spaces
    and LFs before it and its token) gives its length. A block's tokens are
    decoded in one call and its rows gathered with one index. The record at
    which the scan stops is checked on its own (`_w2v_fault`): the file is
    read on while it may yet be whole, or it raises the error that reading
    one record at a time gives, after any error of an earlier record of its
    block and before the block's values are checked.
    """
    width = 4 * dim
    per_block = -(-_READ_BYTES // width)
    unread = size - len(buf)
    # a pattern only for records the file can hold; re refuses repeat
    # counts from 2**32 - 1 on, so a wider payload is matched in parts
    whole = width + 2 <= size
    if whole:
        q, r = divmod(width, 1 << 30)
        body = b"(?:.{%d}){%d}.{%d}" % (1 << 30, q, r) if q else b".{%d}" % r
        record = re.compile(b"(%s) %s|.+" % (_W2V_HEAD, body), re.DOTALL)
    buf = bytearray(buf)
    heads: list[bytes] = []  # of the whole records in buf[:end], not yet in a block
    end = 0
    read = 0
    while read < declared:
        need = min(per_block, declared - read)
        fault = None
        while len(heads) < need:
            if whole:
                got = record.findall(buf, end)
                if got and not got[-1]:
                    got.pop()  # the rest of the buffer
                heads += got
                end += sum(map(len, got)) + (width + 1) * len(got)
                if len(heads) >= need:
                    break
            start = _SPACES.match(buf, end).end()
            if start < len(buf):
                fault = _w2v_fault(path, buf, start, unread, width, read + len(heads))
                if fault:
                    break
            else:
                # only spaces and LFs are left: drop them
                del buf[end:]
                if not unread:
                    break
            # no more than the block still needs, so it is about all
            # that the buffer holds
            want = (need - len(heads)) * (width + 2) - (len(buf) - end)
            data = f.read(min(_READ_BYTES, max(want, _MAX_TOKEN_BYTES)))
            unread -= len(data)
            buf += data
        block, heads = heads[:need], heads[need:]
        tokens = _w2v_tokens(path, block, read)
        if fault:
            raise fault
        if not block:
            break
        vals, n = _w2v_rows(buf, block, width)
        del buf[:n]
        end -= n
        read += len(block)
        bad = np.flatnonzero(~np.isfinite(vals).all(axis=1))
        if len(bad):
            raise DataError(f"{path}: non-finite value for token {tokens[bad[0]]!r}")
        yield tokens, vals
        del tokens, vals  # the caller has copied the block
    if read == declared:
        tail = _w2v_tail(buf, f)
        if tail:
            msg = f"{path}: {tail} unexpected bytes after final record"
            if strict:
                raise DataError(msg)
            log.warning(msg)


def _w2v_fault(path, buf, start: int, unread: int, width: int, record: int):
    """The error of the record whose token starts at buf[start], by the
    record-at-a-time checks in their order, or None while more of the
    file's `unread` bytes may make it whole."""
    sep = buf.find(b" ", start, start + _MAX_TOKEN_BYTES)
    if sep < 0:
        if unread and start + _MAX_TOKEN_BYTES > len(buf):
            return None
        return DataError(
            f"{path}: record {record}: no token terminator within "
            f"{_MAX_TOKEN_BYTES} bytes; file looks corrupt"
        )
    try:
        token = buf[start:sep].decode("utf-8")
    except UnicodeDecodeError:
        return DataError(f"{path}: record {record}: token is not valid UTF-8")
    if sep + 1 + width > len(buf) + unread:
        return DataError(f"{path}: record for token {token!r} truncated")
    return None


def _w2v_tokens(path, heads: list[bytes], first: int) -> list[str]:
    """The tokens of record heads, decoded at once; the first that is not
    UTF-8 raises, named by its record number from `first` on."""
    tokens = [h.lstrip(b" \n") for h in heads]
    try:
        return b" ".join(tokens).decode("utf-8").split(" ") if tokens else []
    except UnicodeDecodeError:
        for i, token in enumerate(tokens):
            try:
                token.decode("utf-8")
            except UnicodeDecodeError:
                raise DataError(f"{path}: record {first + i}: token is not valid UTF-8") from None
        raise


def _w2v_rows(buf, heads: list[bytes], width: int):
    """The float32 rows of the consecutive whole records at the start of
    `buf` with these heads, gathered with one index, and their bytes."""
    ends = np.cumsum(np.fromiter(map(len, heads), np.intp, len(heads)) + (width + 1))
    windows = np.lib.stride_tricks.sliding_window_view(np.frombuffer(buf, np.uint8), width)
    return windows[ends - width].view("<f4"), int(ends[-1])


def _w2v_tail(rest, f) -> int:
    """The length of `rest` and the file's remaining bytes, without the
    spaces and LFs at either end, read with plain reads."""
    first = last = None
    offset = 0
    for chunk in itertools.chain([bytes(rest)], iter(functools.partial(f.read, _READ_BYTES), b"")):
        core = chunk.lstrip(b" \n")
        if core:
            if first is None:
                first = offset + len(chunk) - len(core)
            last = offset + len(chunk.rstrip(b" \n"))
        offset += len(chunk)
    return 0 if first is None else last - first


# ---------------------------------------------------------------------------
# writers


@contextmanager
def atomic_output(path):
    """Write bytes to `path` through a temp file beside it that replaces
    `path` only when the block succeeds and is removed when it raises. A
    target that exists but is not a regular file, such as a device, is
    refused: the rename would replace it."""
    if os.path.exists(path) and not os.path.isfile(path):
        raise DataError(f"{path}: output is not a regular file")
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "xb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _check_token_writable(token: str, fmt: Format):
    if not token or " " in token or "\n" in token:
        raise DataError(f"token {token!r} cannot be written: empty or contains space/newline")
    # the binary reader looks for a token's terminator within _MAX_TOKEN_BYTES
    if fmt is Format.WORD2VEC_BINARY and (n := len(token.encode())) >= _MAX_TOKEN_BYTES:
        raise DataError(f"token {token[:32]!r}... cannot be written as word2vec binary: "
                        f"{n} UTF-8 bytes, over {_MAX_TOKEN_BYTES - 1}")


def write_embeddings(table: EmbeddingTable, path, fmt: Format) -> str:
    """Write a table so that reading the file back reproduces it exactly
    (words, dim, and float32 vector values). Returns the sha256 hex digest
    of the bytes written (see write_hashed)."""
    for token in table.words:
        _check_token_writable(token, fmt)
    if fmt is Format.WORD2VEC_BINARY:
        chunks = _w2v_binary_chunks(table)
    else:
        chunks = _glove_text_chunks(table, header=fmt is Format.GLOVE_TEXT_HEADER)
    return write_hashed(path, chunks)


def write_hashed(path, chunks) -> str:
    """Write the byte `chunks` to `path` through atomic_output. Returns the
    sha256 hex digest of the bytes written, hashed as they are written."""
    h = hashlib.sha256()
    with atomic_output(path) as f:
        for chunk in chunks:
            h.update(chunk)
            f.write(chunk)
    return h.hexdigest()


# values per write block: the text formatter's temporaries stay a few MB
_WRITE_VALUES = 1 << 16


def _row_blocks(table: EmbeddingTable):
    """(tokens, vectors) of consecutive row blocks of about _WRITE_VALUES values."""
    rows = max(1, _WRITE_VALUES // table.dim)
    for a in range(0, len(table), rows):
        yield table.words[a : a + rows], table.vectors[a : a + rows]


def _w2v_binary_chunks(table: EmbeddingTable):
    yield f"{len(table)} {table.dim}\n".encode("ascii")
    for words, rows in _row_blocks(table):
        le = rows.astype("<f4", copy=False)
        yield b"".join(
            part
            for token, row in zip(words, le)
            for part in (token.encode("utf-8"), b" ", row.tobytes(), b"\n")
        )


def _glove_text_chunks(table: EmbeddingTable, header: bool):
    if header:
        yield f"{len(table)} {table.dim}\n".encode("ascii")
    for words, rows in _row_blocks(table):
        sep = np.full(rows.shape, ord(" "), np.uint8)
        sep[:, -1] = ord("\n")
        text, lengths = _format_float32(rows.ravel(), sep.ravel())
        tokens = [w.encode("utf-8") for w in words]
        # each row is its token and a space, then its values' text: mark
        # the token bytes and fill both kinds of byte in order
        seg = np.empty(2 * len(tokens), np.intp)
        seg[0::2] = [len(t) + 1 for t in tokens]
        seg[1::2] = lengths.reshape(rows.shape).sum(axis=1)
        is_token = np.repeat(np.tile([True, False], len(tokens)), seg)
        out = np.empty(is_token.size, np.uint8)
        out[is_token] = np.frombuffer(b" ".join(tokens) + b" ", np.uint8)
        out[~is_token] = text
        yield out


# ---------------------------------------------------------------------------
# float32 text: the bytes numpy's str() gives each value, a block at a time
#
# str(np.float32(x)) prints the shortest decimal that reads back as x (the
# shortest round-trip rule of Steele & White; Ryu, Adams 2018), positional
# for 1e-4 <= |x| < 1e6 and d.ddde+XX otherwise. _shortest_digits picks those
# digits in float64 arithmetic; the few values it cannot decide safely there
# are left to str() itself.

# 10**t, correctly rounded, at _POW10[t + _P10]
_P10 = 64
_POW10 = np.array([float(f"1e{t}") for t in range(-_P10, _P10)])
_POW10_INT = 10 ** np.arange(19, dtype=np.int64)
# a scaled value y = v * 10**t carries at most 2.3e-16 * y of float64
# rounding error (two roundings); a comparison decided by less than
# _MARGIN * y is not trusted
_MARGIN = 2.0**-48


def _shortest_digits(x: np.ndarray):
    """Shortest round-trip digits of float32 values `x`: integer digits m,
    their count n and the decimal exponent k of the first digit, so that
    |x| prints as m * 10**(k - n + 1); and a mask of the values left to str():
    ±0.0, powers of two (their rounding interval is asymmetric) and any value
    whose digits hinge on a comparison closer than _MARGIN allows."""
    bits = x.view(np.uint32)
    slow = (bits & 0x7FFFFF) == 0
    v = np.where(slow, 1.5, np.abs(x.astype(np.float64)))
    # the midpoints to the float32 neighbours lie at v ± half, exact in float64
    biased = ((bits >> 23) & 0xFF).astype(np.int32)
    half = np.ldexp(1.0, np.maximum(biased, 1) - 151)
    k = np.floor(np.log10(v)).astype(np.intp)
    k += v >= np.take(_POW10, k + 1 + _P10)
    k -= v < np.take(_POW10, k + _P10)
    # n digits suffice when the multiple of 10**(k - n + 1) nearest to v lies
    # strictly inside v ± half; then n + 1 digits do too, and 9 always do,
    # so four bisection steps find the fewest
    lo = np.ones_like(k)
    hi = np.full_like(k, 9)
    for _ in range(4):
        n = (lo + hi) // 2
        p = np.take(_POW10, n - 1 - k + _P10)
        y = v * p
        off = np.abs(y - np.rint(y))
        h = half * p
        slow |= np.abs(off - h) < _MARGIN * y
        ok = off < h
        hi = np.where(ok, n, hi)
        lo = np.where(ok, lo, n + 1)
    n = hi
    y = v * np.take(_POW10, n - 1 - k + _P10)
    m = np.rint(y)
    # a digit tie: which neighbour wins is str()'s choice
    slow |= np.abs(np.abs(y - m) - 0.5) < _MARGIN * y
    # only one digit can round up to the next decade (9.7 -> 10 -> 1e1)
    carry = m >= np.take(_POW10, n + _P10)
    k += carry
    m = np.where(carry, 1.0, m)
    return m.astype(np.int64), n, k, slow


# Text layout: one row of 28 bytes per value, filled as 7 little-endian
# uint32 words: a sign slot and 3 integer digits, 3 integer digits and '.',
# 12 fraction digits, 'e' with the exponent's sign and 2 digits, and the
# separator byte. A value's text is the columns [start, stop) of its row,
# the sign at `start` if any, then the exponent (scientific only) and the
# separator; _SHOWN holds that column mask for every (start, stop, sci).
_DOT, _EXP, _SEP, _ROW = 7, 20, 24, 28


def _ascii4(chars) -> np.ndarray:
    """Rows of 4 ASCII bytes as little-endian uint32 words."""
    return np.ascontiguousarray(chars, np.uint8).view("<u4").ravel()


def _shown_columns() -> np.ndarray:
    """The column mask of each key (start * (_SEP + 1) + stop) * 2 + sci."""
    start, stop, sci = (
        a.reshape(-1, 1)
        for a in np.meshgrid(range(_DOT + 1), range(_SEP + 1), [0, 1], indexing="ij")
    )
    cols = np.arange(_ROW)
    return (start <= cols) & (cols < stop) | (np.where(sci, _EXP, _SEP) <= cols) & (cols <= _SEP)


# the ASCII digits of 0000 to 9999, one row each
_DIGITS4 = np.arange(10000)[:, None] // 10 ** np.arange(3, -1, -1) % 10 + ord("0")
_FRAC4 = _ascii4(_DIGITS4)
_INT_HI = _ascii4(_DIGITS4[:1000])
_INT_LO = _ascii4(np.c_[_DIGITS4[:1000, 1:], np.full(1000, ord("."))])
_EXPONENT = _ascii4([list(f"e{k:+03d}".encode("ascii")) for k in range(-_P10, _P10)])
_SHOWN = _shown_columns()
# each mask row as one 28-byte item, so that np.take gathers whole rows
_SHOWN_ROWS = _SHOWN.view(f"V{_ROW}").ravel()
_SHOWN_LEN = _SHOWN.sum(axis=1)


def _format_float32(x: np.ndarray, sep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of str(v) + separator for each float32 v of `x` and its byte
    in `sep`, concatenated, and the length of each value's part."""
    m, n, k, slow = _shortest_digits(x)
    neg = x.view(np.uint32) >= 1 << 31
    v = np.abs(x.astype(np.float64))
    sci = (v < 1e-4) | (v >= 1e6)
    # the value times 10**12 as an integer: positional needs at most 6
    # integer digits, scientific prints d.dddddddd
    q = m * np.take(_POW10_INT, np.where(sci, 0, k) + 13 - n)
    grid = np.empty((len(x), _ROW // 4), "<u4")
    for word in (4, 3, 2):
        q, r = np.divmod(q, 10000)
        grid[:, word] = _FRAC4[r]
    q, r = np.divmod(q, 1000)
    grid[:, 0] = _INT_HI[q]
    grid[:, 1] = _INT_LO[r]
    grid[:, 5] = _EXPONENT[k + _P10]
    grid[:, 6] = sep
    chars = grid.view(np.uint8)
    # every value gets a '-' left of its first digit; only a negative one shows it
    sign = np.where(sci, _DOT - 2, _DOT - 2 - np.maximum(k, 0))
    np.put_along_axis(chars, sign[:, None], ord("-"), axis=1)
    start = sign + 1 - neg
    stop = np.where(sci, _DOT + n - (n == 1), _DOT + 1 + np.maximum(n - k - 1, 1))
    for i in np.flatnonzero(slow):
        text = str(x[i]).encode("ascii")
        chars[i, : len(text)] = np.frombuffer(text, np.uint8)
        start[i], stop[i], sci[i] = 0, len(text), False
    key = (start * (_SEP + 1) + stop) * 2 + sci
    shown = np.take(_SHOWN_ROWS, key).view(bool)
    return chars.ravel()[shown], _SHOWN_LEN[key]
