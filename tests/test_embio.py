import logging
import mmap
import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    glove_text_reference,
    make_table,
    oracle_draw,
    oracle_vector,
    random_table,
    read_glove_text_reference,
    read_w2v_binary_reference,
    tables_equal,
)
from embcat import embio
from embcat.cli import main
from embcat.embio import (
    EmbeddingTable,
    Format,
    RandomBackfill,
    _float32_range,
    atomic_output,
    detect_format,
    random_vectors,
    read_embeddings,
    resolve_rows,
    write_embeddings,
)
from embcat.errors import DataError
from embcat.manifest import file_sha256

FIXTURE = "tests/fixtures/tiny.glove"

# tokens legal in both file formats: no space, no newline, non-empty
token_st = st.text(
    alphabet=st.characters(blacklist_characters=" \n", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=10,
)

f32_st = st.floats(allow_nan=False, allow_infinity=False, width=32)


@st.composite
def table_st(draw):
    words = draw(st.lists(token_st, min_size=1, max_size=12, unique=True))
    dim = draw(st.integers(1, 8))
    rows = draw(
        st.lists(st.lists(f32_st, min_size=dim, max_size=dim), min_size=len(words), max_size=len(words))
    )
    return make_table("t", words, rows)


# ---------------------------------------------------------------------------
# table construction and lookup


def test_table_invariants():
    with pytest.raises(ValueError):
        make_table("t", ["a", "a"], [[1.0], [2.0]])
    with pytest.raises(ValueError):
        make_table("t", ["a", "b"], [[1.0]])
    with pytest.raises(ValueError):
        make_table("t", ["a"], [[np.nan]])
    with pytest.raises(ValueError):
        make_table("", ["a"], [[1.0]])
    with pytest.raises(ValueError):
        EmbeddingTable("t", (), np.zeros((0, 3), np.float32))


def test_table_is_frozen(toy_table):
    with pytest.raises(ValueError):
        toy_table.vectors[0, 0] = 9.0


def test_lookup_chain_order():
    # both casings present: exact must win over lowercase
    t = make_table("t", ["The", "the"], [[1.0], [2.0]])
    assert resolve_rows(t, ["The", "THE", "cat"]).tolist() == [0, 1, -1]


def test_lookup_exact_only_policy():
    t = make_table("t", ["the"], [[1.0]])
    assert resolve_rows(t, ["The", "the"], fold_case=False).tolist() == [-1, 0]
    assert resolve_rows(t, ["The", "the"]).tolist() == [0, 0]


def _chain_row(table, token, fold_case):
    """The lookup chain for one token: as written, then lowercased."""
    if token in table.index:
        return table.index[token]
    if fold_case and token.lower() in table.index:
        return table.index[token.lower()]
    return -1


# cased duplicates, and "İ", whose lowercase "i̇" is two characters long
_cased_st = st.sampled_from(["The", "the", "THE", "İ", "i̇", "i", "I", "ß", "SS", "x"])


@settings(max_examples=200, deadline=None)
@given(
    words=st.lists(_cased_st, min_size=1, unique=True),
    tokens=st.lists(st.one_of(_cased_st, token_st)),
    fold_case=st.booleans(),
)
def test_resolve_rows_is_the_chain_per_token(words, tokens, fold_case):
    t = make_table("t", words, np.zeros((len(words), 1)))
    rows = resolve_rows(t, tokens, fold_case)
    assert rows.dtype == np.intp and rows.shape == (len(tokens),)
    assert rows.tolist() == [_chain_row(t, token, fold_case) for token in tokens]
    assert resolve_rows(t, [], fold_case).shape == (0,)


# ---------------------------------------------------------------------------
# backfill


def test_random_vector_is_pure():
    bf = RandomBackfill(1234)
    a = random_vectors(bf, "glove", ["dog"], 50)[0]
    b = random_vectors(bf, "glove", ["dog"], 50)[0]
    assert np.array_equal(a, b)
    assert a.dtype == np.float32 and a.shape == (50,)


def test_random_vector_keying():
    bf = RandomBackfill(1234)
    base = random_vectors(bf, "glove", ["dog"], 8)[0]
    assert not np.array_equal(base, random_vectors(bf, "senna", ["dog"], 8)[0])
    assert not np.array_equal(base, random_vectors(bf, "glove", ["cat"], 8)[0])
    assert not np.array_equal(base, random_vectors(RandomBackfill(1235), "glove", ["dog"], 8)[0])
    # name/token boundary cannot be shifted to collide
    assert not np.array_equal(
        random_vectors(bf, "ab", ["c"], 8)[0], random_vectors(bf, "a", ["bc"], 8)[0]
    )


# the default range, the widest one, and one float32 step wide, where
# every cast draw is clamped onto its low end or stays there
DRAW_RANGES = [
    (-0.25, 0.25),
    (-3.4028235e38, 3.4028235e38),
    (1.0, float(np.nextafter(np.float32(1.0), np.float32(2.0)))),
]


@settings(max_examples=60, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**64 - 1), max_size=12),
    dim=st.integers(1, 300),
    bounds=st.sampled_from(DRAW_RANGES),
)
def test_batched_draw_equals_numpy_generator(seeds, dim, bounds):
    # if numpy changes SeedSequence, PCG64 or uniform, this test fails
    keys = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, *seeds]
    got = embio._uniform_rows(np.array(keys, np.uint64), *bounds, dim)
    want = np.array([oracle_draw(k, *bounds, dim) for k in keys])
    assert got.dtype == np.float32 and got.shape == (len(keys), dim)
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


@settings(max_examples=30, deadline=None)
@given(
    tokens=st.lists(st.text(max_size=6), max_size=8),
    name=st.text(min_size=1, max_size=6),
    seed=st.integers(-(2**63), 2**64 - 1),
    dim=st.integers(1, 20),
)
def test_random_vectors_follow_the_documented_keying(tokens, name, seed, dim):
    bf = RandomBackfill(seed)
    got = random_vectors(bf, name, tokens, dim)
    assert got.shape == (len(tokens), dim)
    for row, token in zip(got, tokens):
        assert np.array_equal(row.view(np.uint32), oracle_vector(bf, name, token, dim).view(np.uint32))
        assert np.array_equal(row, random_vectors(bf, name, [token], dim)[0])


def test_random_vector_bounds():
    bf = RandomBackfill(7, low=-0.25, high=0.25)
    v = random_vectors(bf, "t", ["w"], 4096)[0]
    assert v.min() >= -0.25 and v.max() < 0.25


def test_random_vector_never_reaches_high():
    # a float64 draw within 2**-27 of 0.25 rounds onto 0.25 in float32;
    # this key draws one, and the value is clamped to the float32 below
    v = random_vectors(RandomBackfill(1234), "S", ["xuhaaous"], 50)[0]
    assert v.max() == np.nextafter(np.float32(0.25), np.float32(0))
    assert v.min() >= -0.25


@pytest.mark.parametrize(
    "low, high", [(-0.25, 0.25), (-0.1, 0.1), (0.1, 0.3), (-1 / 3, 2 / 3), (1e-3, 2e-3), (-5.0, -0.7)]
)
def test_backfill_float32_range_is_inside_the_bounds(low, high):
    lo, hi = _float32_range(low, high)
    assert lo.dtype == hi.dtype == np.float32
    # the least float32 >= low and the greatest float32 < high
    assert low <= float(lo) and float(np.nextafter(lo, np.float32(-np.inf))) < low
    assert float(hi) < high and float(np.nextafter(hi, np.float32(np.inf))) >= high
    bf = RandomBackfill(3, low=low, high=high)
    v = random_vectors(bf, "t", ["w"], 4096)[0].astype(np.float64)
    assert v.min() >= low and v.max() < high


def test_backfill_validation():
    with pytest.raises(ValueError):
        RandomBackfill(2**64)
    with pytest.raises(ValueError):
        RandomBackfill(1, low=0.5, high=0.5)
    # no float32 value lies in [0.1, next double above 0.1)
    with pytest.raises(ValueError, match="no float32"):
        RandomBackfill(1, low=0.1, high=float(np.nextafter(0.1, 1.0)))
    # numpy's uniform draw cannot span an infinite end or width
    for low, high in [(-np.inf, 1.0), (0.0, np.inf), (-1e308, 1e308)]:
        with pytest.raises(ValueError, match="high - low finite"):
            RandomBackfill(1, low=low, high=high)
    # the float32 cast of an end beyond float32's greatest value overflows
    for low, high in [(-1e39, 1.0), (1e39, 2e39), (0.0, 3.4028236e38)]:
        with pytest.raises(ValueError, match=r"need both ends in \[-3\.4028235e\+38, "):
            RandomBackfill(1, low=low, high=high)
    widest = RandomBackfill(1, low=-3.4028235e38, high=3.4028235e38)
    assert np.isfinite(random_vectors(widest, "t", ["w"], 64)[0]).all()
    with pytest.raises(ValueError):
        random_vectors(RandomBackfill(1), "t", ["w"], 0)[0]


# ---------------------------------------------------------------------------
# detection


def test_detect_fixture():
    assert detect_format(FIXTURE) is Format.GLOVE_TEXT


def test_detect_all_formats(tmp_path, toy_table):
    for fmt in Format:
        p = tmp_path / fmt.value
        write_embeddings(toy_table, p, fmt)
        assert detect_format(p) is fmt


def test_detect_rejects_garbage(tmp_path):
    p = tmp_path / "bad"
    p.write_bytes(b"\x00\x01\x02")
    with pytest.raises(DataError):
        detect_format(p)
    p.write_text("")
    with pytest.raises(DataError):
        detect_format(p)


# ---------------------------------------------------------------------------
# text reader


def test_read_fixture():
    t = read_embeddings(FIXTURE)
    assert t.words == ("a", "b") and t.dim == 3
    assert t.name == "tiny"
    assert np.array_equal(t.vectors, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError, match="table name must be non-empty"):
        read_embeddings(FIXTURE, name="")


def test_read_keep_first_duplicates(tmp_path):
    p = tmp_path / "dup.glove"
    p.write_text("a 1 0\na 0 1\n")
    t = read_embeddings(p)
    assert t.words == ("a",) and t.n_duplicates == 1
    assert np.array_equal(t.vectors, [[1, 0]])


def test_read_ragged_line(tmp_path):
    p = tmp_path / "ragged.glove"
    p.write_text("a 1 0\nb 1\n")
    with pytest.raises(DataError, match="ragged.glove:2"):
        read_embeddings(p)


def test_read_extra_fields_lenient_token_with_space(tmp_path):
    # some distributed files carry tokens containing literal spaces; the
    # lenient text parser right-anchors the vector and folds the rest back
    p = tmp_path / "spacey.glove"
    p.write_text("x 1 2\n. . 3 4\n")
    t = read_embeddings(p)
    assert t.words == ("x", ". .")
    assert np.array_equal(t.vectors[1], [3, 4])
    with pytest.raises(DataError):
        read_embeddings(p, strict=True)


def test_read_nonfinite(tmp_path):
    p = tmp_path / "inf.glove"
    p.write_text("a 1 inf\n")
    with pytest.raises(DataError, match="non-finite"):
        read_embeddings(p)


def test_read_unparseable(tmp_path):
    p = tmp_path / "bad.glove"
    p.write_text("a 1 x2\n")
    with pytest.raises(DataError):
        read_embeddings(p)


def test_read_header_mismatch(tmp_path, caplog):
    p = tmp_path / "hdr.glove"
    p.write_text("3 2\na 1 0\nb 0 1\n")
    with caplog.at_level("WARNING"):
        t = read_embeddings(p, Format.GLOVE_TEXT_HEADER)
    assert len(t) == 2
    assert any("declares 3" in r.message for r in caplog.records)
    with pytest.raises(DataError):
        read_embeddings(p, Format.GLOVE_TEXT_HEADER, strict=True)


def test_read_not_utf8_names_line(tmp_path):
    p = tmp_path / "latin1.glove"
    p.write_bytes(b"a 1 0\ncaf\xe9 0 1\n")
    with pytest.raises(DataError, match=r"latin1\.glove:2: not valid UTF-8"):
        read_embeddings(p, Format.GLOVE_TEXT)


def test_read_empty_file(tmp_path):
    p = tmp_path / "empty.glove"
    p.write_text("")
    for fmt in (None, *Format):
        with pytest.raises(DataError, match="empty.glove: "):
            read_embeddings(p, fmt)


@pytest.mark.parametrize("fmt", [Format.GLOVE_TEXT_HEADER, Format.WORD2VEC_BINARY])
def test_header_dim_too_large_for_any_array(tmp_path, fmt):
    # 2**61 float32 columns overflow the allocator even for zero rows
    p = tmp_path / "huge"
    p.write_bytes(b"1 2305843009213693952\n")
    with pytest.raises(DataError):
        read_embeddings(p, fmt)


_header_st = st.builds(
    lambda vocab, dim, sep, tail: b"%d %d" % (vocab, dim) + sep + tail,
    st.integers(0, 10**30),
    st.integers(0, 10**30),
    st.sampled_from([b"\n", b"\r\n", b" \n"]),
    st.binary(max_size=64),
)
_text_st = st.lists(
    st.text(alphabet=" 0123456789.e-+abnifx\n\r\t\x00", max_size=20), max_size=6
).map(lambda lines: "\n".join(lines).encode())


@settings(max_examples=300, deadline=None)
@given(
    data=st.one_of(st.binary(max_size=256), _header_st, _text_st),
    fmt=st.sampled_from([None, *Format]),
    strict=st.booleans(),
)
def test_read_arbitrary_bytes_gives_a_table_or_a_data_error(tmp_path_factory, data, fmt, strict):
    p = tmp_path_factory.mktemp("fuzz") / "table"
    p.write_bytes(data)
    try:
        table = read_embeddings(p, fmt, strict=strict)
    except DataError:
        return
    assert isinstance(table, EmbeddingTable) and len(table) >= 1


def test_nbsp_token_preserved(tmp_path):
    # NO-BREAK SPACE is a valid token character; only U+0020 delimits
    p = tmp_path / "nbsp.glove"
    p.write_text("x y 1 2\n", encoding="utf-8")
    t = read_embeddings(p)
    assert t.words == ("x y",)


# ---------------------------------------------------------------------------
# block text reader: the same tables, warnings and errors as one line at a time


def _outcome(read, path):
    """("table", words, shape, vector bits, duplicates, warnings, token
    index) of what `read(path)` returns, or ("error", message) of the
    DataError it raises."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    embio.log.addHandler(handler)
    try:
        t = read(path)
    except DataError as e:
        return ("error", str(e))
    finally:
        embio.log.removeHandler(handler)
    warnings = [r.getMessage() for r in records]
    return (
        "table", t.words, t.vectors.shape, t.vectors.tobytes(), t.n_duplicates, warnings, t.index
    )


def _read_both(path, header: bool, strict: bool):
    """The block reader's outcome, asserted equal to the reference's."""
    fmt = Format.GLOVE_TEXT_HEADER if header else Format.GLOVE_TEXT
    got = _outcome(lambda p: read_embeddings(p, fmt, name="t", strict=strict), path)
    want = _outcome(lambda p: read_glove_text_reference(p, "t", header, strict), path)
    assert got == want
    return got


# values each path must read alike or reject alike: loadtxt and float()
# disagree on some of them, and some are not finite at float32
_odd_value_st = st.sampled_from(
    ["", "x", "-", "1e", "1.2.3", "inf", "-nan", "1e400", "1e39", "3.4028236e38", "1e-50",
     "1_0", "١", "１", "1\x1c", "\x1f2", "\t2", "2\t", "　3", "1\r2", "+.5",
     "5.", "1E5", "-0"]
)
_value_st = st.one_of(
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-999, 999).map(str),
)
_token_st = st.one_of(
    st.sampled_from(["a", "b", "c"]),
    st.text(
        alphabet=st.characters(blacklist_characters=" \n\r", blacklist_categories=("Cs",)),
        min_size=1,
        max_size=4,
    ),
)


@st.composite
def _glove_text_st(draw, utf8_faults: bool):
    """(file bytes, whether to read a header): GloVe text, mostly regular;
    an odd file may hold irregular tokens, values, spacing and lines."""
    dim = draw(st.integers(1, 3))
    odd = draw(st.booleans())
    value = st.one_of(_value_st, _odd_value_st) if odd else _value_st
    token = st.one_of(_token_st, st.sampled_from(["", "x y", "a\rb"])) if odd else _token_st
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        k = dim + (draw(st.sampled_from([0, 0, 0, -1, 1])) if odd else 0)
        sep = draw(st.sampled_from([" ", " ", " ", "  "])) if odd else " "
        line = draw(token) + " " + sep.join(draw(st.lists(value, min_size=k, max_size=k)))
        if odd and draw(st.integers(0, 9)) == 0:
            line = draw(st.sampled_from(["", "a", " ", line + " "]))
        lines.append(line)
    header = draw(st.booleans())
    if header:
        count = len(lines) + draw(st.sampled_from([0, 0, 0, -1, 1]))
        lines.insert(0, draw(st.sampled_from([f"{count} {dim}", f"{count} {dim}", "x 2", "3 0"])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    data = text.encode("utf-8")
    if utf8_faults and data and draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data, header


@settings(max_examples=400, deadline=None)
@given(case=_glove_text_st(utf8_faults=True), strict=st.booleans())
def test_text_reader_matches_the_line_reference(tmp_path_factory, case, strict):
    data, header = case
    p = tmp_path_factory.mktemp("text") / "t.txt"
    p.write_bytes(data)
    _read_both(p, header, strict)


# a file here is smaller than a block, so an undecodable byte is found before
# any other fault, as the reference finds it; with small blocks a fault in an
# earlier block may come first, so these files stay valid UTF-8
@pytest.mark.parametrize("read_bytes", [1, 6, 40])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_glove_text_st(utf8_faults=False), strict=st.booleans())
def test_small_blocks_read_like_the_line_reference(
    tmp_path_factory, monkeypatch, read_bytes, case, strict
):
    monkeypatch.setattr(embio, "_READ_BYTES", read_bytes)
    data, header = case
    p = tmp_path_factory.mktemp("text") / "t.txt"
    p.write_bytes(data)
    _read_both(p, header, strict)


def _blocks(monkeypatch, tmp_path, text, read_bytes):
    """Write `text` and cut its reads at `read_bytes`; the returned list
    records the first line number of each block read line by line."""
    monkeypatch.setattr(embio, "_READ_BYTES", read_bytes)
    p = tmp_path / "blocks.txt"
    p.write_bytes(text.encode("utf-8"))
    starts = []
    parse = embio._parse_lines

    def spy(path, start, lines, dim, strict):
        starts.append(start + 1)
        return parse(path, start, lines, dim, strict)

    monkeypatch.setattr(embio, "_parse_lines", spy)
    return p, starts


def test_a_line_across_reads(monkeypatch, tmp_path):
    # every line is longer than a read, so each is joined from several
    text = "".join(f"word{i} {i}.5 -{i}.25 1e-3\n" for i in range(6))
    p, starts = _blocks(monkeypatch, tmp_path, text, 5)
    kind, words, shape, bits, *_ = _read_both(p, header=False, strict=True)
    assert words == tuple(f"word{i}" for i in range(6)) and shape == (6, 3)
    assert np.frombuffer(bits, np.float32)[3:6].tolist() == [1.5, -1.25, np.float32(1e-3)]
    assert starts == []


@pytest.mark.parametrize("read_bytes", [8, 13, 1 << 20])
def test_crlf_and_a_missing_final_newline(monkeypatch, tmp_path, read_bytes):
    p, starts = _blocks(monkeypatch, tmp_path, "a 1 2\r\nb 3 4\r\nc 5 6", read_bytes)
    t = read_embeddings(p)
    assert t.words == ("a", "b", "c")
    assert np.array_equal(t.vectors, [[1, 2], [3, 4], [5, 6]])
    assert starts == []
    _read_both(p, header=False, strict=True)


def test_a_folded_token_in_a_later_block(monkeypatch, tmp_path):
    # GloVe 840B: a token with a space, two blocks in; only its block goes
    # line by line
    text = "a 1 2\nb 3 4\nc 5 6\n. . 7 8\nd 9 10\n"
    p, starts = _blocks(monkeypatch, tmp_path, text, 12)
    t = read_embeddings(p)
    assert t.words == ("a", "b", "c", ". .", "d")
    assert np.array_equal(t.vectors[3], [7, 8])
    assert starts == [4]
    _read_both(p, header=False, strict=False)
    starts.clear()
    with pytest.raises(DataError, match=r"blocks\.txt:4: expected 2 vector values, found 3$"):
        read_embeddings(p, strict=True)


def test_duplicates_across_blocks(monkeypatch, tmp_path, caplog):
    text = "a 1 1\nb 2 2\na 3 3\nc 4 4\nb 5 5\nb 6 6\nd 7 7\n"
    p, starts = _blocks(monkeypatch, tmp_path, text, 12)
    with caplog.at_level("WARNING"):
        t = read_embeddings(p)
    assert t.words == ("a", "b", "c", "d") and t.n_duplicates == 3
    assert np.array_equal(t.vectors[:, 0], [1, 2, 4, 7])
    assert any("dropped 3 duplicate tokens" in r.message for r in caplog.records)
    assert starts == []
    _read_both(p, header=False, strict=True)


def test_an_error_in_block_3_names_its_line(monkeypatch, tmp_path):
    # blocks of two 6-byte lines: lines 5 and 6 are block 3
    text = "a 1 2\nb 3 4\nc 5 6\nd 7 8\ne 9 0\nf 1 x\ng 2 3\n"
    p, starts = _blocks(monkeypatch, tmp_path, text, 12)
    with pytest.raises(DataError, match=r"blocks\.txt:6: unparseable vector value$"):
        read_embeddings(p)
    assert starts == [5]
    _read_both(p, header=False, strict=False)


@pytest.mark.parametrize("declared", [2, 4])
def test_header_count_mismatch_across_blocks(monkeypatch, tmp_path, declared):
    p, starts = _blocks(monkeypatch, tmp_path, f"{declared} 2\na 1 2\nb 3 4\nc 5 6\n", 7)
    assert _read_both(p, header=True, strict=False)[1] == ("a", "b", "c")
    with pytest.raises(DataError, match=f"declares {declared} records, file holds 3$"):
        read_embeddings(p, Format.GLOVE_TEXT_HEADER, strict=True)
    assert starts == []


def test_short_first_lines_grow_the_matrix(monkeypatch, tmp_path):
    # the first block's lines are long, so the row estimate falls short of
    # the file's many short lines
    text = "first " + " ".join(["0.123456789"] * 2) + "\n"
    text += "".join(f"w{i} {i} {-i}\n" for i in range(200))
    p, _ = _blocks(monkeypatch, tmp_path, text, 32)
    t = read_embeddings(p)
    assert len(t) == 201 and t.vectors[200].tolist() == [199, -199]
    _read_both(p, header=False, strict=True)


@pytest.mark.parametrize("fmt", [Format.GLOVE_TEXT, Format.GLOVE_TEXT_HEADER, Format.WORD2VEC_BINARY])
def test_readers_hand_over_the_matrix_they_fill(tmp_path, monkeypatch, fmt):
    # the table holds the array the reader preallocated, trimmed in place
    # past a dropped duplicate, not a copy of it
    filled = []
    preallocate = embio._preallocate

    def spy(rows, dim):
        filled.append(preallocate(rows, dim))
        return filled[-1]

    monkeypatch.setattr(embio, "_preallocate", spy)
    records = [("a", [1, 0, 0]), ("b", [0, 1, 0]), ("c", [1, 1, 0]), ("a", [0, 0, 1])]
    p = tmp_path / "t"
    if fmt is Format.WORD2VEC_BINARY:
        p.write_bytes(_w2v_bytes(records, 3))
    else:
        body = "".join(f"{w} {' '.join(map(str, v))}\n" for w, v in records)
        p.write_text(("4 3\n" if fmt is Format.GLOVE_TEXT_HEADER else "") + body)
    t = read_embeddings(p, fmt)
    assert t.vectors is filled[0] and t.n_duplicates == 1
    assert t.words == ("a", "b", "c") and np.array_equal(t.vectors, [r[1] for r in records[:3]])


# ---------------------------------------------------------------------------
# binary reader


def _w2v_bytes(records, dim, header=None, sep_after=b"\n"):
    header = f"{len(records) if header is None else header} {dim}\n".encode()
    body = b"".join(
        tok.encode() + b" " + np.asarray(vec, "<f4").tobytes() + sep_after
        for tok, vec in records
    )
    return header + body


def test_binary_with_and_without_trailing_newline(tmp_path):
    recs = [("a", [1.0, 2.0]), ("b", [3.0, 4.0])]
    for sep in (b"\n", b""):
        p = tmp_path / f"v{len(sep)}.bin"
        p.write_bytes(_w2v_bytes(recs, 2, sep_after=sep))
        t = read_embeddings(p, Format.WORD2VEC_BINARY)
        assert t.words == ("a", "b")
        assert np.array_equal(t.vectors, [[1, 2], [3, 4]])


def test_binary_truncated(tmp_path):
    p = tmp_path / "trunc.bin"
    p.write_bytes(_w2v_bytes([("a", [1.0, 2.0])], 2)[:-5])
    with pytest.raises(DataError, match="truncated"):
        read_embeddings(p, Format.WORD2VEC_BINARY)


def test_binary_count_mismatch(tmp_path, caplog):
    p = tmp_path / "short.bin"
    p.write_bytes(_w2v_bytes([("a", [1.0, 2.0])], 2, header=3))
    with caplog.at_level("WARNING"):
        t = read_embeddings(p, Format.WORD2VEC_BINARY)
    assert len(t) == 1
    with pytest.raises(DataError):
        read_embeddings(p, Format.WORD2VEC_BINARY, strict=True)


@pytest.mark.parametrize("fmt", [Format.GLOVE_TEXT_HEADER, Format.WORD2VEC_BINARY])
def test_header_sizes_beyond_the_file_are_not_preallocated(tmp_path, caplog, fmt):
    # an unbounded preallocation would ask for 745 GiB, 373 GiB and 109 TiB
    def write(name, declared, dim, records):
        p = tmp_path / name
        if fmt is Format.WORD2VEC_BINARY:
            p.write_bytes(_w2v_bytes(records, dim, header=declared))
        else:
            body = "".join(f"{t} {' '.join(map(str, v))}\n" for t, v in records)
            p.write_text(f"{declared} {dim}\n{body}")
        return p

    p = write("count", 99999999999, 2, [("a", [1.0, 0.0]), ("b", [0.0, 1.0])])
    with caplog.at_level("WARNING"):
        assert read_embeddings(p, fmt).words == ("a", "b")
    assert any("declares 99999999999" in r.message for r in caplog.records)
    with pytest.raises(DataError, match="declares 99999999999 records, file holds 2"):
        read_embeddings(p, fmt, strict=True)
    p = write("dim", 1, 99999999999, [("a", [1.0, 0.0])])
    with pytest.raises(DataError, match="dim:2: expected 99999999999|'a' truncated"):
        read_embeddings(p, fmt)
    p = write("wide", 99999999999, 300, [("a", [0.5] * 300)])
    with pytest.raises(DataError, match="declares 99999999999"):
        read_embeddings(p, fmt, strict=True)


def test_binary_bad_header(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"nope\n")
    with pytest.raises(DataError):
        read_embeddings(p, Format.WORD2VEC_BINARY)


def test_binary_nonfinite(tmp_path):
    p = tmp_path / "inf.bin"
    p.write_bytes(_w2v_bytes([("a", [1.0, np.inf])], 2))
    with pytest.raises(DataError, match="'a'"):
        read_embeddings(p, Format.WORD2VEC_BINARY)


def test_binary_duplicates(tmp_path):
    p = tmp_path / "dup.bin"
    p.write_bytes(_w2v_bytes([("a", [1.0]), ("a", [2.0])], 1))
    t = read_embeddings(p, Format.WORD2VEC_BINARY)
    assert t.words == ("a",) and t.n_duplicates == 1
    assert t.vectors[0, 0] == 1.0


# ---------------------------------------------------------------------------
# block binary reader: the same tables, warnings and errors as one record at a time


@st.composite
def _w2v_st(draw):
    """w2v binary bytes with finite values. Tokens repeat, so duplicates
    fall in different blocks; the header may declare fewer or more records
    than the file holds, and an odd file may end in stray bytes or a cut
    record, or hold an undecodable token."""
    dim = draw(st.integers(1, 3))
    records = draw(
        st.lists(
            st.tuples(_token_st, st.lists(f32_st, min_size=dim, max_size=dim)), max_size=8
        )
    )
    sep = draw(st.sampled_from([b"\n", b"", b" "]))
    body = [tok.encode() + b" " + np.asarray(vec, "<f4").tobytes() + sep for tok, vec in records]
    if body and draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, len(body) - 1))
        body[i] = b"\xff" + body[i]
    declared = len(records) + draw(st.sampled_from([0, 0, 0, -1, 1, 2]))
    data = b"%d %d\n" % (declared, dim) + b"".join(body)
    if draw(st.booleans()):
        data += draw(st.sampled_from([b"\n", b" \n", b"xyz", b"x \x00\x00\x80?\n"]))
    if body and draw(st.integers(0, 4)) == 0:
        data = data[: -draw(st.integers(1, 4 * dim))]
    return data


def _read_both_w2v(path, strict: bool):
    """The block reader's outcome, asserted equal to the reference's."""
    fmt = Format.WORD2VEC_BINARY
    got = _outcome(lambda p: read_embeddings(p, fmt, name="t", strict=strict), path)
    want = _outcome(lambda p: read_w2v_binary_reference(p, "t", strict), path)
    assert got == want
    return got


# 1 byte cuts a block after each record, 24 after two to six
@pytest.mark.parametrize("read_bytes", [1, 24, 1 << 20])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_w2v_st(), strict=st.booleans())
def test_binary_blocks_read_like_the_record_reference(
    tmp_path_factory, monkeypatch, read_bytes, data, strict
):
    monkeypatch.setattr(embio, "_READ_BYTES", read_bytes)
    p = tmp_path_factory.mktemp("w2v") / "t.bin"
    p.write_bytes(data)
    _read_both_w2v(p, strict)


def test_binary_short_last_block(tmp_path, monkeypatch, caplog):
    # five records of 12 value bytes in blocks of two, under a header that
    # declares seven
    monkeypatch.setattr(embio, "_READ_BYTES", 24)
    sizes = []
    blocks = embio._w2v_blocks

    def spy(*args):
        for tokens, vals in blocks(*args):
            sizes.append(len(tokens))
            yield tokens, vals

    monkeypatch.setattr(embio, "_w2v_blocks", spy)
    records = [(w, [i, -i, 0.5]) for i, w in enumerate("abcde")]
    p = tmp_path / "short.bin"
    p.write_bytes(_w2v_bytes(records, 3, header=7))
    with caplog.at_level("WARNING"):
        t = read_embeddings(p, Format.WORD2VEC_BINARY)
    assert sizes == [2, 2, 1]
    assert t.words == tuple("abcde") and np.array_equal(t.vectors, [r[1] for r in records])
    assert [r.message for r in caplog.records] == [f"{p}: header declares 7 records, file holds 5"]
    _read_both_w2v(p, strict=False)
    with pytest.raises(DataError, match="declares 7 records, file holds 5$"):
        read_embeddings(p, Format.WORD2VEC_BINARY, strict=True)


def test_binary_reads_map_nothing_and_hold_one_block(tmp_path, monkeypatch):
    # plain reads: no mmap, and besides the matrix the read holds about a
    # block of values and a block of file bytes, never the file
    def refuse(*args, **kwargs):
        raise AssertionError("the w2v reader maps the file")

    monkeypatch.setattr(mmap, "mmap", refuse)
    rng = np.random.default_rng(5)
    records = [(f"w{i}", rng.standard_normal(1000)) for i in range(2000)]
    p = tmp_path / "t.bin"
    # with a run of 4 MB of LFs, which is not kept either
    data = _w2v_bytes(records, 1000)
    p.write_bytes(data.replace(b"\nw1000 ", b"\n" * (4 << 20) + b"w1000 "))
    tracemalloc.start()
    try:
        t = read_embeddings(p, Format.WORD2VEC_BINARY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(t) == 2000 and np.array_equal(t.vectors[7], records[7][1].astype(np.float32))
    assert peak < t.vectors.nbytes + 3 * embio._READ_BYTES


class _ReadCounter:
    """A file that records the size of each read."""

    def __init__(self, f, counts):
        self.f, self.counts = f, counts

    def read(self, n=-1):
        data = self.f.read(n)
        self.counts.append(len(data))
        return data

    def __getattr__(self, name):
        return getattr(self.f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


def test_a_corrupt_record_stops_the_reads(tmp_path, monkeypatch, capsys):
    # 4096 token bytes without a space at record 2, then 8 MB of good records
    good = [(f"w{i}", [0.5] * 256) for i in range(8200)]
    data = _w2v_bytes([("a", [0.5] * 256), ("b", [0.5] * 256)], 256, header=8203)
    data += b"x" * 4096 + b" " + np.full(256, 0.5, "<f4").tobytes() + b"\n"
    data += _w2v_bytes(good, 256).partition(b"\n")[2]
    p = tmp_path / "corrupt.bin"
    p.write_bytes(data)
    assert len(data) > 8 << 20
    msg = f"{p}: record 2: no token terminator within 4096 bytes; file looks corrupt"
    assert _read_both_w2v(p, strict=False) == ("error", msg)
    counts = []
    monkeypatch.setattr(embio, "open", lambda *a: _ReadCounter(open(*a), counts), raising=False)
    with pytest.raises(DataError):
        read_embeddings(p, Format.WORD2VEC_BINARY)
    # the bytes read end within two reads past the corrupt record
    assert sum(counts) <= data.index(b"x" * 4096) + 4096 + 2 * embio._READ_BYTES
    monkeypatch.undo()
    assert main(["info", "--emb", str(p)]) == 1
    assert capsys.readouterr().err == f"error: {msg}\n"


def test_a_bad_token_is_reported_before_a_non_finite_value_in_its_block(tmp_path, monkeypatch):
    # records are checked as they are read, the values once a block is whole
    records = [("a", [1.0, np.inf]), ("b", [1.0, 2.0]), ("c", [3.0, 4.0])]
    data = _w2v_bytes(records, 2).replace(b"\nc ", b"\n\xffc ")
    p = tmp_path / "t.bin"
    p.write_bytes(data)
    with pytest.raises(DataError, match=r"t\.bin: record 2: token is not valid UTF-8$"):
        read_embeddings(p, Format.WORD2VEC_BINARY)
    # in blocks of two records, the first block's value comes first
    monkeypatch.setattr(embio, "_READ_BYTES", 16)
    with pytest.raises(DataError, match=r"t\.bin: non-finite value for token 'a'$"):
        read_embeddings(p, Format.WORD2VEC_BINARY)


def _edge_files():
    """w2v bytes of the shapes a block scan can get wrong: records across
    reads, runs of spaces and LFs longer than a read, the longest token,
    LFs inside tokens, and headers at odds with the records."""
    recs = [(w, [i, -i, 0.5]) for i, w in enumerate(["a", "b\nc", "d\n", "x" * 4095, "e"])]
    body = _w2v_bytes(recs, 3).partition(b"\n")[2]
    runs = b" \n" * 3000
    return {
        "lf": _w2v_bytes(recs, 3),
        "no-lf": _w2v_bytes(recs, 3, sep_after=b""),
        "runs": b"5 3\n" + runs + body.replace(b"\ne ", b"\n" + runs + b"e ") + runs,
        "lead": b"5 3\n" + runs + b"\n" + runs + body,
        "fewer": _w2v_bytes(recs, 3, header=3),
        "fewer-no-lf": _w2v_bytes(recs, 3, header=4, sep_after=b""),
        "last-cut": _w2v_bytes(recs, 3)[:-3],
        "long-token-cut": _w2v_bytes(recs[:4], 3)[:-8],
        "huge-dim": b"1 2305843009213693952\na " + bytes(8),
    }


@pytest.mark.parametrize("read_bytes", [1, 24, 4099, 1 << 20])
@pytest.mark.parametrize("case", sorted(_edge_files()))
def test_binary_edge_shapes_read_like_the_record_reference(tmp_path, monkeypatch, case, read_bytes):
    monkeypatch.setattr(embio, "_READ_BYTES", read_bytes)
    p = tmp_path / "t.bin"
    p.write_bytes(_edge_files()[case])
    for strict in (False, True):
        got = _read_both_w2v(p, strict)
    if case in ("lf", "no-lf", "runs", "lead"):
        assert got[0] == "table" and got[1] == ("a", "b\nc", "d\n", "x" * 4095, "e")
    if case == "huge-dim":
        assert got == ("error", f"{p}: record for token 'a' truncated")


def test_binary_nonfinite_in_a_dropped_duplicate(tmp_path):
    # as in text, every record's values must be finite, kept or not
    p = tmp_path / "dup.bin"
    p.write_bytes(_w2v_bytes([("a", [1.0, 2.0]), ("b", [3.0, 4.0]), ("a", [np.inf, 0.0])], 2))
    with pytest.raises(DataError, match=r"dup\.bin: non-finite value for token 'a'$"):
        read_embeddings(p, Format.WORD2VEC_BINARY)
    assert read_w2v_binary_reference(p, "t", strict=False).words == ("a", "b")


def test_binary_nonfinite_before_a_count_mismatch(tmp_path, caplog):
    p = tmp_path / "short.bin"
    p.write_bytes(_w2v_bytes([("a", [1.0, 2.0]), ("b", [np.nan, 4.0])], 2, header=3))
    with caplog.at_level("WARNING"):
        with pytest.raises(DataError, match=r"short\.bin: non-finite value for token 'b'$"):
            read_embeddings(p, Format.WORD2VEC_BINARY)
    assert caplog.records == []
    with pytest.raises(DataError, match="non-finite value for token 'b'$"):
        read_embeddings(p, Format.WORD2VEC_BINARY, strict=True)
    with pytest.raises(DataError, match="declares 3 records, file holds 2$"):
        read_w2v_binary_reference(p, "t", strict=True)


# ---------------------------------------------------------------------------
# writers and round trips


def test_write_rejects_bad_tokens(tmp_path, toy_table):
    bad = make_table("t", ["a b"], [[1.0]])
    for fmt in Format:
        with pytest.raises(DataError):
            write_embeddings(bad, tmp_path / "x", fmt)


@pytest.mark.parametrize("fmt", list(Format))
def test_round_trip_awkward_floats(tmp_path, fmt):
    # denormals, exact negative powers of two, values needing all 9 digits
    vals = np.array(
        [[1e-45, 3.4028235e38, -0.1], [0.30000001, -2.5e-8, 7.0]], dtype=np.float32
    )
    t = make_table("t", ["p", "q"], vals)
    path = tmp_path / "rt"
    write_embeddings(t, path, fmt)
    assert tables_equal(t, read_embeddings(path, fmt))


@settings(max_examples=60, deadline=None)
@given(table=table_st(), fmt=st.sampled_from(list(Format)))
def test_round_trip_property(tmp_path_factory, table, fmt):
    path = tmp_path_factory.mktemp("rt") / "table"
    write_embeddings(table, path, fmt)
    back = read_embeddings(path, fmt, name=table.name)
    assert tables_equal(table, back)


def test_round_trip_multibyte(tmp_path):
    t = make_table("t", ["citroën", "日本語", "кот", "🙂"], np.eye(4))
    for fmt in Format:
        path = tmp_path / f"mb.{fmt.name}"
        write_embeddings(t, path, fmt)
        assert tables_equal(t, read_embeddings(path, fmt))


@pytest.mark.parametrize("longest", ["a" * 4095, "é" * 2047 + "a"])
def test_w2v_writes_only_tokens_the_reader_can_find(tmp_path, longest):
    # the reader looks for a token's terminator within 4096 bytes, so the
    # longest token it reads is 4095 UTF-8 bytes
    assert len(longest.encode("utf-8")) == embio._MAX_TOKEN_BYTES - 1
    path = tmp_path / "long.bin"
    t = make_table("t", ["a", longest], np.eye(2))
    write_embeddings(t, path, Format.WORD2VEC_BINARY)
    assert tables_equal(t, read_embeddings(path, Format.WORD2VEC_BINARY))
    # one byte more is refused before the file is opened; text takes it
    path.write_bytes(b"previous output\n")
    t = make_table("t", ["a", longest + "b"], np.eye(2))
    with pytest.raises(DataError, match="cannot be written as word2vec binary: 4096 UTF-8 bytes"):
        write_embeddings(t, path, Format.WORD2VEC_BINARY)
    assert path.read_bytes() == b"previous output\n"
    write_embeddings(t, path, Format.GLOVE_TEXT)
    assert tables_equal(t, read_embeddings(path, Format.GLOVE_TEXT))


def test_header_round_trip_detected(tmp_path, toy_table):
    path = tmp_path / "hdr"
    write_embeddings(toy_table, path, Format.GLOVE_TEXT_HEADER)
    assert path.read_text().splitlines()[0] == "3 3"
    back = read_embeddings(path)  # format detected
    assert tables_equal(toy_table, back)


def test_random_table_round_trip(tmp_path):
    rng = np.random.default_rng(99)
    t = random_table(rng, n=64, dim=25)
    for fmt in Format:
        path = tmp_path / fmt.name
        write_embeddings(t, path, fmt)
        assert tables_equal(t, read_embeddings(path, fmt))


@pytest.mark.parametrize("fmt", list(Format))
def test_write_returns_the_sha256_of_the_file(tmp_path, fmt):
    t = random_table(np.random.default_rng(5), n=40, dim=9)
    path = tmp_path / "t.out"
    assert write_embeddings(t, path, fmt) == file_sha256(path)


# ---------------------------------------------------------------------------
# text values: byte-identical to str() of each float32


def _values_table(values, dim=7) -> EmbeddingTable:
    """The float32 values, in order, as rows of `dim` (the last row padded with 0.5)."""
    flat = np.asarray(values, dtype=np.float32).ravel()
    flat = np.concatenate([flat, np.full(-flat.size % dim, 0.5, np.float32)])
    rows = flat.reshape(-1, dim)
    return EmbeddingTable("t", tuple(f"w{i}" for i in range(len(rows))), rows)


def _assert_text_matches_str(path, table, header=False):
    fmt = Format.GLOVE_TEXT_HEADER if header else Format.GLOVE_TEXT
    write_embeddings(table, path, fmt)
    assert path.read_bytes() == glove_text_reference(table, header)


def _around(center, ulps):
    """Every float32 within `ulps` steps of float32(center), both signs."""
    bits = int(np.float32(center).view(np.uint32)) + np.arange(-ulps, ulps + 1)
    x = bits.astype(np.uint32).view(np.float32)
    return np.concatenate([x, -x])


finite_f32_bits = st.integers(0, 2**32 - 1).filter(lambda b: (b >> 23) & 0xFF != 0xFF)


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(finite_f32_bits, min_size=1, max_size=64))
def test_text_matches_str_on_any_float32_bits(tmp_path_factory, bits):
    x = np.array(bits, dtype=np.uint32).view(np.float32)
    _assert_text_matches_str(tmp_path_factory.mktemp("bits") / "t", _values_table(x))


@pytest.mark.parametrize("center", [1e-4, 1e6])
def test_text_matches_str_around_the_layout_switch(tmp_path, center):
    # positional for 1e-4 <= |x| < 1e6, scientific outside
    _assert_text_matches_str(tmp_path / "t", _values_table(_around(center, 4096)))


def test_text_matches_str_on_zeros_powers_of_two_and_subnormals(tmp_path):
    pow2 = np.ldexp(np.float32(1), np.arange(-149, 128)).astype(np.float32)
    subnormals = np.arange(1, 1 << 23, 4099, dtype=np.uint32).view(np.float32)
    x = np.concatenate([[0.0, -0.0], pow2, -pow2, subnormals, -subnormals])
    _assert_text_matches_str(tmp_path / "t", _values_table(x))
    first = (tmp_path / "t").read_text().split()[1:3]
    assert first == ["0.0", "-0.0"]


def test_text_matches_str_where_the_digits_carry_into_the_next_decade(tmp_path):
    # float32(0.01) lies just below 0.01; its shortest digits round 9.99... up to 1e-2
    assert float(np.float32(0.01)) < 0.01
    near = [_around(10.0**e, 3) for e in range(-44, 39)]
    _assert_text_matches_str(tmp_path / "t", _values_table(np.concatenate([[0.01], *near])))
    assert (tmp_path / "t").read_text().split()[1] == "0.01"


@pytest.mark.parametrize("block_values", [1, 20, 1 << 16])
def test_text_matches_str_across_write_blocks(tmp_path, monkeypatch, block_values):
    monkeypatch.setattr(embio, "_WRITE_VALUES", block_values)
    rng = np.random.default_rng(11)
    vals = rng.standard_normal((23, 7)) * 10.0 ** rng.integers(-8, 9, (23, 1))
    vals[3] = 0.0
    t = make_table("t", [f"tok{i}é" for i in range(23)], vals)
    _assert_text_matches_str(tmp_path / "t", t, header=True)


# ---------------------------------------------------------------------------
# atomic outputs


class _FailingRows:
    """Vectors whose second one-row block raises, as a full disk would midway."""

    def __init__(self):
        self.blocks = 0

    def __getitem__(self, rows):
        self.blocks += 1
        if self.blocks > 1:
            raise OSError("no space left on device")
        return np.array([[0.5, -1.0]], dtype=np.float32)


class _FailingTable:
    name = "t"
    words = ("a", "b")
    dim = 2

    def __init__(self):
        self.vectors = _FailingRows()

    def __len__(self):
        return 2


@pytest.mark.parametrize("fmt", list(Format))
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, toy_table, fmt):
    path = tmp_path / "table.out"
    write_embeddings(toy_table, path, fmt)
    before = path.read_bytes()
    monkeypatch.setattr(embio, "_WRITE_VALUES", 1)
    failing = _FailingTable()
    with pytest.raises(OSError, match="no space left"):
        write_embeddings(failing, path, fmt)
    assert failing.vectors.blocks == 2  # the first block went out before the failure
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["table.out"]


def test_atomic_output(tmp_path):
    path = tmp_path / "out"
    path.write_bytes(b"old\n")
    with pytest.raises(RuntimeError):
        with atomic_output(path) as f:
            f.write(b"new")
            raise RuntimeError("midway")
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["out"]
    with atomic_output(path) as f:
        f.write(b"new\n")
    assert path.read_bytes() == b"new\n"
    assert os.listdir(tmp_path) == ["out"]


def test_atomic_output_refuses_a_non_regular_target(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    with pytest.raises(DataError, match="not a regular file"):
        with atomic_output(fifo) as f:
            f.write(b"never")
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["fifo"]
