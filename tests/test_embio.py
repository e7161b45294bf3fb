import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import glove_text_reference, make_table, random_table, tables_equal
from embcat import embio
from embcat.embio import (
    EmbeddingTable,
    Format,
    RandomBackfill,
    _float32_range,
    atomic_output,
    detect_format,
    lookup,
    random_vector,
    read_embeddings,
    resolve_index,
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
    vec, step = lookup(t, "The")
    assert step == "exact" and vec[0] == 1.0
    vec, step = lookup(t, "THE")
    assert step == "lowercase" and vec[0] == 2.0
    assert lookup(t, "cat") is None


def test_lookup_exact_only_policy():
    t = make_table("t", ["the"], [[1.0]])
    assert lookup(t, "The", fold_case=False) is None
    assert resolve_index(t, "The", fold_case=False) is None
    assert resolve_index(t, "the", fold_case=False) == (0, "exact")
    assert resolve_index(t, "The") == (0, "lowercase")


# ---------------------------------------------------------------------------
# backfill


def test_random_vector_is_pure():
    bf = RandomBackfill(1234)
    a = random_vector(bf, "glove", "dog", 50)
    b = random_vector(bf, "glove", "dog", 50)
    assert np.array_equal(a, b)
    assert a.dtype == np.float32 and a.shape == (50,)


def test_random_vector_keying():
    bf = RandomBackfill(1234)
    base = random_vector(bf, "glove", "dog", 8)
    assert not np.array_equal(base, random_vector(bf, "senna", "dog", 8))
    assert not np.array_equal(base, random_vector(bf, "glove", "cat", 8))
    assert not np.array_equal(base, random_vector(RandomBackfill(1235), "glove", "dog", 8))
    # name/token boundary cannot be shifted to collide
    assert not np.array_equal(
        random_vector(bf, "ab", "c", 8), random_vector(bf, "a", "bc", 8)
    )


def test_random_vector_bounds():
    bf = RandomBackfill(7, low=-0.25, high=0.25)
    v = random_vector(bf, "t", "w", 4096)
    assert v.min() >= -0.25 and v.max() < 0.25


def test_random_vector_never_reaches_high():
    # a float64 draw within 2**-27 of 0.25 rounds onto 0.25 in float32;
    # this key draws one, and the value is clamped to the float32 below
    v = random_vector(RandomBackfill(1234), "S", "xuhaaous", 50)
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
    v = random_vector(bf, "t", "w", 4096).astype(np.float64)
    assert v.min() >= low and v.max() < high


def test_backfill_validation():
    with pytest.raises(ValueError):
        RandomBackfill(2**64)
    with pytest.raises(ValueError):
        RandomBackfill(1, low=0.5, high=0.5)
    # no float32 value lies in [0.1, next double above 0.1)
    with pytest.raises(ValueError, match="no float32"):
        RandomBackfill(1, low=0.1, high=float(np.nextafter(0.1, 1.0)))
    with pytest.raises(ValueError):
        random_vector(RandomBackfill(1), "t", "w", 0)


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


@pytest.mark.parametrize("binary", [False, True])
def test_atomic_output(tmp_path, binary):
    path = tmp_path / "out"
    path.write_bytes(b"old\n")
    with pytest.raises(RuntimeError):
        with atomic_output(path, binary) as f:
            f.write(b"new" if binary else "new")
            raise RuntimeError("midway")
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["out"]
    with atomic_output(path, binary) as f:
        f.write(b"new\n" if binary else "new\n")
    assert path.read_bytes() == b"new\n"
    assert os.listdir(tmp_path) == ["out"]


def test_atomic_output_refuses_a_non_regular_target(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    with pytest.raises(DataError, match="not a regular file"):
        with atomic_output(fifo) as f:
            f.write("never")
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["fifo"]
