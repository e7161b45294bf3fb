
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import make_table, random_table
from embcat import analysis
from embcat.analysis import (
    NeighborSet,
    coverage,
    embedding_similarity,
    jaccard,
    knn,
    pair_report,
)
from embcat.combine import recommend
from embcat.corpus import Sentence, TokenDataset, VocabCounts, top_n_types, vocab_counts
from embcat.errors import DataError


def oracle_knn(table, query, k, allowed=None):
    """Independent exhaustive search: every similarity, full sort; only
    rows where `allowed` is true are candidates."""
    qi = table.index[query]
    q = table.vectors[qi].astype(np.float64)
    qn = np.linalg.norm(q)
    scored = []
    for i, w in enumerate(table.words):
        if i == qi or (allowed is not None and not allowed[i]):
            continue
        v = table.vectors[i].astype(np.float64)
        vn = np.linalg.norm(v)
        s = float("-inf") if qn == 0.0 or vn == 0.0 else float(np.dot(q, v) / (qn * vn))
        scored.append((w, s))
    scored.sort(key=lambda p: (-p[1], p[0]))
    return scored[:k]


def assert_matches_oracle(got, want):
    assert [t for t, _ in got] == [t for t, _ in want]
    np.testing.assert_allclose(
        [s for _, s in got], [s for _, s in want], rtol=0, atol=1e-10
    )


# ---------------------------------------------------------------------------
# knn


def test_knn_contract_examples(toy_table):
    assert knn(toy_table, "a", 1).tokens == ("c",)
    assert knn(toy_table, "a", 2).tokens == ("c", "b")


def test_knn_errors(toy_table):
    with pytest.raises(DataError, match="absent|not in"):
        knn(toy_table, "zz", 1)
    with pytest.raises(DataError):
        knn(toy_table, "a", 0)
    with pytest.raises(DataError):
        knn(toy_table, "a", 3)


def test_knn_tie_break_token_ascending():
    # b and d are the same direction: cosine ties exactly, b sorts first
    t = make_table("t", ["q", "d", "b", "far"], [[4, 0], [1, 0], [2, 0], [0, 1]])
    ns = knn(t, "q", 3)
    assert ns.tokens == ("b", "d", "far")
    assert ns.neighbors[0][1] == ns.neighbors[1][1] == 1.0


def test_knn_zero_vector_rows_sort_last():
    t = make_table("t", ["q", "z", "n"], [[1, 0], [0, 0], [0, 1]])
    ns = knn(t, "q", 2)
    assert ns.tokens == ("n", "z")
    assert ns.neighbors[1][1] == float("-inf")


def test_knn_matches_oracle_seeded():
    rng = np.random.default_rng(424242)
    for _ in range(25):
        t = random_table(rng, n=int(rng.integers(5, 60)), dim=int(rng.integers(2, 16)))
        for k in (1, 3, min(10, len(t) - 1)):
            q = t.words[int(rng.integers(len(t)))]
            assert_matches_oracle(knn(t, q, k).neighbors, oracle_knn(t, q, k))


def test_knn_thread_counts_identical():
    rng = np.random.default_rng(5)
    t = random_table(rng, n=300, dim=12)
    base = knn(t, "w0000", 10, threads=1)
    for threads in (2, 4):
        assert knn(t, "w0000", 10, threads=threads) == base


def test_knn_zero_query_returns_token_smallest_rows():
    # every candidate ties at -inf against a zero query: token order decides
    rng = np.random.default_rng(8)
    words = [f"w{i:02d}" for i in rng.permutation(30)]
    vecs = rng.standard_normal((30, 4)).astype(np.float32)
    vecs[12] = 0.0
    t = make_table("t", words, vecs)
    ns = knn(t, words[12], 5)
    assert ns.tokens == tuple(sorted(w for w in words if w != words[12])[:5])
    assert all(s == float("-inf") for _, s in ns.neighbors)


@pytest.mark.parametrize("threads", [1, 2, 4, None])
def test_batch_topk_across_chunks_matches_oracle(monkeypatch, threads):
    # 45 rows in chunks of 7 (the last one shorter than k): tied rows, zero
    # rows and query rows sit on both sides of chunk boundaries
    monkeypatch.setattr(analysis, "CHUNK_ROWS", 7)
    rng = np.random.default_rng(2024)
    words = [f"w{i:02d}" for i in rng.permutation(45)]
    vecs = rng.standard_normal((45, 4)).astype(np.float32)
    vecs[7] = vecs[6]
    vecs[14] = 2 * vecs[13]  # same direction: an exact cosine tie
    vecs[20] = vecs[21] = vecs[22]
    vecs[27] = vecs[35] = 0.0
    t = make_table("t", words, vecs)
    rows = [0, 6, 7, 13, 14, 20, 21, 27, 34, 35, 41, 42, 44]
    mask = rng.random(45) < 0.7
    for k in (1, 5, 10):
        for row_mask in (None, mask):
            got = analysis._batch_topk(t, rows, k, row_mask=row_mask, threads=threads)
            for r, neighbors in zip(rows, got):
                assert_matches_oracle(neighbors, oracle_knn(t, words[r], k, row_mask))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("chunk_rows", [7, 65536])
def test_subsampled_chunk_threshold_rescores_the_same_pairs(monkeypatch, chunk_rows, threads):
    # the k-th largest of a chunk's subsampled columns is at most the
    # chunk's k-th: stage 1 keeps more rows, and stage 2 rescores exactly
    # the (query, row) pairs that the chunk's own k-th leaves. The last of
    # the chunks of 7 holds 3 rows, so its subsample has fewer than k columns
    # whenever the others do not
    monkeypatch.setattr(analysis, "CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(2025)
    words = [f"w{i:02d}" for i in rng.permutation(45)]
    vecs = rng.standard_normal((45, 4)).astype(np.float32)
    vecs[7] = vecs[6]
    vecs[14] = 2 * vecs[13]
    vecs[20] = vecs[21] = vecs[22]
    vecs[27] = vecs[35] = 0.0
    t = make_table("t", words, vecs)
    rows = [0, 6, 7, 13, 14, 20, 21, 27, 34, 35, 41, 42, 44]
    mask = rng.random(45) < 0.7
    rescored, screened = [], []
    cosines, screen = analysis._cosines, analysis._screen

    def cosines_spy(vectors, a, b):
        rescored.extend(zip(a.tolist(), b.tolist()))
        return cosines(vectors, a, b)

    def screen_spy(table, lo, hi, *args):
        qi, cand, s = screen(table, lo, hi, *args)
        screened.append((hi - lo, len(qi), np.bincount(qi).max(initial=0)))
        return qi, cand, s

    monkeypatch.setattr(analysis, "_cosines", cosines_spy)
    monkeypatch.setattr(analysis, "_screen", screen_spy)
    subsample, kept = analysis._SUBSAMPLE, {}
    for k in (1, 3, 10):
        for row_mask in (None, mask):
            runs = []
            for stride in (subsample, 1):
                monkeypatch.setattr(analysis, "_SUBSAMPLE", stride)
                rescored.clear()
                screened.clear()
                got = analysis._batch_topk(t, rows, k, row_mask=row_mask, threads=threads)
                runs.append((got, list(rescored)))
                kept[stride] = kept.get(stride, 0) + sum(n for _, n, _ in screened)
                # a query keeps at most every row of a chunk
                assert all(most <= size for size, _, most in screened)
            assert runs[0] == runs[1]
    assert kept[subsample] > kept[1]


# ---------------------------------------------------------------------------
# certified search: exact against a rational oracle, and batch-independent


def _exact_ints(vector):
    """A float32 vector as integers in units of 2^-149, the smallest
    float32 step, so that sums of their products are exact."""
    return [int(Fraction(float(x)) * 2**149) for x in vector]


def exact_cos2(table, a, b):
    """The signed squared cosine of rows a and b as a Fraction, or None
    when either row is zero; it orders rows as the exact cosine does."""
    va, vb = (_exact_ints(table.vectors[i]) for i in (a, b))
    dot = sum(x * y for x, y in zip(va, vb))
    sq = sum(x * x for x in va) * sum(y * y for y in vb)
    return None if sq == 0 else Fraction(dot * abs(dot), sq)


def exact_topk(table, row, k, allowed=None):
    """Tokens of the k rows nearest to `row` by exact cosine, ties and
    then the -inf rows (zero rows, or every row for a zero query) in token
    order."""

    def key(i):
        c2 = exact_cos2(table, row, i)
        return (1, 0, table.words[i]) if c2 is None else (0, -c2, table.words[i])

    rows = [i for i in range(len(table)) if i != row and (allowed is None or allowed[i])]
    return [table.words[i] for i in sorted(rows, key=key)[:k]]


def _cos(c2):
    return float("-inf") if c2 is None else math.copysign(math.sqrt(abs(c2)), c2)


@st.composite
def certified_cases(draw):
    """A small table of seeded random rows plus rows derived from them:
    copies and power-of-two multiples (exact ties), one-ulp nudges (ties
    closer than float32 resolves) and zero rows; a mask, queries, k, a
    chunk size and a thread count."""
    dim = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vecs = list(rng.standard_normal((draw(st.integers(1, 8)), dim)).astype(np.float32))
    ops = st.tuples(st.sampled_from(["copy", "scale", "nudge", "zero"]),
                    st.integers(0, 63), st.integers(-3, 3))
    for op, src, j in draw(st.lists(ops, max_size=16)):
        v = vecs[src % len(vecs)].copy()
        if op == "scale":
            v *= np.float32(2.0**j)
        elif op == "nudge":
            v[j % dim] = np.nextafter(v[j % dim], np.float32(np.inf))
        elif op == "zero":
            v[:] = 0
        vecs.append(v)
    n = len(vecs)
    words = [f"w{i:02d}" for i in rng.permutation(n)]
    table = make_table("t", words, np.array(vecs))
    mask = draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n).map(np.array))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    k = draw(st.integers(1, n))
    return table, mask, rows, k, draw(st.integers(1, n + 1)), draw(st.sampled_from([1, 2]))


@settings(max_examples=200, deadline=None)
@given(certified_cases())
def test_batch_topk_matches_exact_rational_oracle(case):
    table, mask, rows, k, chunk_rows, threads = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "CHUNK_ROWS", chunk_rows)
        got = analysis._batch_topk(table, rows, k, row_mask=mask, threads=threads)
    for r, neighbors in zip(rows, got):
        cos2 = {i: exact_cos2(table, r, i) for i in range(len(table)) if i != r}
        # the rescore rounds in float64: distinct cosines closer than it
        # resolves (such as a copy and a nudged copy of the query) may tie
        # or swap there
        finite = sorted({c2 for c2 in cos2.values() if c2 is not None})
        assume(all(hi - lo > 1e-12 for lo, hi in zip(finite, finite[1:])))
        assert [w for w, _ in neighbors] == exact_topk(table, r, k, mask)
        for w, s in neighbors:
            want = _cos(cos2[table.index[w]])
            assert s == want or math.isclose(s, want, rel_tol=1e-14, abs_tol=1e-15)


def test_batch_topk_orders_near_ties_that_the_float32_screen_misorders():
    # each query q has two rows at the same cosine in exact arithmetic (a,
    # and a reflected about q); rounding to float32 leaves them apart by
    # about float32's resolution, below what the float32 screen resolves
    rng = np.random.default_rng(1234)
    n_q, dim = 60, 8
    q = rng.standard_normal((n_q, dim))
    a = q + 0.05 * np.linalg.norm(q, axis=1, keepdims=True) * rng.standard_normal((n_q, dim))
    qu = q / np.linalg.norm(q, axis=1, keepdims=True)
    b = 2 * (a * qu).sum(axis=1, keepdims=True) * qu - a
    words = [f"w{i:03d}" for i in rng.permutation(3 * n_q)]
    t = make_table("t", words, np.vstack([q, a, b]))
    rows = list(range(n_q))
    _, unit = analysis._unit32(t.vectors)
    screen = unit[rows] @ unit.T
    misordered = 0
    for r, neighbors in zip(rows, analysis._batch_topk(t, rows, 1)):
        want = exact_topk(t, r, 1)
        assert [w for w, _ in neighbors] == want
        screen[r, r] = -np.inf
        screened = min(range(len(t)), key=lambda i: (-screen[r, i], words[i]))
        misordered += words[screened] != want[0]
    assert misordered > 0


def test_batch_topk_does_not_depend_on_batch_chunks_threads(monkeypatch):
    # twin rows one ulp apart put near-ties at every rank
    rng = np.random.default_rng(77)
    vecs = rng.standard_normal((200, 32)).astype(np.float32)
    twins = vecs.copy()
    twins[:, 0] = np.nextafter(twins[:, 0], np.float32(np.inf))
    t = make_table("t", [f"w{i:03d}" for i in rng.permutation(400)], np.vstack([vecs, twins]))
    mask = rng.random(400) < 0.8
    queries = [int(r) for r in rng.choice(400, 50, replace=False)]
    for row_mask in (None, mask):
        for q in queries[:2]:
            others = [r for r in queries if r != q]
            lists = []
            for chunk_rows in (7, 65536):
                monkeypatch.setattr(analysis, "CHUNK_ROWS", chunk_rows)
                for threads in (1, 2, 4):
                    # alone, then first, middle and last in a batch of 50
                    for at in (None, 0, 24, 49):
                        batch = [q] if at is None else others[:at] + [q] + others[at:]
                        got = analysis._batch_topk(t, batch, 10, row_mask=row_mask, threads=threads)
                        lists.append(got[at or 0])
            assert all(got == lists[0] for got in lists)


_float32s = st.floats(width=32, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(st.integers(1, 5), st.integers(1, 40)).flatmap(
        lambda shape: st.tuples(*[hnp.arrays(np.float32, shape, elements=_float32s)] * 2)
    )
)
def test_fsums_matches_math_fsum(pair):
    a, b = (x.astype(np.float64) for x in pair)
    products = a * b
    assert analysis._fsums(products) == [math.fsum(row) for row in products.tolist()]


def test_neighbor_set_validation():
    with pytest.raises(ValueError):
        NeighborSet("q", (("q", 1.0),))
    with pytest.raises(ValueError):
        NeighborSet("q", (("a", 0.5), ("b", 0.9)))
    with pytest.raises(ValueError):
        NeighborSet("q", (("b", 0.5), ("a", 0.5)))
    with pytest.raises(ValueError):
        NeighborSet("q", (("a", 0.5), ("a", 0.4)))


# ---------------------------------------------------------------------------
# jaccard


def test_jaccard_examples():
    assert jaccard({"x", "y"}, {"y", "z"}) == pytest.approx(1 / 3)
    assert jaccard({"x"}, {"x"}) == 1.0
    assert jaccard({"x"}, {"y"}) == 0.0
    assert jaccard(set(), set()) == 1.0
    assert jaccard(set(), {"x"}) == 0.0


@given(
    a=st.sets(st.integers(0, 20), max_size=10),
    b=st.sets(st.integers(0, 20), max_size=10),
)
def test_jaccard_symmetry(a, b):
    assert jaccard(a, b) == jaccard(b, a)
    assert 0.0 <= jaccard(a, b) <= 1.0


# ---------------------------------------------------------------------------
# embedding similarity


def test_self_similarity_identity(toy_table):
    rep = embedding_similarity(toy_table, toy_table, ["a", "b"], k=1)
    assert rep.mean_jaccard_pct == 100.0
    assert rep.per_query == {"a": 1.0, "b": 1.0}
    assert rep.n_used == 2 and rep.n_skipped == 0


def test_similarity_skip_reasons():
    a = make_table("A", ["x", "y", "z"], np.eye(3))
    b = make_table("B", ["x", "y", "w"], np.eye(3))
    rep = embedding_similarity(a, b, ["x", "x", "z", "w", "nowhere"], k=1)
    assert rep.n_requested == 5
    assert rep.n_used == 1
    assert rep.n_skipped == 4
    reasons = dict(rep.skipped)
    assert reasons["x"] == "duplicate query"
    assert reasons["z"] == "not in B"
    assert reasons["w"] == "not in A"
    assert reasons["nowhere"] == "not in A or B"


def test_similarity_no_shared_queries():
    a = make_table("A", ["x", "y"], np.eye(2))
    b = make_table("B", ["p", "q"], np.eye(2))
    with pytest.raises(DataError, match="no shared queries"):
        embedding_similarity(a, b, ["x", "p"], k=1)


def test_similarity_k_validation():
    a = make_table("A", ["x", "y"], np.eye(2))
    with pytest.raises(DataError):
        embedding_similarity(a, a, ["x"], k=2)


def test_similarity_neighbor_normalization():
    # same neighborhood up to casing: identical after lowercase normalization
    vecs = [[1, 0], [0.9, 0.1], [0, 1]]
    a = make_table("A", ["q", "Dog", "other"], vecs)
    b = make_table("B", ["q", "dog", "other"], vecs)
    rep = embedding_similarity(a, b, ["q"], k=1)
    assert rep.mean_jaccard_pct == 100.0
    rep_exact = embedding_similarity(a, b, ["q"], k=1, fold_case=False)
    assert rep_exact.mean_jaccard_pct == 0.0


def test_similarity_handcrafted_oracle():
    # 6 tokens, analytic neighbor sets, k=2; shared queries q1, q2
    words = ["q1", "q2", "n1", "n2", "n3", "n4"]
    va = np.array(
        [[1, 0], [0, 1], [0.95, 0.05], [0.9, 0.1], [0.05, 0.95], [0.1, 0.9]],
        dtype=np.float32,
    )
    # in B, q1's neighborhood flips to n3/n4
    vb = np.array(
        [[0, 1], [1, 0], [0.95, 0.05], [0.9, 0.1], [0.05, 0.95], [0.1, 0.9]],
        dtype=np.float32,
    )
    a = make_table("A", words, va)
    b = make_table("B", words, vb)
    expect = {}
    for q in ("q1", "q2"):
        na = {t for t, _ in oracle_knn(a, q, 2)}
        nb = {t for t, _ in oracle_knn(b, q, 2)}
        expect[q] = jaccard(na, nb)
    rep = embedding_similarity(a, b, ["q1", "q2"], k=2)
    assert rep.per_query == expect
    assert rep.mean_jaccard_pct == pytest.approx(100 * sum(expect.values()) / 2)
    assert expect["q1"] == 0.0  # neighborhoods fully swapped


def test_similarity_symmetry():
    rng = np.random.default_rng(10)
    a = random_table(rng, name="A", n=30, dim=6)
    b = random_table(rng, name="B", n=30, dim=6)
    queries = list(a.words[:8])
    ab = embedding_similarity(a, b, queries, k=5)
    ba = embedding_similarity(b, a, queries, k=5)
    assert ab.mean_jaccard_pct == ba.mean_jaccard_pct


def test_similarity_shared_vocab_only():
    a = make_table("A", ["q", "shared", "apriv"], [[1, 0], [0.9, 0.1], [0.95, 0.05]])
    b = make_table("B", ["q", "shared", "bpriv"], [[1, 0], [0.9, 0.1], [0.95, 0.05]])
    # full vocab: each table's top-1 is its private token -> no overlap
    full = embedding_similarity(a, b, ["q"], k=1)
    assert full.mean_jaccard_pct == 0.0
    # restricted to shared candidates both pick "shared"
    restricted = embedding_similarity(a, b, ["q"], k=1, shared_vocab_only=True)
    assert restricted.mean_jaccard_pct == 100.0


# ---------------------------------------------------------------------------
# coverage


def _counts(d, split="other", norm="exact"):
    return VocabCounts(d, normalization=norm, split=split)


def test_coverage_basic():
    t = make_table("t", ["a", "b"], np.eye(2))
    rep = coverage(_counts({"a": 3, "b": 1, "c": 1, "d": 1}), t)
    assert rep.unique_types == 4
    assert rep.attested_types == 2
    assert rep.attested_pct == 50.0
    assert rep.token_coverage_pct == pytest.approx(100 * 4 / 6)


def test_coverage_lookup_policy():
    t = make_table("t", ["the"], [[1.0]])
    rep = coverage(_counts({"The": 1}), t)
    assert rep.attested_pct == 100.0
    rep = coverage(_counts({"The": 1}), t, fold_case=False)
    assert rep.attested_pct == 0.0


def test_coverage_monotone_under_added_rows():
    rng = np.random.default_rng(3)
    counts = _counts({f"w{i:04d}": i + 1 for i in range(30)})
    small = random_table(rng, n=10, dim=4)
    big = make_table(
        "t2",
        list(small.words) + ["w0020", "w0021"],
        np.vstack([small.vectors, rng.standard_normal((2, 4)).astype(np.float32)]),
    )
    assert (
        coverage(counts, big).attested_pct >= coverage(counts, small).attested_pct
    )


# ---------------------------------------------------------------------------
# pair report


def test_pair_report_identity():
    t = make_table("T", ["a", "b", "c", "d"], np.eye(4))
    ds = TokenDataset((Sentence(tuple("abcd"), ("O",) * 4),), split="train")
    counts = vocab_counts(ds)
    row = pair_report([t, t], counts, counts, k=2, n=4)
    assert (row.overlap_train, row.overlap_dev) == (100.0, 100.0)
    assert (row.attested_train, row.attested_dev) == (100.0, 100.0)
    assert row.embedding_a == row.embedding_b == "T"


def test_pair_report_uses_top_n():
    a = make_table("A", ["hi", "lo", "x", "y"], np.eye(4))
    b = make_table("B", ["hi", "x", "y", "z"], np.eye(4))
    train = _counts({"hi": 10, "lo": 1}, split="train")
    dev = _counts({"hi": 5}, split="dev")
    # n=1 keeps only "hi"; "lo" never queried, so no skip for it
    row = pair_report([a, b], train, dev, k=2, n=1)
    assert row.attested_train == 50.0  # B attests hi but not lo
    assert row.attested_dev == 100.0


# ---------------------------------------------------------------------------
# scale invariance (unit-sized; the acceptance suite runs the full sweep)


def test_scale_invariance_quick():
    rng = np.random.default_rng(77)
    t = random_table(rng, n=40, dim=8)
    scaled = make_table(t.name, t.words, t.vectors * np.float32(1000.0))
    for q in t.words[:5]:
        assert knn(t, q, 5).tokens == knn(scaled, q, 5).tokens


# ---------------------------------------------------------------------------
# shared searches: one search per table must score like per-pair searches


def _cased_pair():
    # A has only lowercase rows, so "The"/"the" and "Dog"/"dog" resolve to
    # one row in A and to two in B; "zz" is in B only
    rng = np.random.default_rng(99)
    base = [f"w{i:02d}" for i in range(40)]
    a = make_table("A", base[:-2] + ["the", "dog"], rng.standard_normal((40, 6)))
    words_b = base[:-5] + ["the", "The", "dog", "Dog", "zz"]
    b = make_table("B", words_b, rng.standard_normal((40, 5)))
    return a, b


def test_pair_report_matches_per_split_similarity(monkeypatch):
    monkeypatch.setattr(analysis, "CHUNK_ROWS", 9)
    a, b = _cased_pair()
    train = _counts({"The": 90, "the": 80, "Dog": 70, "zz": 60, "w00": 50, "w01": 40,
                     "w02": 30, "w30": 20, "w31": 10}, split="train")
    dev = _counts({"dog": 9, "Dog": 8, "w31": 7, "w02": 6, "w10": 5, "w11": 4}, split="dev")
    for threads in (1, 2):
        for k, n in ((3, 9), (8, 4)):
            row = pair_report([a, b], train, dev, k=k, n=n, threads=threads)
            for counts, overlap in ((train, row.overlap_train), (dev, row.overlap_dev)):
                queries = top_n_types(counts, n)
                sim = embedding_similarity(a, b, queries, k, threads=threads)
                assert overlap == sim.mean_jaccard_pct
            assert row.attested_train == coverage(train, b).attested_pct
            assert row.attested_dev == coverage(dev, b).attested_pct


def test_pair_report_error_order():
    a, b = _cased_pair()
    shared = _counts({"w00": 1}, split="train")
    none_shared = _counts({"zz": 1}, split="dev")
    with pytest.raises(DataError, match="no shared queries"):
        pair_report([a, b], shared, none_shared, k=3, n=5)
    with pytest.raises(DataError, match="out of range for table 'A'"):
        pair_report([a, b], none_shared, none_shared, k=40, n=5)
    # the table count is checked before any pair is scored, where one table
    # alone would fail as "no shared queries"
    for tables in ([], [a], [a, b, a]):
        with pytest.raises(DataError, match=f"exactly two tables, got {len(tables)}"):
            pair_report(tables, shared, shared, k=3, n=5)


# ---------------------------------------------------------------------------
# one search per table: every overlap question goes through one engine


def _count_searches(monkeypatch):
    """Record (table name, query rows) of every `_batch_topk` call."""
    calls = []
    search = analysis._batch_topk

    def spy(table, q_rows, k, **kwargs):
        calls.append((table.name, list(q_rows)))
        return search(table, q_rows, k, **kwargs)

    monkeypatch.setattr(analysis, "_batch_topk", spy)
    return calls


def test_pair_report_searches_each_table_once(monkeypatch):
    calls = _count_searches(monkeypatch)
    a, b = _cased_pair()
    train = _counts({"The": 90, "the": 80, "Dog": 70, "zz": 60, "w00": 50}, split="train")
    # w36 is in A only and zz in B only: no pair can score them, but each
    # table is searched from its own vocabulary alone, so A searches w36
    # and B searches zz
    dev = _counts({"dog": 9, "w36": 8, "w00": 7, "w10": 6}, split="dev")
    pair_report([a, b], train, dev, k=3, n=5)
    assert [name for name, _ in calls] == ["A", "B"]
    assert calls[0][1] == [a.index[w] for w in ("the", "dog", "w00", "w36", "w10")]
    assert calls[1][1] == [b.index[w] for w in ("The", "the", "Dog", "zz", "w00", "dog", "w10")]


def test_recommend_searches_each_table_once(monkeypatch):
    calls = _count_searches(monkeypatch)
    rng = np.random.default_rng(5)
    tables = [random_table(rng, name=name, n=30, dim=4 + i) for i, name in enumerate("ABCD")]
    counts = _counts({f"w{i:04d}": 100 - i for i in range(12)}, split="train")
    verdicts = recommend(tables, counts, counts, k=4, n=10)
    assert len(verdicts) == 6
    assert sorted(name for name, _ in calls) == ["A", "B", "C", "D"]
    assert all(rows == list(range(10)) for _, rows in calls)


@pytest.mark.parametrize("shared_vocab_only", [False, True])
def test_similarity_searches_each_table_once(monkeypatch, shared_vocab_only):
    calls = _count_searches(monkeypatch)
    a, b = _cased_pair()
    embedding_similarity(
        a, b, ["the", "w00", "w36", "zz"], k=3, shared_vocab_only=shared_vocab_only
    )
    # w36 (A only) and zz (B only) are searched in the one table that has
    # them, then skipped when scored
    assert calls == [
        ("A", [a.index["the"], a.index["w00"], a.index["w36"]]),
        ("B", [b.index["the"], b.index["w00"], b.index["zz"]]),
    ]


def test_k_is_checked_before_any_search(monkeypatch):
    calls = _count_searches(monkeypatch)
    a = make_table("a", ["x", "y", "z"], np.eye(3))
    c = make_table("c", ["x", "p"], np.eye(2))
    d = make_table("d", ["x", "q"], np.eye(2))
    counts = _counts({"x": 2, "p": 1}, split="train")
    # k is checked per table before its search: a is searched, c raises
    # before its search, and d is never reached
    with pytest.raises(DataError, match="out of range for table 'c'"):
        recommend([a, c, d], counts, counts, k=2, n=2)
    assert calls == [("a", [a.index["x"]])]


def test_no_shared_queries_is_decided_after_one_search_per_table(monkeypatch):
    calls = _count_searches(monkeypatch)
    a, b = _cased_pair()
    train = _counts({"w00": 1}, split="train")
    dev = _counts({"zz": 1}, split="dev")
    with pytest.raises(DataError, match="no shared queries"):
        pair_report([a, b], train, dev, k=3, n=5)
    assert calls == [("A", [a.index["w00"]]), ("B", [b.index["w00"], b.index["zz"]])]
