"""Vocabulary coverage and inter-embedding neighborhood similarity.

Two diagnostics over pre-trained tables: what fraction of a corpus's types
a table attests ("attested"), and how similar two tables' neighborhood
structures are ("overlap": mean Jaccard of the k-nearest-neighbor token
sets of frequent words, each table searched in its own space).

k-NN here is exact brute force, in two stages. A float32 screen over
vocabulary chunks keeps every row that a rigorous rounding-error bound
cannot rule out of the top k, measured from a lower bound of each chunk's
k-th value that a subsample of its columns gives; the survivors are then
rescored with correctly rounded float64 sums, so each similarity is a
function of the two vectors alone, and ties are broken token-ascending. Results are identical
for any thread count, chunk size or batch of other queries. Every overlap
question (the `similarity` command, `pair_report` and `recommend`) takes
two steps: `neighbor_sets` searches one table alone, once, over the
distinct rows of the queries that resolve in it, and `pairwise_similarity`
scores every pair from those sides alone, so each holds one table at a
time (`table_sides`, or the `similarity` command's own loop).
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
from collections.abc import Iterable
from concurrent import futures
from dataclasses import dataclass

import numpy as np

from .corpus import VocabCounts, top_n_types
from .embio import EmbeddingTable, resolve_rows
from .errors import DataError

# rows per chunk of the search's float32 screen. Results do not depend on
# it, nor on thread count or batch: it sets only the memory of a chunk's
# temporaries and how the work splits across threads
CHUNK_ROWS = 8192
# a chunk's threshold is the k-th largest of every _SUBSAMPLE-th column of
# its screened values (see `_batch_topk`); 2 was the fastest of 1 to 4 on
# the recommend-4 bench tables
_SUBSAMPLE = 2
# unit roundoff of float32
_U = 2.0**-24


@dataclass(frozen=True)
class NeighborSet:
    """The k nearest neighbors of one query token, nearest first."""

    query: str
    neighbors: tuple[tuple[str, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "neighbors", tuple(self.neighbors))
        tokens = [t for t, _ in self.neighbors]
        if self.query in tokens:
            raise ValueError(f"query {self.query!r} appears in its own neighbor list")
        if len(set(tokens)) != len(tokens):
            raise ValueError("neighbor tokens are not distinct")
        for (t0, s0), (t1, s1) in zip(self.neighbors, self.neighbors[1:]):
            if s1 > s0:
                raise ValueError("similarities are not non-increasing")
            if s1 == s0 and t1 < t0:
                raise ValueError(f"tie between {t0!r} and {t1!r} not in token order")

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.neighbors)


@dataclass(frozen=True)
class SimilarityReport:
    mean_jaccard_pct: float
    k: int
    n_requested: int
    n_used: int
    n_skipped: int
    per_query: dict[str, float]
    skipped: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if self.n_used + self.n_skipped != self.n_requested:
            raise ValueError("used + skipped != requested")
        if self.n_used != len(self.per_query) or self.n_skipped != len(self.skipped):
            raise ValueError("counters disagree with per-query/skipped contents")
        if not 0.0 <= self.mean_jaccard_pct <= 100.0:
            raise ValueError(f"mean jaccard {self.mean_jaccard_pct} outside [0, 100]")


@dataclass(frozen=True)
class CoverageReport:
    unique_types: int
    attested_types: int
    attested_pct: float
    token_coverage_pct: float

    def __post_init__(self):
        if not 0 <= self.attested_types <= self.unique_types:
            raise ValueError("attested types outside [0, unique types]")
        expect = 100.0 * self.attested_types / self.unique_types if self.unique_types else 0.0
        if abs(self.attested_pct - expect) > 1e-9:
            raise ValueError("attested_pct inconsistent with counts")


@dataclass(frozen=True)
class PairReport:
    """Overlap and coverage summary for one table pair: the second table
    measured against the first."""

    embedding_a: str
    embedding_b: str
    overlap_train: float
    overlap_dev: float
    attested_train: float
    attested_dev: float
    k: int
    n: int


def jaccard(a: set, b: set) -> float:
    """|a n b| / |a u b|, with two empty sets counting as identical."""
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def _unit32(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A mask of the nonzero rows of `vectors`, and those rows scaled to
    unit length in float64 and rounded to float32."""
    v = vectors.astype(np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", v, v))
    nonzero = norms > 0
    if not nonzero.all():
        v, norms = v[nonzero], norms[nonzero]
    v /= norms[:, None]
    return nonzero, v.astype(np.float32)


def _screen(table, lo, hi, row_mask, unit_q, q_rows, k, margin):
    """Stage 1 over rows [lo, hi): (query, row, screened cosine) of every
    nonzero candidate row within `margin` of a lower bound of the query's
    k-th screened value in this chunk, the k-th of every `_SUBSAMPLE`-th
    column."""
    rows = np.arange(lo, hi) if row_mask is None else lo + np.flatnonzero(row_mask[lo:hi])
    nonzero, unit = _unit32(table.vectors[rows])
    rows = rows[nonzero]
    sims = unit_q @ unit.T  # (queries, rows)
    # a query is not its own candidate
    own = np.flatnonzero(np.isin(q_rows, rows))
    sims[own, np.searchsorted(rows, q_rows[own])] = -np.inf
    m = len(rows)
    sub = sims[:, ::_SUBSAMPLE]
    cols = sub.shape[1]
    if cols >= k:
        kth = np.partition(sub, cols - k, axis=1)[:, cols - k]
    else:
        kth = np.full(len(sims), -np.inf)
    # the largest float32 at or below kth - margin, so the float32 test
    # keeps every row the float64 bound keeps
    lower = kth.astype(np.float64) - margin
    floor = lower.astype(np.float32)
    floor = np.where(floor > lower, np.nextafter(floor, np.float32(-np.inf)), floor)
    hits = np.flatnonzero(sims >= floor[:, None])
    s = sims.ravel()[hits]
    finite = s > -np.inf
    qi, col = np.divmod(hits[finite], m)
    return qi, rows[col], s[finite]


def _fsums(p: np.ndarray) -> list[float]:
    """`math.fsum` of each row of `p`, a matrix of products of two float32
    values each (exact in float64), at array speed.

    Each pass splits every remainder r into q + (r - q), with q = (sigma +
    r) - sigma for sigma = 2^s, 2^s >= 2 * cols * max|r| per row: both the
    split and the row sum of the q are exact (Rump, Ogita and Oishi,
    "Accurate floating-point summation part I", SIAM J. Sci. Comput. 31(1),
    2008), and each pass leaves remainders 2^(53 - t) smaller. Once every
    remainder is 0 the pass sums add up exactly to the row sum, so their
    `math.fsum` is its correctly rounded value.
    """
    t = max(2, math.ceil(math.log2(2 * p.shape[1])))
    parts = []
    while p.any():
        _, e = np.frexp(np.abs(p).max(axis=1))  # max|r| < 2^e
        sigma = np.ldexp(1.0, e + t)[:, None]
        q = p + sigma
        q -= sigma
        parts.append(q.sum(axis=1))
        p = p - q
    return [math.fsum(row) for row in zip(*parts)] if parts else [0.0] * len(p)


def _cosines(vectors: np.ndarray, a: np.ndarray, b: np.ndarray) -> list[float]:
    """Cosine of each row pair (a[i], b[i]): fsum(x*y) / (sqrt(fsum(x*x)) *
    sqrt(fsum(y*y))), each sum correctly rounded (`_fsums`), so each
    cosine is one fixed function of the two vectors alone."""
    va, vb = vectors[a].astype(np.float64), vectors[b].astype(np.float64)
    dots, sq_a, sq_b = _fsums(va * vb), _fsums(va * va), _fsums(vb * vb)
    return [d / (math.sqrt(x) * math.sqrt(y)) for d, x, y in zip(dots, sq_a, sq_b)]


def _batch_topk(
    table: EmbeddingTable,
    q_rows: list[int],
    k: int,
    *,
    row_mask: np.ndarray | None = None,
    threads: int | None = None,
) -> list[list[tuple[str, float]]]:
    """Exact top-k by cosine for many query rows at once.

    Returns, per query, k (token, similarity) pairs sorted by similarity
    descending then token ascending, the similarity being `_cosines`'s.
    `row_mask` limits candidate rows; query rows are always excluded from
    their own results. Zero rows, and every row for a zero query, score
    -inf: they fill a list, in token order, only after every finite one.

    Stage 1 screens each chunk of `CHUNK_ROWS` rows, on `threads` workers
    (None: one per core), with one float32 GEMM of the unit query and row
    vectors. Each screened value s is within E of the exact cosine c:
    rounding a unit vector's components (normalized in float64) to float32
    costs each at most 2u relative, u = 2^-24, so the exact product of the
    rounded vectors is within 4u of c, and their float32 dot product is
    within gamma_d (1 + 2u)^2 of that (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 3.1, with Cauchy-Schwarz). So
    E = gamma_d (1 + 2u)^2 + 4u, gamma_d = d u / (1 - d u). The 2u holds a
    float32 rounding (u) and leaves room for the float64 norm and division,
    underflow and `_cosines`'s own rounding, each far below u. If s_k is
    the k-th largest screened value, k rows have c >= s_k - E, so a row
    that belongs in the top k has c >= s_k - E and s >= s_k - 2E. Stage 2
    keeps the rows within that margin of each query's k-th value over all
    chunks and rescores them with `_cosines`. A query's result is then a
    function of its own vector and the table, whatever the chunk size,
    thread count or other queries in the batch.

    Stage 1 keeps, per chunk, the rows within the margin of t, the k-th
    largest of every `_SUBSAMPLE`-th column of the chunk's screened values
    (-inf when fewer than k columns are sampled), which is cheaper to find
    than the chunk's own k-th. A subset's k-th largest value is at most the
    whole set's, and a chunk's k-th value is at most the global one, so t
    is a lower bound of the global k-th value g. Every row with s >= g - 2E,
    the global top k among them, therefore survives stage 1; the k-th
    largest survivor is g itself, and stage 2 keeps the same rows, in the
    same order, as it would after an exact per-chunk threshold. The extra
    survivors cost only a longer sort.
    """
    n, dim = table.vectors.shape
    q_rows = np.asarray(q_rows, dtype=np.intp)
    nonzero, unit_q = _unit32(table.vectors[q_rows])
    searched = q_rows[nonzero]
    gamma = dim * _U / (1 - dim * _U)
    margin = 2 * (gamma * (1 + 2 * _U) ** 2 + 4 * _U)

    words = table.words
    tops = []  # per searched query, its finite top k
    if len(searched):
        # the GEMM releases the GIL, so chunks run in parallel
        def work(lo):
            hi = min(lo + CHUNK_ROWS, n)
            return _screen(table, lo, hi, row_mask, unit_q, searched, k, margin)

        starts = range(0, n, CHUNK_ROWS)
        if threads is None:
            threads = os.cpu_count() or 1
        with futures.ThreadPoolExecutor(min(threads, len(starts))) as pool:
            qi, rows, s = map(np.concatenate, zip(*pool.map(work, starts)))
        # stage 2: each query's survivors against its k-th screened value
        # over all chunks, then the exact rescore
        order = np.lexsort((-s, qi))
        qi, rows, s = qi[order], rows[order], s[order]
        at_k = np.arange(len(qi)) - np.searchsorted(qi, qi) == k - 1
        kth = np.full(len(searched), -np.inf)
        kth[qi[at_k]] = s[at_k]
        keep = s >= kth[qi] - margin
        qi, rows = qi[keep], rows[keep]
        cos = []  # in slices: the rows tied with a k-th can be many
        for i in range(0, len(qi), CHUNK_ROWS):
            part = slice(i, i + CHUNK_ROWS)
            cos += _cosines(table.vectors, searched[qi[part]], rows[part])
        ends = np.searchsorted(qi, np.arange(1, len(searched) + 1)).tolist()
        rows = rows.tolist()
        for lo, hi in zip([0] + ends, ends):
            pairs = zip([words[r] for r in rows[lo:hi]], cos[lo:hi])
            tops.append(sorted(pairs, key=lambda p: (-p[1], p[0]))[:k])

    results = []
    fills = {}  # by whether the query is nonzero: its -inf candidates, built once
    finite_tops = iter(tops)
    for row, has_norm in zip(q_rows.tolist(), nonzero.tolist()):
        top = next(finite_tops) if has_norm else []
        if len(top) < k:
            # too few finite candidates: fill with -inf rows in token order,
            # the zero rows for a nonzero query and every row for a zero one,
            # whose own row is among the first k + 1 at most
            if has_norm not in fills:
                tail = np.ones(n, dtype=bool) if row_mask is None else row_mask.copy()
                if has_norm:
                    tail &= ~table.vectors.any(axis=1)
                fills[has_norm] = heapq.nsmallest(k + 1, [words[i] for i in np.flatnonzero(tail)])
            fill = [w for w in fills[has_norm] if w != words[row]][: k - len(top)]
            top += [(w, -np.inf) for w in fill]
        results.append(top)
    return results


def knn(table: EmbeddingTable, query: str, k: int, *, threads: int | None = None) -> NeighborSet:
    """The k vocabulary tokens most cosine-similar to `query`, excluding
    the query itself; exhaustive search, ties broken token-ascending."""
    if query not in table:
        raise DataError(f"query {query!r} not in table {table.name!r}")
    if not 1 <= k <= len(table) - 1:
        raise DataError(f"k={k} out of range for table of {len(table)} rows")
    rows = _batch_topk(table, [table.index[query]], k, threads=threads)
    return NeighborSet(query, tuple(rows[0]))


def neighbor_sets(
    table: EmbeddingTable,
    queries: list[str],
    k: int = 10,
    fold_case: bool = True,
    *,
    mask: np.ndarray | None = None,
    threads: int | None = None,
) -> dict[str, frozenset[str]]:
    """One table's side of an overlap: {query: frozenset of its k nearest
    neighbor tokens, lowercased when fold_case} for each query that resolves
    in the table, from one search over the distinct rows in query order.
    `mask`, when given, limits the candidate rows, which must leave every
    searched query k of them; k is checked before the search.
    """
    hits = resolve_rows(table.index, queries, fold_case).tolist()
    rows = {q: r for q, r in zip(queries, hits) if r >= 0}
    search = list(dict.fromkeys(rows.values()))
    # a searched row inside the mask is not its own candidate
    if mask is not None and search and k > mask.sum() - int(mask[search].max()):
        raise DataError(f"k={k} out of range for table {table.name!r}: {mask.sum()} shared rows")
    if not 1 <= k <= len(table) - 1:
        raise DataError(f"k={k} out of range for table {table.name!r} of {len(table)} rows")
    tops = _batch_topk(table, search, k, row_mask=mask, threads=threads) if search else []
    fold = str.lower if fold_case else str
    sets = {r: frozenset(fold(w) for w, _ in top) for r, top in zip(search, tops)}
    return {q: sets[r] for q, r in rows.items()}


def pairwise_similarity(
    names: list[str],
    sides: list[dict[str, frozenset[str]]],
    query_lists: list[list[str]],
    k: int = 10,
) -> list[dict[tuple[int, int], SimilarityReport]]:
    """Mean Jaccard overlap of every pair (i, j), i < j, of the tables, per
    query list: one {(i, j): SimilarityReport} dict per list, in pair order,
    that leaves out each pair with no query left in that list.

    `sides[i]` is table i's `neighbor_sets` over every query of the lists,
    so a pair's score needs nothing of either table. A query is skipped
    with a reason when it is a duplicate or missing from either side, and a
    list that no pair can score raises.
    """
    pairs = [(i, j) for i in range(len(names)) for j in range(i + 1, len(names))]
    reports: list[dict[tuple[int, int], SimilarityReport]] = []
    for queries in query_lists:
        scored = {}
        for i, j in pairs:
            per_query: dict[str, float] = {}
            skipped: list[tuple[str, str]] = []
            seen: set[str] = set()
            for q in queries:
                missing = [names[x] for x in (i, j) if q not in sides[x]]
                if q in seen:
                    skipped.append((q, "duplicate query"))
                elif missing:
                    skipped.append((q, "not in " + " or ".join(missing)))
                else:
                    per_query[q] = jaccard(sides[i][q], sides[j][q])
                seen.add(q)
            if per_query:
                scored[i, j] = SimilarityReport(
                    mean_jaccard_pct=100.0 * sum(per_query.values()) / len(per_query),
                    per_query=per_query,
                    k=k,
                    n_requested=len(queries),
                    n_used=len(per_query),
                    n_skipped=len(skipped),
                    skipped=tuple(skipped),
                )
        if not scored:
            raise DataError("no shared queries")
        reports.append(scored)
    return reports


def coverage(
    counts: VocabCounts, table: EmbeddingTable, fold_case: bool = True
) -> CoverageReport:
    """Share of a corpus's unique types (and running tokens) the table
    attests, looked up exactly and, when fold_case, lowercased."""
    if not counts.counts:
        raise DataError("empty vocabulary counts")
    hit = resolve_rows(table.index, counts.counts, fold_case) >= 0
    covered_tokens = sum(itertools.compress(counts.counts.values(), hit))
    attested = int(hit.sum())
    return CoverageReport(
        unique_types=len(counts.counts),
        attested_types=attested,
        attested_pct=100.0 * attested / len(counts.counts),
        token_coverage_pct=100.0 * covered_tokens / counts.total_tokens,
    )


def table_sides(
    tables: Iterable[EmbeddingTable],
    counts: list[VocabCounts],
    query_lists: list[list[str]],
    k: int,
    fold_case: bool,
    *,
    threads: int | None,
) -> tuple[list[str], list[list[float]], list]:
    """Each table's name, `attested_pct` for each of `counts` and
    `neighbor_sets` over every query of the lists. `tables` may be any
    iterable, such as a generator: each is dropped before the next is read."""
    queries = [q for qs in query_lists for q in qs]
    names, attested, sides = [], [], []
    for table in tables:
        names.append(table.name)
        attested.append([coverage(c, table, fold_case).attested_pct for c in counts])
        sides.append(neighbor_sets(table, queries, k, fold_case, threads=threads))
        del table  # free its matrix before the next table is read
    return names, attested, sides


def pair_report(
    tables: Iterable[EmbeddingTable],
    train: VocabCounts,
    dev: VocabCounts,
    k: int = 10,
    n: int = 200,
    fold_case: bool = True,
    *,
    threads: int | None = None,
) -> PairReport:
    """One diagnostic row for a pair, any iterable of two tables: their
    neighborhood overlap and the second table's coverage, per split. Each
    table is searched once, then dropped before the next is read."""
    queries = [top_n_types(train, n), top_n_types(dev, n)]
    names, cov, sides = table_sides(tables, [train, dev], queries, k, fold_case, threads=threads)
    if len(names) != 2:
        raise DataError(f"pair_report needs exactly two tables, got {len(names)}")
    overlap = [s[0, 1].mean_jaccard_pct for s in pairwise_similarity(names, sides, queries, k)]
    return PairReport(*names, *overlap, *cov[1], k, n)
