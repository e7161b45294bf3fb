"""Vocabulary coverage and inter-embedding neighborhood similarity.

Two diagnostics over pre-trained tables: what fraction of a corpus's types
a table attests ("attested"), and how similar two tables' neighborhood
structures are ("overlap": mean Jaccard of the k-nearest-neighbor token
sets of frequent words, each table searched in its own space).

k-NN here is exact brute force, in two stages. A float32 screen over
vocabulary chunks keeps every row that a rigorous rounding-error bound
cannot rule out of the top k; the survivors are then rescored with
correctly rounded float64 sums, so each similarity is a function of the two
vectors alone, and ties are broken token-ascending. Results are identical
for any thread count, chunk size or batch of other queries. One engine,
`pairwise_similarity`, answers every overlap question (`embedding_similarity`,
`pair_report`, and `recommend`): it resolves each query once per table,
searches each table at most once, over the distinct rows of the queries
that some pair can score, and scores every pair of every query list as
Jaccard over those cached neighbor sets.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
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
    per_query: dict[str, float]
    k: int
    n_requested: int
    n_used: int
    n_skipped: int
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
    split: str
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
    nonzero candidate row within `margin` of the query's k-th screened
    value in this chunk."""
    rows = np.arange(lo, hi) if row_mask is None else lo + np.flatnonzero(row_mask[lo:hi])
    nonzero, unit = _unit32(table.vectors[rows])
    rows = rows[nonzero]
    sims = unit_q @ unit.T  # (queries, rows)
    # a query is not its own candidate
    own = np.flatnonzero(np.isin(q_rows, rows))
    sims[own, np.searchsorted(rows, q_rows[own])] = -np.inf
    m = len(rows)
    kth = np.partition(sims, m - k, axis=1)[:, m - k] if m >= k else np.full(len(sims), -np.inf)
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
    that belongs in the top k has c >= s_k - E and s >= s_k - 2E. Each
    chunk keeps the rows within that margin of its own k-th value, and
    stage 2 applies it again to each query's k-th value over all chunks
    and rescores the survivors with `_cosines`. A query's result is then a
    function of its own vector and the table, whatever the chunk size,
    thread count or other queries in the batch.
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
    finite_tops = iter(tops)
    for row, has_norm in zip(q_rows.tolist(), nonzero.tolist()):
        top = next(finite_tops) if has_norm else []
        if len(top) < k:
            # too few finite candidates: fill with -inf rows in token order
            tail = np.ones(n, dtype=bool) if row_mask is None else row_mask.copy()
            if has_norm:
                tail &= ~table.vectors.any(axis=1)
            tail[row] = False
            fill = sorted(words[i] for i in np.flatnonzero(tail))[: k - len(top)]
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


def pairwise_similarity(
    tables: list[EmbeddingTable],
    query_lists: list[list[str]],
    k: int = 10,
    fold_case: bool = True,
    *,
    masks: list[np.ndarray | None] | None = None,
    threads: int | None = None,
) -> list[dict[tuple[int, int], SimilarityReport]]:
    """Mean Jaccard overlap of every pair (i, j), i < j, of the tables, per
    query list: one {(i, j): SimilarityReport} dict per list, in pair order,
    that leaves out each pair with no query left in that list.

    Each query is resolved once per table, and each table searched at most
    once, over the distinct rows of every query that resolves in it and in
    at least one other table (list by list, in query order); `masks[i]`,
    when given, limits table i's candidate rows, which must leave every
    searched query k of them.
    Before any search, k is checked once per table: every mask, then every
    range. Scoring reads only table names, {query: row} and {row: neighbor
    set} per table: a query is skipped with a reason when it is a duplicate
    or missing from either table, and a list that no pair can score raises.
    """
    distinct = list(dict.fromkeys(q for qs in query_lists for q in qs))
    # per table, {query: row} of the queries that resolve in it
    rows = []
    for t in tables:
        hits = resolve_rows(t, distinct, fold_case).tolist()
        rows.append({q: r for q, r in zip(distinct, hits) if r >= 0})
    # per table, the distinct rows that some pair can score: those of the
    # queries that resolve in at least one other table too
    n_tables = Counter(q for row_of in rows for q in row_of)
    searched = [
        list(dict.fromkeys(r for q, r in row_of.items() if n_tables[q] > 1)) for row_of in rows
    ]
    masks = masks or [None] * len(tables)
    for t, search, mask in zip(tables, searched, masks):
        # a searched row inside the mask is not its own candidate
        if mask is not None and search and k > mask.sum() - int(mask[search].max()):
            raise DataError(f"k={k} out of range for table {t.name!r}: {mask.sum()} shared rows")
    for t in tables:
        if not 1 <= k <= len(t) - 1:
            raise DataError(f"k={k} out of range for table {t.name!r} of {len(t)} rows")

    fold = str.lower if fold_case else str
    sets = []  # per table, {row: neighbor set}
    for t, search, mask in zip(tables, searched, masks):
        tops = _batch_topk(t, search, k, row_mask=mask, threads=threads) if search else []
        sets.append({r: {fold(w) for w, _ in top} for r, top in zip(search, tops)})

    names = [t.name for t in tables]
    pairs = [(i, j) for i in range(len(tables)) for j in range(i + 1, len(tables))]
    reports: list[dict[tuple[int, int], SimilarityReport]] = []
    for queries in query_lists:
        scored = {}
        for i, j in pairs:
            per_query: dict[str, float] = {}
            skipped: list[tuple[str, str]] = []
            seen: set[str] = set()
            for q in queries:
                missing = [names[x] for x in (i, j) if q not in rows[x]]
                if q in seen:
                    skipped.append((q, "duplicate query"))
                elif missing:
                    skipped.append((q, "not in " + " or ".join(missing)))
                else:
                    per_query[q] = jaccard(sets[i][rows[i][q]], sets[j][rows[j][q]])
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


def embedding_similarity(
    table_a: EmbeddingTable,
    table_b: EmbeddingTable,
    queries: list[str],
    k: int = 10,
    fold_case: bool = True,
    *,
    shared_vocab_only: bool = False,
    threads: int | None = None,
) -> SimilarityReport:
    """Mean Jaccard overlap (as a percentage) of the two tables' k-nearest-
    neighbor sets over the given query tokens.

    Each query must resolve in both tables; unresolvable or duplicate
    queries are skipped with a reason, never scored as zero. Each table is
    searched over its own full vocabulary unless shared_vocab_only
    restricts candidates to tokens resolvable in the other table. Neighbor
    tokens are lowercased, when fold_case, before the sets are compared.
    """
    masks = None
    if shared_vocab_only:
        masks = [
            resolve_rows(table_b, table_a.words, fold_case) >= 0,
            resolve_rows(table_a, table_b.words, fold_case) >= 0,
        ]
    sims = pairwise_similarity(
        [table_a, table_b], [queries], k, fold_case, masks=masks, threads=threads
    )
    return sims[0][0, 1]


def coverage(
    counts: VocabCounts, table: EmbeddingTable, fold_case: bool = True
) -> CoverageReport:
    """Share of a corpus's unique types (and running tokens) the table
    attests, looked up exactly and, when fold_case, lowercased."""
    if not counts.counts:
        raise DataError("empty vocabulary counts")
    hit = resolve_rows(table, counts.counts, fold_case) >= 0
    covered_tokens = sum(itertools.compress(counts.counts.values(), hit))
    attested = int(hit.sum())
    return CoverageReport(
        split=counts.split,
        unique_types=len(counts.counts),
        attested_types=attested,
        attested_pct=100.0 * attested / len(counts.counts),
        token_coverage_pct=100.0 * covered_tokens / counts.total_tokens,
    )


def pair_report(
    table_a: EmbeddingTable,
    table_b: EmbeddingTable,
    train: VocabCounts,
    dev: VocabCounts,
    k: int = 10,
    n: int = 200,
    fold_case: bool = True,
    *,
    threads: int | None = None,
) -> PairReport:
    """One diagnostic row for a candidate pair: neighborhood overlap of the
    two tables, and the second table's coverage, per split. Each table is
    searched once, over the train then the dev queries."""
    queries = [top_n_types(train, n), top_n_types(dev, n)]
    sims = pairwise_similarity([table_a, table_b], queries, k, fold_case, threads=threads)
    sim_train, sim_dev = (s[0, 1] for s in sims)
    return PairReport(
        embedding_a=table_a.name,
        embedding_b=table_b.name,
        overlap_train=sim_train.mean_jaccard_pct,
        overlap_dev=sim_dev.mean_jaccard_pct,
        attested_train=coverage(train, table_b, fold_case).attested_pct,
        attested_dev=coverage(dev, table_b, fold_case).attested_pct,
        k=k,
        n=n,
    )
