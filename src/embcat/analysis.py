"""Vocabulary coverage and inter-embedding neighborhood similarity.

Two diagnostics over pre-trained tables: what fraction of a corpus's types
a table attests ("attested"), and how similar two tables' neighborhood
structures are ("overlap": mean Jaccard of the k-nearest-neighbor token
sets of frequent words, each table searched in its own space).

k-NN here is exact brute force. Similarities are computed in double
precision over fixed-size vocabulary chunks, so results are identical for
any thread count; ties are broken token-ascending. `pair_report` and
`pairwise_similarity` (behind `recommend`) search each table once, over
the union of the query rows that resolve in it, and score every pair and
split as Jaccard over those cached neighbor sets; only `shared_vocab_only`,
whose candidate rows depend on the pair, searches per pair.
"""

from __future__ import annotations

import heapq
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import VocabCounts, top_n_types
from .embio import EmbeddingTable, resolve_index
from .errors import DataError

# rows per vocabulary chunk in the brute-force search; fixed (never derived
# from thread count) so chunk boundaries, and therefore every floating-point
# intermediate, are reproducible
CHUNK_ROWS = 65536


def span_map(fn, n: int, span: int, threads: int) -> list:
    """`fn(lo, hi)` over the consecutive spans of `span` rows that cover
    range(n), results in span order. Span bounds depend on `span` alone,
    never on `threads`, so results are identical for any thread count."""
    spans = [(lo, min(lo + span, n)) for lo in range(0, n, span)]
    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda s: fn(*s), spans))
    return [fn(*s) for s in spans]


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


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity in double precision.

    A zero operand yields -inf so that zero vectors sort behind every real
    neighbor instead of poisoning rankings with NaN.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise DataError(f"dim mismatch: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return float("-inf")
    return float(u @ v) / (nu * nv)


def jaccard(a: set, b: set) -> float:
    """|a n b| / |a u b|, with two empty sets counting as identical."""
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def _chunk_candidates(table, row_mask, lo, hi, q_mat, q_norms, q_rows, k):
    """Exact per-chunk shortlist: every row tied with or above the chunk's
    k-th best similarity survives, so no global winner can be dropped."""
    chunk = table.vectors[lo:hi].astype(np.float64)
    sims = chunk @ q_mat  # (rows, queries)
    with np.errstate(divide="ignore", invalid="ignore"):
        # a row's norm does not depend on which other rows share the chunk
        sims /= np.sqrt(np.einsum("ij,ij->i", chunk, chunk))[:, None]
        sims /= q_norms[None, :]
    sims[~np.isfinite(sims)] = -np.inf
    if row_mask is not None:
        sims[~row_mask[lo:hi], :] = -np.inf
    for qi, row in enumerate(q_rows):
        if lo <= row < hi:
            sims[row - lo, qi] = -np.inf
    # select along contiguous rows: one (queries, rows) copy, rather than a
    # strided per-column selection over the (rows, queries) product
    sims = np.ascontiguousarray(sims.T)
    m = hi - lo
    if m > k:
        kth = np.partition(sims, m - k, axis=1)[:, m - k]
    else:
        kth = np.full(sims.shape[0], -np.inf)
    out = []
    for qi, q_sims in enumerate(sims):
        idx = np.nonzero(q_sims >= kth[qi])[0]
        # sims of excluded rows are -inf for ranking, but when everything
        # ties at -inf they would survive the >= test: drop them outright
        if row_mask is not None:
            idx = idx[row_mask[lo:hi][idx]]
        row = q_rows[qi]
        if lo <= row < hi:
            idx = idx[idx != row - lo]
        out.append((idx + lo, q_sims[idx]))
    return out


def _batch_topk(
    table: EmbeddingTable,
    q_rows: list[int],
    k: int,
    *,
    row_mask: np.ndarray | None = None,
    threads: int = 1,
) -> list[list[tuple[str, float]]]:
    """Exact top-k by cosine for many query rows at once.

    Returns, per query, k (token, similarity) pairs sorted by similarity
    descending then token ascending. `row_mask` limits candidate rows;
    query rows are always excluded from their own results.
    """
    n = len(table)
    q_vec = table.vectors[q_rows].astype(np.float64)
    q_norms = np.sqrt(np.einsum("ij,ij->i", q_vec, q_vec))
    q_mat = q_vec.T  # (dim, queries)

    def work(lo, hi):
        return _chunk_candidates(table, row_mask, lo, hi, q_mat, q_norms, q_rows, k)

    per_chunk = span_map(work, n, CHUNK_ROWS, threads)

    results = []
    words = table.words
    for qi in range(len(q_rows)):
        cand_idx = np.concatenate([c[qi][0] for c in per_chunk])
        cand_sim = np.concatenate([c[qi][1] for c in per_chunk])
        ranked = heapq.nsmallest(
            k,
            zip(cand_idx.tolist(), cand_sim.tolist()),
            key=lambda pair: (-pair[1], words[pair[0]]),
        )
        results.append([(words[i], s) for i, s in ranked])
    return results


def knn(table: EmbeddingTable, query: str, k: int, *, threads: int = 1) -> NeighborSet:
    """The k vocabulary tokens most cosine-similar to `query`, excluding
    the query itself; exhaustive search, ties broken token-ascending."""
    if query not in table:
        raise DataError(f"query {query!r} not in table {table.name!r}")
    if not 1 <= k <= len(table) - 1:
        raise DataError(f"k={k} out of range for table of {len(table)} rows")
    rows = _batch_topk(table, [table.index[query]], k, threads=threads)
    return NeighborSet(query, tuple(rows[0]))


def _shared_mask(table: EmbeddingTable, other: EmbeddingTable, fold_case: bool) -> np.ndarray:
    mask = np.zeros(len(table), dtype=bool)
    for i, w in enumerate(table.words):
        if resolve_index(other, w, fold_case) is not None:
            mask[i] = True
    return mask


class _PairQueries(NamedTuple):
    """Queries of one table pair, resolved to a row in each table."""

    requested: int
    used: list[str]
    rows_a: list[int]
    rows_b: list[int]
    skipped: list[tuple[str, str]]


def _resolve_pair(
    table_a: EmbeddingTable,
    table_b: EmbeddingTable,
    queries: list[str],
    k: int,
    fold_case: bool,
) -> _PairQueries:
    """Check k against both tables and resolve each query in both; a query
    that is a duplicate or missing from either table is skipped with a
    reason. Raises when no query is left."""
    for t in (table_a, table_b):
        if not 1 <= k <= len(t) - 1:
            raise DataError(f"k={k} out of range for table {t.name!r} of {len(t)} rows")

    used: list[str] = []
    rows_a: list[int] = []
    rows_b: list[int] = []
    skipped: list[tuple[str, str]] = []
    seen: set[str] = set()
    for q in queries:
        if q in seen:
            skipped.append((q, "duplicate query"))
            continue
        seen.add(q)
        ha = resolve_index(table_a, q, fold_case)
        hb = resolve_index(table_b, q, fold_case)
        if ha is None and hb is None:
            skipped.append((q, f"not in {table_a.name} or {table_b.name}"))
        elif ha is None:
            skipped.append((q, f"not in {table_a.name}"))
        elif hb is None:
            skipped.append((q, f"not in {table_b.name}"))
        else:
            used.append(q)
            rows_a.append(ha[0])
            rows_b.append(hb[0])
    if not used:
        raise DataError("no shared queries")
    return _PairQueries(len(queries), used, rows_a, rows_b, skipped)


def _neighbor_sets(
    table: EmbeddingTable,
    rows: list[int],
    k: int,
    fold_case: bool,
    *,
    row_mask: np.ndarray | None = None,
    threads: int = 1,
) -> dict[int, set[str]]:
    """k-NN token set of each distinct query row, lowercased when
    fold_case, from one search over all of them (first-appearance order)."""
    distinct = list(dict.fromkeys(rows))
    tops = _batch_topk(table, distinct, k, row_mask=row_mask, threads=threads)
    fold = str.lower if fold_case else str
    return {r: {fold(t) for t, _ in top} for r, top in zip(distinct, tops)}


def _similarity_report(
    pq: _PairQueries, sets_a: dict[int, set[str]], sets_b: dict[int, set[str]], k: int
) -> SimilarityReport:
    per_query: dict[str, float] = {}
    for q, ra, rb in zip(pq.used, pq.rows_a, pq.rows_b):
        per_query[q] = jaccard(sets_a[ra], sets_b[rb])
    mean_pct = 100.0 * sum(per_query.values()) / len(per_query)
    return SimilarityReport(
        mean_jaccard_pct=mean_pct,
        per_query=per_query,
        k=k,
        n_requested=pq.requested,
        n_used=len(pq.used),
        n_skipped=len(pq.skipped),
        skipped=tuple(pq.skipped),
    )


def embedding_similarity(
    table_a: EmbeddingTable,
    table_b: EmbeddingTable,
    queries: list[str],
    k: int = 10,
    fold_case: bool = True,
    *,
    shared_vocab_only: bool = False,
    threads: int = 1,
) -> SimilarityReport:
    """Mean Jaccard overlap (as a percentage) of the two tables' k-nearest-
    neighbor sets over the given query tokens.

    Each query must resolve in both tables; unresolvable or duplicate
    queries are skipped with a reason, never scored as zero. Each table is
    searched over its own full vocabulary unless shared_vocab_only
    restricts candidates to tokens resolvable in the other table. Neighbor
    tokens are lowercased, when fold_case, before the sets are compared.
    """
    pq = _resolve_pair(table_a, table_b, queries, k, fold_case)
    mask_a = _shared_mask(table_a, table_b, fold_case) if shared_vocab_only else None
    mask_b = _shared_mask(table_b, table_a, fold_case) if shared_vocab_only else None
    sets_a = _neighbor_sets(table_a, pq.rows_a, k, fold_case, row_mask=mask_a, threads=threads)
    sets_b = _neighbor_sets(table_b, pq.rows_b, k, fold_case, row_mask=mask_b, threads=threads)
    return _similarity_report(pq, sets_a, sets_b, k)


def pairwise_similarity(
    tables: list[EmbeddingTable],
    queries: list[str],
    k: int = 10,
    fold_case: bool = True,
    *,
    threads: int = 1,
) -> dict[tuple[int, int], SimilarityReport]:
    """`embedding_similarity` of every pair (i, j), i < j, of the tables,
    keyed by their indices in pair order. Each table is searched once,
    over every query that resolves in it."""
    pairs = {
        (i, j): _resolve_pair(tables[i], tables[j], queries, k, fold_case)
        for i in range(len(tables))
        for j in range(i + 1, len(tables))
    }
    sets = []
    for t in tables:
        hits = (resolve_index(t, q, fold_case) for q in queries)
        rows = [hit[0] for hit in hits if hit is not None]
        sets.append(_neighbor_sets(t, rows, k, fold_case, threads=threads))
    return {(i, j): _similarity_report(pq, sets[i], sets[j], k) for (i, j), pq in pairs.items()}


def coverage(
    counts: VocabCounts, table: EmbeddingTable, fold_case: bool = True
) -> CoverageReport:
    """Share of a corpus's unique types (and running tokens) the table
    attests, looked up exactly and, when fold_case, lowercased."""
    if not counts.counts:
        raise DataError("empty vocabulary counts")
    attested = 0
    covered_tokens = 0
    for t, c in counts.counts.items():
        if resolve_index(table, t, fold_case) is not None:
            attested += 1
            covered_tokens += c
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
    threads: int = 1,
) -> PairReport:
    """One diagnostic row for a candidate pair: neighborhood overlap of the
    two tables, and the second table's coverage, per split. Each table is
    searched once, over the train then the dev queries."""
    splits = {}
    for split_name, counts in (("train", train), ("dev", dev)):
        pq = _resolve_pair(table_a, table_b, top_n_types(counts, n), k, fold_case)
        splits[split_name] = (pq, coverage(counts, table_b, fold_case).attested_pct)
    rows_a = [r for pq, _ in splits.values() for r in pq.rows_a]
    rows_b = [r for pq, _ in splits.values() for r in pq.rows_b]
    sets_a = _neighbor_sets(table_a, rows_a, k, fold_case, threads=threads)
    sets_b = _neighbor_sets(table_b, rows_b, k, fold_case, threads=threads)
    overlap = {
        name: _similarity_report(pq, sets_a, sets_b, k).mean_jaccard_pct
        for name, (pq, _) in splits.items()
    }
    return PairReport(
        embedding_a=table_a.name,
        embedding_b=table_b.name,
        overlap_train=overlap["train"],
        overlap_dev=overlap["dev"],
        attested_train=splits["train"][1],
        attested_dev=splits["dev"][1],
        k=k,
        n=n,
    )
