"""Vocabulary coverage and inter-embedding neighborhood similarity.

Two diagnostics over pre-trained tables: what fraction of a corpus's types
a table attests ("attested"), and how similar two tables' neighborhood
structures are ("overlap": mean Jaccard of the k-nearest-neighbor token
sets of frequent words, each table searched in its own space).

k-NN here is exact brute force. Similarities are computed in double
precision over fixed-size vocabulary chunks, so results are identical for
any thread count; ties are broken token-ascending. One engine,
`pairwise_similarity`, answers every overlap question (`embedding_similarity`,
`pair_report`, and `recommend`): it resolves each query once per table,
searches each table once over the distinct rows of every query that
resolves in it, and scores every pair of every query list as Jaccard over
those cached neighbor sets.
"""

from __future__ import annotations

import heapq
import os
from concurrent import futures
from dataclasses import dataclass

import numpy as np

from .corpus import VocabCounts, top_n_types
from .embio import EmbeddingTable, resolve_index
from .errors import DataError

# rows per vocabulary chunk in the brute-force search; fixed (never derived
# from thread count) so chunk boundaries, and therefore every floating-point
# intermediate, are reproducible
CHUNK_ROWS = 65536


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
    threads: int | None = None,
) -> list[list[tuple[str, float]]]:
    """Exact top-k by cosine for many query rows at once.

    Returns, per query, k (token, similarity) pairs sorted by similarity
    descending then token ascending. `row_mask` limits candidate rows;
    query rows are always excluded from their own results. The chunks run
    on `threads` workers (None: one per core), at most one per chunk.
    """
    n = len(table)
    q_vec = table.vectors[q_rows].astype(np.float64)
    q_norms = np.sqrt(np.einsum("ij,ij->i", q_vec, q_vec))
    q_mat = q_vec.T  # (dim, queries)

    # the GEMM releases the GIL, so chunks run in parallel
    def work(lo):
        hi = min(lo + CHUNK_ROWS, n)
        return _chunk_candidates(table, row_mask, lo, hi, q_mat, q_norms, q_rows, k)

    starts = range(0, n, CHUNK_ROWS)
    if threads is None:
        threads = os.cpu_count() or 1
    with futures.ThreadPoolExecutor(min(threads, len(starts))) as pool:
        per_chunk = list(pool.map(work, starts))

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


def knn(table: EmbeddingTable, query: str, k: int, *, threads: int | None = None) -> NeighborSet:
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

    Each query is resolved once per table, and each table searched once,
    over the distinct rows of every query that resolves in it (list by
    list, in query order); `masks[i]`, when given, limits table i's
    candidate rows, which must leave every searched query k of them.
    Before any search, k is checked once per table: every mask, then every
    range. Scoring reads only table names, {query: row} and {row: neighbor
    set} per table: a query is skipped with a reason when it is a duplicate
    or missing from either table, and a list that no pair can score raises.
    """
    hits = [{q: resolve_index(t, q, fold_case) for qs in query_lists for q in qs} for t in tables]
    # per table, {query: row} of the queries that resolve in it
    rows = [{q: h[0] for q, h in hit.items() if h is not None} for hit in hits]
    masks = masks or [None] * len(tables)
    for t, row_of, mask in zip(tables, rows, masks):
        # a searched row inside the mask is not its own candidate
        if mask is not None and row_of and k > mask.sum() - int(mask[list(row_of.values())].max()):
            raise DataError(f"k={k} out of range for table {t.name!r}: {mask.sum()} shared rows")
    for t in tables:
        if not 1 <= k <= len(t) - 1:
            raise DataError(f"k={k} out of range for table {t.name!r} of {len(t)} rows")

    fold = str.lower if fold_case else str
    sets = []  # per table, {row: neighbor set}
    for t, row_of, mask in zip(tables, rows, masks):
        searched = list(dict.fromkeys(row_of.values()))
        tops = _batch_topk(t, searched, k, row_mask=mask, threads=threads)
        sets.append({r: {fold(w) for w, _ in top} for r, top in zip(searched, tops)})

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
    mask_a = _shared_mask(table_a, table_b, fold_case) if shared_vocab_only else None
    mask_b = _shared_mask(table_b, table_a, fold_case) if shared_vocab_only else None
    sims = pairwise_similarity(
        [table_a, table_b], [queries], k, fold_case, masks=[mask_a, mask_b], threads=threads
    )
    return sims[0][0, 1]


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
