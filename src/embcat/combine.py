"""Concatenated embedding construction and pair recommendation.

Builds a model-ready table over a dataset vocabulary by concatenating one
row per source table, backfilling unattested types with keyed random
vectors. Three ablation variants decide, row by row, whether the second
table's slice is its pretrained row or a keyed random vector: always
random, pretrained only outside the first table's vocabulary (complement),
or pretrained only inside it (overlap). No table is rebuilt.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .analysis import SimilarityReport, pairwise_similarity, table_sides
from .corpus import VocabCounts, top_n_types, vocab_counts
from .embio import EmbeddingTable, RandomBackfill, random_vectors, resolve_rows
from .errors import DataError

COMBINE_KINDS = ("Concat", "RandomSecond", "ComplementSecond", "MatchedSecond")

PAD_TOKEN = "<PAD>"
UNK_TOKEN = "<UNK>"


@dataclass(frozen=True)
class CombinePolicy:
    """Which combination variant to build.

    `applies_to` is the index of the table the ablation applies to (the
    "second" embedding); it is meaningless for plain Concat.
    """

    kind: str = "Concat"
    applies_to: int | None = None

    def __post_init__(self):
        if self.kind not in COMBINE_KINDS:
            raise ValueError(f"kind must be one of {COMBINE_KINDS}, got {self.kind!r}")
        if self.kind == "Concat":
            if self.applies_to is not None:
                raise ValueError("Concat ablates no table; applies_to must be None")
        else:
            idx = 1 if self.applies_to is None else self.applies_to
            if idx < 1:
                raise ValueError(f"applies_to must be >= 1, got {idx}")
            object.__setattr__(self, "applies_to", idx)

    @classmethod
    def parse(cls, spec: str, applies_to: int | None = None) -> "CombinePolicy":
        """Accept canonical or kebab/lower-case kind names."""
        key = spec.replace("-", "").replace("_", "").lower()
        for kind in COMBINE_KINDS:
            if key == kind.lower():
                return cls(kind, applies_to)
        raise ValueError(f"unknown combine kind {spec!r}; expected one of {COMBINE_KINDS}")


@dataclass(frozen=True)
class ModelVocab:
    """The ordered type list a combined table is built over."""

    types: tuple[str, ...]
    counts: dict[str, int]

    def __post_init__(self):
        object.__setattr__(self, "types", tuple(self.types))
        if not self.types:
            raise ValueError("model vocabulary is empty")
        if len(set(self.types)) != len(self.types):
            raise ValueError("model vocabulary types are not unique")
        if set(self.counts) != set(self.types):
            raise ValueError("counts do not cover exactly the vocabulary types")
        for t, c in self.counts.items():
            if c < 0:
                raise ValueError(f"type {t!r} has negative count {c}")

    def __len__(self) -> int:
        return len(self.types)


def model_vocab(
    datasets,
    splits: list[str] | None = None,
    min_count: int = 1,
    normalization: str = "exact",
) -> ModelVocab:
    """Union of type counts over the selected datasets, ordered count
    descending then token ascending.

    `splits=None` keeps every dataset; otherwise only datasets whose split
    is listed contribute. `datasets` may be any iterable, such as a
    generator: each is dropped once counted.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    merged: dict[str, int] = {}
    for ds in datasets:
        if splits is None or ds.split in splits:
            for t, c in vocab_counts(ds, normalization).counts.items():
                merged[t] = merged.get(t, 0) + c
        del ds  # free it before the next dataset is read
    # every dataset has a token, so no count means no dataset was selected
    if not merged:
        raise DataError("no datasets selected for the model vocabulary")
    kept = {t: c for t, c in merged.items() if c >= min_count}
    if not kept:
        raise DataError(f"no types reach min_count={min_count}")
    ordered = tuple(t for t, _ in sorted(kept.items(), key=lambda kv: (-kv[1], kv[0])))
    return ModelVocab(ordered, kept)


def combine(
    tables: Iterable[EmbeddingTable],
    vocab: ModelVocab,
    policy: CombinePolicy,
    backfill: RandomBackfill,
    fold_case: bool = True,
) -> EmbeddingTable:
    """One output row per vocabulary type: the concatenation, over source
    tables, of the looked-up row or the keyed random backfill vector.

    Under an ablation policy, the slice of table `policy.applies_to` for a
    type that resolves to one of its rows is that row or the keyed random
    vector of the row's token:
      RandomSecond     - always the random vector;
      ComplementSecond - the random vector when the token is in the "first
                         vocabulary", the union of the vocabularies of the
                         tables before it, so only the complement of the
                         first vocabulary stays pretrained;
      MatchedSecond    - the random vector when the token is outside the
                         first vocabulary, so only the overlap stays
                         pretrained.
    Output depends only on the inputs and the backfill seed. `tables` may
    be any iterable; each is dropped once its columns are filled. Of a table
    before `applies_to`, only the types and lowercased types it holds are
    kept as first vocabulary: a resolved row's token is one of them.
    """
    idx = policy.applies_to
    names, blocks, first_vocab = [], [], set()
    replaces = {
        "RandomSecond": lambda word: True,
        "ComplementSecond": lambda word: word in first_vocab,
        "MatchedSecond": lambda word: word not in first_vocab,
    }.get(policy.kind)
    # a counter, not enumerate(), whose reused tuple keeps the last table
    # alive while the next is read
    for table in tables:
        ti = len(names)
        names.append(table.name)
        # (output row, source row) of the kept slices, (output row, key) of
        # the drawn ones
        kept, rows, drawn, keys = [], [], [], []
        hits = resolve_rows(table, vocab.types, fold_case).tolist()
        for r, (typ, row) in enumerate(zip(vocab.types, hits)):
            if row < 0:
                drawn.append(r)
                keys.append(typ)
            elif ti == idx and replaces(table.words[row]):
                # keyed by the row's token, not the type: "The" and
                # "the" resolving to one row share its replacement
                drawn.append(r)
                keys.append(table.words[row])
            else:
                kept.append(r)
                rows.append(row)
        block = np.empty((len(vocab), table.dim), np.float32)
        block[kept] = table.vectors[rows]
        block[drawn] = random_vectors(backfill, table.name, keys, table.dim)
        blocks.append(block)
        if idx is not None and ti < idx:
            first_vocab.update(w for t in vocab.types for w in (t, t.lower()) if w in table)
        del table  # free its matrix before the next table is read
    if not names:
        raise DataError("need at least one source table")
    if len(set(names)) != len(names):
        raise DataError(f"table name collision in {names}; backfill keys must be distinct")
    if idx is not None and len(names) < 2:
        raise DataError(f"{policy.kind} needs at least two source tables")
    if idx is not None and idx >= len(names):
        raise DataError(f"applies_to={idx} out of range for {len(names)} tables")
    out = np.concatenate(blocks, axis=1)
    # the rows are source rows or finite draws, and the types are unique
    index = dict(zip(vocab.types, range(len(vocab))))
    return EmbeddingTable._adopt("+".join(names), vocab.types, out, index)


def with_special_tokens(vocab: ModelVocab) -> ModelVocab:
    """Prepend <PAD> and <UNK> to a model vocabulary."""
    for tok in (PAD_TOKEN, UNK_TOKEN):
        if tok in vocab.counts:
            raise DataError(f"vocabulary already contains {tok!r}")
    return ModelVocab(
        (PAD_TOKEN, UNK_TOKEN, *vocab.types),
        {PAD_TOKEN: 0, UNK_TOKEN: 0, **vocab.counts},
    )


def zero_token_row(table: EmbeddingTable, token: str) -> EmbeddingTable:
    """A copy of the table with one token's vector set to all zeros."""
    if token not in table:
        raise DataError(f"token {token!r} not in table {table.name!r}")
    mat = table.vectors.copy()
    mat[table.index[token]] = 0.0
    return EmbeddingTable._adopt(table.name, table.words, mat, table.index, table.n_duplicates)


@dataclass(frozen=True)
class PairVerdict:
    """Recommendation for one unordered table pair on one corpus."""

    embedding_a: str
    embedding_b: str
    overlap: float | None
    attested_a: float
    attested_b: float
    attested_dev_a: float
    attested_dev_b: float
    min_attested: float
    recommended: bool


def recommend(
    tables: Iterable[EmbeddingTable],
    train: VocabCounts,
    dev: VocabCounts,
    tau_sim: float = 30.0,
    tau_cov: float = 70.0,
    k: int = 10,
    n: int = 200,
    fold_case: bool = True,
    *,
    threads: int | None = None,
) -> list[PairVerdict]:
    """Score every unordered pair of tables for combination on a corpus.

    A pair is recommended when its neighborhood overlap on the train
    split's top-n types is below tau_sim and both tables attest at least
    tau_cov percent of the train types: dissimilar spaces with good
    coverage are the combinations worth concatenating. Recommended pairs
    come first, most dissimilar first, then highest min-coverage. A pair
    whose tables share no query is not scored: its overlap is None, and it
    comes after every scored pair. Raises when no pair is scored.
    `tables` may be any iterable; one is held at a time (`table_sides`).
    """
    queries = top_n_types(train, n)
    names, cov, sides = table_sides(tables, [train, dev], [queries], k, fold_case, threads=threads)
    if len(names) < 2:
        raise DataError(f"need at least two tables to recommend pairs, got {len(names)}")
    if len(set(names)) != len(names):
        raise DataError(f"table name collision in {names}")
    sims = pairwise_similarity(names, sides, [queries], k)[0]
    return rank_pairs(names, cov, sims, tau_sim, tau_cov)


def rank_pairs(
    names: list[str],
    cov: list[list[float]],
    sims: dict[tuple[int, int], SimilarityReport],
    tau_sim: float = 30.0,
    tau_cov: float = 70.0,
) -> list[PairVerdict]:
    """`recommend`'s verdicts from what its tables left: their names, each
    one's train and dev `attested_pct` (`table_sides`), and `sims`, the
    `pairwise_similarity` of the train split's top-n types."""
    cov_train, cov_dev = zip(*cov)
    verdicts = []
    for i, j in itertools.combinations(range(len(names)), 2):
        overlap = sims[i, j].mean_jaccard_pct if (i, j) in sims else None
        min_att = min(cov_train[i], cov_train[j])
        verdicts.append(
            PairVerdict(
                embedding_a=names[i],
                embedding_b=names[j],
                overlap=overlap,
                attested_a=cov_train[i],
                attested_b=cov_train[j],
                attested_dev_a=cov_dev[i],
                attested_dev_b=cov_dev[j],
                min_attested=min_att,
                recommended=overlap is not None and overlap < tau_sim and min_att >= tau_cov,
            )
        )
    verdicts.sort(
        key=lambda v: (
            not v.recommended,
            v.overlap is None,
            v.overlap or 0.0,
            -v.min_attested,
            v.embedding_a,
            v.embedding_b,
        )
    )
    return verdicts
