"""embcat: analyze, combine, and export pre-trained word embedding tables."""

__version__ = "0.1.0"

from .analysis import (
    CoverageReport,
    NeighborSet,
    PairReport,
    SimilarityReport,
    coverage,
    embedding_similarity,
    jaccard,
    knn,
    pair_report,
)
from .combine import (
    CombinePolicy,
    ModelVocab,
    PairVerdict,
    combine,
    model_vocab,
    recommend,
)
from .corpus import (
    TextDataset,
    TokenDataset,
    VocabCounts,
    read_conll,
    read_labeled_text,
    top_n_types,
    vocab_counts,
)
from .embio import (
    EmbeddingTable,
    Format,
    RandomBackfill,
    detect_format,
    random_vectors,
    read_embeddings,
    write_embeddings,
)
from .errors import DataError
from .tagschemes import (
    Entity,
    ScoreReport,
    bio_to_iobes,
    entity_prf,
    extract_entities,
    iob1_to_bio,
)

__all__ = [
    "CombinePolicy",
    "CoverageReport",
    "DataError",
    "EmbeddingTable",
    "Entity",
    "Format",
    "ModelVocab",
    "NeighborSet",
    "PairReport",
    "PairVerdict",
    "RandomBackfill",
    "ScoreReport",
    "SimilarityReport",
    "TextDataset",
    "TokenDataset",
    "VocabCounts",
    "bio_to_iobes",
    "combine",
    "coverage",
    "detect_format",
    "embedding_similarity",
    "entity_prf",
    "extract_entities",
    "iob1_to_bio",
    "jaccard",
    "knn",
    "model_vocab",
    "pair_report",
    "random_vectors",
    "read_conll",
    "read_embeddings",
    "read_labeled_text",
    "recommend",
    "top_n_types",
    "vocab_counts",
    "write_embeddings",
]
