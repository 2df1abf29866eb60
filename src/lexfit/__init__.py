"""lexfit: specialize word embeddings with lexical constraints and evaluate them.

The library refines pre-trained embedding vectors with synonym, antonym, and
hypernym pairs via margin-based metric learning (plus closed-form retrofitting
as a baseline), and evaluates the result on similarity correlation, hypernymy
detection and directionality, and graded entailment protocols.
"""

__version__ = "0.1.0"

from .constraints import (
    ConstraintSet,
    PairFileError,
    PairLoadReport,
    constraint_stats,
    hypernym_closure,
    load_pairs,
    quad_join,
)
from .embeddings import (
    EmbeddingFormatError,
    EmbeddingStore,
    LookupResult,
    backoff_lookup,
    cosine,
    distance,
    load_embeddings,
    nearest_neighbors,
    save_embeddings,
)
from .evaluate import (
    EvalReport,
    RelationDataset,
    RelationEntry,
    SimilarityDataset,
    average_ranks,
    bibless_classify,
    bless_directionality,
    eval_similarity,
    hyper_score,
    hyperlex_eval,
    load_relation_dataset,
    load_similarity_dataset,
    spearman,
    wbless_classify,
)
from .losses import Margins
from .sampling import MiniBatch, plan_epoch
from .specializer import (
    PRESETS,
    NonFiniteGradientError,
    SpecializeConfig,
    TrainLog,
    adagrad_step,
    specialize,
)

__all__ = [
    "__version__",
    "ConstraintSet", "PairFileError", "PairLoadReport", "constraint_stats",
    "hypernym_closure", "load_pairs",
    "EmbeddingFormatError", "EmbeddingStore", "LookupResult", "backoff_lookup",
    "cosine", "distance", "load_embeddings", "nearest_neighbors", "save_embeddings",
    "EvalReport", "RelationDataset", "RelationEntry", "SimilarityDataset",
    "average_ranks", "bibless_classify", "bless_directionality", "eval_similarity",
    "hyper_score", "hyperlex_eval", "load_relation_dataset", "load_similarity_dataset",
    "spearman", "wbless_classify",
    "Margins", "MiniBatch", "plan_epoch", "quad_join",
    "PRESETS", "NonFiniteGradientError", "SpecializeConfig", "TrainLog",
    "adagrad_step", "specialize",
]
