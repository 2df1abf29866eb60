import dataclasses
import importlib
import inspect
import os
import subprocess
import sys

import pytest

import lexfit
from lexfit import sampling

# the per-instance loss path; BatchLoss is the one kernel now
DELETED = (
    "LossResult", "distance_with_grads", "contrastive_loss", "triplet_attract_loss",
    "triplet_repel_loss", "quadruplet_hierarchy_loss", "preservation_loss",
    "counterfit_preserve_loss", "asymmetric_norm_score", "asymmetric_norm_loss",
    "select_negatives", "select_positives", "classify_negative",
    # one normalization per matrix: cosines are dots of unit_rows
    "cosine_matrix",
    # one name per value: specialize with the retrofitting preset, SpecializeConfig.seed
    "retrofit", "DEFAULT_SEED",
    # one neighbour ranking, row by row, for the blocked and the one-row screen
    "top_k",
)

# one matrix per store: the load-time copy, and the parameters that chose it
# or flipped a ratio a caller flips by swapping the words; and a depth limit
# no caller set
DELETED_PARAMETERS = (
    (lexfit.EmbeddingStore.geometry, "original"),
    (lexfit.hyper_score, "hypernym_norm_in_numerator"),
    (lexfit.hypernym_closure, "max_depth"),
)

# one name per value: ``row is not None``, and a flag nothing reads
DELETED_FIELDS = (
    (lexfit.LookupResult, "covered"),
    (lexfit.RelationEntry, "direction_known"),
)

# their one home is SpecializeConfig's negative_policy and sample_k
REQUIRED_PARAMETERS = (
    (sampling.mine_batch, ("mode", "policy", "k")),
    (sampling.mine_instances, ("mode", "policy", "k")),
)

PUBLIC = (
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
)


def test_public_names_are_pinned():
    assert tuple(lexfit.__all__) == PUBLIC


def test_every_exported_name_resolves():
    assert len(set(lexfit.__all__)) == len(lexfit.__all__)
    for name in lexfit.__all__:
        assert getattr(lexfit, name) is not None


@pytest.mark.parametrize(
    "module", ["lexfit", "lexfit.embeddings", "lexfit.losses", "lexfit.sampling",
               "lexfit.specializer", "lexfit.cli"]
)
def test_deleted_names_are_gone(module):
    mod = importlib.import_module(module)
    assert not [name for name in DELETED if hasattr(mod, name)]
    assert not set(DELETED) & set(getattr(mod, "__all__", ()))


def test_a_store_is_one_matrix():
    store = lexfit.EmbeddingStore(["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
    assert not hasattr(store, "original")
    assert list(inspect.signature(lexfit.EmbeddingStore.geometry).parameters) == ["self"]
    for function, name in DELETED_PARAMETERS:
        assert name not in inspect.signature(function).parameters


def test_one_name_per_value():
    store = lexfit.EmbeddingStore(["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
    assert not hasattr(store, "row_of")  # store.index[token]
    for cls, name in DELETED_FIELDS:
        assert name not in {field.name for field in dataclasses.fields(cls)}
    for function, names in REQUIRED_PARAMETERS:
        parameters = inspect.signature(function).parameters
        assert all(parameters[name].default is inspect.Parameter.empty for name in names)


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first use, and sampling looks it up at each draw
    src = os.path.dirname(os.path.dirname(lexfit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, lexfit.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"
