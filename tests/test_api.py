import importlib
import inspect

import pytest

import lexfit

# the per-instance loss path; BatchLoss is the one kernel now
DELETED = (
    "LossResult", "distance_with_grads", "contrastive_loss", "triplet_attract_loss",
    "triplet_repel_loss", "quadruplet_hierarchy_loss", "preservation_loss",
    "counterfit_preserve_loss", "asymmetric_norm_score", "asymmetric_norm_loss",
    "select_negatives", "select_positives", "classify_negative",
    # one normalization per matrix: cosines are dots of unit_rows
    "cosine_matrix",
)

# one matrix per store: the load-time copy, and the parameters that chose it
# or flipped a ratio a caller flips by swapping the words
DELETED_PARAMETERS = (
    (lexfit.EmbeddingStore.geometry, "original"),
    (lexfit.hyper_score, "hypernym_norm_in_numerator"),
)


def test_every_exported_name_resolves():
    assert len(set(lexfit.__all__)) == len(lexfit.__all__)
    for name in lexfit.__all__:
        assert getattr(lexfit, name) is not None


@pytest.mark.parametrize(
    "module", ["lexfit", "lexfit.embeddings", "lexfit.losses", "lexfit.sampling"]
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
