import importlib

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
