import numpy as np
import pytest

from lexfit import (
    EmbeddingStore,
    Margins,
    asymmetric_norm_loss,
    asymmetric_norm_score,
    contrastive_loss,
    counterfit_preserve_loss,
    distance,
    preservation_loss,
    quadruplet_hierarchy_loss,
    triplet_attract_loss,
    triplet_repel_loss,
)
from gradcheck import GENERATORS, check_kernel, draw_instance
from helpers import random_store


def unit(angle_deg, dim=2):
    theta = np.deg2rad(angle_deg)
    v = np.zeros(dim)
    v[0], v[1] = np.cos(theta), np.sin(theta)
    return v


def angle_store(*angles):
    return EmbeddingStore([f"w{i}" for i in range(len(angles))], [unit(a) for a in angles])


class TestMargins:
    def test_defaults(self):
        m = Margins()
        assert (m.m_syn, m.m_ant, m.m_hyp) == (0.9, 0.3, 0.6)
        assert (m.m_hie_syn, m.m_hie_hyp, m.gamma_reg) == (0.001, 0.6, 0.001)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Margins(m_syn=-0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="margin m_ant must be finite and >= 0"):
            Margins(m_ant=value)


class TestContrastive:
    def test_identical_similar_pair(self):
        store = angle_store(30, 30)
        res = contrastive_loss(0, 1, 1, 0.9, store)
        assert res.loss < 1e-12

    def test_inactive_hinge(self):
        store = angle_store(0, 120)  # D ~= 1.5 > 0.9
        res = contrastive_loss(0, 1, 0, 0.9, store)
        assert res.loss == 0.0
        assert res.grads == {}

    def test_active_hinge_value(self):
        store = angle_store(0, 60)
        d = distance(store.current[0], store.current[1])
        res = contrastive_loss(0, 1, 0, 0.9, store)
        assert abs(res.loss - (0.9 - d)) < 1e-12


class TestTripletAttract:
    def test_inactive(self):
        store = angle_store(0, 20, 160)  # m + D(a,p) - D(a,n) < 0
        res = triplet_attract_loss(0, 1, [2], 0.9, store)
        assert res.loss == 0.0 and res.grads == {}

    def test_direct_substitution(self):
        store = angle_store(0, 60, 85)
        d_ap = distance(store.current[0], store.current[1])
        d_an = distance(store.current[0], store.current[2])
        res = triplet_attract_loss(0, 1, [2], 0.9, store)
        assert abs(res.loss - (0.9 + d_ap - d_an)) < 1e-12

    def test_scale_invariance(self):
        store = random_store(3, 4, 7)
        before = triplet_attract_loss(0, 1, [2, 3], 0.9, store).loss
        store.current[0] *= 3.7
        store.current[2] *= 0.21
        after = triplet_attract_loss(0, 1, [2, 3], 0.9, store).loss
        assert abs(before - after) < 1e-9

    def test_empty_negatives_rejected(self):
        store = random_store(0, 3, 5)
        with pytest.raises(ValueError):
            triplet_attract_loss(0, 1, [], 0.9, store)


class TestTripletRepel:
    def test_inactive(self):
        store = angle_store(0, 175, 10)  # antonym already far beyond the positive
        res = triplet_repel_loss(0, 1, [2], 0.3, store)
        assert res.loss == 0.0 and res.grads == {}

    def test_direct_substitution(self):
        store = angle_store(0, 70, 60)
        d_an = distance(store.current[0], store.current[1])
        d_ap = distance(store.current[0], store.current[2])
        res = triplet_repel_loss(0, 1, [2], 0.3, store)
        assert abs(res.loss - (0.3 + d_ap - d_an)) < 1e-12


class TestHypernymTriplet:
    def test_inactive(self):
        store = angle_store(0, 40, 150)
        res = triplet_attract_loss(0, 1, [2], 0.6, store)
        assert res.loss == 0.0

    def test_direct_substitution(self):
        store = angle_store(0, 70, 100)
        d_ah = distance(store.current[0], store.current[1])
        d_an = distance(store.current[0], store.current[2])
        res = triplet_attract_loss(0, 1, [2], 0.6, store)
        assert abs(res.loss - (0.6 + d_ah - d_an)) < 1e-12


class TestQuadruplet:
    def test_all_hinges_inactive(self):
        # synonym hugs the anchor, hypernym a bit farther, negative far away
        store = angle_store(0, 5, 40, 170)
        res = quadruplet_hierarchy_loss(0, 1, 2, [3], 0.001, 0.6, store)
        assert res.loss == 0.0 and res.grads == {}

    def test_first_term_direct_substitution(self):
        # synonym farther than the hypernym activates only the ordering hinges
        store = angle_store(0, 50, 30, 175)
        cur = store.current
        d_as = distance(cur[0], cur[1])
        d_ah = distance(cur[0], cur[2])
        d_sh = distance(cur[1], cur[2])
        expected = max(0.0, 0.001 + d_as - d_ah) + max(0.0, 0.001 + d_as - d_sh)
        res = quadruplet_hierarchy_loss(0, 1, 2, [3], 0.001, 0.6, store)
        assert abs(res.loss - expected) < 1e-12

    def test_degenerate_equality_is_zero(self):
        vec = np.array([1.0, 2.0, 3.0])
        store = EmbeddingStore(["a", "s", "h", "n"], [vec, vec, vec, vec])
        res = quadruplet_hierarchy_loss(0, 1, 2, [3], 0.0, 0.0, store)
        assert res.loss == 0.0


class TestPreservation:
    def test_zero_at_original(self):
        store = random_store(5, 4, 6)
        res = preservation_loss([0, 1, 2, 3], store, 0.001)
        assert res.loss == 0.0
        for g in res.grads.values():
            np.testing.assert_array_equal(g, np.zeros(6))

    def test_orthogonal_rotation(self):
        store = EmbeddingStore(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        store.current[0] = [0.0, 1.0]
        res = preservation_loss([0], store, 0.001)
        assert abs(res.loss - 0.001) < 1e-15


class TestCounterfitPreserve:
    def test_unchanged_vectors(self):
        store = random_store(6, 4, 5)
        neighbors = [(1, distance(store.original[0], store.original[1]))]
        res = counterfit_preserve_loss(0, neighbors, store)
        assert res.loss == 0.0

    def test_drift_contribution(self):
        store = angle_store(0, 60)
        res = counterfit_preserve_loss(0, [(1, 0.3)], store)
        d = distance(store.current[0], store.current[1])
        assert abs(res.loss - (d - 0.3)) < 1e-12


class TestAsymmetricNorm:
    def test_already_ordered(self):
        store = EmbeddingStore(["hypo", "hyper"], [[1.0, 0.0], [3.0, 0.0]])
        res = asymmetric_norm_loss(0, 1, 1.0, store)
        assert res.loss == 0.0 and res.grads == {}

    def test_equal_norms_boundary(self):
        store = EmbeddingStore(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        res = asymmetric_norm_loss(0, 1, 1.0, store)
        assert res.loss == 0.0

    def test_violation_value(self):
        store = EmbeddingStore(["hypo", "hyper"], [[3.0, 0.0], [1.0, 0.0]])
        res = asymmetric_norm_loss(0, 1, 1.0, store)
        assert abs(res.loss - 0.5) < 1e-15

    def test_score_antisymmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            u = rng.standard_normal(8)
            v = rng.standard_normal(8)
            assert asymmetric_norm_score(u, v) == -asymmetric_norm_score(v, u)


class TestAttractRepelReg:
    def test_unchanged(self):
        store = random_store(8, 3, 4)
        assert preservation_loss([0, 1, 2], store, 1e-9).loss == 0.0

    def test_orthogonal_rotation_scaled(self):
        store = EmbeddingStore(["a", "b", "c"], np.eye(3))
        store.current[0] = [0.0, 1.0, 0.0]
        res = preservation_loss([0, 1, 2], store, 1e-9)
        assert abs(res.loss - 1e-9) < 1e-21


@pytest.mark.parametrize("kernel", sorted(GENERATORS))
def test_gradients_match_finite_differences(kernel):
    assert check_kernel(kernel, instances=25, seed=101) < 1e-4


@pytest.mark.parametrize("kernel", sorted(GENERATORS))
def test_inactive_instances_have_zero_gradients(kernel):
    # hinge-only kernels: strictly inactive instances must carry no gradient rows
    rng = np.random.default_rng(77)
    hinge_only = {
        "triplet_attract", "triplet_repel",
        "quadruplet_hierarchy", "counterfit_preserve", "asymmetric_norm",
    }
    if kernel not in hinge_only:
        pytest.skip("kernel has non-hinge terms")
    seen_inactive = False
    for _ in range(200):
        loss_fn, _, _ = draw_instance(kernel, rng)
        res = loss_fn()
        if res.n_active == 0:
            seen_inactive = True
            assert res.loss == 0.0
            assert res.grads == {}
    assert seen_inactive
