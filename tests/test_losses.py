import dataclasses
import warnings

import numpy as np
import pytest

from lexfit import EmbeddingStore, Margins, distance
from lexfit.embeddings import unit_rows
from lexfit.losses import BatchLoss
from gradcheck import BATCH_SIZES, GENERATORS, check_kernel, draw_instance
from helpers import random_store
from reference_losses import bincount_gradient


def unit(angle_deg, dim=2):
    theta = np.deg2rad(angle_deg)
    v = np.zeros(dim)
    v[0], v[1] = np.cos(theta), np.sin(theta)
    return v


def angle_store(*angles):
    return EmbeddingStore([f"w{i}" for i in range(len(angles))], [unit(a) for a in angles])


def idx(*rows):
    return np.array(rows, dtype=np.intp)


def batch_loss(store, original=None):
    """BatchLoss over every row of ``store``, anchored to ``original``, by
    default the rows as they are."""
    return BatchLoss(store, np.arange(len(store)), store.current if original is None else original)


def hinge(store, margin, *terms):
    """BatchLoss over every row of ``store`` with one hinge family of ``(sign, left, right)``."""
    res = batch_loss(store)
    res.hinge(margin, *((sign, idx(*left), idx(*right)) for sign, left, right in terms))
    return res


def no_gradient(res):
    return not res.gradient().any()


def quadruplet(store, negatives, m_hie_syn, m_hie_hyp):
    """The three quadruplet hinges of anchor 0, synonym 1 and hypernym 2, as training adds them."""
    res = batch_loss(store)
    a, s, h = idx(0), idx(1), idx(2)
    res.hinge(m_hie_syn, (1.0, a, s), (-1.0, a, h))
    res.hinge(m_hie_syn, (1.0, a, s), (-1.0, s, h))
    k = len(negatives)
    res.hinge(m_hie_hyp, (1.0, a.repeat(k), s.repeat(k)), (-1.0, h.repeat(k), idx(*negatives)),
              count=2)
    return res


def preserve(store, rows, weight, original=None):
    res = batch_loss(store, original)
    res.preserve(idx(*rows), weight)
    return res


def norm_asymmetry(store, hyponym, hypernym, weight):
    res = batch_loss(store)
    res.norm_asymmetry(idx(hyponym), idx(hypernym), weight)
    return res


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
    # counter-fitting: pull synonyms within margin m (here 0), push antonyms beyond it
    def test_identical_similar_pair(self):
        store = angle_store(30, 30)
        res = hinge(store, 0.0, (1.0, [0], [1]))
        assert res.loss < 1e-12

    def test_inactive_hinge(self):
        store = angle_store(0, 120)  # D ~= 1.5 > 0.9
        res = hinge(store, 0.9, (-1.0, [0], [1]))
        assert res.loss == 0.0
        assert no_gradient(res)

    def test_active_hinge_value(self):
        store = angle_store(0, 60)
        d = distance(store.current[0], store.current[1])
        res = hinge(store, 0.9, (-1.0, [0], [1]))
        assert abs(res.loss - (0.9 - d)) < 1e-12


class TestTripletAttract:
    def test_inactive(self):
        store = angle_store(0, 20, 160)  # m + D(a,p) - D(a,n) < 0
        res = hinge(store, 0.9, (1.0, [0], [1]), (-1.0, [0], [2]))
        assert res.loss == 0.0 and no_gradient(res)

    def test_direct_substitution(self):
        store = angle_store(0, 60, 85)
        d_ap = distance(store.current[0], store.current[1])
        d_an = distance(store.current[0], store.current[2])
        res = hinge(store, 0.9, (1.0, [0], [1]), (-1.0, [0], [2]))
        assert abs(res.loss - (0.9 + d_ap - d_an)) < 1e-12

    def test_scale_invariance(self):
        store = random_store(3, 4, 7)
        terms = (1.0, [0, 0], [1, 1]), (-1.0, [0, 0], [2, 3])
        before = hinge(store, 0.9, *terms).loss
        with store.writing() as matrix:
            matrix[0] *= 3.7
            matrix[2] *= 0.21
        after = hinge(store, 0.9, *terms).loss
        assert abs(before - after) < 1e-9


class TestTripletRepel:
    # antonym 1 pushed beyond positive 2: max(0, m + D(a, p) - D(a, ant))
    def test_inactive(self):
        store = angle_store(0, 175, 10)  # antonym already far beyond the positive
        res = hinge(store, 0.3, (1.0, [0], [2]), (-1.0, [0], [1]))
        assert res.loss == 0.0 and no_gradient(res)

    def test_direct_substitution(self):
        store = angle_store(0, 70, 60)
        d_an = distance(store.current[0], store.current[1])
        d_ap = distance(store.current[0], store.current[2])
        res = hinge(store, 0.3, (1.0, [0], [2]), (-1.0, [0], [1]))
        assert abs(res.loss - (0.3 + d_ap - d_an)) < 1e-12


class TestHypernymTriplet:
    def test_inactive(self):
        store = angle_store(0, 40, 150)
        res = hinge(store, 0.6, (1.0, [0], [1]), (-1.0, [0], [2]))
        assert res.loss == 0.0

    def test_direct_substitution(self):
        store = angle_store(0, 70, 100)
        d_ah = distance(store.current[0], store.current[1])
        d_an = distance(store.current[0], store.current[2])
        res = hinge(store, 0.6, (1.0, [0], [1]), (-1.0, [0], [2]))
        assert abs(res.loss - (0.6 + d_ah - d_an)) < 1e-12


class TestQuadruplet:
    def test_all_hinges_inactive(self):
        # synonym hugs the anchor, hypernym a bit farther, negative far away
        store = angle_store(0, 5, 40, 170)
        res = quadruplet(store, [3], 0.001, 0.6)
        assert res.loss == 0.0 and no_gradient(res)

    def test_first_term_direct_substitution(self):
        # synonym farther than the hypernym activates only the ordering hinges
        store = angle_store(0, 50, 30, 175)
        cur = store.current
        d_as = distance(cur[0], cur[1])
        d_ah = distance(cur[0], cur[2])
        d_sh = distance(cur[1], cur[2])
        expected = max(0.0, 0.001 + d_as - d_ah) + max(0.0, 0.001 + d_as - d_sh)
        res = quadruplet(store, [3], 0.001, 0.6)
        assert abs(res.loss - expected) < 1e-12

    def test_degenerate_equality_is_zero(self):
        vec = np.array([1.0, 2.0, 3.0])
        store = EmbeddingStore(["a", "s", "h", "n"], [vec, vec, vec, vec])
        res = quadruplet(store, [3], 0.0, 0.0)
        assert res.loss == 0.0


class TestPreservation:
    def test_zero_at_original(self):
        store = random_store(5, 4, 6)
        res = preserve(store, [0, 1, 2, 3], 0.001)
        assert res.loss == 0.0
        np.testing.assert_array_equal(res.gradient(), np.zeros((4, 6)))

    def test_orthogonal_rotation(self):
        store = EmbeddingStore(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        original = store.current.copy()
        with store.writing() as matrix:
            matrix[0] = [0.0, 1.0]
        res = preserve(store, [0], 0.001, original)
        assert abs(res.loss - 0.001) < 1e-15


class TestCounterfitPreserve:
    # max(0, D_current - D_original) per (row, neighbour), margin -D_original
    def test_unchanged_vectors(self):
        store = random_store(6, 4, 5)
        d_orig = distance(store.current[0], store.current[1])
        res = hinge(store, -d_orig, (1.0, [0], [1]))
        assert res.loss == 0.0

    def test_drift_contribution(self):
        store = angle_store(0, 60)
        res = hinge(store, -0.3, (1.0, [0], [1]))
        d = distance(store.current[0], store.current[1])
        assert abs(res.loss - (d - 0.3)) < 1e-12


class TestAsymmetricNorm:
    def test_already_ordered(self):
        store = EmbeddingStore(["hypo", "hyper"], [[1.0, 0.0], [3.0, 0.0]])
        res = norm_asymmetry(store, 0, 1, 1.0)
        assert res.loss == 0.0 and no_gradient(res)

    def test_equal_norms_boundary(self):
        store = EmbeddingStore(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        res = norm_asymmetry(store, 0, 1, 1.0)
        assert res.loss == 0.0

    def test_violation_value(self):
        store = EmbeddingStore(["hypo", "hyper"], [[3.0, 0.0], [1.0, 0.0]])
        res = norm_asymmetry(store, 0, 1, 1.0)
        assert abs(res.loss - 0.5) < 1e-15

    def test_score_antisymmetry(self):
        # the hinge is max(0, score); swapping the pair negates the score exactly
        rng = np.random.default_rng(2)
        for _ in range(20):
            store = EmbeddingStore(["u", "v"], rng.standard_normal((2, 8)))
            forward = norm_asymmetry(store, 0, 1, 1.0)
            backward = norm_asymmetry(store, 1, 0, 1.0)
            nu, nv = forward.norms
            score = (nu - nv) / (nu + nv)
            assert forward.loss == max(0.0, score)
            assert backward.loss == max(0.0, -score)
            assert forward.n_active + backward.n_active == 1

    def test_norms_summing_past_float64(self):
        # |u| + |v| overflows, though each norm is representable
        big = [[1e308, 1e308], [9e307, 1e308]]
        store = EmbeddingStore(["hypo", "hyper"], big)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = norm_asymmetry(store, 0, 1, 1.0)
            block = res.gradient()
        assert res.loss > 0.0 and res.n_active == 1
        assert np.isfinite(block).all() and block[0].any()
        # the score is scale-free, so the rows scaled by 2^-1024 give the same
        # loss and a gradient larger by exactly 2^1024, up to subnormal rounding
        small = norm_asymmetry(EmbeddingStore(["hypo", "hyper"], np.ldexp(big, -1024)), 0, 1, 1.0)
        assert res.loss == small.loss
        np.testing.assert_allclose(np.ldexp(block, 1024), small.gradient(), rtol=1e-10)


class TestAttractRepelReg:
    def test_unchanged(self):
        store = random_store(8, 3, 4)
        assert preserve(store, [0, 1, 2], 1e-9).loss == 0.0

    def test_orthogonal_rotation_scaled(self):
        store = EmbeddingStore(["a", "b", "c"], np.eye(3))
        original = store.current.copy()
        with store.writing() as matrix:
            matrix[0] = [0.0, 1.0, 0.0]
        res = preserve(store, [0, 1, 2], 1e-9, original)
        assert abs(res.loss - 1e-9) < 1e-21


@pytest.mark.parametrize("kernel", sorted(GENERATORS))
def test_gradients_match_finite_differences(kernel):
    assert check_kernel(kernel, instances=25, seed=101) < 1e-4


@pytest.mark.parametrize("power", [600, -600])
@pytest.mark.parametrize("kernel", sorted(set(GENERATORS) - {"asymmetric_norm"}))
def test_gradient_is_scale_covariant(kernel, power):
    # cosine distance is scale-free, so scaling row 0 by 2^power scales its
    # gradient by exactly 2^-power and leaves every other row's alone
    rng = np.random.default_rng(91)
    touched = 0
    for batch in BATCH_SIZES:
        for _ in range(5):
            case = draw_instance(kernel, rng, batch)
            want = case.batch_loss().gradient()
            original, current = case.original.copy(), case.store.current.copy()
            original[0] = np.ldexp(original[0], power)
            current[0] = np.ldexp(current[0], power)
            scaled = EmbeddingStore(case.store.vocab, current)
            got = dataclasses.replace(case, store=scaled, original=original).batch_loss().gradient()
            np.testing.assert_array_equal(got[0], np.ldexp(want[0], -power))
            np.testing.assert_array_equal(got[1:], want[1:])
            touched += bool(want[0].any())
    assert touched


@pytest.mark.parametrize("kernel", sorted(GENERATORS))
def test_inactive_instances_have_zero_gradients(kernel):
    # hinge-only forms: strictly inactive instances must carry a zero gradient block
    rng = np.random.default_rng(77)
    if kernel == "preservation":
        pytest.skip("preservation has no hinge")
    seen_inactive = False
    for _ in range(200):
        res = draw_instance(kernel, rng).batch_loss()
        if res.n_active == 0:
            seen_inactive = True
            assert res.loss == 0.0
            assert no_gradient(res)
    assert seen_inactive


class TestGradientAssembly:
    def loss_with_repeats(self, store, rows, original):
        res = BatchLoss(store, rows, original[rows])
        # the same (dst, src) pairs recur within one family and across families
        left, right, other = idx(0, 0, 1, 0, 2), idx(1, 1, 2, 1, 0), idx(2, 3, 3, 3, 1)
        res.hinge(2.0, (1.0, left, right), (-1.0, left, other))
        res.hinge(2.0, (1.0, left, right), (-1.0, right, other), count=2)
        res.preserve(idx(0, 0, 1, 3, 3, 3), 0.5)
        res.norm_asymmetry(idx(0, 1, 0), idx(2, 3, 2), 1.0)
        return res

    def naive_gradient(self, res):
        # every term scales a unit row: a current one, or an original one
        # that preserve() appended after them
        n = len(res.rows)
        np.testing.assert_array_equal(res._sources[:n], unit_rows(res.current)[0])
        block = np.zeros_like(res.current)
        for dst, src, coef in zip(res._dst, res._src, res._coef):
            original = src >= n
            np.testing.assert_array_equal(
                res._sources[src[original]], unit_rows(res.original[dst[original]])[0]
            )
            np.add.at(block, dst, coef[:, None] * res._sources[src])
        return block

    def test_matches_naive_accumulation(self):
        store = random_store(31, 8, 5)
        original = store.current.copy()
        with store.writing() as matrix:
            matrix += 0.5 * np.random.default_rng(32).standard_normal((8, 5))
        res = self.loss_with_repeats(store, np.arange(6), original)
        assert res.n_active > 0
        got, want = res.gradient(), self.naive_gradient(res)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        # rows 4 and 5 are gathered but no term touches them
        assert not got[4:].any()

    def test_overflowing_norm_row_is_nan(self):
        store = random_store(33, 6, 2)
        original = store.current.copy()
        with store.writing() as matrix:
            matrix[5] = [1.5e308, 1.5e308]
        res = self.loss_with_repeats(store, np.arange(6), original)
        assert np.isinf(res.norms[5])
        block = res.gradient()
        assert np.isnan(block[5]).all()
        assert np.isfinite(block[:5]).all()


def assert_bit_identical(res):
    got, want = res.gradient(), bincount_gradient(res)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    return got


class TestGradientScatter:
    """The rank-by-rank scatter of ``BatchLoss.gradient`` sums every cell as
    the one-``bincount`` scatter of ``reference_losses`` does, bit for bit."""

    @pytest.mark.parametrize("kernel", sorted(GENERATORS))
    def test_gradcheck_batches(self, kernel):
        rng = np.random.default_rng(55)
        for batch in BATCH_SIZES:
            for _ in range(25):
                assert_bit_identical(draw_instance(kernel, rng, batch).batch_loss())

    def test_hub_batch(self):
        # row 0 is pulled toward 240 rows and pushed from 60 more, as a hypernym
        # shared by a whole batch is; the other rows meet a few terms each
        rng = np.random.default_rng(57)
        store = random_store(58, 400, 300)
        original = store.current + 0.1 * rng.standard_normal(store.current.shape)
        res = BatchLoss(store, np.arange(400), original)
        hub, near, far = np.zeros(240, np.intp), np.arange(1, 241), np.arange(241, 301).repeat(4)
        res.hinge(1.0, (1.0, hub, near), (-1.0, hub, far))
        left, right = rng.integers(1, 400, size=(2, 300))
        res.hinge(0.5, (1.0, left, right), (-1.0, right, rng.integers(1, 400, size=300)))
        res.preserve(np.arange(400), 0.01)
        res.norm_asymmetry(left[:50], right[:50], 1.0)
        m = len(res._sources)
        keys = np.unique(np.concatenate(res._dst) * m + np.concatenate(res._src))
        assert np.count_nonzero(keys // m == 0) >= 200
        assert assert_bit_identical(res)[0].any()

    def test_batch_without_terms(self):
        store = random_store(59, 5, 4)
        res = batch_loss(store)
        assert not assert_bit_identical(res).any()
        # every hinge inactive: terms are added to no row
        res.hinge(-10.0, (1.0, idx(0, 1), idx(2, 3)))
        assert res.n_hinges == 2 and not res._dst
        assert not assert_bit_identical(res).any()

    def test_repeated_pairs_and_an_overflowing_norm(self):
        store = random_store(60, 6, 2)
        original = store.current.copy()
        with store.writing() as matrix:
            matrix[5] = [1.5e308, 1.5e308]
        block = assert_bit_identical(
            TestGradientAssembly().loss_with_repeats(store, np.arange(6), original))
        assert np.isnan(block[5]).all() and np.isfinite(block[:5]).all()
