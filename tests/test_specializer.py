import copy
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from lexfit import (
    PRESETS,
    ConstraintSet,
    EmbeddingStore,
    Margins,
    NonFiniteGradientError,
    SpecializeConfig,
    adagrad_step,
    distance,
    hypernym_closure,
    plan_epoch,
    specialize,
)
from lexfit import embeddings, sampling, specializer
from helpers import held, joined, random_store, taxonomy_fixture, toy_hierarchy_fixture
from reference_losses import (
    LossResult,
    asymmetric_norm_loss,
    contrastive_loss,
    counterfit_preserve_loss,
    distance_with_grads,
    mine_one,
    preservation_loss,
    quadruplet_hierarchy_loss,
    triplet_attract_loss,
    triplet_repel_loss,
)


class TestAdagradStep:
    def test_zero_gradient_no_change(self):
        matrix = np.arange(12.0).reshape(3, 4) + 1.0
        acc = np.zeros_like(matrix)
        before = matrix.copy()
        adagrad_step(matrix, acc, np.array([1]), np.zeros((1, 4)), 0.5, 1e-8, np.arange(3))
        np.testing.assert_array_equal(matrix, before)
        np.testing.assert_array_equal(acc, np.zeros_like(matrix))
        # signed zeros under signed zero gradients keep their sign, also at
        # epsilon 0 on coordinates never updated
        matrix = np.array([[-0.0, 0.0, -0.0, 0.0, 2.0]])
        acc, before = np.zeros_like(matrix), matrix.copy()
        block = np.array([[-0.0, -0.0, 0.0, 0.0, -0.0]])
        for epsilon in (1e-8, 0.0):
            adagrad_step(matrix, acc, np.array([0]), block, 0.5, epsilon, np.arange(1))
        assert matrix.tobytes() == before.tobytes()
        assert not acc.any()

    def test_recurrence_single_coordinate(self):
        matrix = np.zeros((1, 1))
        acc = np.zeros((1, 1))
        adagrad_step(matrix, acc, np.array([0]), np.array([[1.0]]), 1.0, 0.0, np.arange(1))
        assert matrix[0, 0] == -1.0
        adagrad_step(matrix, acc, np.array([0]), np.array([[1.0]]), 1.0, 0.0, np.arange(1))
        assert abs(matrix[0, 0] - (-1.0 - 1.0 / np.sqrt(2.0))) < 1e-15

    def test_matches_dense_oracle(self):
        # oracle: dense AdaGrad over full-size gradient arrays
        rng = np.random.default_rng(8)
        sparse_m = rng.standard_normal((6, 4))
        dense_m = sparse_m.copy()
        sparse_acc = np.zeros_like(sparse_m)
        dense_acc = np.zeros_like(dense_m)
        lr, eps = 0.1, 1e-8
        for _ in range(25):
            rows = rng.choice(6, size=rng.integers(1, 4), replace=False)
            block = rng.standard_normal((len(rows), 4))
            block[rng.random(block.shape) < 0.25] = 0.0
            adagrad_step(sparse_m, sparse_acc, rows, block, lr, eps, np.arange(6))
            g_full = np.zeros_like(dense_m)
            g_full[rows] = block
            dense_acc += g_full**2
            dense_m -= lr * g_full / (np.sqrt(dense_acc) + eps)
        np.testing.assert_array_equal(sparse_m, dense_m)
        np.testing.assert_array_equal(sparse_acc, dense_acc)

    def test_non_finite_gradient_aborts(self):
        matrix = np.ones((2, 2))
        with pytest.raises(NonFiniteGradientError, match="row 1"):
            adagrad_step(matrix, np.zeros_like(matrix), np.array([1]),
                         np.array([[1.0, np.nan]]), 0.1, 1e-8, np.arange(2))

    def test_non_finite_later_row_writes_nothing(self):
        matrix = np.arange(12.0).reshape(4, 3) + 1.0
        acc = np.full_like(matrix, 0.5)
        before_matrix, before_acc = matrix.copy(), acc.copy()
        block = np.ones((3, 3))
        block[2, 1] = np.nan
        with pytest.raises(NonFiniteGradientError, match="row 3"):
            adagrad_step(matrix, acc, np.array([0, 1, 3]), block, 0.1, 1e-8, np.arange(4))
        np.testing.assert_array_equal(matrix, before_matrix)
        np.testing.assert_array_equal(acc, before_acc)

    def test_overflowing_square_writes_nothing(self):
        # a finite gradient whose square overflows, as a unit row over a ~1e-200 norm gives
        matrix = np.ones((3, 2))
        acc = np.full_like(matrix, 0.5)
        before_matrix, before_acc = matrix.copy(), acc.copy()
        block = np.array([[1.0, 2.0], [3e200, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteGradientError, match="row 2"):
                adagrad_step(matrix, acc, np.array([0, 2]), block, 0.1, 1e-8, np.arange(3))
        np.testing.assert_array_equal(matrix, before_matrix)
        np.testing.assert_array_equal(acc, before_acc)


    def test_state_of_some_rows_matches_full_state(self):
        # state over rows 1, 3 and 4 only: the rows and state it holds move as
        # full state moves them, and the other rows are never touched
        rng = np.random.default_rng(9)
        matrix = rng.standard_normal((6, 4))
        full_m, full_acc = matrix.copy(), np.zeros_like(matrix)
        acc_rows, acc = np.array([1, 3, 4]), np.zeros((3, 4))
        for _ in range(20):
            rows = rng.choice(acc_rows, size=rng.integers(1, 4), replace=False)
            block = rng.standard_normal((len(rows), 4))
            adagrad_step(matrix, acc, rows, block, 0.1, 1e-8, acc_rows)
            adagrad_step(full_m, full_acc, rows, block, 0.1, 1e-8, np.arange(6))
        assert matrix.tobytes() == full_m.tobytes()
        assert acc.tobytes() == full_acc[acc_rows].tobytes()
        assert not np.delete(full_acc, acc_rows, axis=0).any()

    @pytest.mark.parametrize("rows", [[1, 2], [5], [0, 3]])
    def test_row_without_state_writes_nothing(self, rows):
        matrix = np.ones((6, 2))
        acc = np.full((2, 2), 0.5)
        with pytest.raises(ValueError, match="acc_rows"):
            adagrad_step(matrix, acc, np.array(rows), np.ones((len(rows), 2)), 0.1, 1e-8,
                         np.array([1, 3]))
        assert (matrix == 1.0).all() and (acc == 0.5).all()


class TestRetrofit:
    def test_isolated_word_unchanged(self):
        store = random_store(0, 3, 4)
        cs = ConstraintSet()
        cs.add("syn", [(0, 1)])
        before_row2 = store.current[2].copy()
        specialize(
            store, cs, SpecializeConfig("retrofitting", retrofit_alpha=1.0, retrofit_iterations=50)
        )
        np.testing.assert_array_equal(store.current[2], before_row2)

    def test_two_node_closed_form(self):
        # analytic fixed point of the two mutually linked words
        store = random_store(1, 2, 6)
        o_a, o_b = store.current[0].copy(), store.current[1].copy()
        cs = ConstraintSet()
        cs.add("syn", [(0, 1)])
        specialize(
            store, cs, SpecializeConfig("retrofitting", retrofit_alpha=1.0, retrofit_iterations=200)
        )
        np.testing.assert_allclose(store.current[0], (2 * o_a + o_b) / 3, atol=1e-6)
        np.testing.assert_allclose(store.current[1], (2 * o_b + o_a) / 3, atol=1e-6)

    def test_random_graph_fixed_point_residual(self):
        # oracle: substitute the converged vectors back into the update equation
        rng = np.random.default_rng(4)
        store = random_store(2, 10, 5)
        cs = ConstraintSet()
        edges = set()
        while len(edges) < 12:
            a, b = rng.integers(0, 10, size=2)
            if a != b:
                edges.add((min(a, b), max(a, b)))
        for a, b in edges:
            cs.add("syn", [(int(a), int(b))])
        original = store.current.copy()
        specialize(
            store, cs, SpecializeConfig("retrofitting", retrofit_alpha=1.0, retrofit_iterations=300)
        )
        adjacency = {}
        for a, b in held(cs, "syn"):
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        for word, neighbors in adjacency.items():
            expected = (original[word] + store.current[neighbors].mean(axis=0)) / 2.0
            assert np.max(np.abs(store.current[word] - expected)) < 1e-5

    @pytest.mark.parametrize("alpha", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_alpha(self, alpha):
        store = random_store(3, 4, 4)
        cs = ConstraintSet()
        cs.add("syn", [(0, 1)])
        before = store.current.copy()
        with pytest.raises(ValueError, match="retrofit_alpha"):
            specialize(store, cs, SpecializeConfig("retrofitting", retrofit_alpha=alpha))
        np.testing.assert_array_equal(store.current, before)

    def test_hypernym_edges_count(self):
        store = random_store(3, 4, 4)
        cs = ConstraintSet()
        cs.add("hyper", [(0, 1)])
        before = store.current[0].copy()
        specialize(store, cs, SpecializeConfig("retrofitting", retrofit_iterations=5))
        assert not np.array_equal(store.current[0], before)

    def test_rejects_constraints_without_links(self):
        # the retrofitting preset refuses a set without links, and leaves the store as it was
        cs = ConstraintSet()
        cs.add("ant", [(0, 1)])
        message = "requires nonempty synonyms or direct_hypernyms"
        with pytest.raises(ValueError, match=message):
            specialize(random_store(3, 4, 4), cs, SpecializeConfig("retrofitting"))
        store = random_store(3, 4, 4)
        before = store.current.copy()
        with pytest.raises(ValueError, match=message):
            specialize(store, cs, SpecializeConfig("retrofitting"))
        np.testing.assert_array_equal(store.current, before)

    def test_matches_the_per_row_mean(self):
        # oracle: each linked row's neighbour mean taken on its own, in pair order
        store, cs = toy_hierarchy_fixture(seed=2)
        pairs = sorted(set(held(cs, "syn")) | set(held(cs, "hyper")))
        adjacency = {}
        for a, b in pairs:
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        expected = store.current.copy()
        for _ in range(3):
            prev = expected.copy()
            for row, near in adjacency.items():
                expected[row] = (0.5 * store.current[row] + prev[near].mean(axis=0)) / 1.5
        specialize(
            store, cs, SpecializeConfig("retrofitting", retrofit_alpha=0.5, retrofit_iterations=3)
        )
        np.testing.assert_array_equal(store.current, expected)


class TestCounterfit:
    def make_toy(self, seed=0):
        store = random_store(seed, 30, 8)
        cs = ConstraintSet()
        for i in range(8):
            cs.add("syn", [(2 * i, 2 * i + 1)])
        for i in range(6):
            cs.add("ant", [(16 + i, 22 + i)])
        return store, cs

    def test_distances_move_as_intended(self):
        store, cs = self.make_toy()
        def mean_d(pairs):
            return float(np.mean([distance(store.current[a], store.current[b]) for a, b in pairs]))
        syn_before = mean_d(held(cs, "syn"))
        ant_before = mean_d(held(cs, "ant"))
        # margins chosen so both hinges start active on random vectors
        config = SpecializeConfig(
            preset="counterfitting", epochs=15, batch_size=8, seed=1,
            margins=Margins(m_syn=0.2, m_ant=1.5),
        )
        specialize(store, cs, config)
        assert mean_d(held(cs, "syn")) < syn_before
        assert mean_d(held(cs, "ant")) > ant_before

    def test_satisfied_constraints_leave_vectors_alone(self):
        # synonym pair at distance 0 and antonym pair at distance 2: no hinge fires
        store = EmbeddingStore(
            ["a", "a2", "b", "c"],
            [[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
        )
        cs = ConstraintSet()
        cs.add("syn", [(0, 1)])
        cs.add("ant", [(2, 3)])
        before = store.current.copy()
        config = SpecializeConfig(preset="counterfitting", epochs=3, batch_size=4, seed=0)
        specialize(store, cs, config)
        np.testing.assert_array_equal(store.current, before)

    def test_default_margins_pull_synonyms_together(self):
        store, cs = self.make_toy()
        def mean_d(pairs):
            return float(np.mean([distance(store.current[a], store.current[b]) for a, b in pairs]))
        syn_before = mean_d(held(cs, "syn"))
        config = SpecializeConfig(preset="counterfitting", epochs=15, batch_size=8, seed=1)
        assert config.margins == specializer.PRESET_TABLE["counterfitting"].margins
        specialize(store, cs, config)
        assert mean_d(held(cs, "syn")) < syn_before

    def test_unmoved_rows_with_inactive_constraints_give_zero(self):
        # D <= 2 < m_syn and D >= 0 = m_ant: only the preservation hinges
        # remain, and every row sits exactly at its original distances
        store, cs = self.make_toy()
        m = Margins(m_syn=2.0, m_ant=0.0)
        constrained = np.array(sorted({r for p in held(cs, "syn") + held(cs, "ant") for r in p}))
        neighbors = specializer._original_neighbor_sets(store, constrained, 10)
        ws = specializer.WorkingSet(store, np.concatenate((constrained, neighbors.ravel())))
        plan = plan_epoch(specializer.run_view(cs, "counterfitting").streams, 4, 1)
        for batch in plan:
            res = specializer._counterfit_batch_loss(batch, ws, constrained, neighbors, m)
            assert res.n_hinges > 0
            assert (res.n_active, res.loss) == (0, 0.0)
            assert not res.gradient().any()


def bruteforce_neighbors(vectors, rows, k):
    """Oracle: every pair's cosine on its own, ranked by a stable descending sort."""
    vectors = np.asarray(vectors, dtype=np.float64)
    # dividing a row by its largest component keeps every product in range
    unit = vectors / np.abs(vectors).max(axis=1, keepdims=True)
    sims = np.array([
        [float(u @ v) / np.sqrt(float(u @ u) * float(v @ v)) for v in unit] for u in unit
    ])
    np.fill_diagonal(sims, -np.inf)
    near = np.argsort(-sims[rows], axis=1, kind="stable")[:, :k]
    return near, 1.0 - np.take_along_axis(sims[rows], near, axis=1)


def original_neighbors(store, rows, k):
    """The precompute's neighbours, and their original distances from the
    cosines :func:`~lexfit.embeddings.nearest_rows` ranks them by."""
    near = specializer._original_neighbor_sets(store, rows, k)
    ranked, cosines = embeddings.nearest_rows(store.current, rows, k)
    np.testing.assert_array_equal(near, ranked)
    return near, 1.0 - cosines


class TestNeighborPrecompute:
    def test_matches_bruteforce_across_blocks(self, monkeypatch):
        monkeypatch.setattr(embeddings, "_NEIGHBOR_BLOCK_CELLS", 300)  # two rows per block
        monkeypatch.setattr(embeddings, "_NEIGHBOR_BLOCK_ROWS", 1)
        store = random_store(5, 150, 6)
        rows = np.array([0, 3, 17, 50, 51, 149])
        near, dist = original_neighbors(store, rows, 7)
        expected_near, expected_dist = bruteforce_neighbors(store.current, rows, 7)
        np.testing.assert_array_equal(near, expected_near)
        np.testing.assert_allclose(dist, expected_dist, rtol=0, atol=1e-12)

    def test_ties_go_to_the_smaller_row(self):
        vectors = [[0.0, 1.0], [1.0, 0.0], [2.0, 0.0], [0.0, 3.0], [-1.0, 0.0], [3.0, 0.0]]
        store = EmbeddingStore([f"w{i}" for i in range(6)], vectors)
        rows = np.arange(6)
        near = specializer._original_neighbor_sets(store, rows, 5)
        np.testing.assert_array_equal(near, bruteforce_neighbors(vectors, rows, 5)[0])

    def test_keeps_no_float32_rows(self):
        # the screen's float32 unit rows are the precompute's own, so they
        # are not held on the store through training
        store = random_store(6, 40, 5)
        specializer._original_neighbor_sets(store, np.arange(0, 40, 3), 4)
        assert store._geometry is None

    @pytest.mark.parametrize("block_rows", [1, 2, 3, 5, 40])
    def test_tied_ranks_match_stable_argsort_across_blocks(self, monkeypatch, block_rows):
        # small integer vectors: exact dot products and many duplicate rows
        rng = np.random.default_rng(block_rows)
        vectors = rng.integers(-1, 3, size=(23, 2)).astype(np.float64)
        vectors[~vectors.any(axis=1)] = [1.0, 1.0]
        store = EmbeddingStore([f"w{i}" for i in range(23)], vectors)
        monkeypatch.setattr(embeddings, "_NEIGHBOR_BLOCK_CELLS", 23 * block_rows)
        monkeypatch.setattr(embeddings, "_NEIGHBOR_BLOCK_ROWS", 1)
        rows = np.array([0, 1, 2, 4, 7, 8, 9, 15, 21, 22])
        norms = np.linalg.norm(vectors, axis=1)
        sims = np.clip((vectors @ vectors.T) / np.outer(norms, norms), -1.0, 1.0)
        np.fill_diagonal(sims, -np.inf)
        for k in (1, 4, 9, 22):
            near, dist = original_neighbors(store, rows, k)
            expected = np.argsort(-sims[rows], axis=1, kind="stable")[:, :k]
            np.testing.assert_array_equal(near, expected)
            np.testing.assert_array_equal(dist, 1.0 - np.take_along_axis(sims[rows], expected, 1))

    def test_blocks_hold_at_least_64_rows(self, monkeypatch):
        # 2^18 cells over 5000 words alone would give blocks of 52 rows
        blocks = []
        rank = embeddings._rank

        def recording(matrix, norms, row, scores, k):
            # each row's scores are a view of its block's screen
            if not blocks or scores.base is not blocks[-1]:
                blocks.append(scores.base)
            return rank(matrix, norms, row, scores, k)

        store = random_store(12, 5000, 3)
        rows = np.arange(0, 5000, 37)
        monkeypatch.setattr(embeddings, "_rank", recording)
        near = specializer._original_neighbor_sets(store, rows, 4)
        sizes = [len(block) for block in blocks]
        assert sizes == [64, 64, 8]
        dist = original_neighbors(store, rows, 4)[1]
        monkeypatch.setattr(embeddings, "_NEIGHBOR_BLOCK_CELLS", 5000)
        monkeypatch.setattr(embeddings, "_NEIGHBOR_BLOCK_ROWS", 1)
        del blocks[:]
        one_row_near = specializer._original_neighbor_sets(store, rows, 4)
        assert len(blocks) == len(rows)
        one_row_dist = original_neighbors(store, rows, 4)[1]
        np.testing.assert_array_equal(near, one_row_near)
        np.testing.assert_allclose(dist, one_row_dist, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_rows_rank_by_true_cosine(self, scale):
        # squares of 1e200 overflow and squares of 1e-200 underflow
        vectors = np.array([[1.0, 1.0], [2.0, 1.0], [1.0, 3.0], [1.0, 2.0],
                            [3.0, 1.0], [1.0, -1.0]])
        vectors[:3] *= scale
        store = EmbeddingStore([f"w{i}" for i in range(6)], vectors)
        rows = np.arange(6)
        for k in (1, 3, 5):
            near, dist = original_neighbors(store, rows, k)
            expected_near, expected_dist = bruteforce_neighbors(vectors, rows, k)
            np.testing.assert_array_equal(near, expected_near)
            np.testing.assert_allclose(dist, expected_dist, rtol=0, atol=1e-12)


def reference_batch_loss(batch, view, store, original, config, preset):
    """The per-instance kernels summed over the rows the batched miner picks,
    preserving each row's ``original`` vector."""
    m = config.margins
    res = LossResult()
    rel = batch.relation
    table = view.partners.get(rel)
    if rel in ("syn", "hyper", "ant"):
        mirror = rel != "hyper" or preset.attract_hyper
        margin = m.m_hyp if rel == "hyper" and not preset.attract_hyper else m.m_syn
        for a, b in batch.items:
            for anchor, partner in ((a, b), (b, a)) if mirror else ((a, b),):
                if rel == "ant":
                    aux = mine_one(anchor, batch, table, store, "positives", k=config.sample_k)
                    if aux:
                        res.merge(triplet_repel_loss(anchor, partner, aux, m.m_ant, store))
                else:
                    aux = mine_one(
                        anchor, batch, table, store, "negatives", config.negative_policy,
                        config.sample_k,
                    )
                    if aux:
                        res.merge(triplet_attract_loss(anchor, partner, aux, margin, store))
                if preset.reg == "triplet":
                    for x in aux:
                        res.merge(preservation_loss([anchor, partner, x], store, original, m.m_reg))
    elif rel == "quad":
        for a, s, h in batch.items:
            negs = mine_one(
                a, batch, table, store, "negatives", config.negative_policy, config.sample_k
            )
            if negs:
                res.merge(
                    quadruplet_hierarchy_loss(a, s, h, negs, m.m_hie_syn, m.m_hie_hyp, store)
                )
    else:
        for lo, hi in batch.items:
            res.merge(asymmetric_norm_loss(lo, hi, m.ad_weight, store))
    if preset.reg == "batch":
        rows = sorted({r for item in batch.items for r in item})
        res.merge(preservation_loss(rows, store, original, m.gamma_reg))
    return res


def reference_counterfit_loss(batch, store, original, constrained, neighbors, m):
    res = LossResult()
    for a, b in batch.items:
        if batch.relation == "syn":
            d, g_a, g_b = distance_with_grads(store.current[a], store.current[b])
            res.n_hinges += 1
            if d - m.m_syn > 0:
                res.n_active += 1
                res.loss += d - m.m_syn
                res.add_grad(a, g_a)
                res.add_grad(b, g_b)
        else:
            res.merge(contrastive_loss(a, b, m.m_ant, store))
    for row in sorted({r for item in batch.items for r in item}):
        near = neighbors[int(np.searchsorted(constrained, row))].tolist()
        pairs = [(j, distance_with_grads(original[row], original[j])[0]) for j in near]
        res.merge(counterfit_preserve_loss(row, pairs, store))
    return res


def assert_batch_matches(res, ref, ws, n_rows, dim):
    assert res.n_hinges == ref.n_hinges
    assert res.n_active == ref.n_active
    assert abs(res.loss - ref.loss) <= 1e-10 * max(1.0, abs(ref.loss))
    got = np.zeros((n_rows, dim))
    got[ws.ids[res.rows]] = res.gradient()
    want = np.zeros((n_rows, dim))
    for row, g in ref.grads.items():
        want[row] += g
    scale = max(np.linalg.norm(want), 1e-300)
    assert np.linalg.norm(got - want) <= 1e-10 * scale


def moved_toy_store(seed, step):
    """The toy fixture's store, which a run starts from, a store of its
    vectors with every ``step``-th row moved, as training moves them, and
    the fixture's constraints."""
    start, cs = toy_hierarchy_fixture(seed=seed)
    rng = np.random.default_rng(seed)
    moved = start.current.copy()
    moved[::step] += 0.3 * rng.standard_normal(moved[::step].shape)
    return start, EmbeddingStore(start.vocab, moved), cs


def moved_working_set(start, moved, rows):
    """The working set of a run from ``start`` over ``rows``, trained to
    where ``moved`` holds them."""
    ws = specializer.WorkingSet(start, rows)
    ws.current = moved.current[ws.ids]
    return ws


class TestBatchLossMatchesReference:
    @pytest.mark.parametrize(
        "preset", ["attract_repel", "lear", "hierarchy_fitting", "hierarchy_fitting_ad_indir"]
    )
    @pytest.mark.parametrize("batch_size", [1, 5, 64])
    def test_metric_presets(self, preset, batch_size):
        # every other row moves, so both preservation paths (moved, unmoved) run
        start, store, cs = moved_toy_store(seed=batch_size, step=2)
        config = SpecializeConfig(preset=preset, batch_size=batch_size, seed=3)
        spec = specializer.PRESET_TABLE[preset]
        view = specializer.run_view(cs, preset)  # the streams and masks a run uses
        plan = plan_epoch(view.streams, batch_size, config.seed)
        assert {b.relation for b in plan} == set(spec.streams)
        # every row a metric preset can train; the fixture leaves others out
        ws = moved_working_set(
            start, store, np.concatenate(list(cs.pairs.values()))
        )
        assert len(ws.ids) < len(store)
        for batch in plan:
            res = specializer._batch_loss(batch, view, ws, config, spec)
            ref = reference_batch_loss(batch, view, store, start.current, config, spec)
            assert_batch_matches(res, ref, ws, len(store), store.dim)

    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_counterfitting(self, batch_size):
        # an unmoved pair sits exactly on its neighbour-preservation kink
        start, store, cs = moved_toy_store(seed=7, step=1)
        m = Margins(m_syn=0.2, m_ant=1.5)
        constrained = np.array(sorted({r for p in held(cs, "syn") + held(cs, "ant") for r in p}))
        neighbors = specializer._original_neighbor_sets(start, constrained, 5)
        ws = moved_working_set(start, store, np.concatenate((constrained, neighbors.ravel())))
        assert len(ws.ids) < len(store)
        for batch in plan_epoch(specializer.run_view(cs, "counterfitting").streams, batch_size, 1):
            res = specializer._counterfit_batch_loss(batch, ws, constrained, neighbors, m)
            ref = reference_counterfit_loss(
                batch, store, start.current, constrained, neighbors, m
            )
            assert_batch_matches(res, ref, ws, len(store), store.dim)


def test_mining_builds_one_generator_per_batch(monkeypatch):
    # a random source per anchor would scale with the anchors, not the batches
    store, cs = toy_hierarchy_fixture()
    config = SpecializeConfig(
        preset="hierarchy_fitting_ad_indir", epochs=1, batch_size=8, seed=3, sample_k=3
    )
    view = specializer.run_view(cs, config.preset)
    plan = plan_epoch(view.streams, config.batch_size, config.seed)
    mined = sum(batch.relation != "ad" for batch in plan)
    relations = len({batch.relation for batch in plan})
    anchors = sum(len(batch.items) for batch in plan if batch.relation != "ad")
    assert anchors > 2 * (mined + relations)
    built = []

    def counted(real):
        def build(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)
        return build

    for name in ("SeedSequence", "default_rng"):  # sampling looks them up at each call
        monkeypatch.setattr(np.random, name, counted(getattr(np.random, name)))
    specialize(store, cs, config)
    assert 0 < len(built) <= mined + relations


def extreme_row_world(scale, pad=0):
    """8 constrained rows after ``pad`` unconstrained ones; the first
    constrained row, row ``pad``, is scaled by ``scale`` and is in every relation."""
    vectors = np.random.default_rng(3).standard_normal((pad + 8, 4))
    vectors[pad] *= scale
    store = EmbeddingStore([f"w{i}" for i in range(pad + 8)], vectors)
    cs = ConstraintSet()
    for relation, pairs in (("syn", ((0, 1), (2, 3))), ("ant", ((0, 4), (1, 5))),
                            ("hyper", ((0, 6), (1, 6), (2, 7), (6, 7)))):
        for a, b in pairs:
            cs.add(relation, [(pad + a, pad + b)])
    return store, cs


class TestExtremeRows:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_huge_row_trains_without_warnings(self, preset):
        store, cs = extreme_row_world(1e200)
        before = store.current.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            specialize(store, cs, SpecializeConfig(preset, epochs=3, batch_size=2))
        assert np.isfinite(store.current).all()
        assert (store.current[1] != before[1]).any()

    @pytest.mark.parametrize("preset", [p for p in PRESETS if p != "retrofitting"])
    def test_tiny_row_overflows_the_adagrad_square(self, preset):
        store, cs = extreme_row_world(1e-200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteGradientError, match=r"at row 0 \("):
                specialize(store, cs, SpecializeConfig(preset, epochs=3, batch_size=2))

    @pytest.mark.parametrize("preset", [p for p in PRESETS if p != "retrofitting"])
    def test_error_names_the_store_row(self, preset):
        # every row below the tiny row 5 is a filler, and not all of them join
        # even the counter-fitting working set, so its index there is below 5
        store, cs = extreme_row_world(1e-200, pad=5)
        config = SpecializeConfig(preset, epochs=3, batch_size=2, neighbor_k=1)
        constrained = np.arange(5, 13)
        near = specializer._original_neighbor_sets(store, constrained, 1)
        assert len(np.union1d(constrained, near)) < len(store)
        with pytest.raises(NonFiniteGradientError, match=r"at row 5 \("):
            specialize(store, cs, config)

    def test_retrofitting_trains_a_tiny_row(self):
        store, cs = extreme_row_world(1e-200)
        before = store.current.copy()
        specialize(store, cs, SpecializeConfig("retrofitting"))
        assert np.isfinite(store.current).all()
        assert (store.current[0] != before[0]).any()


class TestFailedRunLeavesStore:
    def test_error_after_applied_batches_writes_nothing(self, monkeypatch):
        # row 7 is tiny and only in the antonym pair, which trains after the
        # synonym batches (one pair per batch); the store must not keep their updates
        vectors = np.random.default_rng(4).standard_normal((8, 4))
        vectors[7] = 1e-200 * (vectors[6] + 0.1)
        store = EmbeddingStore([f"w{i}" for i in range(8)], vectors)
        cs = ConstraintSet()
        for a, b in ((0, 1), (2, 3), (4, 5)):
            cs.add("syn", [(a, b)])
        cs.add("ant", [(6, 7)])
        applied = []
        step = specializer.adagrad_step

        def counted(*args):
            step(*args)
            applied.append(args[2])

        monkeypatch.setattr(specializer, "adagrad_step", counted)
        current = store.current.copy()
        geometry = [a.copy() for a in store.geometry()]
        config = SpecializeConfig("counterfitting", epochs=1, batch_size=1, neighbor_k=3)
        with pytest.raises(NonFiniteGradientError, match=r"at row 7 \("):
            specialize(store, cs, config)
        assert applied
        np.testing.assert_array_equal(store.current, current)
        for got, want in zip(store.geometry(), geometry):
            np.testing.assert_array_equal(got, want)
        assert not store.current.flags.writeable


def test_training_memory_follows_the_working_set():
    # 20k x 50 rows, about 100 of them constrained: one full-size matrix
    # (8 MB) is more than the whole run may allocate
    store = random_store(6, 20000, 50)
    cs = ConstraintSet()
    rows = np.arange(0, 20000, 200)
    for i in range(0, 100, 4):
        a, b, c, d = (int(r) for r in rows[i:i + 4])
        cs.add("syn", [(a, b)])
        cs.add("hyper", [(a, c)])
        cs.add("hyper", [(c, d)])
        cs.add("ant", [(b, d)])
    config = SpecializeConfig("hierarchy_fitting_ad_indir", epochs=1, batch_size=16, seed=1)
    before = store.current.copy()
    tracemalloc.start()
    try:
        specialize(store, cs, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (store.current != before).any()
    assert peak < store.current.nbytes


@pytest.mark.parametrize("preset, relations", [("attract_repel", 2), ("lear", 3)])
def test_training_state_follows_each_relations_rows(preset, relations):
    # synonyms, antonyms and hypernyms over three disjoint blocks of 1000 rows:
    # each relation's AdaGrad state covers its own block (lear's hypernym and
    # norm streams share one), about 1.3 working sets for lear where one
    # accumulator of the whole working set per relation would be 4
    store = random_store(7, 3000, 300)
    cs = ConstraintSet()
    for a in range(0, 1000, 2):
        for block, relation in enumerate(("syn", "ant", "hyper")):
            cs.add(relation, [(1000 * block + a, 1000 * block + a + 1)])
    config = SpecializeConfig(preset, epochs=1, batch_size=32, seed=1)
    tracemalloc.start()
    try:
        specialize(store, cs, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    working_set_bytes = relations * 1000 * 300 * 8
    # the working set's copy, its state and a batch's transients; state of
    # relations x working set took 3.3 (attract_repel) and 5.4 (lear) times these bytes
    assert peak < 3 * working_set_bytes


@pytest.mark.parametrize("preset", [
    name for name, spec in specializer.PRESET_TABLE.items()
    if spec.train is specializer._train_metric
])
def test_metric_working_set_is_the_rows_of_the_streams(preset):
    # rows 4, 5, 7 and 8 are only in hypernym pairs, which attract_repel does not train
    store = random_store(3, 12, 4)
    cs = ConstraintSet()
    for relation, a, b in [("syn", 0, 1), ("syn", 3, 6), ("ant", 0, 2),
                           ("hyper", 3, 4), ("hyper", 4, 5), ("hyper", 7, 8)]:
        cs.add(relation, [(a, b)])
    view = specializer.run_view(cs, preset)
    ws, _ = specializer.PRESET_TABLE[preset].train(store, view, SpecializeConfig(preset, epochs=1))
    expected = [0, 1, 2, 3, 6] if preset == "attract_repel" else list(range(9))
    np.testing.assert_array_equal(ws.ids, expected)


class TestRunView:
    def test_partner_sets(self):
        cs = ConstraintSet()
        cs.add("syn", [(0, 1)])
        cs.add("ant", [(0, 2)])
        cs.add("hyper", [(0, 3)])
        cs.add("hyper", [(3, 4)])

        def partners(preset, relation, row):
            tables = specializer.run_view(cs, preset).partners[relation]
            return {p for table in tables
                    for p in sampling.linked(table, np.array([row]))[1].tolist()}

        # hierarchy_fitting reads no closure, so it masks the direct pairs only
        assert partners("hierarchy_fitting", "syn", 0) == {1}
        assert partners("hierarchy_fitting", "syn", 1) == {0}
        assert partners("hierarchy_fitting", "ant", 0) == {2}
        assert partners("hierarchy_fitting", "hyper", 3) == {0, 4}
        assert partners("hierarchy_fitting", "hyper", 0) == {3}
        assert partners("hierarchy_fitting", "quad", 0) == {1, 3}
        assert partners("hierarchy_fitting_ad_indir", "hyper", 0) == {3, 4}
        assert partners("hierarchy_fitting_ad_indir", "quad", 0) == {1, 3, 4}
        assert partners("lear", "hyper", 4) == {0, 3}
        assert set(specializer.run_view(cs, "lear").partners) == {"syn", "ant", "hyper"}
        # one table per pair set: the quadruplet stream reuses the synonym and hypernym ones
        for preset in ("hierarchy_fitting", "hierarchy_fitting_ad_indir"):
            tables = specializer.run_view(cs, preset).partners
            assert [len(tables[rel]) for rel in ("syn", "ant", "hyper", "quad")] == [1, 1, 1, 2]
            assert tables["quad"][0] is tables["syn"][0]
            assert tables["quad"][1] is tables["hyper"][0]
        assert specializer.run_view(cs, "counterfitting").partners == {}
        view = specializer.run_view(cs, "retrofitting")
        assert view.streams == {} and view.partners == {}

    @pytest.mark.parametrize("preset", ["hierarchy_fitting", "hierarchy_fitting_ad_dir"])
    def test_runs_do_not_depend_on_earlier_runs(self, preset):
        # a lear run reads the hypernym closure; a hierarchy-fitting run on the
        # same set must still mask only the direct pairs, as on a fresh set
        config = SpecializeConfig(preset, epochs=3, batch_size=8, seed=1)
        fresh_store, fresh_cs, _ = taxonomy_fixture(seed=5)
        specialize(fresh_store, fresh_cs, config)
        store, cs, _ = taxonomy_fixture(seed=5)
        specialize(taxonomy_fixture(seed=5)[0], cs, SpecializeConfig("lear", epochs=1))
        specialize(store, cs, config)
        np.testing.assert_array_equal(store.current, fresh_store.current)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_specialize_only_reads_the_constraints(self, preset):
        store, cs, _ = taxonomy_fixture(seed=6)
        def state():  # the pair arrays as lists, so the dicts compare by value
            return {**vars(cs), "pairs": {rel: pairs.tolist() for rel, pairs in cs.pairs.items()}}

        before = copy.deepcopy(state())
        specialize(store, cs, SpecializeConfig(preset, epochs=1, batch_size=8, seed=2))
        assert state() == before
        assert not any(pairs.flags.writeable for pairs in cs.pairs.values())


class TestEpochStats:
    def test_log_text_is_unchanged(self):
        # two relations, interleaved, one batch without hinges; the expected
        # text is what the per-field running totals wrote
        batches = [
            [("syn", 0.1, 4, 3), ("ant", 0.0, 0, 0), ("syn", 0.2, 6, 1),
             ("ant", 1e-7, 2, 1), ("syn", 1.0 / 3.0, 5, 5)],
            [("ant", 2.5, 0, 0), ("syn", 0.7, 3, 0)],
        ]
        log = specializer.TrainLog()
        for epoch, epoch_batches in enumerate(batches):
            for relation, loss, hinges, active in epoch_batches:
                batch = SimpleNamespace(relation=relation, epoch=epoch)
                res = SimpleNamespace(loss=loss, n_hinges=hinges, n_active=active)
                log.record(batch, res)
        assert log.batches_processed == 7
        assert log.to_tsv() == (
            "1\tsyn\t0.211111\t0.6\n1\tant\t5e-08\t0.5\n2\tant\t2.5\t0\n2\tsyn\t0.7\t0\n"
        )


class TestSpecializePresets:
    def test_empty_required_relation_names_it(self):
        store = random_store(0, 10, 4)
        cs = ConstraintSet()
        cs.add("syn", [(0, 1)])
        config = SpecializeConfig(preset="attract_repel", epochs=1)
        with pytest.raises(ValueError, match="antonyms"):
            specialize(store, cs, config)

    def test_hierarchy_missing_hypernyms(self):
        store = random_store(0, 10, 4)
        cs = ConstraintSet()
        cs.add("syn", [(0, 1)])
        cs.add("ant", [(2, 3)])
        config = SpecializeConfig(preset="hierarchy_fitting", epochs=1)
        with pytest.raises(ValueError, match="direct_hypernyms"):
            specialize(store, cs, config)

    @pytest.mark.parametrize("first, second", [
        ("lear", "hierarchy_fitting_ad_indir"),
        ("attract_repel", "counterfitting"),
        ("counterfitting", "retrofitting"),
        ("retrofitting", "attract_repel"),
    ])
    def test_a_second_run_depends_only_on_the_store_it_is_given(self, first, second):
        # a run anchors to the vectors it starts from, not to those the store
        # was built with, so it is the run on a fresh store of those vectors
        store, cs = toy_hierarchy_fixture()
        specialize(store, cs, SpecializeConfig(first, epochs=2, batch_size=8, seed=0))
        fresh = EmbeddingStore(store.vocab, store.current)
        config = SpecializeConfig(second, epochs=2, batch_size=8, seed=1)
        specialize(store, cs, config)
        specialize(fresh, cs, config)
        np.testing.assert_array_equal(store.current, fresh.current)

    def test_reproducible_bit_identical(self):
        results = []
        for _ in range(2):
            store, cs = toy_hierarchy_fixture(seed=5)
            config = SpecializeConfig(preset="hierarchy_fitting", epochs=3, batch_size=8, seed=9)
            specialize(store, cs, config)
            results.append(store.current.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_reproducible_with_two_random_negatives(self):
        results = []
        for sample_k in (3, 3, 2):
            store, cs = toy_hierarchy_fixture(seed=5)
            config = SpecializeConfig(
                preset="hierarchy_fitting", epochs=3, batch_size=8, seed=9, sample_k=sample_k
            )
            specialize(store, cs, config)
            results.append(store.current.copy())
        np.testing.assert_array_equal(results[0], results[1])
        assert not np.array_equal(results[0], results[2])

    def test_unconstrained_rows_bit_identical(self):
        store, cs = toy_hierarchy_fixture()
        untouched = [r for r in range(len(store)) if r in range(23, 40) or r in range(49, 60)]
        before = store.current[untouched].copy()
        config = SpecializeConfig(preset="hierarchy_fitting", epochs=3, batch_size=8, seed=2)
        specialize(store, cs, config)
        np.testing.assert_array_equal(store.current[untouched], before)

    def test_all_hinges_satisfied_means_no_movement(self):
        # single-instance batches have empty candidate pools, so only the
        # preservation term runs, and its gradient is zero at the start
        store = EmbeddingStore(
            ["a", "s", "h", "n", "x"],
            [[1.0, 0.0], [2.0, 0.0], [1.0, 1.0], [-1.0, 0.5], [0.0, 1.0]],
        )
        cs = ConstraintSet()
        cs.add("syn", [(0, 1)])
        cs.add("hyper", [(0, 2)])
        cs.add("ant", [(0, 3)])
        before = store.current.copy()
        config = SpecializeConfig(
            preset="hierarchy_fitting",
            margins=Margins(m_syn=0.0, m_ant=0.0, m_hyp=0.0, m_hie_syn=0.0, m_hie_hyp=0.0),
            epochs=2, batch_size=8, seed=0,
        )
        specialize(store, cs, config)
        np.testing.assert_array_equal(store.current, before)

    def test_attract_repel_runs_and_logs(self):
        store, cs = toy_hierarchy_fixture()
        config = SpecializeConfig(preset="attract_repel", epochs=4, batch_size=8, seed=3)
        _, log = specialize(store, cs, config)
        assert len(log.epochs) == 4
        assert set(log.epochs[0]) == {"syn", "ant"}
        assert log.batches_processed > 0
        tsv = log.to_tsv()
        first = tsv.splitlines()[0].split("\t")
        assert first[0] == "1" and first[1] in ("syn", "ant")
        assert len(first) == 4

    def test_lear_orders_norms_on_taxonomy(self):
        # toy graphs need longer runs than full-scale data for the norm
        # channel to converge; 100 epochs on 27 nodes is still instant
        store, cs, direct = taxonomy_fixture(seed=1)
        config = SpecializeConfig(preset="lear", epochs=100, batch_size=8, seed=4)
        specialize(store, cs, config)
        norms = np.linalg.norm(store.current, axis=1)
        ordered = sum(norms[lo] < norms[hi] for lo, hi in direct)
        assert ordered / len(direct) >= 0.95

    def test_ad_indir_trains_on_closure(self, monkeypatch):
        store, cs, _ = taxonomy_fixture(seed=2)
        config = SpecializeConfig(
            preset="hierarchy_fitting_ad_indir", epochs=2, batch_size=8, seed=0
        )
        closure = hypernym_closure(cs.pairs["hyper"])
        assert len(closure) > len(cs.pairs["hyper"])
        view = specializer.run_view(cs, config.preset)
        assert view.streams["ad"].tolist() == closure.tolist()
        assert view.streams["hyper"].tolist() == [list(p) for p in held(cs, "hyper")]
        trained = set()

        def recorded(*args):
            plan = plan_epoch(*args)
            trained.update(tuple(i) for b in plan if b.relation == "ad" for i in b.items.tolist())
            return plan

        monkeypatch.setattr(specializer, "plan_epoch", recorded)
        specialize(store, cs, config)
        assert trained == set(map(tuple, closure.tolist()))

    def test_quad_join_required_for_hierarchy(self):
        store = random_store(0, 10, 4)
        cs = ConstraintSet()
        cs.add("syn", [(0, 1)])
        cs.add("ant", [(2, 3)])
        cs.add("hyper", [(4, 5)])  # hypernym of a word with no synonym
        assert joined(cs).tolist() == []
        config = SpecializeConfig(preset="hierarchy_fitting", epochs=1)
        with pytest.raises(ValueError, match="quadruplet"):
            specialize(store, cs, config)


class TestConfigValidation:
    @pytest.mark.parametrize("preset", ["retrofitting", "counterfitting", "lear"])
    def test_negative_seed(self, preset):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SpecializeConfig(preset=preset, seed=-1)
        assert SpecializeConfig(preset=preset, seed=0).seed == 0

    @pytest.mark.parametrize("name", ["epochs", "batch_size", "seed", "neighbor_k",
                                      "retrofit_iterations", "sample_k"])
    @pytest.mark.parametrize("value", [2.5, 4.0, True, np.True_, np.float64(3.0), "3", None])
    def test_count_must_be_an_integer(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            SpecializeConfig(preset="lear", **{name: value})

    @pytest.mark.parametrize("name", ["epochs", "batch_size", "seed", "neighbor_k",
                                      "retrofit_iterations", "sample_k"])
    def test_count_takes_a_numpy_integer_as_an_int(self, name):
        value = getattr(SpecializeConfig(preset="lear", **{name: np.int64(3)}), name)
        assert value == 3 and type(value) is int

    def test_bad_learning_rate(self):
        for rate in [0.0, -0.1, float("nan"), float("inf")]:
            with pytest.raises(ValueError, match="learning_rate"):
                SpecializeConfig(preset="lear", learning_rate=rate)

    @pytest.mark.parametrize("alpha", [-1.0, float("nan"), float("inf")])
    def test_bad_retrofit_alpha(self, alpha):
        with pytest.raises(ValueError, match="retrofit_alpha"):
            SpecializeConfig(preset="retrofitting", retrofit_alpha=alpha)

    def test_bad_preset(self):
        with pytest.raises(ValueError):
            SpecializeConfig(preset="fancy_fitting")

    def test_bad_negative_policy(self):
        with pytest.raises(ValueError, match="negative_policy"):
            SpecializeConfig(preset="lear", negative_policy="closest_plus_randm")

    def test_defaults(self):
        config = SpecializeConfig(preset="hierarchy_fitting")
        assert config.learning_rate == 0.03
        assert config.epochs == 20
        assert config.batch_size == 128
        assert config.neighbor_k == 10
        assert config.retrofit_alpha == 1.0
