import numpy as np
import pytest

from lexfit import ConstraintSet, EmbeddingStore, distance, plan_epoch, sampling
from lexfit.constraints import linked
from lexfit.embeddings import unit_rows
from lexfit.sampling import MiniBatch, batch_rows, mine_batch, mine_instances
from lexfit.specializer import run_view
from helpers import (
    as_array,
    held,
    joined,
    mined_pairs,
    pair_partners,
    partner_table,
    random_store,
    toy_hierarchy_fixture,
)
from reference_losses import mine_one


def syn_constraints(pairs):
    cs = ConstraintSet()
    for a, b in pairs:
        cs.add("syn", [(a, b)])
    return cs


def streams(cs, preset="hierarchy_fitting"):
    """The syn, ant, hyper and quad streams a hierarchy-fitting run plans."""
    return run_view(cs, preset).streams


class TestPlanEpoch:
    def test_chunk_sizes(self):
        cs = syn_constraints([(i, i + 10) for i in range(10)])
        plan = plan_epoch(streams(cs), batch_size=4, seed=3)
        assert [len(b.items) for b in plan] == [4, 4, 2]
        assert all(b.relation == "syn" for b in plan)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_errors(self, batch_size):
        cs = syn_constraints([(0, 1)])
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            plan_epoch(streams(cs), batch_size=batch_size, seed=0)

    def test_single_relation_degenerates(self):
        cs = ConstraintSet()
        for i in range(5):
            cs.add("ant", [(i, i + 5)])
        plan = plan_epoch(streams(cs), batch_size=2, seed=0)
        assert [b.relation for b in plan] == ["ant", "ant", "ant"]

    def test_deterministic(self):
        _, cs = toy_hierarchy_fixture()
        a = plan_epoch(streams(cs), 8, seed=42, epoch=3)
        b = plan_epoch(streams(cs), 8, seed=42, epoch=3)
        assert ([(x.relation, x.items.tolist()) for x in a]
                == [(y.relation, y.items.tolist()) for y in b])

    def test_epochs_reshuffle(self):
        _, cs = toy_hierarchy_fixture()
        a = plan_epoch(streams(cs), 8, seed=42, epoch=0)
        b = plan_epoch(streams(cs), 8, seed=42, epoch=1)
        assert [x.items.tolist() for x in a] != [y.items.tolist() for y in b]

    def test_round_robin_interleaving(self):
        _, cs = toy_hierarchy_fixture()
        plan = plan_epoch(streams(cs), 8, seed=0)
        first_four = [b.relation for b in plan[:4]]
        assert first_four == ["syn", "ant", "hyper", "quad"]

    def test_items_distinct_within_batch(self):
        _, cs = toy_hierarchy_fixture()
        for batch in plan_epoch(streams(cs), 8, seed=5):
            assert len(set(map(tuple, batch.items.tolist()))) == len(batch.items)

    def test_all_empty_is_error(self):
        with pytest.raises(ValueError):
            plan_epoch(streams(ConstraintSet()), 4, seed=0)

    def test_unknown_stream_is_error(self):
        with pytest.raises(ValueError, match="unknown relation"):
            plan_epoch({"mero": [(0, 1)]}, 4, seed=0)

    def test_ad_stream_uses_closure_when_asked(self):
        cs = ConstraintSet()
        cs.add("hyper", [(0, 1)])
        cs.add("hyper", [(1, 2)])
        for preset, want in (("hierarchy_fitting_ad_dir", {(0, 1), (1, 2)}),
                             ("hierarchy_fitting_ad_indir", {(0, 1), (1, 2), (0, 2)})):
            plan = plan_epoch({"ad": streams(cs, preset)["ad"]}, 8, seed=0)
            assert {tuple(i) for b in plan for i in b.items.tolist()} == want


class TestQuadJoin:
    def test_join_rule(self):
        cs = ConstraintSet()
        cs.add("syn", [(0, 1)])
        cs.add("hyper", [(0, 5)])
        cs.add("hyper", [(1, 6)])
        assert set(map(tuple, joined(cs).tolist())) == {(0, 1, 5), (1, 0, 6)}
        # the ConstraintSet form joins the same arrays
        assert sampling.quad_join(cs).tolist() == joined(cs).tolist()

    def test_no_hypernyms_no_joins(self):
        cs = syn_constraints([(0, 1)])
        assert joined(cs).tolist() == []


class TestSelectNegatives:
    def batch(self, items, relation="syn", seed=0):
        return MiniBatch(relation, np.array(items), epoch=0, batch_index=0, seed=seed)

    def test_parallel_candidate_is_closest(self):
        store = EmbeddingStore(
            ["a", "b", "c", "d", "e", "f"],
            [[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [0.0, 2.0], [-1.0, 1.0], [1.0, 1.0]],
        )
        cs = syn_constraints([(0, 1), (2, 3), (4, 5)])
        batch = self.batch([(0, 1), (2, 3), (4, 5)])
        picks = mine_one(0, batch, (partner_table(cs.pairs["syn"]),), store, policy="closest_only", k=1)
        assert picks == [2]  # row 2 is parallel to the anchor, distance 0

    def test_pool_of_only_constrained_words_is_empty(self):
        store = random_store(0, 4, 5)
        cs = syn_constraints([(0, 1), (0, 2), (0, 3), (2, 3)])
        batch = self.batch([(0, 1), (2, 3)])
        assert mine_one(0, batch, (partner_table(cs.pairs["syn"]),), store) == []

    def test_single_instance_batch_empty(self):
        store = random_store(0, 2, 4)
        cs = syn_constraints([(0, 1)])
        batch = self.batch([(0, 1)])
        assert mine_one(0, batch, (partner_table(cs.pairs["syn"]),), store) == []

    def test_closest_matches_bruteforce(self):
        # oracle: exhaustive distance scan over the eligible pool
        store = random_store(9, 40, 8)
        pairs = [(2 * i, 2 * i + 1) for i in range(16)]
        cs = syn_constraints(pairs)
        batch = self.batch(pairs)
        for anchor in (0, 1, 6, 31):
            partners = pair_partners(held(cs, "syn"), anchor)
            pool = sorted(
                {
                    r
                    for item in batch.items
                    if anchor not in item
                    for r in item
                }
                - partners
                - {anchor}
            )
            expected = min(
                pool, key=lambda r: (distance(store.current[anchor], store.current[r]), r)
            )
            got = mine_one(anchor, batch, (partner_table(cs.pairs["syn"]),), store,
                           policy="closest_plus_random", k=2)
            assert got[0] == expected
            assert len(got) == 2
            assert len(set(got)) == 2

    def test_deterministic_random_pick(self):
        store = random_store(3, 20, 6)
        pairs = [(2 * i, 2 * i + 1) for i in range(8)]
        cs = syn_constraints(pairs)
        batch = self.batch(pairs, seed=11)
        a = mine_one(0, batch, (partner_table(cs.pairs["syn"]),), store, k=2)
        b = mine_one(0, batch, (partner_table(cs.pairs["syn"]),), store, k=2)
        assert a == b

    def test_never_violates_exclusion(self):
        store, cs = toy_hierarchy_fixture()
        for preset, closed in (("hierarchy_fitting", False), ("lear", True)):
            view = run_view(cs, preset)
            for batch in plan_epoch(view.streams, 8, seed=1):
                if batch.relation == "ad":
                    continue
                rows, local = batch_rows(batch)
                items, which, mined = mine_instances(
                    batch, view.partners[batch.relation], rows, local,
                    unit_rows(store.current[rows])[0], "negatives", "closest_plus_random", 2,
                    mirror=batch.relation != "quad",
                )
                pairs = mined_pairs(cs, batch.relation, closed)
                for i, aux in zip(which, mined):
                    forbidden = pair_partners(pairs, rows[items[i, 0]]) | set(rows[items[i]])
                    assert rows[aux] not in forbidden

    def test_random_draw_is_uniform(self):
        # the closest candidate is fixed, so across batch indices the draw
        # should spread evenly over the 17 other candidates of anchor 0
        store = random_store(5, 20, 6)
        pairs = [(2 * i, 2 * i + 1) for i in range(10)]
        table = (partner_table(syn_constraints(pairs).pairs["syn"]),)
        n_draws = 3400
        counts = {}
        closest = set()
        for b in range(n_draws):
            batch = MiniBatch("syn", np.array(pairs), epoch=0, batch_index=b, seed=4)
            first, drawn = mine_one(0, batch, table, store, k=2)
            closest.add(first)
            counts[drawn] = counts.get(drawn, 0) + 1
        assert len(closest) == 1 and len(counts) == 17
        expected = n_draws / 17
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 39.25  # the 0.999 quantile of chi-square with 16 degrees of freedom

    @pytest.mark.parametrize("k", [2, 3])
    def test_batched_picks_equal_single_anchor_picks(self, k):
        store, cs = toy_hierarchy_fixture(seed=3)
        view = run_view(cs, "hierarchy_fitting")
        for batch in plan_epoch(view.streams, 8, seed=6):
            if batch.relation == "ant":
                continue
            rows, local = batch_rows(batch)
            anchors = np.unique(local)
            unit = unit_rows(store.current[rows])[0]
            table = view.partners[batch.relation]
            picks = mine_batch(batch, table, rows, local, unit, anchors,
                               "negatives", "closest_plus_random", k)
            for anchor, row in zip(anchors, picks):
                single = mine_one(int(rows[anchor]), batch, table, store, k=k)
                assert [int(rows[p]) for p in row if p >= 0] == single

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_picks_are_distinct_candidates(self, k):
        store, cs = toy_hierarchy_fixture(seed=4)
        view = run_view(cs, "hierarchy_fitting")
        for batch in plan_epoch(view.streams, 8, seed=2):
            if batch.relation == "ant":
                continue
            rows, local = batch_rows(batch)
            anchors = np.unique(local)
            unit = unit_rows(store.current[rows])[0]
            picks = mine_batch(batch, view.partners[batch.relation], rows, local, unit,
                               anchors, "negatives", "closest_plus_random", k)
            for anchor, row in zip(anchors, picks):
                anchor_row = int(rows[anchor])
                pool = {
                    r for item in batch.items if anchor_row not in item for r in item
                } - pair_partners(mined_pairs(cs, batch.relation), anchor_row)
                picked = [int(rows[p]) for p in row if p >= 0]
                assert len(picked) == len(set(picked)) == min(k, len(pool))
                assert set(picked) <= pool
                assert (row[: len(picked)] >= 0).all()


class TestSelectPositives:
    def test_opposite_vector_is_farthest(self):
        store = EmbeddingStore(
            ["a", "b", "c", "d"],
            [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [1.0, 1.0]],
        )
        cs = ConstraintSet()
        cs.add("ant", [(0, 1)])
        cs.add("ant", [(2, 3)])
        batch = MiniBatch("ant", np.array([(0, 1), (2, 3)]), 0, 0, 0)
        picks = mine_one(0, batch, (partner_table(cs.pairs["ant"]),), store, "positives", k=1)
        assert picks == [2]  # -anchor has distance 2, the maximum

    def test_farthest_matches_bruteforce(self):
        store = random_store(17, 30, 5)
        pairs = [(2 * i, 2 * i + 1) for i in range(10)]
        cs = ConstraintSet()
        for a, b in pairs:
            cs.add("ant", [(a, b)])
        batch = MiniBatch("ant", np.array(pairs), 0, 0, 4)
        for anchor in (0, 5, 19):
            pool = sorted(
                {r for item in pairs if anchor not in item for r in item}
                - pair_partners(held(cs, "ant"), anchor)
                - {anchor}
            )
            expected = max(
                pool, key=lambda r: (distance(store.current[anchor], store.current[r]), -r)
            )
            table = (partner_table(cs.pairs["ant"]),)
            assert mine_one(anchor, batch, table, store, "positives", k=1) == [expected]


class TestMineInstances:
    def test_symmetric_relations_mirror(self):
        store = random_store(2, 8, 5)
        pairs = [(0, 1), (2, 3), (4, 5), (6, 7)]
        cs = syn_constraints(pairs)
        batch = MiniBatch("syn", np.array(pairs), 0, 0, 0)
        rows, local = batch_rows(batch)
        unit = unit_rows(store.current[rows])[0]
        items, which, _ = mine_instances(
            batch, (partner_table(cs.pairs["syn"]),), rows, local, unit,
            "negatives", "closest_plus_random", 2, mirror=True,
        )
        anchors = {tuple(rows[items[i]]) for i in which}
        for a, b in pairs:
            assert (a, b) in anchors and (b, a) in anchors


class TestPartnerTable:
    def test_linked_matches_the_pair_sets(self):
        rng = np.random.default_rng(8)
        cs = ConstraintSet()
        for rel in ("syn", "ant", "hyper"):
            for a, b in rng.integers(0, 30, size=(40, 2)).tolist():
                cs.add(rel, [(a, b)])
        rows = np.array([0, 5, 5, 29, 35, 3, 17])  # 35 is in no pair
        for rel in ("syn", "ant", "hyper", "quad"):
            for closed in (False, True):
                pairs = mined_pairs(cs, rel, closed)
                owner, partner = linked(partner_table(as_array(pairs)), rows)
                got = list(zip(owner.tolist(), partner.tolist()))
                want = {(i, p) for i, r in enumerate(rows.tolist()) for p in pair_partners(pairs, r)}
                assert set(got) == want

    def test_empty_table_links_nothing(self):
        owner, partner = linked(partner_table(as_array(set())), np.array([0, 3]))
        assert len(owner) == len(partner) == 0
