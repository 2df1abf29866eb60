"""``run_view``'s integer-array constraint view against the set-and-dict
reference of ``reference_view.py``, order included, and its memory."""

import dataclasses
import gc
import importlib.util
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lexfit import ConstraintSet, EmbeddingStore, hypernym_closure, load_pairs, quad_join
from lexfit.constraints import csr, distinct, linked, pair_array, pair_keys
from lexfit.specializer import PRESETS, RunView, run_view
from helpers import as_array, held, pair_partners
from reference_view import closure_bfs, pair_sets, quad_join_dict, reference_view


def random_world(seed: int, n: int = 60) -> ConstraintSet:
    """Hypernym pairs with a chain 24 links deep, words with several parents
    and, for odd seeds, a cycle through the chain; synonym and antonym pairs
    drawn over the same words, so they share words with the hypernym pairs."""
    rng = np.random.default_rng(seed)
    cs = ConstraintSet()
    chain = rng.permutation(n)[:25].tolist()
    cs.add("hyper", list(zip(chain, chain[1:])))
    if seed % 2:
        cs.add("hyper", [(chain[-1], chain[int(rng.integers(0, 20))])])
    for relation, count in (("hyper", n // 2), ("syn", n // 2), ("ant", n // 4)):
        cs.add(relation, rng.integers(0, n, size=(count, 2)))
    return cs


def as_tuples(array: np.ndarray) -> list[tuple[int, ...]]:
    return [tuple(item) for item in array.tolist()]


@pytest.mark.parametrize("seed", range(8))
def test_view_equals_the_reference_in_order(seed):
    cs = random_world(seed)
    assert len(closure_bfs(held(cs, "hyper"))) > 300  # the chain's closure alone is 300
    for preset in PRESETS:
        view = run_view(cs, preset)
        streams, masked = reference_view(cs, preset)
        assert {rel: as_tuples(pairs) for rel, pairs in view.pairs.items()} == dict(
            zip(("syn", "ant", "hyper"), map(sorted, pair_sets(cs))))
        assert {rel: as_tuples(items) for rel, items in view.streams.items()} == streams, preset
        assert all(items.dtype == np.intp for items in view.streams.values())
        assert set(view.partners) == set(masked), preset
        rows = np.arange(70)  # 60 to 69 are in no pair
        for rel, tables in view.partners.items():
            got = set()
            for table in tables:
                owner, partner = linked(table, rows)
                got |= {(int(rows[i]), p) for i, p in zip(owner.tolist(), partner.tolist())}
            want = {(r, p) for r in rows.tolist() for p in pair_partners(masked[rel], r)}
            assert got == want, (preset, rel)


@pytest.mark.parametrize("seed", range(8))
def test_closure_and_join_equal_the_reference(seed):
    cs = random_world(seed)
    closure = hypernym_closure(cs.pairs["hyper"])
    assert closure.dtype == np.intp and closure.shape[1] == 2
    assert as_tuples(closure) == sorted(closure_bfs(held(cs, "hyper")))
    joined = quad_join(cs.pairs["syn"], cs.pairs["hyper"])
    assert joined.dtype == np.intp and joined.shape[1] == 3
    assert as_tuples(joined) == quad_join_dict(cs)


def test_closure_of_a_deep_chain_and_a_long_cycle():
    chain = {(i, i + 1) for i in range(30)}
    assert as_tuples(hypernym_closure(as_array(chain))) == sorted(closure_bfs(chain))
    assert len(hypernym_closure(as_array(chain))) == 30 * 31 // 2
    cycle = chain | {(30, 0)}
    assert as_tuples(hypernym_closure(as_array(cycle))) == sorted(closure_bfs(cycle))
    assert len(hypernym_closure(as_array(cycle))) == 31 * 30


def test_pair_format_on_large_rows():
    # keys are src * width + dst, with width past the largest row
    pairs = {(10**6, 7), (7, 10**6 + 1), (10**6, 3)}
    unsorted = np.array(list(pairs))
    assert as_tuples(pair_array(unsorted)) == sorted(pairs)
    assert as_tuples(hypernym_closure(unsorted)) == sorted(closure_bfs(pairs))
    owner, dst = linked(csr(*pair_keys(unsorted)), np.array([10**6, 5, 7, 10**7]))
    assert list(zip(owner.tolist(), dst.tolist())) == [(0, 3), (0, 7), (2, 10**6 + 1)]


def test_repeated_pairs_count_once():
    pairs = [(3, 1), (1, 2), (3, 1), (1, 2), (1, 2)]
    assert as_tuples(pair_array(np.array(pairs))) == [(1, 2), (3, 1)]
    assert as_tuples(hypernym_closure(np.array(pairs))) == sorted(closure_bfs(set(pairs)))
    assert len(hypernym_closure(np.array(pairs))) == 3


def test_the_view_holds_arrays_only():
    # a run reads its constraint set once, into these fields
    assert [field.name for field in dataclasses.fields(RunView)] == ["pairs", "streams", "partners"]


@pytest.mark.parametrize("seed", range(4))
def test_distinct_equals_unique(seed):
    rng = np.random.default_rng(seed)
    inputs = [rng.integers(-50, 50, size=200), rng.integers(0, 10**12, size=(40, 3)),
              np.array([], dtype=np.intp), np.array([7], dtype=np.intp),
              rng.integers(0, 6, size=(9, 2)).astype(np.intp)]
    for values in inputs:
        got, want = distinct(values), np.unique(values)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


def test_empty_pairs():
    empty = ConstraintSet().pairs["hyper"]
    assert pair_array(empty).shape == (0, 2)
    assert hypernym_closure(empty).shape == (0, 2)
    assert quad_join(empty, empty).shape == (0, 3)
    owner, dst = linked(csr(*pair_keys(empty)), np.array([0, 4]))
    assert len(owner) == len(dst) == 0


def probe_tool():
    """``tools/probe_deep_view.py``, loaded from its path."""
    path = Path(__file__).resolve().parents[1] / "tools" / "probe_deep_view.py"
    spec = importlib.util.spec_from_file_location("probe_deep_view", path)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe


def test_probe_reports_one_preset():
    report = probe_tool().probe("lear", 400)
    assert report["rows"] == 400 and report["batches"] >= 1
    assert set(report["instances"]) == {"syn", "ant", "hyper", "ad"}
    assert report["run_view_s"] >= 0 and report["peak_rss_mib"] > 0
    assert report["working_rows_s"] >= 0
    # the synonym and antonym streams reach only part of the working set
    state = report["state_mib"]
    assert 0 < state["reached"] < state["relations_x_working_set"]
    assert probe_tool().probe("retrofitting", 400)["state_mib"] is None


@pytest.mark.parametrize("preset", ["hierarchy_fitting_ad_indir", "lear"])
def test_view_memory_follows_the_closure(preset):
    # 20k rows, about 9 levels deep on average: the closure holds about 190k
    # pairs. A view built of pair sets and lists of tuples peaked at 15.3-16.7
    # times the closure array's bytes; the arrays peak at 5.5-6.9 times
    cs = probe_tool().build_world(20000)  # the probe's world
    closure_bytes = 16 * len(hypernym_closure(cs.pairs["hyper"]))  # (n, 2) intp
    tracemalloc.start()
    try:
        view = run_view(cs, preset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(view.streams["ad"]) * 16 == closure_bytes > 2_000_000
    assert peak < 10 * closure_bytes


def test_held_pairs_take_their_array_bytes():
    # about 30k distinct pairs loaded from files: a set of tuples retained
    # about 125 bytes per pair, an (n, 2) intp array takes 16
    rows = 20000
    store = EmbeddingStore([f"w{i}" for i in range(rows)], np.ones((rows, 1)))
    rng = np.random.default_rng(4)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for relation, count in (("syn", 15000), ("ant", 6000), ("hyper", 9000)):
            paths[relation] = Path(tmp) / f"{relation}.txt"
            pairs = rng.integers(0, rows, size=(count, 2)).tolist()
            paths[relation].write_text("".join(f"w{a} w{b}\n" for a, b in pairs))

        def load() -> ConstraintSet:
            cs = ConstraintSet()
            for relation, path in paths.items():
                load_pairs(cs, str(path), relation, store)
            return cs

        load()  # numpy imports some modules at first use; those are not the set's
        tracemalloc.start()
        try:
            cs = load()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    held_pairs = sum(map(len, cs.pairs.values()))
    assert held_pairs > 29000
    assert retained <= 32 * held_pairs + 4096
