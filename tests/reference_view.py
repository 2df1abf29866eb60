"""Reference constraint view: the set-and-dict derivation that the
integer-array view of ``lexfit.specializer.run_view`` replaced, kept as its
oracle, order included."""

from __future__ import annotations

from collections import defaultdict

from lexfit import ConstraintSet
from lexfit.specializer import PRESET_TABLE


def closure_bfs(direct) -> set[tuple[int, int]]:
    """Transitive closure of ordered pairs: a breadth-first search from every
    source over a dict of successor sets, cycles ended by a visited set."""
    successors: dict[int, set[int]] = defaultdict(set)
    for lo, hi in direct:
        successors[lo].add(hi)
    closure: set[tuple[int, int]] = set()
    for src in successors:
        reached: set[int] = set()
        frontier = {src}
        while frontier:
            nxt: set[int] = set()
            for node in frontier:
                nxt |= successors.get(node, set())
            nxt -= reached
            reached |= nxt
            frontier = nxt
        closure.update((src, dst) for dst in reached if dst != src)
    return closure


def pair_sets(constraints: ConstraintSet) -> tuple[set, set, set]:
    """The synonym, antonym and direct hypernym pairs of ``constraints``, as sets of tuples."""
    return tuple({tuple(pair) for pair in constraints.pairs[rel].tolist()}
                 for rel in ("syn", "ant", "hyper"))


def quad_join_dict(constraints: ConstraintSet) -> list[tuple[int, int, int]]:
    """(anchor, synonym, hypernym) seeds, joined through a dict of hypernym lists."""
    syn, _, direct = pair_sets(constraints)
    hypers: dict[int, list[int]] = defaultdict(list)
    for lo, hi in sorted(direct):
        hypers[lo].append(hi)
    seeds = []
    for a, s in sorted(syn):
        seeds.extend((a, s, h) for h in hypers.get(a, ()))
        seeds.extend((s, a, h) for h in hypers.get(s, ()))
    return seeds


def reference_view(constraints: ConstraintSet, preset: str):
    """The streams, as lists of tuples in planning order, and the pair set
    each mined stream masks, of the preset's run."""
    spec = PRESET_TABLE[preset]
    syn, ant, direct = pair_sets(constraints)
    closed = closure_bfs(direct) if spec.attract_hyper or spec.closed_ad else direct
    pairs = {"syn": syn, "ant": ant, "hyper": closed if spec.attract_hyper else direct,
             "ad": closed if spec.closed_ad else direct}
    streams = {rel: quad_join_dict(constraints) if rel == "quad" else sorted(pairs[rel])
               for rel in spec.streams}
    masked = {"syn": syn, "ant": ant, "hyper": closed, "quad": syn | closed}
    metric = spec.train.__name__ == "_train_metric"
    return streams, {rel: masked[rel] for rel in spec.streams if metric and rel in masked}
