#!/usr/bin/env python3
"""Time a run's constraint view on a seeded WordNet-depth hierarchy.

The world has no vectors. It has ``--rows`` n rows; each row after the first
has one direct hypernym, drawn uniformly from the rows before it, so the
mean depth grows as ln n (about 11 at 200k rows, the deepest chains near 25,
close to WordNet's noun hierarchy). On top of that come n/2 synonym and n/4
antonym pairs between uniform rows (self pairs, repeats and conflicts are
dropped as ``ConstraintSet.add_pair`` drops them).

For each preset a fresh process builds the world with seed 1, derives
``specializer.run_view``, plans one epoch with ``specializer.plan_epoch``
(seed 1, ``SpecializeConfig``'s default batch size) and finds the distinct
rows of the streams' instances with ``constraints.distinct``, as a
``WorkingSet`` does. It then prints one JSON line: the three times, the
number of batches, the size of each stream and the process's own peak RSS
(``ru_maxrss``, the world included). Needs only numpy and the package itself:

    PYTHONPATH=src python tools/probe_deep_view.py --rows 200000
    PYTHONPATH=src python tools/probe_deep_view.py --preset lear --rows 20000
"""

import argparse
import json
import resource
import subprocess
import sys
import time

import numpy as np


SEED = 1


def build_world(rows: int):
    from lexfit import ConstraintSet

    rng = np.random.default_rng(SEED)
    cs = ConstraintSet()
    # floor(u * i) is uniform over the i rows before row i
    parents = (rng.random(rows - 1) * np.arange(1, rows)).astype(np.int64)
    for child, parent in enumerate(parents.tolist(), start=1):
        cs.add_pair("hyper", child, parent)
    for relation, count in (("syn", rows // 2), ("ant", rows // 4)):
        for a, b in rng.integers(0, rows, size=(count, 2)).tolist():
            cs.add_pair(relation, a, b)
    return cs


def probe(preset: str, rows: int) -> dict:
    from lexfit.constraints import distinct
    from lexfit.specializer import SpecializeConfig, plan_epoch, run_view

    cs = build_world(rows)
    start = time.perf_counter()
    view = run_view(cs, preset)
    view_s = time.perf_counter() - start
    plan_s = batches = rows_s = None
    if view.streams:  # retrofitting plans no epochs
        start = time.perf_counter()
        batches = len(plan_epoch(view.streams, SpecializeConfig(preset).batch_size, SEED))
        plan_s = time.perf_counter() - start
        start = time.perf_counter()
        distinct(np.concatenate([items.ravel() for items in view.streams.values()]))
        rows_s = time.perf_counter() - start
    return {
        "preset": preset,
        "rows": rows,
        "instances": {rel: len(items) for rel, items in view.streams.items()},
        "run_view_s": round(view_s, 3),
        "plan_epoch_s": None if plan_s is None else round(plan_s, 3),
        "working_rows_s": None if rows_s is None else round(rows_s, 3),
        "batches": batches,
        "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def main() -> None:
    from lexfit.specializer import PRESETS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=200_000)
    parser.add_argument("--preset", action="append", choices=PRESETS,
                        help="repeat to probe several; default: every preset")
    parser.add_argument("--in-process", action="store_true",
                        help="probe the one --preset in this process")
    args = parser.parse_args()
    if args.rows < 2:
        parser.error("--rows must be at least 2")
    if args.in_process:
        if len(args.preset or ()) != 1:
            parser.error("--in-process takes exactly one --preset")
        print(json.dumps(probe(args.preset[0], args.rows)))
        return
    for preset in args.preset or PRESETS:
        subprocess.run(
            [sys.executable, __file__, "--in-process", "--preset", preset,
             "--rows", str(args.rows)],
            check=True,
        )


if __name__ == "__main__":
    main()
