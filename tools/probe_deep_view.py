#!/usr/bin/env python3
"""Time a run's constraint view on a seeded WordNet-depth hierarchy.

The world has no vectors. It has ``--rows`` n rows; each row after the first
has one direct hypernym, drawn uniformly from the rows before it, so the
mean depth grows as ln n (about 11 at 200k rows, the deepest chains near 25,
close to WordNet's noun hierarchy). On top of that come n/2 synonym and n/4
antonym pairs between uniform rows (self pairs, repeats and conflicts are
dropped as ``ConstraintSet.add`` drops them, one call per relation).

For each preset a fresh process builds the world with seed 1, derives
``specializer.run_view``, plans one epoch with ``specializer.plan_epoch``
(seed 1, ``SpecializeConfig``'s default batch size) and finds the rows each
stream reaches (``specializer.stream_rows``), which size its AdaGrad state,
and the distinct rows of them all, its ``WorkingSet``, as training does. It
then prints one JSON line: the three times, the number of batches, the size
of each stream, the AdaGrad state that 300-d vectors would take
(``state_mib``: the rows each relation reaches, summed, next to one
accumulator of the whole working set per relation) and the process's own
peak RSS (``ru_maxrss``, the world included).
Counter-fitting's state also covers the neighbours of its rows, which need
vectors; its figure counts the stream rows alone. Needs only numpy and the
package itself:

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
DIM = 300  # the published vectors' width, which state_mib assumes


def build_world(rows: int):
    from lexfit import ConstraintSet

    rng = np.random.default_rng(SEED)
    cs = ConstraintSet()
    # floor(u * i) is uniform over the i rows before row i
    parents = (rng.random(rows - 1) * np.arange(1, rows)).astype(np.int64)
    cs.add("hyper", np.stack((np.arange(1, rows), parents), axis=1))
    for relation, count in (("syn", rows // 2), ("ant", rows // 4)):
        cs.add(relation, rng.integers(0, rows, size=(count, 2)))
    return cs


def probe(preset: str, rows: int) -> dict:
    from lexfit.constraints import distinct
    from lexfit.specializer import SpecializeConfig, plan_epoch, run_view, stream_rows

    cs = build_world(rows)
    start = time.perf_counter()
    view = run_view(cs, preset)
    view_s = time.perf_counter() - start
    plan_s = batches = rows_s = state = None
    if view.streams:  # retrofitting plans no epochs and keeps no AdaGrad state
        start = time.perf_counter()
        batches = len(plan_epoch(view.streams, SpecializeConfig(preset).batch_size, SEED))
        plan_s = time.perf_counter() - start
        start = time.perf_counter()
        reach = stream_rows(view)
        working = distinct(np.concatenate(list(reach.values())))
        rows_s = time.perf_counter() - start
        mib = DIM * 8 / 2**20
        state = {"reached": round(sum(map(len, reach.values())) * mib, 1),
                 "relations_x_working_set": round(len(reach) * len(working) * mib, 1)}
    return {
        "preset": preset,
        "rows": rows,
        "instances": {rel: len(items) for rel, items in view.streams.items()},
        "run_view_s": round(view_s, 3),
        "plan_epoch_s": None if plan_s is None else round(plan_s, 3),
        "working_rows_s": None if rows_s is None else round(rows_s, 3),
        "batches": batches,
        "state_mib": state,
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
