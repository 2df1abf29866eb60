#!/usr/bin/env python3
"""Check that source trees write the same ``lexfit specialize`` outputs, preset by preset.

Each ``--world`` is a ``perfbench/run.py`` workload's world (``hier_dense`` and
``counterfit_nn`` by default), built once by ``perfbench/gen.py`` from seed 1
into a temporary directory. Every ``--preset`` (by default every preset) then runs
once per ``--src`` tree, as a ``lexfit specialize`` child given the world's
``--syn``, ``--ant`` and ``--hyper`` files, 2 epochs, batch 128, seed 1 and one
BLAS thread. The five ``lexfit eval`` tasks then run on that ``out.vec`` with
the world's datasets, seed 1 and ``--out``. Worlds and children are
``tools/probe_faults.py``'s. Each run prints one JSON line: the world, preset and tree,
the exit code, the sha256 of ``out.vec``, ``out.vec.log`` and
``out.vec.manifest``, the CLI summary with its time masked, the sha256 of each
eval report (None for a report not written), and whether any ``*.tmp`` file is
left beside the outputs.
The exit code is 1 when a run fails, leaves a ``*.tmp`` file or writes no report,
or when, for some world and preset, a tree's line differs from the first tree's;
0 otherwise. Needs only numpy and the trees' own sources:

    python tools/probe_digests.py --src src --src ../parent/src
    python tools/probe_digests.py --src src --src ../parent/src --world smoke \\
        --preset lear --preset counterfitting
"""

import argparse
import json
import re
import sys
import tempfile
from pathlib import Path

import probe_faults

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from lexfit.specializer import PRESETS  # noqa: E402

SEED = 1  # the worlds' generator seed and the runs' training seed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", type=Path, required=True,
                        help="a tree's src directory; repeat to compare trees")
    parser.add_argument("--world", action="append", choices=tuple(run.WORKLOADS),
                        help="a workload's world (default: hier_dense and counterfit_nn)")
    parser.add_argument("--preset", action="append", choices=PRESETS,
                        help="a preset to run (default: every preset)")
    args = parser.parse_args()
    failed = False
    with tempfile.TemporaryDirectory(prefix="probe_digests.") as work:
        for world in args.world or ["hier_dense", "counterfit_nn"]:
            world_dir = Path(work) / world
            world_dir.mkdir()
            paths = probe_faults.build_world(world_dir, world, seed=SEED)
            out = world_dir / "out.vec"
            for preset in args.preset or PRESETS:
                argv = probe_faults.specialize_args(paths, preset.replace("_", "-"),
                                                    ("syn", "ant", "hyper"), out, 2, SEED)
                first = None
                for src in args.src:
                    record, stdout = probe_faults.run_child(src.resolve(), argv, out)
                    outputs = {key: record[key] for key in ("code", "sha256", "log_sha256",
                                                            "manifest_sha256")}
                    outputs["summary"] = re.sub(r" in \d+\.\d+s$", " in <t>s", stdout,
                                                flags=re.M)
                    outputs["eval_sha256"] = {
                        task: record["sha256"] for task, record
                        in probe_faults.eval_children(src.resolve(), paths, out, SEED).items()}
                    outputs["tmp_left"] = any(world_dir.glob("*.tmp"))
                    print(json.dumps({"world": world, "preset": preset, "src": str(src),
                                      **outputs}), flush=True)
                    first = first or outputs
                    failed = (failed or outputs["code"] != 0 or outputs["tmp_left"]
                              or None in outputs["eval_sha256"].values() or outputs != first)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
