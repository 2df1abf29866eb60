#!/usr/bin/env python3
"""Check that source trees write the same ``lexfit specialize`` outputs, preset by preset.

Each ``--world`` is a ``perfbench/run.py`` workload's world (``hier_dense`` and
``counterfit_nn`` by default), built once by ``perfbench/gen.py`` from seed 1
into a temporary directory. Every ``--preset`` (by default every preset) then runs
once per ``--src`` tree, as a ``lexfit specialize`` child given the world's
``--syn``, ``--ant`` and ``--hyper`` files, 2 epochs, batch 128, seed 1 and one
BLAS thread (``tools/probe_faults.py``'s world builder and child runner). The
five ``lexfit eval`` tasks then run on that ``out.vec`` with the world's datasets,
seed 1 and ``--out``. Each run prints one JSON line: the world, preset and tree,
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
import subprocess
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


def eval_digests(src: Path, paths: dict, out: Path) -> dict:
    """Run each eval task of the tree at ``src`` on ``out`` with ``--out``; the sha256 of
    each report, by task (None for a report the child did not write)."""
    digests = {}
    for task in run.EVAL_TASKS:
        report = out.parent / f"{task}.report.tsv"
        report.unlink(missing_ok=True)
        subprocess.run([sys.executable, "-m", "lexfit.cli", "eval", "--embeddings", str(out),
                        "--format", "glove-text", "--task", task, "--dataset", paths[task],
                        "--seed", str(SEED), "--out", str(report)],
                       env=probe_faults.child_env(src), stdout=subprocess.DEVNULL)
        digests[task] = probe_faults.digest(report)
    return digests


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
                    outputs["eval_sha256"] = eval_digests(src.resolve(), paths, out)
                    outputs["tmp_left"] = any(world_dir.glob("*.tmp"))
                    print(json.dumps({"world": world, "preset": preset, "src": str(src),
                                      **outputs}), flush=True)
                    first = first or outputs
                    failed = (failed or outputs["code"] != 0 or outputs["tmp_left"]
                              or None in outputs["eval_sha256"].values() or outputs != first)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
