#!/usr/bin/env python3
"""Count what a ``lexfit`` child costs the kernel, and time its phases, per source tree.

The world is a benchmark workload's, built once by ``perfbench/gen.py`` into
a temporary directory: ``hier_dense`` or ``counterfit_nn`` as
``perfbench/run.py`` defines them, or that workload's method on a world of
another size (``--vocab``, ``--taxonomy-words``). Each round then runs one
``lexfit specialize`` child per ``--src`` tree, in turn, with the benchmark's
arguments (one epoch, batch 128, the world's seed) and one BLAS thread; with
``--eval``, the five ``lexfit eval`` children follow it on its ``out.vec``
(the world's datasets, its seed and ``--out``). The first tree goes first in
even rounds and last in odd ones, so an order effect cancels. For each child
it prints one JSON line: the command, wall time, user and system CPU time,
minor and major page faults and peak RSS, all from ``os.wait4`` but the wall
time; the time of each phase; and the sha256 of what the command wrote
(``out.vec``, ``out.vec.log`` and ``out.vec.manifest``, or the eval report).
The phases come from ``time.perf_counter`` stamps, which read
``CLOCK_MONOTONIC`` and so compare across processes: ``start_ms`` runs from
just before the fork to the child's first statement, ``import_ms`` is
``import lexfit.cli``, ``command_ms`` is ``lexfit.cli.main`` and ``exit_ms``
runs from its return to the end of the process, as ``os.wait4`` sees it.
Peak RSS is ``ru_maxrss``; Linux carries the forking process's high-water mark
across ``exec``, so the world is built in a child of its own and this process
stays small. The last line gives each tree's medians, by command.
``tools/probe_digests.py`` builds its worlds and runs its children with this
tool's functions. Needs only numpy and the trees' own sources:

    python tools/probe_faults.py --src src --src ../parent/src --rounds 10
    python tools/probe_faults.py --src src --workload counterfit_nn --eval
    python tools/probe_faults.py --src src --vocab 60000 --taxonomy-words 20000 \\
        --method hierarchy-fitting-ad-indir --rounds 1
"""

import argparse
import dataclasses
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# perfbench/run.py's, in its order; not imported from there, since it imports numpy
EVAL_TASKS = ("sim", "hyperlex", "bless", "wbless", "bibless")


def build_world(work: Path, workload: str, vocab=None, taxonomy_words=None, seed: int = 1) -> dict:
    """Write ``workload``'s world (at another ``vocab``/``taxonomy_words`` if given) into
    ``work`` and return its file paths."""
    sys.path.insert(0, str(PERFBENCH))
    import gen
    import run

    size = run.WORKLOADS[workload].size
    size = dataclasses.replace(size, vocab=vocab or size.vocab,
                               taxonomy_words=taxonomy_words or size.taxonomy_words)
    return gen.generate(str(work), size, seed).paths


def specialize_args(paths: dict, method: str, relations, out: Path, epochs: int,
                    seed: int) -> list[str]:
    """The ``lexfit specialize`` arguments that run ``method`` on a world's files."""
    args = ["specialize", "--embeddings", paths["vectors"], "--format", "glove-text",
            "--method", method, "--out", str(out),
            "--epochs", str(epochs), "--batch-size", "128", "--seed", str(seed)]
    for relation in relations:
        args += [f"--{relation}", paths[relation]]
    return args


def generate(work: Path, workload: str, vocab, taxonomy_words, method, seed: int) -> None:
    """Write the world into ``work`` and print its file paths and the specialize arguments
    for it, as JSON. Runs in a child of its own, so the world's arrays never count in this
    process's peak RSS, which each ``lexfit`` child inherits."""
    sys.path.insert(0, str(PERFBENCH))
    import run  # pins one BLAS thread, for its import and every child's

    spec = run.WORKLOADS[workload]
    paths = build_world(work, workload, vocab, taxonomy_words, seed)
    print(json.dumps({"paths": paths, "specialize": specialize_args(
        paths, method or spec.method, spec.relations, work / "out.vec", 1, seed)}))


def digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def child_env(src: Path) -> dict:
    """The environment of a ``lexfit`` child of the tree at ``src``: one BLAS thread."""
    return dict(os.environ, PYTHONPATH=str(src),
                **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS")})


# A ``lexfit`` child: ``python -m lexfit.cli``'s import and call, with a stamp
# before each phase and one as ``main`` returns, written to argv[1].
_CHILD = """\
import sys, time
stamps = [time.perf_counter()]
import lexfit.cli
stamps.append(time.perf_counter())
try:
    code = lexfit.cli.main(sys.argv[2:])
finally:
    stamps.append(time.perf_counter())
    with open(sys.argv[1], "w") as fh:
        fh.write(" ".join(map(repr, stamps)))
sys.exit(code)
"""
PHASES = ("start_ms", "import_ms", "command_ms", "exit_ms")


def timed_child(src: Path, args: list[str], stamps: Path) -> tuple[dict, str]:
    """Run ``lexfit args`` as a child of the tree at ``src`` with one BLAS thread; its exit
    code, costs and phase times (None for a phase the child did not reach), and its stdout."""
    stamps.unlink(missing_ok=True)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", _CHILD, str(stamps), *args],
                            env=child_env(src), stdout=subprocess.PIPE, text=True)
    stdout = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.perf_counter()
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    marks = [start, *map(float, stamps.read_text().split()), end] if stamps.exists() else []
    return {
        "src": str(src),
        "code": proc.returncode,
        "wall_s": round(end - start, 4),
        "user_s": round(usage.ru_utime, 4),
        "sys_s": round(usage.ru_stime, 4),
        "minflt": usage.ru_minflt,
        "majflt": usage.ru_majflt,
        "maxrss_mb": round(usage.ru_maxrss / 1024, 1),
        **dict.fromkeys(PHASES),
        **{phase: round(1000 * (b - a), 2) for phase, a, b in zip(PHASES, marks, marks[1:])},
    }, stdout


def run_child(src: Path, args: list[str], out: Path) -> tuple[dict, str]:
    """Run one ``lexfit specialize`` child of the tree at ``src`` (:func:`timed_child`), and
    add the sha256 of ``out``, ``out.log`` and ``out.manifest`` (None for a file the child did
    not write)."""
    for stale in (out, Path(f"{out}.log"), Path(f"{out}.manifest")):
        stale.unlink(missing_ok=True)
    record, stdout = timed_child(src, args, out.parent / "stamps")
    record.update(sha256=digest(out), log_sha256=digest(Path(f"{out}.log")),
                  manifest_sha256=digest(Path(f"{out}.manifest")))
    return record, stdout


def eval_children(src: Path, paths: dict, out: Path, seed: int) -> dict[str, dict]:
    """Run the five ``lexfit eval`` tasks of the tree at ``src`` on ``out``, each with
    ``--out``; one :func:`timed_child` record per task, with the sha256 of its report
    (None for a report the child did not write), by task."""
    records = {}
    for task in EVAL_TASKS:
        report = out.parent / f"{task}.report.tsv"
        report.unlink(missing_ok=True)
        record, _ = timed_child(src, ["eval", "--embeddings", str(out), "--format", "glove-text",
                                      "--task", task, "--dataset", paths[task],
                                      "--seed", str(seed), "--out", str(report)],
                                out.parent / "stamps")
        records[task] = {**record, "sha256": digest(report)}
    return records


def _median(values: list) -> float | None:
    return round(statistics.median(values), 4) if values else None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", type=Path,
                        help="a tree's src directory; repeat to compare trees")
    parser.add_argument("--workload", choices=("hier_dense", "counterfit_nn"),
                        default="hier_dense")
    parser.add_argument("--vocab", type=int, help="words in the world (default: the workload's)")
    parser.add_argument("--taxonomy-words", type=int,
                        help="words in its taxonomy (default: the workload's)")
    parser.add_argument("--method", help="the preset to run (default: the workload's)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--eval", action="store_true",
                        help="also run the five eval children on each specialize output")
    parser.add_argument("--generate", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.generate:
        generate(args.generate, args.workload, args.vocab, args.taxonomy_words, args.method,
                 args.seed)
        return
    if not args.src:
        parser.error("--src is required")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    srcs = [src.resolve() for src in args.src]
    samples: dict[str, list[dict]] = {str(src): [] for src in srcs}
    with tempfile.TemporaryDirectory(prefix="probe_faults.") as work:
        options = [f"--{name}={value}" for name, value in (
            ("workload", args.workload), ("vocab", args.vocab),
            ("taxonomy-words", args.taxonomy_words), ("method", args.method),
            ("seed", args.seed)) if value is not None]
        world = json.loads(subprocess.run(
            [sys.executable, __file__, "--generate", work, *options],
            check=True, stdout=subprocess.PIPE).stdout)
        out = Path(work) / "out.vec"
        for i in range(args.rounds):
            for src in srcs if i % 2 == 0 else srcs[::-1]:
                records = [{"command": "specialize", **run_child(src, world["specialize"], out)[0]}]
                if args.eval:
                    records += [{"command": f"eval {task}", **record} for task, record
                                in eval_children(src, world["paths"], out, args.seed).items()]
                for record in records:
                    print(json.dumps({"round": i, **record}), flush=True)
                samples[str(src)] += records
    keys = ("wall_s", "user_s", "sys_s", "minflt", "maxrss_mb", *PHASES)
    medians = {}
    for src, records in samples.items():
        by_command: dict[str, list[dict]] = {}
        for record in records:
            by_command.setdefault(record["command"], []).append(record)
        medians[src] = {command: {key: _median([r[key] for r in runs if r[key] is not None])
                                  for key in keys}
                        for command, runs in by_command.items()}
    print(json.dumps({"medians": medians}))


if __name__ == "__main__":
    main()
