"""lexfit benchmark: one workload, closed loop, concurrency 1.

Usage (from the repository root):

    python3 perfbench/run.py --workload hier_dense --seed 1 --seconds 55 --trace 0

Set-up generates the workload's inputs from ``--seed`` (several times; the
median is ``setup_s``). Each iteration then runs ``lexfit specialize`` as a
child process, the five ``lexfit eval`` tasks on its output as child
processes, and a fixed set of in-process ``nearest_neighbors`` queries, and
checks every output. Iterations repeat until the next one would end after
``--seconds``; a command's time is its mean over them. With ``--trace 1``
every command also runs a second time with its layers traced, and the
per-layer metrics are reported instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The program under
test is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# Single-threaded BLAS here and in every child (they inherit the environment):
# the core is single-process by design, and thread wake-ups on a shared
# two-core machine would dominate the spread of the query latencies.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings above)

import gen  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Workload:
    size: gen.Size
    method: str
    relations: tuple[str, ...]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "hier_dense": Workload(gen.Size(vocab=1000, taxonomy_words=975, eval_pairs=2000),
                           "hierarchy-fitting-ad-indir", ("syn", "ant", "hyper")),
    "vocab_sparse": Workload(gen.Size(vocab=4000, taxonomy_words=400, eval_pairs=1500),
                             "hierarchy-fitting-ad-dir", ("syn", "ant", "hyper")),
    "counterfit_nn": Workload(gen.Size(vocab=3000, taxonomy_words=800, eval_pairs=2000),
                              "counterfitting", ("syn", "ant")),
    "smoke": Workload(gen.Size(vocab=300, taxonomy_words=120, eval_pairs=120, dim=20),
                      "hierarchy-fitting-ad-indir", ("syn", "ant", "hyper")),
}

EVAL_TASKS = ("sim", "hyperlex", "bless", "wbless", "bibless")
QUALITY = {"sim": "sim_rho", "hyperlex": "hyperlex_rho", "bless": "bless_acc",
           "wbless": "wbless_acc", "bibless": "bibless_acc"}
END_TO_END_UNITS = {
    "setup_s": "s",
    "specialize_s": "s",
    "specialize_rss_mb": "MB",
    "eval_s": "s",
    "nearest_ms_p50": "ms",
    "nearest_ms_p90": "ms",
    **{name: ("rho" if name.endswith("rho") else "ratio") for name in QUALITY.values()},
}
REPORT_HEADER = "dataset\tmetric\tvalue\tcoverage\tn_pairs\tn_excluded"
SETUP_REPEATS = 5
N_QUERIES = 200
K = 10
CHECKED_QUERIES = 5
NEIGHBOR_K = 10  # the counterfitting default; its neighbours may move too
CHILD_TIMEOUT_S = 60.0
MIN_ITERATIONS = 2


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


def run_child(argv: list[str], log_path: Path, env: dict) -> Child:
    """Run ``python argv`` to completion; wall time and peak RSS from ``wait4``."""
    start = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                                stdout=log, stderr=subprocess.STDOUT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def parse_report(path: Path) -> float | None:
    """The value of a ``lexfit eval --out`` report, or None if it does not parse."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError:
        return None
    if len(lines) != 2 or lines[0] != REPORT_HEADER:
        return None
    fields = lines[1].split("\t")
    try:
        value = float(fields[2])
        coverage = float(fields[3])
    except (IndexError, ValueError):
        return None
    return value if math.isfinite(value) and coverage > 0 else None


def blas_threads() -> int | None:
    """OpenBLAS thread count of this process, when numpy bundles OpenBLAS."""
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs_dir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "src_lines": src_line_count(),
    }


def percentile_note(values: list[float]) -> str:
    """Sample count plus the highest percentile that has at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n} samples=" + ",".join(f"{v:.4g}" for v in values)
    q = math.floor(100 * (1 - 10 / n))
    return f"n={n} p{q}={float(np.percentile(values, q)):.6g}"


class Bench:
    def __init__(self, name: str, seed: int, traced: bool, work: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.traced = traced
        self.work = work
        self.inputs_dir = work / "inputs"
        self.out = work / "out.vec"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
        self.tally = Tally()
        self.inputs: gen.Inputs | None = None
        self.embeddings = None  # lexfit.embeddings, once set-up is done
        self.store = None
        self.reference_sha: str | None = None
        self.reference_quality: dict[str, float] = {}
        self.query_rows = np.array([], dtype=np.int64)
        # per-iteration samples
        self.spec_s: list[float] = []
        self.spec_rss: list[float] = []
        self.eval_s: list[float] = []
        self.nearest_ms: list[float] = []
        self.layers: list[dict[str, float]] = []
        self.overhead_s: list[float] = []
        self.absent: set[str] = set()
        self.setup_times: list[float] = []
        self.iterations = 0

    # --- set-up ---------------------------------------------------------------

    def setup(self) -> float:
        """Generate and write the inputs, then import the program once; timed."""
        start = time.perf_counter()
        shutil.rmtree(self.inputs_dir, ignore_errors=True)
        self.inputs_dir.mkdir(parents=True)
        self.inputs = gen.generate(str(self.inputs_dir), self.workload.size, self.seed)
        probe = run_child(["-c", "import lexfit.cli"], self.work / "probe.log", self.env)
        if probe.code != 0:
            raise RuntimeError(f"importing lexfit failed; see {self.work / 'probe.log'}")
        return time.perf_counter() - start

    # --- commands ---------------------------------------------------------------

    def _command(self, lexfit_args: list[str], tag: str, traced: bool) -> tuple[Child, dict | None]:
        log = self.work / f"{tag}.log"
        if not traced:
            return run_child(["-m", "lexfit.cli", *lexfit_args], log, self.env), None
        spans = self.work / f"{tag}.spans.json"
        spans.unlink(missing_ok=True)
        child = run_child([str(BENCH / "traced_cli.py"), str(spans), tag, "--", *lexfit_args],
                          log, self.env)
        try:
            doc = json.loads(spans.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            doc = None
        return child, doc

    def _specialize_args(self) -> list[str]:
        paths = self.inputs.paths
        args = ["specialize", "--embeddings", paths["vectors"], "--format", "glove-text",
                "--method", self.workload.method, "--out", str(self.out),
                "--epochs", "1", "--batch-size", "128", "--seed", str(self.seed)]
        for relation in self.workload.relations:
            args += [f"--{relation}", paths[relation]]
        return args

    def _eval_args(self, task: str) -> list[str]:
        return ["eval", "--embeddings", str(self.out), "--format", "glove-text",
                "--task", task, "--dataset", self.inputs.paths[task],
                "--seed", str(self.seed), "--out", str(self.work / f"{task}.report.tsv")]

    # --- checks -----------------------------------------------------------------

    def _constrained_rows(self) -> np.ndarray:
        return np.unique(np.concatenate(
            [self.inputs.pair_rows[r].ravel() for r in self.workload.relations]))

    def _allowed_rows(self) -> np.ndarray:
        """Rows the preset may change: constrained rows, plus their
        original-space neighbours for counter-fitting (with slack for ties)."""
        rows = self._constrained_rows()
        if self.workload.method != "counterfitting":
            return rows
        unit = self.inputs.matrix / np.linalg.norm(self.inputs.matrix, axis=1, keepdims=True)
        sims = unit[rows] @ unit.T
        sims[np.arange(len(rows)), rows] = -np.inf
        near = np.argpartition(-sims, 2 * NEIGHBOR_K, axis=1)[:, : 2 * NEIGHBOR_K]
        return np.union1d(rows, near.ravel())

    def _check_first_output(self) -> str | None:
        """What is wrong with the first specialized output, or None."""
        try:
            store = self.embeddings.load_embeddings(str(self.out), "glove-text")
        except Exception as exc:  # noqa: BLE001  (any failure of the program counts)
            return f"output does not load: {exc!r}"
        expected = self.inputs.matrix
        if store.vocab != self.inputs.vocab or store.current.shape != expected.shape:
            return "output vocabulary or shape differs from the input"
        if not np.all(np.isfinite(store.current)):
            return "output has non-finite values"
        fixed = np.ones(len(expected), dtype=bool)
        fixed[self._allowed_rows()] = False
        if not np.array_equal(store.current[fixed], expected[fixed]):
            return "rows outside the working set changed"
        if np.array_equal(store.current, expected):
            return "nothing was specialized"
        self.store = store
        return None

    def _check_specialize(self, child: Child, what: str) -> bool:
        if child.code != 0:
            return self.tally.record(False, f"{what}: exit code {child.code}")
        digest = sha256(self.out)
        if self.reference_sha is None:
            problem = self._check_first_output()
            if problem is None:
                self.reference_sha = digest
            return self.tally.record(problem is None, f"{what}: {problem}")
        return self.tally.record(digest == self.reference_sha,
                                 f"{what}: output differs from the first run with this seed")

    def _check_eval(self, child: Child, task: str, what: str) -> bool:
        if child.code != 0:
            return self.tally.record(False, f"{what}: exit code {child.code}")
        value = parse_report(self.work / f"{task}.report.tsv")
        if value is None:
            return self.tally.record(False, f"{what}: report does not parse")
        expected = self.reference_quality.setdefault(task, value)
        return self.tally.record(value == expected, f"{what}: value changed between runs")

    # --- one iteration ----------------------------------------------------------

    def iteration(self, i: int) -> None:
        modes = (False, True) if self.traced else (False,)
        if i % 2:
            modes = modes[::-1]  # alternate which runs first, so an order effect cancels
        walls = {mode: 0.0 for mode in modes}
        docs: list[dict] = []
        spec_ok = True
        for mode in modes:
            child, doc = self._command(self._specialize_args(), f"i{i}.specialize", mode)
            walls[mode] += child.wall_s
            ok = self._check_specialize(child, f"iteration {i} specialize")
            spec_ok = spec_ok and ok
            if doc is not None:
                docs.append(doc)
            if not mode and ok:
                self.spec_s.append(child.wall_s)
                self.spec_rss.append(child.rss_mb)
        if not spec_ok or self.store is None:
            for task in EVAL_TASKS:
                self.tally.record(False, f"iteration {i} eval {task}: no specialized output")
            return
        eval_total = 0.0
        for task in EVAL_TASKS:
            for mode in modes:
                child, doc = self._command(self._eval_args(task), f"i{i}.eval.{task}", mode)
                walls[mode] += child.wall_s
                if self._check_eval(child, task, f"iteration {i} eval {task}") and not mode:
                    eval_total += child.wall_s
                if doc is not None:
                    docs.append(doc)
        self.eval_s.append(eval_total)
        docs.append(self._queries(i))
        if self.traced:
            for doc in docs:
                self.absent.update(doc["absent"])
            self.layers.append(tracing.layer_metrics(docs))
            self.overhead_s.append(walls[True] - walls[False])

    def _queries(self, i: int) -> dict:
        """Time the query set on the specialized store; spot-check a few answers."""
        embeddings = self.embeddings
        if i == 0:
            # warm the query path before any timed query counts
            for row in self.query_rows[:3]:
                embeddings.nearest_neighbors(self.store, int(row), K)
        tracer = tracing.Tracer(f"i{i}.nearest")
        if self.traced:
            tracer.install(tracing.NEAREST_TARGETS)
        try:
            clock = time.perf_counter
            for n, row in enumerate(self.query_rows):
                what = f"iteration {i} nearest row {row}"
                start = clock()
                try:
                    hits = embeddings.nearest_neighbors(self.store, int(row), K)
                except Exception as exc:  # noqa: BLE001  (any failure of the program counts)
                    self.tally.record(False, f"{what}: {exc!r}")
                    continue
                elapsed = clock() - start
                if not self.traced:
                    self.nearest_ms.append(elapsed * 1e3)
                ok = n >= CHECKED_QUERIES or self._check_neighbours(int(row), hits)
                self.tally.record(ok, f"{what}: wrong neighbours")
        finally:
            tracer.uninstall()
        return tracer.to_dict()

    def _check_neighbours(self, row: int, hits) -> bool:
        m = self.store.current
        sims = (m @ m[row]) / (np.linalg.norm(m, axis=1) * np.linalg.norm(m[row]))
        sims[row] = -np.inf
        expected = np.argsort(-sims, kind="stable")[:K]
        return [r for r, _ in hits] == [int(r) for r in expected]

    # --- the run ----------------------------------------------------------------

    def run(self, seconds: float) -> dict:
        self.setup_times = [self.setup() for _ in range(SETUP_REPEATS)]
        sys.path.insert(0, str(SRC))
        import lexfit.embeddings  # the checkout's copy, imported after set-up

        self.embeddings = lexfit.embeddings

        rng = np.random.default_rng((self.seed, 1))
        self.query_rows = rng.choice(len(self.inputs.vocab), size=N_QUERIES, replace=False)
        start = time.perf_counter()
        durations: list[float] = []
        i = 0
        while True:
            t0 = time.perf_counter()
            self.iteration(i)
            durations.append(time.perf_counter() - t0)
            i += 1
            remaining = seconds - (time.perf_counter() - start)
            if i >= MIN_ITERATIONS and remaining < statistics.median(durations):
                break
        self.iterations = i
        return self.metrics()

    def metrics(self) -> dict[str, float]:
        def med(values):
            return float(statistics.median(values)) if values else 0.0

        def mean(values):
            return float(statistics.fmean(values)) if values else 0.0

        if self.traced:
            layer = {name: med([it[name] for it in self.layers])
                     for name in tracing.PER_LAYER_UNITS if name != "trace.overhead_s"}
            layer["trace.overhead_s"] = med(self.overhead_s)
            return layer
        # Commands take the mean over the run, not the median of its few
        # iterations: the host's speed swings, and the mean averages all of
        # the run's time (see README.md).
        out = {
            "setup_s": med(self.setup_times),
            "specialize_s": mean(self.spec_s),
            "specialize_rss_mb": med(self.spec_rss),
            "eval_s": mean(self.eval_s),
            "nearest_ms_p50": med(self.nearest_ms),
            "nearest_ms_p90": float(np.percentile(self.nearest_ms, 90)) if self.nearest_ms else 0.0,
        }
        for task, name in QUALITY.items():
            out[name] = self.reference_quality.get(task, 0.0)
        return out

    def print_summary(self, metrics: dict[str, float], units: dict[str, str]) -> None:
        samples = {"setup_s": self.setup_times, "specialize_s": self.spec_s,
                   "specialize_rss_mb": self.spec_rss, "eval_s": self.eval_s,
                   "nearest_ms_p50": self.nearest_ms, "nearest_ms_p90": self.nearest_ms}
        print(f"workload {self.name} seed {self.seed} trace {int(self.traced)} "
              f"iterations {self.iterations}")
        sizes = dict(self.inputs.sizes, constrained_rows=len(self._constrained_rows()))
        print("inputs: " + json.dumps(sizes, sort_keys=True))
        print("environment: " + json.dumps(environment(), sort_keys=True))
        for name, value in metrics.items():
            note = percentile_note(samples[name]) if name in samples else ""
            print(f"  {name:38s} {value:14.6g} {units[name]:6s} {note}")
        rate = self.tally.failed / self.tally.attempted if self.tally.attempted else 0.0
        print(f"  {'error_rate':38s} {rate:14.6g} {'ratio':6s} "
              f"{self.tally.failed}/{self.tally.attempted} operations")
        if self.absent:
            print("absent trace targets: " + ", ".join(sorted(self.absent)))
        for problem in self.tally.problems:
            print("FAILED: " + problem)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lexfit" / "cli.py").is_file():
        print(f"run.py: no program to measure: {SRC / 'lexfit'} is missing", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, bool(args.trace), work)
        metrics = bench.run(args.seconds)
        units = tracing.PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
        bench.print_summary(metrics, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass
    correct = bench.tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
