"""Run every workload of BENCHMARK.json over several seeds and record a baseline.

Usage (from the repository root):

    python3 perfbench/record_baseline.py --out perfbench/baseline.json

For each workload this makes one untraced run per seed (seeds 1..10) and one
traced run (seed 1), then writes the medians, quartiles and spreads of every
end-to-end metric, the per-layer metrics, the input sizes and the
environment to ``--out``. The spread of a metric is the distance between its
first and third quartile as a share of its median; a metric whose spread is
not below a third of its bound is flagged ``"steady": false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = 10


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: its result object and its ``key: json`` info lines."""
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n"
                           f"{proc.stdout}\n{proc.stderr}")
    info = {}
    for line in lines[:-1]:
        key, sep, rest = line.partition(": ")
        if sep and key in ("inputs", "environment"):
            info[key] = json.loads(rest)
    return json.loads(lines[-1]), info


def summarize(values: list[float], bound: float) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else None
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values,
            "steady": spread is not None and spread < bound / 3}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    record = {"run_seconds": SPEC["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in range(1, SEEDS + 1):
            result, info = run(workload, seed, 0)
            runs.append(result)
            record.setdefault("environment", info.get("environment"))
            if seed == 1:
                inputs = info.get("inputs")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        traced, _ = run(workload, 1, 1)
        end_to_end = {
            name: {"unit": runs[0]["metrics"][name]["unit"], "bound": bounds[name],
                   **summarize([r["metrics"][name]["value"] for r in runs], bounds[name])}
            for name in runs[0]["metrics"]
        }
        record["workloads"][workload] = {
            "inputs_seed_1": inputs,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": end_to_end,
            "per_layer_seed_1": traced["metrics"],
        }
        for name, summary in end_to_end.items():
            flag = "" if summary["steady"] else "  NOT STEADY"
            print(f"  {name:22s} median {summary['median']:12.6g} "
                  f"spread {summary['spread'] or 0:7.4f}{flag}", flush=True)
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
