"""The benchmark's own tests, on a tiny input size.

Run from the repository root:

    python3 -m pytest perfbench/smoke.py -q

The file name keeps these tests out of the repository's default test run:
each one starts several interpreter processes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_every_declared_metric(trace, kind):
    proc = run_bench(trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert not list(ROOT.glob(".bench_work/smoke-3-*"))


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_inputs_depend_only_on_the_seed(tmp_path):
    size = gen.Size(vocab=200, taxonomy_words=80, eval_pairs=60, dim=8)
    first, again, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for path, seed in ((first, 5), (again, 5), (other, 6)):
        path.mkdir()
        gen.generate(str(path), size, seed)
    names = sorted(p.name for p in first.iterdir())
    assert [(first / n).read_bytes() for n in names] == [(again / n).read_bytes() for n in names]
    assert (first / "vectors.txt").read_bytes() != (other / "vectors.txt").read_bytes()


def test_written_vectors_match_the_returned_matrix(tmp_path):
    from lexfit.embeddings import load_embeddings

    size = gen.Size(vocab=150, taxonomy_words=60, eval_pairs=40, dim=12)
    inputs = gen.generate(str(tmp_path), size, 9)
    store = load_embeddings(inputs.paths["vectors"], "glove-text")
    assert store.vocab == inputs.vocab
    assert (store.current == inputs.matrix).all()


def test_absent_target_is_reported_not_raised():
    import lexfit.sampling

    tracer = tracing.Tracer("probe")
    tracer.install((
        ("sampling.gone", "lexfit.sampling:no_such_function", None),
        ("sampling.gone", "lexfit.no_such_module:anything", None),
        ("sampling.plan", "lexfit.sampling:quad_join", tracing._count_len("batches")),
    ))
    try:
        lexfit.sampling.quad_join(lexfit.ConstraintSet())
    finally:
        tracer.uninstall()
    assert tracer.absent == ["lexfit.sampling:no_such_function",
                             "lexfit.no_such_module:anything"]
    assert [span[0] for span in tracer.spans] == ["sampling.plan"]
    assert tracer.spans[0][4] == {"batches": 0}
    assert not hasattr(lexfit.sampling.quad_join, "__wrapped__")


def test_self_time_subtracts_direct_children():
    doc = {"command": "i0.specialize", "absent": [], "spans": [
        ["cli.main", 0.0, 10.0, -1, None],
        ["specializer.specialize", 1.0, 9.0, 0, None],
        ["sampling.mine", 2.0, 5.0, 1, {"empty": 1}],
        ["sampling.mine", 5.0, 6.0, 1, {"empty": 0}],
    ]}
    metrics = tracing.layer_metrics([doc])
    assert metrics["specializer.train_s"] == 8.0
    assert metrics["specializer.self_s"] == 4.0
    assert metrics["cli.specialize_self_s"] == 2.0
    assert metrics["sampling.mine_calls"] == 2.0
    assert metrics["sampling.empty_pool_ratio"] == 0.5
