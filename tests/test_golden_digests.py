"""Every preset's output bytes on both gated worlds, against the digests that
``tools/record_golden.py`` recorded in ``golden_digests.json``.

A run in another environment (Python, numpy or BLAS) may round otherwise, so
there the check skips and names the fields that differ; in the recorded one,
a digest that differs fails and names its world, preset and file.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden_digests.json"


@pytest.fixture(scope="module")
def recorder():
    """``tools/record_golden.py``, loaded from its path."""
    spec = importlib.util.spec_from_file_location("record_golden", ROOT / "tools" / "record_golden.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def differing_fields(recorded: dict, current: dict) -> list[str]:
    return [f"{name} {recorded.get(name)!r} != {current.get(name)!r}"
            for name in sorted(recorded.keys() | current.keys())
            if recorded.get(name) != current.get(name)]


def test_outputs_match_the_recorded_digests(recorder, golden, monkeypatch):
    differ = differing_fields(golden["environment"], recorder.environment())
    if differ:
        pytest.skip("digests recorded in another environment: " + "; ".join(differ))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        # perfbench/run.py, imported to build the worlds, sets these for its children;
        # restored when the test ends
        monkeypatch.setenv(var, "1")
    mismatched = recorder.differences(golden["digests"], recorder.digests())
    assert not mismatched, "outputs differ from tests/golden_digests.json: " + ", ".join(mismatched)


def test_the_record_covers_every_preset_and_output(recorder, golden):
    from lexfit.specializer import PRESETS

    assert set(golden["digests"]) == set(recorder.WORLDS) == {"hier_dense", "counterfit_nn"}
    files = {"vectors", "log", "sim", "hyperlex", "bless", "wbless", "bibless"}
    for runs in golden["digests"].values():
        assert set(runs) == set(PRESETS)
        assert all(set(digests) == files for digests in runs.values())
    assert set(golden["environment"]) == set(recorder.environment())


def test_a_changed_digest_is_named(recorder, golden):
    computed = json.loads(json.dumps(golden["digests"]))
    computed["counterfit_nn"]["lear"]["log"] = "0" * 64
    del computed["hier_dense"]["retrofitting"]["sim"]
    assert recorder.differences(golden["digests"], computed) == [
        "counterfit_nn lear log", "hier_dense retrofitting sim"]
    assert recorder.differences(golden["digests"], golden["digests"]) == []


def test_another_environment_is_named():
    recorded = {"python": "3.11.7", "numpy": "2.4.6", "blas_core": "SkylakeX"}
    current = {**recorded, "numpy": "2.5.0", "blas_core": "Haswell"}
    assert differing_fields(recorded, current) == [
        "blas_core 'SkylakeX' != 'Haswell'", "numpy '2.4.6' != '2.5.0'"]
