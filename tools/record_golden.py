#!/usr/bin/env python3
"""Record the output digests that ``tests/test_golden_digests.py`` checks.

For each gated world (``hier_dense`` and ``counterfit_nn``, built by
``perfbench/gen.py`` from seed 1) and each preset, one run in process: the
world's vectors, its ``syn``, ``ant`` and ``hyper`` files, 2 epochs, batch 128
and seed 1, the arguments ``tools/probe_digests.py`` gives its children. A run
records the sha256 of the saved ``glove-text`` vectors, of ``TrainLog.to_tsv()``
and of each of the five eval reports, as ``lexfit eval --seed 1 --out`` writes
them from the world's directory: the saved file is loaded again, and a report's
dataset is named by its file name. The environment the digests were taken in
(the Python and numpy versions, and the BLAS name, version and core type) is
recorded beside them, since another numpy or BLAS kernel may round otherwise.

    python tools/record_golden.py           # rewrites tests/golden_digests.json
"""

import ctypes
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT.parent / "src"))

import probe_faults  # noqa: E402
from lexfit import ConstraintSet, load_embeddings, load_pairs, save_embeddings  # noqa: E402
from lexfit import cli  # noqa: E402
from lexfit.specializer import PRESETS, SpecializeConfig, specialize  # noqa: E402

GOLDEN = ROOT.parent / "tests" / "golden_digests.json"
WORLDS = ("hier_dense", "counterfit_nn")
SEED = 1  # the worlds' generator seed and the runs' training seed


def _blas_core() -> str | None:
    """The core type OpenBLAS picked at load, when numpy bundles OpenBLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


def environment() -> dict:
    """The fields that name what the digests' arithmetic ran on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError, ValueError):  # numpy without the dicts mode
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_core": _blas_core()}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def world_digests(world: str, work: Path) -> dict:
    """The digests of every preset's run on ``world``, built into ``work``, by preset."""
    work.mkdir()
    paths = probe_faults.build_world(work, world, seed=SEED)
    out = work / "out.vec"
    datasets = {task: getattr(cli, loader)(paths[task], Path(paths[task]).name)
                for task, (loader, _, _) in cli._EVAL_TASKS.items()}
    runs = {}
    for preset in PRESETS:
        store = load_embeddings(paths["vectors"], "glove-text")
        constraints = ConstraintSet()
        for relation in ("syn", "ant", "hyper"):
            load_pairs(constraints, paths[relation], relation, store)
        config = SpecializeConfig(preset, epochs=2, batch_size=128, seed=SEED)
        _, log = specialize(store, constraints, config)
        save_embeddings(store, str(out), "glove-text")
        run = {"vectors": _sha256(out.read_bytes()), "log": _sha256(log.to_tsv().encode())}
        saved = load_embeddings(str(out), "glove-text")
        for task, (_, protocol, seeded) in cli._EVAL_TASKS.items():
            options = {"seed": SEED} if seeded else {}
            report = getattr(cli, protocol)(saved, datasets[task], use_backoff=False, **options)
            run[task] = _sha256(report.to_tsv().encode())
        runs[preset] = run
    return runs


def digests() -> dict:
    """The digests of every world, by world and preset."""
    with tempfile.TemporaryDirectory(prefix="record_golden.") as work:
        return {world: world_digests(world, Path(work, world)) for world in WORLDS}


def differences(recorded: dict, computed: dict) -> list[str]:
    """``world preset file`` for each digest of ``computed`` that differs from, or is
    missing in, ``recorded``, and for each digest ``recorded`` has and ``computed`` lacks."""
    def flat(tree: dict) -> dict:
        return {(world, preset, name): digest for world, runs in tree.items()
                for preset, files in runs.items() for name, digest in files.items()}
    recorded, computed = flat(recorded), flat(computed)
    return [" ".join(key) for key in sorted(recorded.keys() | computed.keys())
            if recorded.get(key) != computed.get(key)]


def main() -> None:
    record = {"environment": environment(), "digests": digests()}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
