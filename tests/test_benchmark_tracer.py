"""Which of the benchmark tracer's targets the program still has.

``perfbench/tracing.py`` wraps named functions and silently skips a name the
program no longer has, so a per-layer metric built on a skipped name reads 0.
This pins the skipped names: a rename or deletion that adds one, or a change
that brings one back, has to update the list here on purpose.
"""

import importlib.util
from pathlib import Path

import lexfit.cli
import lexfit.embeddings
import lexfit.specializer

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# the per-instance kernels and pickers that the batched kernel and miner
# replaced, the specializer's old import of nearest_neighbors, and the
# closure that each run now derives in specializer.run_view
ABSENT = {
    "lexfit.specializer:nearest_neighbors",
    "lexfit.constraints:ConstraintSet.compute_closure",
    "lexfit.specializer:select_negatives",
    "lexfit.sampling:select_negatives",
    "lexfit.sampling:select_positives",
    "lexfit.specializer:contrastive_loss",
    "lexfit.specializer:triplet_attract_loss",
    "lexfit.specializer:hypernym_triplet_loss",
    "lexfit.specializer:triplet_repel_loss",
    "lexfit.specializer:quadruplet_hierarchy_loss",
    "lexfit.specializer:asymmetric_norm_loss",
    "lexfit.specializer:distance_with_grads",
    "lexfit.specializer:preservation_loss",
    "lexfit.specializer:attract_repel_reg_loss",
    "lexfit.specializer:counterfit_preserve_loss",
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_absent_targets_are_pinned():
    tracing = load_tracing()
    tracer = tracing.Tracer("probe")
    try:
        tracer.install(tracing.TARGETS)
        tracer.install(tracing.NEAREST_TARGETS)
    finally:
        tracer.uninstall()
    assert len(tracer.absent) == len(set(tracer.absent))
    assert set(tracer.absent) == ABSENT
    for function in (lexfit.cli.main, lexfit.cli.specialize, lexfit.specializer.plan_epoch,
                     lexfit.embeddings.nearest_neighbors):
        assert not hasattr(function, "__wrapped__")
