"""Training presets that drive AdaGrad over planned constraint batches.

``specialize`` changes ``store.current`` in place, only through
:meth:`~lexfit.embeddings.EmbeddingStore.writing` (``store.original`` is
never touched), and returns the store together with a :class:`TrainLog`.
Given identical inputs and seed, every preset produces a bit-identical
output matrix.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from collections.abc import Callable, Collection
from dataclasses import dataclass, field, replace

import numpy as np

from .constraints import PAIR_SETS, ConstraintSet
from .embeddings import EmbeddingStore, nearest_rows, row_cosines, unit_rows
from .losses import BatchLoss, Margins
from .sampling import (
    NEGATIVE_POLICIES,
    MiniBatch,
    batch_rows,
    mine_instances,
    plan_epoch,
    quad_join,
)


@dataclass(frozen=True)
class Preset:
    """What one preset needs, what it trains, and how."""

    # pair-file relations it needs; an entry of several is met by any one of them
    required: tuple[tuple[str, ...], ...]
    # runs the whole preset on a store whose constraints meet ``required``
    train: Callable[[EmbeddingStore, ConstraintSet, SpecializeConfig], TrainLog]
    streams: tuple[str, ...] = ()  # relations planned into each epoch
    # preservation: "triplet" pulls each mined triplet's rows with m_reg,
    # "batch" each batch's rows with gamma_reg
    reg: str | None = None
    hyper_margin: str = "m_hyp"  # the Margins field of the hypernym stream's margin
    mirror_hyper: bool = False  # train hypernym pairs from both ends
    closed_hyper: bool = False  # hypernym stream from the transitive closure
    closed_ad: bool = False  # norm-asymmetry stream from the transitive closure
    margins: Margins = field(default_factory=Margins)  # its margin defaults


def missing_relations(preset: str, present: Collection[str]) -> list[tuple[str, ...]]:
    """The entries of the preset's ``required`` that no relation in ``present`` meets."""
    return [
        alternatives for alternatives in PRESET_TABLE[preset].required
        if not any(relation in present for relation in alternatives)
    ]


class NonFiniteGradientError(RuntimeError):
    """Raised when a gradient update would write non-finite values."""


@dataclass
class SpecializeConfig:
    """Hyperparameters for one specialization run."""

    preset: str
    margins: Margins | None = None  # None: the preset's own margins
    learning_rate: float = 0.03
    epochs: int = 20
    batch_size: int = 128
    seed: int = 7
    # fixed, not an option; a field so that manifests record it
    adagrad_epsilon: float = field(default=1e-8, init=False)
    neighbor_k: int = 10
    retrofit_alpha: float = 1.0
    retrofit_iterations: int = 10
    negative_policy: str = "closest_plus_random"
    sample_k: int = 2

    def __post_init__(self) -> None:
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}, expected one of {PRESETS}")
        if self.margins is None:
            self.margins = replace(PRESET_TABLE[self.preset].margins)
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.neighbor_k < 1:
            raise ValueError("neighbor_k must be >= 1")
        if not 0 <= self.retrofit_alpha < math.inf:
            raise ValueError(f"retrofit_alpha must be finite and >= 0, got {self.retrofit_alpha}")
        if self.retrofit_iterations < 1:
            raise ValueError("retrofit_iterations must be >= 1")
        if self.sample_k < 1:
            raise ValueError("sample_k must be >= 1")
        if self.negative_policy not in NEGATIVE_POLICIES:
            raise ValueError(
                f"unknown negative_policy {self.negative_policy!r}, "
                f"expected one of {NEGATIVE_POLICIES}"
            )


@dataclass
class TrainLog:
    """Per-epoch mean loss and active-hinge fraction for every relation trained."""

    epochs: list[dict[str, tuple[float, float]]] = field(default_factory=list)
    wall_time: float = 0.0
    batches_processed: int = 0

    def to_tsv(self) -> str:
        lines = []
        for epoch_no, entry in enumerate(self.epochs, start=1):
            for relation, (mean_loss, active_fraction) in entry.items():
                lines.append(f"{epoch_no}\t{relation}\t{mean_loss:.6g}\t{active_fraction:.6g}")
        return "\n".join(lines) + ("\n" if lines else "")


def adagrad_step(
    matrix: np.ndarray,
    accumulators: np.ndarray,
    rows: np.ndarray,
    block: np.ndarray,
    learning_rate: float,
    epsilon: float,
) -> None:
    """Apply one sparse AdaGrad update in place to the distinct ``rows``.

    ``block[i]`` is the gradient of ``rows[i]``. Per touched coordinate:
    acc += g^2 then x -= lr * g / (sqrt(acc) + eps). Coordinates with zero
    gradient are left bit-identical. A non-finite gradient anywhere in the
    block, or one whose square overflows, raises before anything is written.
    """
    nz = block != 0.0
    acc = accumulators[rows]
    with np.errstate(over="ignore"):
        np.add(acc, block * block, out=acc, where=nz)
    finite = np.isfinite(acc).all(axis=1)
    if not finite.all():
        row = rows[np.flatnonzero(~finite)[0]]
        raise NonFiniteGradientError(f"non-finite gradient at row {row}")
    step = np.zeros_like(acc)
    np.divide(learning_rate * block, np.sqrt(acc) + epsilon, out=step, where=nz)
    values = matrix[rows]
    np.subtract(values, step, out=values, where=nz)
    accumulators[rows] = acc
    matrix[rows] = values


def _check_required(preset: str, constraints: ConstraintSet) -> None:
    present = {rel for rel, name in PAIR_SETS.items() if getattr(constraints, name)}
    missing = missing_relations(preset, present)
    if missing:
        names = " or ".join(PAIR_SETS[rel] for rel in missing[0])
        raise ValueError(f"preset {preset!r} requires nonempty {names}")
    if "quad" in PRESET_TABLE[preset].streams and not quad_join(constraints):
        raise ValueError(
            f"preset {preset!r} requires at least one quadruplet join "
            "(a synonym pair whose word has a direct hypernym)"
        )


def specialize(
    store: EmbeddingStore, constraints: ConstraintSet, config: SpecializeConfig
) -> tuple[EmbeddingStore, TrainLog]:
    """Run the configured preset and return the (in-place) specialized store."""
    _check_required(config.preset, constraints)
    start = time.perf_counter()
    log = PRESET_TABLE[config.preset].train(store, constraints, config)
    log.wall_time = time.perf_counter() - start
    return store, log


# --- retrofitting -----------------------------------------------------------

def _train_retrofit(
    store: EmbeddingStore, constraints: ConstraintSet, config: SpecializeConfig
) -> TrainLog:
    alpha = config.retrofit_alpha
    adjacency: dict[int, list[int]] = defaultdict(list)
    for a, b in sorted(constraints.synonyms | constraints.direct_hypernyms):
        adjacency[a].append(b)
        adjacency[b].append(a)
    linked = sorted(adjacency)
    log = TrainLog()
    if not linked:
        return log
    frac_updated = len(linked) / len(store)
    for _ in range(config.retrofit_iterations):
        prev = store.current.copy()
        with store.writing() as matrix:
            for row in linked:
                neighbor_mean = prev[adjacency[row]].mean(axis=0)
                matrix[row] = (alpha * store.original[row] + neighbor_mean) / (alpha + 1.0)
        max_change = float(np.max(np.abs(store.current[linked] - prev[linked])))
        log.epochs.append({"retrofit": (max_change, frac_updated)})
        log.batches_processed += 1
        if max_change < 1e-6:
            break
    return log


def retrofit(
    store: EmbeddingStore,
    constraints: ConstraintSet,
    alpha: float = 1.0,
    iterations: int = 10,
) -> EmbeddingStore:
    """Closed-form positive-pair averaging over the synonym + direct hypernym graph.

    Runs Jacobi sweeps of ``f(a) = (alpha * orig(a) + mean of neighbor f) /
    (alpha + 1)`` until ``iterations`` rounds or max per-component change
    below 1e-6. Words with no constraint edges are untouched. ``alpha`` and
    ``iterations`` are checked as :class:`SpecializeConfig` checks them.
    """
    config = SpecializeConfig(
        "retrofitting", retrofit_alpha=alpha, retrofit_iterations=iterations
    )
    _train_retrofit(store, constraints, config)
    return store


# --- counter-fitting --------------------------------------------------------

def _original_neighbor_sets(store: EmbeddingStore, rows: np.ndarray, k: int) -> np.ndarray:
    """The top-k original-space neighbours of each row, ranked by
    :func:`~lexfit.embeddings.nearest_rows`; their distances are formed per
    batch, by :func:`_counterfit_batch_loss`."""
    return nearest_rows(store.geometry(original=True), rows, k)[0]


def _train_counterfit(
    store: EmbeddingStore, constraints: ConstraintSet, config: SpecializeConfig
) -> TrainLog:
    """Precompute the original-space neighbours of every constrained row, once,
    then train on the counter-fitting loss of each batch."""
    constrained = np.array(
        sorted({r for pair in constraints.synonyms | constraints.antonyms for r in pair}),
        dtype=np.intp,
    )
    neighbors = _original_neighbor_sets(store, constrained, config.neighbor_k)
    return _train(
        store, constraints, config,
        lambda batch: _counterfit_batch_loss(batch, store, constrained, neighbors, config.margins),
    )


def _counterfit_batch_loss(
    batch: MiniBatch,
    store: EmbeddingStore,
    constrained: np.ndarray,
    neighbors: np.ndarray,
    m: Margins,
) -> BatchLoss:
    """Synonym pull or antonym push over the batch's pairs, plus the
    neighbour-preservation hinge max(0, D_current - D_original) of every row
    in the batch against each of its original-space neighbours.

    ``neighbors`` is the precompute for the ascending ``constrained`` rows.
    Both distances of a preservation hinge are ``1 - row_cosines`` of unit
    rows, so the hinge of a pair whose rows have not moved is exactly 0.
    """
    at = np.searchsorted(constrained, np.unique(np.asarray(batch.items)))
    rows, local = batch_rows(batch, extra=neighbors[at].ravel())
    res = BatchLoss(store, rows)
    if batch.relation == "syn":
        # pull synonyms until their distance is within m_syn
        res.hinge(-m.m_syn, (1.0, local[:, 0], local[:, 1]))
    else:
        res.hinge(m.m_ant, (-1.0, local[:, 0], local[:, 1]))
    own = np.searchsorted(rows, np.repeat(constrained[at], neighbors.shape[1]))
    near = np.searchsorted(rows, neighbors[at].ravel())
    origin = unit_rows(res.original)[0]
    res.hinge(row_cosines(origin[own], origin[near]) - 1.0, (1.0, own, near))
    return res


# --- the training loop ------------------------------------------------------

class _EpochStats:
    """Running (loss, batches, hinges, active hinges) totals per relation, in
    the order the relations first appear."""

    def __init__(self) -> None:
        self.totals: dict[str, tuple[float, int, int, int]] = {}

    def record(self, relation: str, res: BatchLoss) -> None:
        loss, batches, hinges, active = self.totals.get(relation, (0.0, 0, 0, 0))
        self.totals[relation] = (
            loss + res.loss, batches + 1, hinges + res.n_hinges, active + res.n_active
        )

    def summary(self) -> dict[str, tuple[float, float]]:
        """Mean loss per batch and active-hinge fraction of each relation."""
        return {
            rel: (loss / batches, active / hinges if hinges else 0.0)
            for rel, (loss, batches, hinges, active) in self.totals.items()
        }


def _apply(
    store: EmbeddingStore,
    accumulators: dict[str, np.ndarray],
    res: BatchLoss,
    config: SpecializeConfig,
    batch: MiniBatch,
) -> None:
    """Apply one batch update with the relation's own AdaGrad state.

    Each constraint category optimizes its own loss with its own
    accumulators; sharing one accumulator would let the high-traffic cosine
    relations starve the norm-asymmetry updates.
    """
    block = res.gradient()
    if not block.any():
        return
    acc = accumulators.get(batch.relation)
    if acc is None:
        acc = accumulators.setdefault(batch.relation, np.zeros_like(store.current))
    try:
        with store.writing() as matrix:
            adagrad_step(
                matrix, acc, res.rows, block, config.learning_rate, config.adagrad_epsilon
            )
    except NonFiniteGradientError as exc:
        raise NonFiniteGradientError(
            f"{exc} (relation {batch.relation}, epoch {batch.epoch}, "
            f"batch {batch.batch_index})"
        ) from exc


def _train(
    store: EmbeddingStore,
    constraints: ConstraintSet,
    config: SpecializeConfig,
    batch_loss: Callable[[MiniBatch], BatchLoss],
) -> TrainLog:
    """Plan each epoch from the preset's streams and apply ``batch_loss`` of every batch."""
    preset = PRESET_TABLE[config.preset]
    if (preset.closed_hyper or preset.closed_ad) and not constraints.closure_computed:
        constraints.compute_closure()
    accumulators: dict[str, np.ndarray] = {}
    log = TrainLog()
    for epoch in range(config.epochs):
        plan = plan_epoch(
            constraints,
            config.batch_size,
            config.seed,
            epoch=epoch,
            relations=preset.streams,
            closed_hypernyms=preset.closed_hyper,
            closed_ad=preset.closed_ad,
        )
        stats = _EpochStats()
        for batch in plan:
            res = batch_loss(batch)
            _apply(store, accumulators, res, config, batch)
            stats.record(batch.relation, res)
        log.epochs.append(stats.summary())
        log.batches_processed += len(plan)
    return log


# --- triplet / quadruplet metric presets -------------------------------------

def _train_metric(
    store: EmbeddingStore, constraints: ConstraintSet, config: SpecializeConfig
) -> TrainLog:
    preset = PRESET_TABLE[config.preset]
    return _train(
        store, constraints, config,
        lambda batch: _batch_loss(batch, constraints, store, config, preset),
    )


def _batch_loss(
    batch: MiniBatch,
    constraints: ConstraintSet,
    store: EmbeddingStore,
    config: SpecializeConfig,
    preset: Preset,
) -> BatchLoss:
    m = config.margins
    rows, local = batch_rows(batch)
    res = BatchLoss(store, rows)
    relation = batch.relation

    if relation == "ad":
        res.norm_asymmetry(local[:, 0], local[:, 1], m.ad_weight)
    elif relation == "quad":
        items, inst, neg = mine_instances(
            batch, constraints, rows, local, res.unit,
            "negatives", config.negative_policy, config.sample_k,
        )
        a, s, h = items[np.unique(inst)].T
        res.hinge(m.m_hie_syn, (1.0, a, s), (-1.0, a, h))
        res.hinge(m.m_hie_syn, (1.0, a, s), (-1.0, s, h))
        # D is symmetric in (anchor, synonym), so each negative hinge counts twice
        a, s, h = items[inst].T
        res.hinge(m.m_hie_hyp, (1.0, a, s), (-1.0, h, neg), count=2)
    else:
        items, inst, aux = mine_instances(
            batch, constraints, rows, local, res.unit,
            "positives" if relation == "ant" else "negatives",
            config.negative_policy, config.sample_k,
            mirror=relation != "hyper" or preset.mirror_hyper,
        )
        anchor, partner = items[inst].T
        if relation == "ant":
            res.hinge(m.m_ant, (1.0, anchor, aux), (-1.0, anchor, partner))
        else:
            margin = m.m_syn if relation == "syn" else getattr(m, preset.hyper_margin)
            res.hinge(margin, (1.0, anchor, partner), (-1.0, anchor, aux))
        if preset.reg == "triplet":
            res.preserve(np.concatenate((anchor, partner, aux)), m.m_reg)

    if preset.reg == "batch":
        res.preserve(np.arange(len(rows)), m.gamma_reg)
    return res


# --- the preset table -------------------------------------------------------

_SYN_ANT = (("syn",), ("ant",))
_SYN_ANT_HYPER = _SYN_ANT + (("hyper",),)
_HIERARCHY = ("syn", "ant", "hyper", "quad")

PRESET_TABLE = {
    "retrofitting": Preset((("syn", "hyper"),), _train_retrofit),
    # synonym-attract gamma = 0 and antonym-repel delta = 1 (Mrksic et al., NAACL 2016)
    "counterfitting": Preset(
        _SYN_ANT, _train_counterfit, ("syn", "ant"), margins=Margins(m_syn=0.0, m_ant=1.0)
    ),
    "attract_repel": Preset(_SYN_ANT, _train_metric, ("syn", "ant"), reg="triplet"),
    "lear": Preset(
        _SYN_ANT_HYPER, _train_metric, ("syn", "ant", "hyper", "ad"), reg="triplet",
        hyper_margin="m_syn", mirror_hyper=True, closed_hyper=True, closed_ad=True,
    ),
    "hierarchy_fitting": Preset(_SYN_ANT_HYPER, _train_metric, _HIERARCHY, reg="batch"),
    "hierarchy_fitting_ad_dir": Preset(
        _SYN_ANT_HYPER, _train_metric, _HIERARCHY + ("ad",), reg="batch"
    ),
    "hierarchy_fitting_ad_indir": Preset(
        _SYN_ANT_HYPER, _train_metric, _HIERARCHY + ("ad",), reg="batch", closed_ad=True
    ),
}
PRESETS = tuple(PRESET_TABLE)
