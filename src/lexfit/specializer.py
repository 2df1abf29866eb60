"""Training presets that drive AdaGrad over planned constraint batches.

Each preset trains a :class:`WorkingSet`, a copy of the rows it can change,
so losses grow with those rows, not with the vocabulary, and each relation's
AdaGrad state with the rows of them that its batches reach.
``specialize`` writes it back in the one
:meth:`~lexfit.embeddings.EmbeddingStore.writing` block, after the last
epoch, so a run that raises leaves the store as it was; until then
``store.current`` holds the vectors the run anchors to. A run reads its
constraints once, into the :class:`RunView` it derives at its start, and
never writes them. Given identical inputs and seed, every preset produces a
bit-identical output matrix, whatever ran before on the same store or constraints.
"""

from __future__ import annotations

import math
import operator
import time
from collections.abc import Callable, Collection
from dataclasses import dataclass, field, replace

import numpy as np

from .constraints import (PAIR_SETS, ConstraintSet, csr, distinct, hypernym_closure, pair_array,
                          pair_keys, quad_join)
from .embeddings import EmbeddingStore, nearest_rows, row_cosines, unit_rows
from .losses import BatchLoss, Margins
from .sampling import NEGATIVE_POLICIES, MiniBatch, batch_rows, mine_instances, plan_epoch


@dataclass(frozen=True)
class Preset:
    """What one preset needs, what it trains, and how."""

    # pair-file relations it needs; an entry of several is met by any one of them
    required: tuple[tuple[str, ...], ...]
    # trains the working set it gathers from a store whose constraints meet ``required``
    train: Callable[[EmbeddingStore, RunView, SpecializeConfig], tuple[WorkingSet, TrainLog]]
    streams: tuple[str, ...] = ()  # relations planned into each epoch
    # preservation: "triplet" pulls each mined triplet's rows with m_reg,
    # "batch" each batch's rows with gamma_reg
    reg: str | None = None
    # LEAR's hypernym stream: the transitive closure, attracted as synonyms are,
    # from both ends at m_syn; otherwise the direct pairs, one way at m_hyp
    attract_hyper: bool = False
    closed_ad: bool = False  # norm-asymmetry stream from the transitive closure
    margins: Margins = field(default_factory=Margins)  # its margin defaults


def missing_relations(preset: str, present: Collection[str]) -> list[tuple[str, ...]]:
    """The entries of the preset's ``required`` that no relation in ``present`` meets."""
    return [
        alternatives for alternatives in PRESET_TABLE[preset].required
        if not any(relation in present for relation in alternatives)
    ]


class NonFiniteGradientError(RuntimeError):
    """Raised when a gradient update would write non-finite values at ``row``."""

    def __init__(self, row: int, context: str = "") -> None:
        super().__init__(f"non-finite gradient at row {row}{context}")
        self.row = row


class WorkingSet:
    """The distinct store ``rows`` a run can change as ascending ``ids`` (store row
    ``r`` is ``searchsorted(ids, r)`` here), and a copy of their current vectors.
    Their starting vectors are read from ``store.current``, by store row:
    the run writes the store only after training."""

    def __init__(self, store: EmbeddingStore, rows: np.ndarray) -> None:
        self.ids = distinct(rows)
        self.current, self.store = store.current[self.ids], store


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
        counts = ("epochs", "batch_size", "neighbor_k", "retrofit_iterations", "sample_k")
        for name in ("seed", *counts):
            value = getattr(self, name)
            try:
                if isinstance(value, (bool, np.bool_)):
                    raise TypeError
                setattr(self, name, operator.index(value))  # a numpy integer becomes an int
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        for name in counts:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.retrofit_alpha < math.inf:
            raise ValueError(f"retrofit_alpha must be finite and >= 0, got {self.retrofit_alpha}")
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
    # the last epoch's (loss, batches, hinges, active hinges) per relation
    _totals: dict[str, tuple[float, int, int, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def record(self, batch: MiniBatch, res: BatchLoss) -> None:
        """Add ``res`` to the totals of ``batch``'s relation and epoch, and set that
        epoch's entry from them; a batch of a later epoch opens its entry."""
        if batch.epoch >= len(self.epochs):
            self.epochs.append({})
            self._totals = {}
        loss, batches, hinges, active = self._totals.get(batch.relation, (0.0, 0, 0, 0))
        loss, batches = loss + res.loss, batches + 1
        hinges, active = hinges + res.n_hinges, active + res.n_active
        self._totals[batch.relation] = loss, batches, hinges, active
        self.epochs[-1][batch.relation] = loss / batches, active / hinges if hinges else 0.0
        self.batches_processed += 1

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
    acc_rows: np.ndarray,
) -> None:
    """Apply one sparse AdaGrad update in place to the distinct ``rows``.

    ``block[i]`` is the gradient of ``rows[i]``. ``accumulators[j]`` is the
    state of ``matrix`` row ``acc_rows[j]``: ``acc_rows`` are ascending and hold
    every row of ``rows``. Per coordinate:
    acc += g^2 then x -= lr * g / (sqrt(acc) + eps). Coordinates with zero
    gradient are left bit-identical. A non-finite gradient anywhere in the
    block, or one whose square overflows, raises before anything is written.
    The arithmetic runs in place on four ``block``-sized arrays, in the order
    the formula gives, so each value is the one the formula evaluates to.
    """
    at = np.searchsorted(acc_rows, rows)
    if np.any(at == len(acc_rows)) or np.any(acc_rows[at] != rows):
        raise ValueError("acc_rows must hold every row of rows")
    step = block + 0.0  # a -0.0 gradient to +0.0: x - (+0.0) is x, -0.0 included
    acc = accumulators[at]
    with np.errstate(over="ignore"):
        scratch = step * step
        acc += scratch
    finite = np.isfinite(acc).all(axis=1)
    if not finite.all():
        raise NonFiniteGradientError(int(rows[np.flatnonzero(~finite)[0]]))
    denominator = np.sqrt(acc, out=scratch)
    denominator += epsilon
    # the floor only acts at epsilon 0, on coordinates never updated: 0 / tiny is 0
    np.maximum(denominator, np.finfo(float).tiny, out=denominator)
    step *= learning_rate
    step /= denominator
    values = matrix[rows]
    values -= step
    accumulators[at] = acc
    matrix[rows] = values


@dataclass(frozen=True)
class RunView:
    """What one run reads of its constraints, derived once by :func:`run_view`: each
    relation's ascending direct pair array, each planned stream's instances in planning order,
    and each mined stream's :func:`~lexfit.constraints.csr` tables of its masked pairs, both
    ways, one table per pair set."""

    pairs: dict[str, np.ndarray]
    streams: dict[str, np.ndarray]
    partners: dict[str, tuple[tuple[np.ndarray, np.ndarray], ...]]


def run_view(constraints: ConstraintSet, preset: str) -> RunView:
    """The preset's view of ``constraints``, a function of the two alone.

    Pair streams are ascending pair arrays, and the quadruplet stream is
    :func:`~lexfit.constraints.quad_join`. A preset that reads the hypernym closure
    (``attract_hyper`` or ``closed_ad``) computes it here, and its mining then masks
    every closure pair; any other preset masks the direct pairs. The quadruplet
    stream masks the synonym and the hypernym table, each built once.
    """
    spec = PRESET_TABLE[preset]
    pairs = dict(constraints.pairs)  # read-only arrays: the run cannot write them
    syn, ant, direct = pairs["syn"], pairs["ant"], pairs["hyper"]
    closed = hypernym_closure(direct) if spec.attract_hyper or spec.closed_ad else direct
    stream = {"syn": syn, "ant": ant, "hyper": closed if spec.attract_hyper else direct,
              "ad": closed if spec.closed_ad else direct}
    streams = {rel: quad_join(syn, direct) if rel == "quad" else stream[rel]
               for rel in spec.streams}
    # the metric presets mine every stream but "ad", against the tables of its pair sets
    masked = {"syn": ("syn",), "ant": ("ant",), "hyper": ("hyper",), "quad": ("syn", "hyper")}
    mined = [rel for rel in spec.streams if rel in masked] if spec.train is _train_metric else []
    sets = {"syn": syn, "ant": ant, "hyper": closed}
    tables = {name: csr(*pair_keys(np.concatenate((sets[name], sets[name][:, ::-1]))))
              for name in {name for rel in mined for name in masked[rel]}}
    return RunView(pairs, streams, {rel: tuple(tables[name] for name in masked[rel])
                                    for rel in mined})


def _check_required(preset: str, view: RunView) -> None:
    missing = missing_relations(preset, [rel for rel, pairs in view.pairs.items() if len(pairs)])
    if missing:
        names = " or ".join(PAIR_SETS[rel] for rel in missing[0])
        raise ValueError(f"preset {preset!r} requires nonempty {names}")
    if "quad" in view.streams and not len(view.streams["quad"]):
        raise ValueError(
            f"preset {preset!r} requires at least one quadruplet join "
            "(a synonym pair whose word has a direct hypernym)"
        )


def specialize(
    store: EmbeddingStore, constraints: ConstraintSet, config: SpecializeConfig
) -> tuple[EmbeddingStore, TrainLog]:
    """Train the configured preset's working set on its :func:`run_view` of
    ``constraints``, then write it into ``store.current``. The run anchors
    to the vectors ``store`` holds when it starts, and ``constraints`` is
    only read, so a run depends only on its inputs and seed."""
    start = time.perf_counter()
    view = run_view(constraints, config.preset)
    _check_required(config.preset, view)
    ws, log = PRESET_TABLE[config.preset].train(store, view, config)
    with store.writing() as matrix:
        matrix[ws.ids] = ws.current
    log.wall_time = time.perf_counter() - start
    return store, log


# --- retrofitting -----------------------------------------------------------

def _train_retrofit(
    store: EmbeddingStore, view: RunView, config: SpecializeConfig
) -> tuple[WorkingSet, TrainLog]:
    """Retrofitting (Faruqui et al., NAACL 2015): Jacobi sweeps of ``f(a) = (alpha *
    orig(a) + mean of neighbor f) / (alpha + 1)`` over the synonym + direct hypernym
    graph, one vectorized step each, until a max per-component change below 1e-6
    or ``retrofit_iterations`` rounds; rows without constraint edges are untouched."""
    alpha = config.retrofit_alpha
    pairs = pair_array(np.concatenate((view.pairs["syn"], view.pairs["hyper"])))
    ws = WorkingSet(store, pairs)
    # neighbours in pair order, (a, b) linking a to b and then b to a; adding the
    # j-th to the rows that have one, j = 1, 2, ..., sums as ``mean(axis=0)`` does
    local = np.searchsorted(ws.ids, pairs)
    neighbor = local[:, ::-1].ravel()[np.argsort(local.ravel(), kind="stable")]
    degree = np.bincount(local.ravel())
    first = np.cumsum(degree) - degree
    later = [np.flatnonzero(degree > j) for j in range(1, degree.max())]
    anchor = alpha * store.current[ws.ids]
    log = TrainLog()
    frac_updated = len(ws.ids) / len(store)
    for _ in range(config.retrofit_iterations):
        prev = ws.current
        total = prev[neighbor[first]]
        for j, rows in enumerate(later, start=1):
            total[rows] += prev[neighbor[first[rows] + j]]
        # (alpha * original + total / degree) / (alpha + 1), in place
        total /= degree[:, None]
        total += anchor
        total /= alpha + 1.0
        ws.current = total
        max_change = float(np.max(np.abs(np.subtract(total, prev, out=prev), out=prev)))
        log.epochs.append({"retrofit": (max_change, frac_updated)})
        log.batches_processed += 1
        if max_change < 1e-6:
            break
    return ws, log


# --- counter-fitting --------------------------------------------------------

def _original_neighbor_sets(store: EmbeddingStore, rows: np.ndarray, k: int) -> np.ndarray:
    """The top-k neighbours of each row in the space the run starts from,
    ``store.current`` before the run's write, ranked by
    :func:`~lexfit.embeddings.nearest_rows`; their distances are formed per
    batch, by :func:`_counterfit_batch_loss`. The float32 unit rows it
    screens are its own, dropped before training starts."""
    return nearest_rows(store.current, rows, k)[0]


def _train_counterfit(
    store: EmbeddingStore, view: RunView, config: SpecializeConfig
) -> tuple[WorkingSet, TrainLog]:
    """Precompute the original-space neighbours of every constrained row, once,
    then train those rows and neighbours on the counter-fitting loss of each batch.
    A stream's batches reach its rows and their neighbours."""
    reach = stream_rows(view)
    constrained = distinct(np.concatenate(list(reach.values())))
    neighbors = _original_neighbor_sets(store, constrained, config.neighbor_k)
    reach = {rel: distinct(np.concatenate(
                 (rows, neighbors[np.searchsorted(constrained, rows)].ravel())))
             for rel, rows in reach.items()}
    return _train(
        store, view, config, reach,
        lambda ws, batch: _counterfit_batch_loss(batch, ws, constrained, neighbors,
                                                 config.margins),
    )


def _counterfit_batch_loss(
    batch: MiniBatch,
    ws: WorkingSet,
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
    at = np.searchsorted(constrained, distinct(batch.items))
    rows, local = batch_rows(batch, extra=neighbors[at].ravel())
    res = BatchLoss(ws, np.searchsorted(ws.ids, rows), ws.store.current[rows])
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

def stream_rows(view: RunView) -> dict[str, np.ndarray]:
    """The distinct rows of each stream's instances, ascending: every row its batches gather."""
    return {rel: distinct(items) for rel, items in view.streams.items()}


def _train(
    store: EmbeddingStore,
    view: RunView,
    config: SpecializeConfig,
    reach: dict[str, np.ndarray],
    batch_loss: Callable[[WorkingSet, MiniBatch], BatchLoss],
) -> tuple[WorkingSet, TrainLog]:
    """Train the working set of the rows in ``reach``, each relation's entry the
    ascending store rows its batches can touch: plan each epoch from the view's
    streams and take an AdaGrad step on ``batch_loss`` of every batch."""
    ws = WorkingSet(store, np.concatenate(list(reach.values())))
    # Each relation optimizes its own loss with its own accumulators, over the rows
    # it reaches; sharing one would let the high-traffic cosine relations starve
    # the norm-asymmetry updates.
    state = {rel: (np.searchsorted(ws.ids, rows), np.zeros((len(rows), ws.current.shape[1])))
             for rel, rows in reach.items()}
    log = TrainLog()
    for epoch in range(config.epochs):
        for batch in plan_epoch(view.streams, config.batch_size, config.seed, epoch):
            res = batch_loss(ws, batch)
            block = res.gradient()
            if block.any():
                acc_rows, acc = state[batch.relation]
                try:
                    adagrad_step(ws.current, acc, res.rows, block, config.learning_rate,
                                 config.adagrad_epsilon, acc_rows)
                except NonFiniteGradientError as exc:
                    raise NonFiniteGradientError(
                        int(ws.ids[exc.row]), f" (relation {batch.relation}, "
                        f"epoch {batch.epoch}, batch {batch.batch_index})") from exc
            log.record(batch, res)
    return ws, log


# --- triplet / quadruplet metric presets -------------------------------------

def _train_metric(
    store: EmbeddingStore, view: RunView, config: SpecializeConfig
) -> tuple[WorkingSet, TrainLog]:
    """Train the rows of the instances of the view's streams, the only rows
    its batches reach: in-batch mining and preservation read the batch's own rows."""
    preset = PRESET_TABLE[config.preset]
    return _train(store, view, config, stream_rows(view),
                  lambda ws, batch: _batch_loss(batch, view, ws, config, preset))


def _batch_loss(
    batch: MiniBatch,
    view: RunView,
    ws: WorkingSet,
    config: SpecializeConfig,
    preset: Preset,
) -> BatchLoss:
    m = config.margins
    rows, local = batch_rows(batch)  # store rows, which mining keys its draws by
    res = BatchLoss(ws, np.searchsorted(ws.ids, rows), ws.store.current[rows])
    relation = batch.relation

    if relation == "ad":
        res.norm_asymmetry(local[:, 0], local[:, 1], m.ad_weight)
    elif relation == "quad":
        items, inst, neg = mine_instances(
            batch, view.partners[relation], rows, local, res.unit,
            "negatives", config.negative_policy, config.sample_k,
        )
        a, s, h = items[distinct(inst)].T
        res.hinge(m.m_hie_syn, (1.0, a, s), (-1.0, a, h))
        res.hinge(m.m_hie_syn, (1.0, a, s), (-1.0, s, h))
        # D is symmetric in (anchor, synonym), so each negative hinge counts twice
        a, s, h = items[inst].T
        res.hinge(m.m_hie_hyp, (1.0, a, s), (-1.0, h, neg), count=2)
    else:
        # synonyms, and LEAR's hypernyms, attract from both ends at m_syn
        mirror = relation != "hyper" or preset.attract_hyper
        items, inst, aux = mine_instances(
            batch, view.partners[relation], rows, local, res.unit,
            "positives" if relation == "ant" else "negatives",
            config.negative_policy, config.sample_k, mirror=mirror,
        )
        anchor, partner = items[inst].T
        if relation == "ant":
            res.hinge(m.m_ant, (1.0, anchor, aux), (-1.0, anchor, partner))
        else:
            res.hinge(m.m_syn if mirror else m.m_hyp, (1.0, anchor, partner), (-1.0, anchor, aux))
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
        attract_hyper=True, closed_ad=True,
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
