"""Per-epoch batch planning and online in-batch sample selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constraints
from .constraints import distinct, linked

RELATION_CYCLE = ("syn", "ant", "hyper", "quad", "ad")

NEGATIVE_POLICIES = ("closest_plus_random", "closest_only")


@dataclass
class MiniBatch:
    """One relation's chunk of constraint instances within an epoch plan.

    Items are an intp array: row pairs for ``syn``/``ant``/``hyper``/``ad`` batches
    and (anchor, synonym, hypernym) rows for ``quad`` batches. ``seed`` is the
    base training seed, carried so that in-batch random draws are replayable.
    """

    relation: str
    items: np.ndarray
    epoch: int
    batch_index: int
    seed: int = 0


def quad_join(cs) -> np.ndarray:
    """:func:`lexfit.constraints.quad_join` of ``cs.pairs``; a run joins its view's arrays instead."""
    return constraints.quad_join(cs.pairs["syn"], cs.pairs["hyper"])


def plan_epoch(
    streams: dict[str, np.ndarray], batch_size: int, seed: int, epoch: int = 0
) -> list[MiniBatch]:
    """Shuffle each stream's instances and interleave their batches round-robin.

    ``streams`` maps relations of :data:`RELATION_CYCLE` to their instance arrays,
    as a run derives them once (:func:`lexfit.specializer.run_view`). The
    shuffle is keyed on (seed, epoch, relation), so a plan is a pure function
    of its arguments. Streams with no instances are skipped; if every stream
    is empty, that is an error.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    for rel in streams:
        if rel not in RELATION_CYCLE:
            raise ValueError(f"unknown relation {rel!r}")

    chunks: dict[str, list[np.ndarray]] = {}
    for rel in RELATION_CYCLE:
        items = streams.get(rel, ())
        if not len(items):
            continue
        rng = np.random.default_rng((seed, epoch, RELATION_CYCLE.index(rel)))
        shuffled = items[rng.permutation(len(items))]
        chunks[rel] = [shuffled[i : i + batch_size] for i in range(0, len(shuffled), batch_size)]
    if not chunks:
        raise ValueError("all constraint relations are empty")

    plan: list[MiniBatch] = []
    for round_idx in range(max(map(len, chunks.values()))):
        for rel, batches in chunks.items():  # in RELATION_CYCLE order
            if round_idx < len(batches):
                plan.append(MiniBatch(rel, batches[round_idx], epoch, len(plan), seed))
    return plan


def batch_rows(batch: MiniBatch, extra=()) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a batch's items (plus ``extra``), ascending, and
    the items rewritten as local indices into them."""
    rows = distinct(np.concatenate((batch.items.ravel(), np.asarray(extra, dtype=np.intp))))
    return rows, np.searchsorted(rows, batch.items)


# splitmix64 (Steele et al., OOPSLA 2014): ``_splitmix64(seed, i)`` is the
# i-th output of the generator seeded with ``seed``, so every draw key is a pure
# function of its inputs and needs no generator state.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
# keeps the draw's entropy apart from plan_epoch's (seed, epoch, relation)
_DRAW_TAG = 0x6D696E65


def _splitmix64(seed: np.ndarray, i: np.ndarray) -> np.ndarray:
    x = seed + (i.astype(np.uint64) + np.uint64(1)) * _GAMMA
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _draw_keys(batch: MiniBatch, anchor_rows: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A uniform key in [0, 1) for every (anchor row, candidate row) cell,
    keyed by (seed, epoch, batch index, anchor row, candidate row) alone."""
    base = np.random.SeedSequence((batch.seed, batch.epoch, batch.batch_index, _DRAW_TAG))
    streams = _splitmix64(base.generate_state(1, np.uint64), anchor_rows)
    keys = _splitmix64(streams[:, None], rows)
    return (keys >> np.uint64(11)) * 2.0 ** -53


def mine_batch(
    batch: MiniBatch,
    partners: tuple[tuple[np.ndarray, np.ndarray], ...],
    rows: np.ndarray,
    local: np.ndarray,
    unit: np.ndarray,
    anchors: np.ndarray,
    mode: str,
    policy: str,
    k: int,
) -> np.ndarray:
    """Pick up to k in-batch rows for every anchor from one Gram matrix.

    ``rows``/``local`` come from :func:`batch_rows`, ``unit`` holds the
    current vectors of ``rows`` as unit rows (``BatchLoss.unit``, from
    :func:`~lexfit.embeddings.unit_rows`), so their Gram matrix holds the
    cosines, and ``anchors`` are local indices. An anchor's candidates are
    the rows of the batch's instances that do not contain it, minus the
    anchor and its partners in each table of ``partners``, the tables of the
    batch's relation in :attr:`~lexfit.specializer.RunView.partners`. In
    ``negatives`` mode, ``closest_only`` takes the k closest candidates in
    the current space and ``closest_plus_random`` the single closest plus
    k - 1 uniform draws without replacement from the rest. The draws take the candidates with the
    smallest hashed keys, and a key depends only on (seed, epoch, batch,
    anchor row, candidate row), so an anchor's picks do not depend on which
    other anchors are mined with it. ``positives`` mode takes
    the k farthest candidates, the mirror of ``closest_only``; training uses
    them to repel antonyms. Distance ties go to the smaller row. Returns an
    ``(len(anchors), k)`` array of local indices, padded with -1 where an
    anchor has fewer than k candidates; an anchor with none is skipped by
    its caller.
    """
    anchors = np.asarray(anchors, dtype=np.intp)
    n_rows, n_anchors = len(rows), len(anchors)
    member = np.zeros((n_rows, len(local)))
    member[local, np.arange(len(local))[:, None]] = 1.0
    # instances holding the row minus those also holding the anchor
    outside = member.sum(axis=1) - member[anchors] @ member.T
    mask = outside > 0.5
    mask[np.arange(n_anchors), anchors] = False
    for table in partners:
        owner, partner_rows = linked(table, rows[anchors])
        pos = np.minimum(np.searchsorted(rows, partner_rows), n_rows - 1)
        hit = rows[pos] == partner_rows
        mask[owner[hit], pos[hit]] = False

    dist = 1.0 - np.clip(unit[anchors] @ unit.T, -1.0, 1.0)
    counts = mask.sum(axis=1)
    picks = np.full((n_anchors, k), -1, dtype=np.intp)
    if mode == "negatives" and policy == "closest_plus_random":
        closest = np.argmin(np.where(mask, dist, np.inf), axis=1)
        picks[:, 0] = np.where(counts > 0, closest, -1)
        mask[np.arange(n_anchors), closest] = False
        if k > 1:
            # the k - 1 smallest keys are a uniform draw without replacement
            keys = np.where(mask, _draw_keys(batch, rows[anchors], rows), np.inf)
            width = min(k - 1, n_rows)
            draws = np.argpartition(keys, width - 1, axis=1)[:, :width]
            draws = np.take_along_axis(
                draws, np.argsort(np.take_along_axis(keys, draws, axis=1), axis=1), axis=1
            )
            picks[:, 1 : 1 + width] = np.where(np.arange(width) < counts[:, None] - 1, draws, -1)
        return picks
    key = -dist if mode == "positives" else dist
    order = np.argsort(np.where(mask, key, np.inf), axis=1, kind="stable")[:, :k]
    width = order.shape[1]
    picks[:, :width] = np.where(np.arange(width) < counts[:, None], order, -1)
    return picks


def mine_instances(
    batch: MiniBatch,
    partners: tuple[tuple[np.ndarray, np.ndarray], ...],
    rows: np.ndarray,
    local: np.ndarray,
    unit: np.ndarray,
    mode: str,
    policy: str,
    k: int,
    mirror: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mine rows for every instance of a batch, anchored at its first row.

    With ``mirror`` each pair is also taken in its reverse order. Returns
    ``(instances, which, mined)`` in local indices: the anchor-first
    instances, and for each mined row the instance it belongs to. Instances
    with an empty candidate pool get no rows. An anchor's picks depend only
    on the anchor, so each distinct anchor is mined once.
    """
    instances = np.stack((local, local[:, ::-1]), axis=1).reshape(-1, 2) if mirror else local
    anchors, which = np.unique(instances[:, 0], return_inverse=True)
    picks = mine_batch(batch, partners, rows, local, unit, anchors, mode, policy, k)[which]
    which, column = np.nonzero(picks >= 0)
    return instances, which, picks[which, column]
