"""Per-epoch batch planning and online in-batch sample selection."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .constraints import PAIR_SETS, ConstraintSet
from .embeddings import cosine_matrix, row_norms

RELATION_CYCLE = ("syn", "ant", "hyper", "quad", "ad")

NEGATIVE_POLICIES = ("closest_plus_random", "closest_only")


@dataclass
class MiniBatch:
    """One relation's chunk of constraint instances within an epoch plan.

    Items are row pairs for ``syn``/``ant``/``hyper``/``ad`` batches and
    (anchor, synonym, hypernym) triples for ``quad`` batches. ``seed`` is the
    base training seed, carried so that in-batch random draws are replayable.
    """

    relation: str
    items: list[tuple[int, ...]]
    epoch: int
    batch_index: int
    seed: int = 0


def quad_join(constraints: ConstraintSet) -> list[tuple[int, int, int]]:
    """(anchor, synonym, hypernym) seeds: each synonym pair joined with each
    direct hypernym of either word (the hypernym-owning word becomes the anchor)."""
    hypers: dict[int, list[int]] = defaultdict(list)
    for lo, hi in sorted(constraints.direct_hypernyms):
        hypers[lo].append(hi)
    seeds: list[tuple[int, int, int]] = []
    for a, s in sorted(constraints.synonyms):
        for h in hypers.get(a, ()):
            seeds.append((a, s, h))
        for h in hypers.get(s, ()):
            seeds.append((s, a, h))
    return seeds


def _relation_instances(
    constraints: ConstraintSet, relation: str, closed_hypernyms: bool, closed_ad: bool
) -> list[tuple[int, ...]]:
    if relation in ("syn", "ant"):
        return sorted(getattr(constraints, PAIR_SETS[relation]))
    if relation in ("hyper", "ad"):
        closed = closed_hypernyms if relation == "hyper" else closed_ad
        source = constraints.indirect_hypernyms if closed else constraints.direct_hypernyms
        return sorted(source)
    if relation == "quad":
        return quad_join(constraints)
    raise ValueError(f"unknown relation {relation!r}")


def plan_epoch(
    constraints: ConstraintSet,
    batch_size: int,
    seed: int,
    epoch: int = 0,
    relations: tuple[str, ...] = ("syn", "ant", "hyper", "quad"),
    closed_hypernyms: bool = False,
    closed_ad: bool = False,
) -> list[MiniBatch]:
    """Shuffle each relation's instances and interleave their batches round-robin.

    The shuffle is keyed on (seed, epoch, relation), so a plan is a pure
    function of its arguments. Relations with no instances are skipped; if
    every requested relation is empty, that is an error. ``closed_hypernyms``
    and ``closed_ad`` switch the hyper and norm-asymmetry streams between the
    direct pairs and the transitive closure.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    for rel in relations:
        if rel not in RELATION_CYCLE:
            raise ValueError(f"unknown relation {rel!r}")

    chunks: dict[str, list[list[tuple[int, ...]]]] = {}
    for rel in RELATION_CYCLE:
        if rel not in relations:
            continue
        items = _relation_instances(constraints, rel, closed_hypernyms, closed_ad)
        if not items:
            continue
        rng = np.random.default_rng((seed, epoch, RELATION_CYCLE.index(rel)))
        order = rng.permutation(len(items))
        shuffled = [items[i] for i in order]
        chunks[rel] = [shuffled[i : i + batch_size] for i in range(0, len(shuffled), batch_size)]
    if not chunks:
        raise ValueError("all constraint relations are empty")

    plan: list[MiniBatch] = []
    round_idx = 0
    while any(round_idx < len(batches) for batches in chunks.values()):
        for rel in RELATION_CYCLE:
            batches = chunks.get(rel)
            if batches is not None and round_idx < len(batches):
                plan.append(
                    MiniBatch(
                        relation=rel,
                        items=batches[round_idx],
                        epoch=epoch,
                        batch_index=len(plan),
                        seed=seed,
                    )
                )
        round_idx += 1
    return plan


def batch_rows(batch: MiniBatch, extra=()) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a batch's items (plus ``extra``), ascending, and
    the items rewritten as local indices into them."""
    items = np.asarray(batch.items, dtype=np.intp)
    rows = np.unique(np.concatenate((items.ravel(), np.asarray(extra, dtype=np.intp))))
    return rows, np.searchsorted(rows, items)


def _aux_rng(batch: MiniBatch, anchor: int, role: int) -> np.random.Generator:
    return np.random.default_rng((batch.seed, batch.epoch, batch.batch_index, anchor, role))


def mine_batch(
    batch: MiniBatch,
    constraints: ConstraintSet,
    rows: np.ndarray,
    local: np.ndarray,
    vectors: np.ndarray,
    anchors: np.ndarray,
    mode: str = "negatives",
    policy: str = "closest_plus_random",
    k: int = 2,
) -> np.ndarray:
    """Pick up to k in-batch rows for every anchor from one Gram matrix.

    ``rows``/``local`` come from :func:`batch_rows`, ``vectors`` holds the
    current vectors of ``rows`` and ``anchors`` are local indices. An anchor's
    candidates are the rows of the batch's instances that do not contain it,
    minus the anchor and its ``constraints.partners``. In ``negatives`` mode,
    ``closest_only`` takes the k closest candidates in the current space and
    ``closest_plus_random`` the single closest plus k - 1 uniform draws from
    the rest, keyed by (seed, epoch, batch, anchor). ``positives`` mode takes
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
    owner: list[int] = []
    partner: list[int] = []
    for i, anchor in enumerate(rows[anchors].tolist()):
        found = constraints.partners(batch.relation, anchor)
        owner += [i] * len(found)
        partner += found
    if partner:
        partner_rows = np.asarray(partner, dtype=np.intp)
        pos = np.minimum(np.searchsorted(rows, partner_rows), n_rows - 1)
        hit = rows[pos] == partner_rows
        mask[np.asarray(owner)[hit], pos[hit]] = False

    norms = row_norms(vectors)
    dist = 1.0 - cosine_matrix(vectors[anchors], vectors, norms[anchors], norms)
    counts = mask.sum(axis=1)
    picks = np.full((n_anchors, k), -1, dtype=np.intp)
    if mode == "negatives" and policy == "closest_plus_random":
        closest = np.argmin(np.where(mask, dist, np.inf), axis=1)
        picks[:, 0] = np.where(counts > 0, closest, -1)
        mask[np.arange(n_anchors), closest] = False
        # each anchor's remaining candidates first, ascending
        rest = np.argsort(~mask, axis=1, kind="stable")
        for i, (anchor, n_rest) in enumerate(zip(rows[anchors].tolist(), (counts - 1).tolist())):
            n_random = min(k - 1, n_rest)
            if n_random > 0:
                rng = _aux_rng(batch, anchor, role=0)
                draws = rng.choice(n_rest, size=n_random, replace=False)
                picks[i, 1 : 1 + n_random] = rest[i, draws]
        return picks
    key = -dist if mode == "positives" else dist
    order = np.argsort(np.where(mask, key, np.inf), axis=1, kind="stable")[:, :k]
    width = order.shape[1]
    picks[:, :width] = np.where(np.arange(width) < counts[:, None], order, -1)
    return picks


def mine_instances(
    batch: MiniBatch,
    constraints: ConstraintSet,
    rows: np.ndarray,
    local: np.ndarray,
    vectors: np.ndarray,
    mode: str = "negatives",
    policy: str = "closest_plus_random",
    k: int = 2,
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
    distinct, which = np.unique(instances[:, 0], return_inverse=True)
    picks = mine_batch(batch, constraints, rows, local, vectors, distinct, mode, policy, k)[which]
    which, column = np.nonzero(picks >= 0)
    return instances, which, picks[which, column]
