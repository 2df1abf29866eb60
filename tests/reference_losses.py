"""Per-instance reference kernels: an independent oracle for ``BatchLoss``.

Each kernel evaluates one constraint instance on rows of an
:class:`~lexfit.embeddings.EmbeddingStore` and returns a :class:`LossResult`
whose gradients are keyed by row. ``n_hinges`` counts hinge terms evaluated
and ``n_active`` those that were strictly positive; plain distance pulls
count toward neither. All hinges use subgradient 0 exactly at their boundary.
Mining goes through :func:`lexfit.sampling.mine_batch` with one anchor, on unit rows.
:func:`bincount_gradient` keeps ``BatchLoss.gradient``'s earlier scatter, one
``bincount`` over every (pair, coordinate) cell, as the reference its
rank-by-rank sum must match bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from lexfit import EmbeddingStore
from lexfit.embeddings import unit_rows
from lexfit.losses import BatchLoss
from lexfit.sampling import batch_rows, mine_batch


@dataclass
class LossResult:
    """Scalar loss plus sparse gradients keyed by embedding row."""

    loss: float = 0.0
    grads: dict[int, np.ndarray] = field(default_factory=dict)
    n_hinges: int = 0
    n_active: int = 0

    def add_grad(self, row: int, g: np.ndarray) -> None:
        existing = self.grads.get(row)
        if existing is None:
            self.grads[row] = g.copy()
        else:
            existing += g

    def merge(self, other: "LossResult") -> "LossResult":
        self.loss += other.loss
        self.n_hinges += other.n_hinges
        self.n_active += other.n_active
        for row, g in other.grads.items():
            self.add_grad(row, g)
        return self


def mine_one(anchor, batch, partners, store, mode="negatives",
             policy="closest_plus_random", k=2) -> list[int]:
    """The store rows the in-batch miner picks for one anchor, given the batch
    relation's mining tables (each a :func:`helpers.partner_table`)."""
    rows, local = batch_rows(batch, extra=(anchor,))
    at = np.searchsorted(rows, [anchor])
    unit = unit_rows(store.current[rows])[0]
    picks = mine_batch(batch, partners, rows, local, unit, at, mode, policy, k)
    return [int(rows[p]) for p in picks[0] if p >= 0]


def distance_with_grads(u: np.ndarray, v: np.ndarray):
    """Cosine distance 1 - cos(u, v) and its gradients w.r.t. both arguments.

    d cos/du = v / (|u||v|) - cos * u / |u|^2, so each distance gradient is
    the negated cosine gradient; it is orthogonal to its own argument.
    """
    uu = float(u @ u)
    vv = float(v @ v)
    inv = 1.0 / (math.sqrt(uu) * math.sqrt(vv))
    c = float(u @ v) * inv
    gu = (c / uu) * u - inv * v
    gv = (c / vv) * v - inv * u
    d = 1.0 - min(1.0, max(-1.0, c))
    return d, gu, gv


def contrastive_loss(x1: int, x2: int, m: float, store: EmbeddingStore) -> LossResult:
    """max(0, m - D(x1, x2)): push a dissimilar pair beyond margin m."""
    M = store.current
    d, g1, g2 = distance_with_grads(M[x1], M[x2])
    res = LossResult(n_hinges=1)
    h = m - d
    if h > 0:
        res.n_active = 1
        res.loss = h
        res.add_grad(x1, -g1)
        res.add_grad(x2, -g2)
    return res


def triplet_attract_loss(
    anchor: int, positive: int, negatives: list[int], m_syn: float, store: EmbeddingStore
) -> LossResult:
    """Sum of max(0, m + D(a, p) - D(a, n)) over the negative samples."""
    M = store.current
    res = LossResult()
    d_ap, g_a_p, g_p = distance_with_grads(M[anchor], M[positive])
    for neg in negatives:
        d_an, g_a_n, g_n = distance_with_grads(M[anchor], M[neg])
        res.n_hinges += 1
        h = m_syn + d_ap - d_an
        if h > 0:
            res.n_active += 1
            res.loss += h
            res.add_grad(anchor, g_a_p - g_a_n)
            res.add_grad(positive, g_p)
            res.add_grad(neg, -g_n)
    return res


def triplet_repel_loss(
    anchor: int, antonym: int, positives: list[int], m_ant: float, store: EmbeddingStore
) -> LossResult:
    """Sum of max(0, m + D(a, ps) - D(a, ant)): push the antonym beyond every positive."""
    M = store.current
    res = LossResult()
    d_an, g_a_n, g_n = distance_with_grads(M[anchor], M[antonym])
    for pos in positives:
        d_ap, g_a_p, g_p = distance_with_grads(M[anchor], M[pos])
        res.n_hinges += 1
        h = m_ant + d_ap - d_an
        if h > 0:
            res.n_active += 1
            res.loss += h
            res.add_grad(anchor, g_a_p - g_a_n)
            res.add_grad(pos, g_p)
            res.add_grad(antonym, -g_n)
    return res


def quadruplet_hierarchy_loss(
    anchor: int,
    synonym: int,
    hypernym: int,
    negatives: list[int],
    m_hie_syn: float,
    m_hie_hyp: float,
    store: EmbeddingStore,
) -> LossResult:
    """Four-term hinge ordering synonym closer than hypernym, hypernym closer than negatives.

    The anchor-side and synonym-side halves mirror each other; the two
    negative sums share one summand because D is symmetric in (anchor,
    synonym), so each active negative hinge contributes twice.
    """
    M = store.current
    res = LossResult()
    d_as, gA_as, gS_as = distance_with_grads(M[anchor], M[synonym])
    d_ah, gA_ah, gH_ah = distance_with_grads(M[anchor], M[hypernym])
    d_sh, gS_sh, gH_sh = distance_with_grads(M[synonym], M[hypernym])

    res.n_hinges += 1
    h1 = m_hie_syn + d_as - d_ah
    if h1 > 0:
        res.n_active += 1
        res.loss += h1
        res.add_grad(anchor, gA_as - gA_ah)
        res.add_grad(synonym, gS_as)
        res.add_grad(hypernym, -gH_ah)

    res.n_hinges += 1
    h2 = m_hie_syn + d_as - d_sh
    if h2 > 0:
        res.n_active += 1
        res.loss += h2
        res.add_grad(anchor, gA_as)
        res.add_grad(synonym, gS_as - gS_sh)
        res.add_grad(hypernym, -gH_sh)

    for neg in negatives:
        d_hn, gH_hn, gN_hn = distance_with_grads(M[hypernym], M[neg])
        res.n_hinges += 2
        h = m_hie_hyp + d_as - d_hn
        if h > 0:
            res.n_active += 2
            res.loss += 2.0 * h
            res.add_grad(anchor, 2.0 * gA_as)
            res.add_grad(synonym, 2.0 * gS_as)
            res.add_grad(hypernym, -2.0 * gH_hn)
            res.add_grad(neg, -2.0 * gN_hn)
    return res


def preservation_loss(
    rows, store: EmbeddingStore, original: np.ndarray, weight: float
) -> LossResult:
    """Distributional preservation: weight * sum of D(current, original) over
    rows, ``original`` being the store's vectors before the run moved them.

    Rows count once per occurrence; an unmoved row contributes exactly zero.
    """
    res = LossResult()
    M = store.current
    O = original
    for row in rows:
        if np.array_equal(M[row], O[row]):
            res.add_grad(row, np.zeros(store.dim))
            continue
        d, g_cur, _ = distance_with_grads(M[row], O[row])
        res.loss += weight * d
        res.add_grad(row, weight * g_cur)
    return res


def counterfit_preserve_loss(
    anchor: int, neighbors: list[tuple[int, float]], store: EmbeddingStore
) -> LossResult:
    """max(0, D_current - D_original) for each precomputed (row, original distance)."""
    M = store.current
    res = LossResult()
    for row, d_orig in neighbors:
        d, g_a, g_j = distance_with_grads(M[anchor], M[row])
        res.n_hinges += 1
        h = d - d_orig
        if h > 0:
            res.n_active += 1
            res.loss += h
            res.add_grad(anchor, g_a)
            res.add_grad(row, g_j)
    return res


def asymmetric_norm_loss(
    hyponym: int, hypernym: int, ad_weight: float, store: EmbeddingStore
) -> LossResult:
    """Hinge on (|u| - |v|) / (|u| + |v|): zero once the hyponym is strictly shorter."""
    M = store.current
    u = M[hyponym]
    v = M[hypernym]
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    res = LossResult()
    res.n_hinges = 1
    score = (nu - nv) / (nu + nv)
    if score > 0:
        res.n_active = 1
        res.loss = ad_weight * score
        denom = (nu + nv) ** 2
        res.add_grad(hyponym, ad_weight * (2.0 * nv / denom) * (u / nu))
        res.add_grad(hypernym, ad_weight * (-2.0 * nu / denom) * (v / nv))
    return res


def bincount_gradient(res: BatchLoss) -> np.ndarray:
    """``res.gradient()`` as one ``bincount`` over ``(pairs, dim)`` cells: each
    merged (dst, src) coefficient times its source row, summed per cell in
    ascending (dst, src) order."""
    n, dim = res.unit.shape
    if res._dst:
        m = len(res._sources)
        key = np.concatenate(res._dst) * m + np.concatenate(res._src)
        pairs, which = np.unique(key, return_inverse=True)
        coef = np.bincount(which, weights=np.concatenate(res._coef))
        dst, src = np.divmod(pairs, m)
        terms = coef[:, None] * res._sources[src]
        cells = (dst[:, None] * dim + np.arange(dim)).ravel()
        block = np.bincount(cells, weights=terms.ravel(), minlength=n * dim).reshape(n, dim)
    else:
        block = np.zeros_like(res.unit)
    block[np.isinf(res.norms)] = np.nan
    return block
