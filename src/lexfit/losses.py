"""Hinge losses over cosine distance, with hand-derived sparse gradients.

Training evaluates a whole mini-batch at once with :class:`BatchLoss`: every
hinge family is a set of index arrays into the batch's gathered rows, and the
gradient comes back as one ``(rows, dim)`` block. The per-instance kernels
below it read vectors from an :class:`~lexfit.embeddings.EmbeddingStore` by
row and return a :class:`LossResult` with gradients keyed by row; they are
the reference that the finite-difference oracle and the batch tests check.
All hinges use subgradient 0 exactly at their boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingStore


@dataclass
class Margins:
    """Margin and weight hyperparameters shared by all loss kernels."""

    m_syn: float = 0.9
    m_ant: float = 0.3
    m_hyp: float = 0.6
    m_hie_syn: float = 0.001
    m_hie_hyp: float = 0.6
    m_reg: float = 1e-9
    gamma_reg: float = 0.001
    m_contrastive: float = 0.9
    ad_weight: float = 1.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"margin {name} must be finite and >= 0, got {value}")


@dataclass
class LossResult:
    """Scalar loss plus sparse gradients keyed by embedding row.

    ``n_hinges`` counts hinge terms evaluated and ``n_active`` those that
    were strictly positive; non-hinge terms (plain distance pulls) do not
    count toward either.
    """

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


def _row_cosines(
    a: np.ndarray, b: np.ndarray, norm_a: np.ndarray, norm_b: np.ndarray
) -> np.ndarray:
    return np.sum(a * b, axis=1) / (norm_a * norm_b)


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(matrix * matrix, axis=1))


class BatchLoss:
    """One mini-batch's loss and gradient over its gathered rows.

    ``rows`` are distinct store rows, ascending; every term addresses them
    by local index. Each hinge family is added as index arrays, and
    :meth:`gradient` returns the ``(len(rows), dim)`` gradient block.
    ``n_hinges``/``n_active`` count as in the per-instance kernels.
    """

    def __init__(self, store: EmbeddingStore, rows: np.ndarray) -> None:
        self.rows = rows
        self.current = store.current[rows]
        self.original = store.original[rows]
        self.norms = _row_norms(self.current)
        self.loss = 0.0
        self.n_hinges = 0
        self.n_active = 0
        # block[dst] += coef * vector[src]; src >= len(rows) is an original row
        self._dst: list[np.ndarray] = []
        self._src: list[np.ndarray] = []
        self._coef: list[np.ndarray] = []

    def _cosines(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        X = self.current
        return _row_cosines(X[left], X[right], self.norms[left], self.norms[right])

    def _distances(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return 1.0 - np.clip(self._cosines(left, right), -1.0, 1.0)

    def _add(self, dst, src, coef) -> None:
        if not len(dst[0]):
            return
        self._dst.extend(dst)
        self._src.extend(src)
        self._coef.extend(coef)

    def _pull(self, left: np.ndarray, right: np.ndarray, weight: float) -> None:
        """Gradient of weight * D(left, right) for each pair."""
        c = self._cosines(left, right)
        nl, nr = self.norms[left], self.norms[right]
        cross = -weight / (nl * nr)
        self._add((left, left, right, right), (left, right, right, left),
                  (weight * c / (nl * nl), cross, weight * c / (nr * nr), cross))

    def hinge(self, margin, *terms: tuple[float, np.ndarray, np.ndarray], count: int = 1) -> None:
        """Add max(0, margin + sum of sign * D(left, right)) per hinge.

        ``terms`` are ``(sign, left, right)`` with one entry per hinge in each
        index array; ``margin`` is a scalar or one value per hinge. Each hinge
        counts ``count`` times, in the loss and in the hinge counts.
        """
        h = margin
        for sign, left, right in terms:
            h = h + sign * self._distances(left, right)
        active = h > 0
        self.n_hinges += count * len(active)
        self.n_active += count * int(np.count_nonzero(active))
        self.loss += count * float(np.sum(h[active]))
        for sign, left, right in terms:
            self._pull(left[active], right[active], count * sign)

    def preserve(self, local_rows: np.ndarray, weight: float) -> None:
        """weight * D(current, original) for every occurrence of a row.

        Unmoved rows sit at distance and gradient exactly zero and are left
        out, which keeps them bit-identical under AdaGrad.
        """
        n = len(self.rows)
        w = weight * np.bincount(local_rows, minlength=n)
        moved = np.flatnonzero((w > 0) & np.any(self.current != self.original, axis=1))
        u, o = self.current[moved], self.original[moved]
        nu, no = self.norms[moved], _row_norms(o)
        c = _row_cosines(u, o, nu, no)
        w = w[moved]
        self.loss += float(np.sum(w * (1.0 - np.clip(c, -1.0, 1.0))))
        self._add((moved, moved), (moved, moved + n), (w * c / (nu * nu), -w / (nu * no)))

    def norm_asymmetry(self, hyponym: np.ndarray, hypernym: np.ndarray, weight: float) -> None:
        """Hinge on (|u| - |v|) / (|u| + |v|) per (hyponym, hypernym) pair."""
        nu, nv = self.norms[hyponym], self.norms[hypernym]
        score = (nu - nv) / (nu + nv)
        active = score > 0
        self.n_hinges += len(score)
        self.n_active += int(np.count_nonzero(active))
        self.loss += float(np.sum(weight * score[active]))
        nu, nv = nu[active], nv[active]
        denom = (nu + nv) ** 2
        self._add((hyponym[active], hypernym[active]), (hyponym[active], hypernym[active]),
                  (weight * (2.0 * nv / denom) / nu, weight * (-2.0 * nu / denom) / nv))

    def gradient(self) -> np.ndarray:
        """The ``(len(rows), dim)`` gradient of everything added so far."""
        n = len(self.rows)
        block = np.zeros_like(self.current)
        if not self._dst:
            return block
        key = np.concatenate(self._dst) * (2 * n) + np.concatenate(self._src)
        pairs, which = np.unique(key, return_inverse=True)
        coef = np.bincount(which, weights=np.concatenate(self._coef))
        dst, src = np.divmod(pairs, 2 * n)
        terms = coef[:, None] * np.concatenate((self.current, self.original))[src]
        starts = np.flatnonzero(np.r_[True, dst[1:] != dst[:-1]])
        block[dst[starts]] = np.add.reduceat(terms, starts, axis=0)
        return block


def distance_with_grads(u: np.ndarray, v: np.ndarray):
    """Cosine distance 1 - cos(u, v) and its gradients w.r.t. both arguments.

    d cos/du = v / (|u||v|) - cos * u / |u|^2, so each distance gradient is
    the negated cosine gradient; it is orthogonal to its own argument.
    """
    uu = float(u @ u)
    vv = float(v @ v)
    if uu == 0.0 or vv == 0.0:
        raise ValueError("cosine distance of a zero vector is undefined")
    inv = 1.0 / (math.sqrt(uu) * math.sqrt(vv))
    c = float(u @ v) * inv
    gu = (c / uu) * u - inv * v
    gv = (c / vv) * v - inv * u
    d = 1.0 - min(1.0, max(-1.0, c))
    return d, gu, gv


def contrastive_loss(x1: int, x2: int, y: int, m: float, store: EmbeddingStore) -> LossResult:
    """Pairwise loss: pull similar pairs (y=1), push dissimilar ones beyond margin m."""
    if y not in (0, 1):
        raise ValueError("y must be 0 or 1")
    M = store.current
    d, g1, g2 = distance_with_grads(M[x1], M[x2])
    res = LossResult()
    if y == 1:
        res.loss = d
        res.add_grad(x1, g1)
        res.add_grad(x2, g2)
        return res
    res.n_hinges = 1
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
    if not negatives:
        raise ValueError("negatives must be nonempty")
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
    if not positives:
        raise ValueError("positives must be nonempty")
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
    if not negatives:
        raise ValueError("negatives must be nonempty")
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


def preservation_loss(rows, store: EmbeddingStore, weight: float) -> LossResult:
    """Distributional preservation: weight * sum of D(current, original) over rows.

    Gradients touch only ``current``; at the original point they are exactly
    zero, so unmoved vectors stay bit-identical. Rows count once per
    occurrence: the per-batch form passes each row once with ``gamma_reg``,
    the per-triplet form every triplet's rows with ``m_reg``.
    """
    res = LossResult()
    M = store.current
    O = store.original
    for row in rows:
        # the fast path keeps unmoved rows bit-identical under AdaGrad
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
    """Penalize drifting farther from original-space neighbors than at load time.

    ``neighbors`` holds (row, original_distance) pairs precomputed in the
    original space; each contributes max(0, D_current - D_original).
    """
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


def asymmetric_norm_score(u: np.ndarray, v: np.ndarray) -> float:
    """Signed norm asymmetry (|u| - |v|) / (|u| + |v|); negative when u is shorter."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("norm score of a zero vector is undefined")
    return (nu - nv) / (nu + nv)


def asymmetric_norm_loss(
    hyponym: int, hypernym: int, ad_weight: float, store: EmbeddingStore
) -> LossResult:
    """Hinge on the norm-asymmetry score: zero once the hyponym is strictly shorter."""
    M = store.current
    u = M[hyponym]
    v = M[hypernym]
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("norm score of a zero vector is undefined")
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
