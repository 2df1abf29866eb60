"""Hinge losses over cosine distance, with hand-derived gradients.

:class:`BatchLoss` is the one loss kernel: training evaluates a whole
mini-batch at once, every hinge family is a set of index arrays into the
batch's gathered rows, and the gradient comes back as one ``(rows, dim)``
block. All hinges use subgradient 0 exactly at their boundary. The test
suite keeps an independent per-instance oracle (``tests/reference_losses.py``)
and a finite-difference check of :meth:`BatchLoss.gradient`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingStore, row_cosines, row_norms


@dataclass
class Margins:
    """Margin and weight hyperparameters shared by every hinge family."""

    m_syn: float = 0.9
    m_ant: float = 0.3
    m_hyp: float = 0.6
    m_hie_syn: float = 0.001
    m_hie_hyp: float = 0.6
    m_reg: float = 1e-9
    gamma_reg: float = 0.001
    ad_weight: float = 1.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"margin {name} must be finite and >= 0, got {value}")


class BatchLoss:
    """One mini-batch's loss and gradient over its gathered rows.

    ``rows`` are distinct store rows, ascending; every term addresses them
    by local index. Each hinge family is added as index arrays, and
    :meth:`gradient` returns the ``(len(rows), dim)`` gradient block.
    ``n_hinges`` counts the hinge terms added and ``n_active`` those that
    were strictly positive; preservation pulls count toward neither.
    """

    def __init__(self, store: EmbeddingStore, rows: np.ndarray) -> None:
        self.rows = rows
        self.current = store.current[rows]
        self.original = store.original[rows]
        self.norms = row_norms(self.current)
        self.loss = 0.0
        self.n_hinges = 0
        self.n_active = 0
        # block[dst] += coef * vector[src]; src >= len(rows) is an original row
        self._dst: list[np.ndarray] = []
        self._src: list[np.ndarray] = []
        self._coef: list[np.ndarray] = []

    def _add(self, dst, src, coef) -> None:
        if not len(dst[0]):
            return
        self._dst.extend(dst)
        self._src.extend(src)
        self._coef.extend(coef)

    def _pull(self, left: np.ndarray, right: np.ndarray, c: np.ndarray, weight: float) -> None:
        """Gradient of weight * D(left, right) for each pair, whose cosine is ``c``."""
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
        X, norms = self.current, self.norms
        cosines = [row_cosines(X[a], X[b], norms[a], norms[b]) for _, a, b in terms]
        h = margin
        for (sign, _, _), c in zip(terms, cosines):
            h = h + sign * (1.0 - c)
        active = h > 0
        self.n_hinges += count * len(active)
        self.n_active += count * int(np.count_nonzero(active))
        self.loss += count * float(np.sum(h[active]))
        for (sign, left, right), c in zip(terms, cosines):
            self._pull(left[active], right[active], c[active], count * sign)

    def preserve(self, local_rows: np.ndarray, weight: float) -> None:
        """weight * D(current, original) for every occurrence of a row.

        Unmoved rows sit at distance and gradient exactly zero and are left
        out, which keeps them bit-identical under AdaGrad.
        """
        n = len(self.rows)
        w = weight * np.bincount(local_rows, minlength=n)
        moved = np.flatnonzero((w > 0) & np.any(self.current != self.original, axis=1))
        u, o = self.current[moved], self.original[moved]
        nu, no = self.norms[moved], row_norms(o)
        c = row_cosines(u, o, nu, no)
        w = w[moved]
        self.loss += float(np.sum(w * (1.0 - c)))
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
        if self._dst:
            key = np.concatenate(self._dst) * (2 * n) + np.concatenate(self._src)
            pairs, which = np.unique(key, return_inverse=True)
            coef = np.bincount(which, weights=np.concatenate(self._coef))
            dst, src = np.divmod(pairs, 2 * n)
            terms = coef[:, None] * np.concatenate((self.current, self.original))[src]
            starts = np.flatnonzero(np.r_[True, dst[1:] != dst[:-1]])
            block[dst[starts]] = np.add.reduceat(terms, starts, axis=0)
        # a row whose norm overflows float64 has no usable gradient
        block[np.isinf(self.norms)] = np.nan
        return block
