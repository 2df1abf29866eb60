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

from .embeddings import EmbeddingStore, row_cosines, shared_scale, unit_rows


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

    ``rows`` are distinct rows of ``store`` (a store, or the working set that
    training copies from one), ascending; every term addresses them by local
    index; ``original`` holds their vectors in the space the run started from,
    which preservation terms anchor to. Each hinge family is added as index arrays, and
    :meth:`gradient` returns the ``(len(rows), dim)`` gradient block.
    ``n_hinges`` counts the hinge terms added and ``n_active`` those that
    were strictly positive; preservation pulls count toward neither.

    Rows are normalized once: every cosine is a dot of unit rows, and every
    gradient term is a unit row times a coefficient over one norm, so no
    product of norms is ever formed.
    """

    def __init__(self, store: EmbeddingStore, rows: np.ndarray, original: np.ndarray) -> None:
        self.rows = rows
        self.current = store.current[rows]
        self.original = original
        self.unit, self.norms = unit_rows(self.current)
        self.loss = 0.0
        self.n_hinges = 0
        self.n_active = 0
        # block[dst] += coef * sources[src]: the unit rows, then the unit
        # original rows that preserve() appends
        self._sources = self.unit
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
        """Gradient of weight * D(left, right) for each pair, whose cosine is ``c``:
        (c * unit[left] - unit[right]) * weight / |left|, and its mirror."""
        wl, wr = weight / self.norms[left], weight / self.norms[right]
        self._add((left, left, right, right), (left, right, right, left),
                  (c * wl, -wl, c * wr, -wr))

    def hinge(self, margin, *terms: tuple[float, np.ndarray, np.ndarray], count: int = 1) -> None:
        """Add max(0, margin + sum of sign * D(left, right)) per hinge.

        ``terms`` are ``(sign, left, right)`` with one entry per hinge in each
        index array; ``margin`` is a scalar or one value per hinge. Each hinge
        counts ``count`` times, in the loss and in the hinge counts.
        """
        cosines = [row_cosines(self.unit[a], self.unit[b]) for _, a, b in terms]
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
        w = weight * np.bincount(local_rows, minlength=len(self.rows))
        moved = np.flatnonzero((w > 0) & np.any(self.current != self.original, axis=1))
        origin = unit_rows(self.original[moved])[0]
        at = len(self._sources) + np.arange(len(moved))
        self._sources = np.concatenate((self._sources, origin))
        c = row_cosines(self.unit[moved], origin)
        w = w[moved]
        self.loss += float(np.sum(w * (1.0 - c)))
        w = w / self.norms[moved]
        self._add((moved, moved), (moved, at), (w * c, -w))

    def norm_asymmetry(self, hyponym: np.ndarray, hypernym: np.ndarray, weight: float) -> None:
        """Hinge on (|u| - |v|) / (|u| + |v|) per (hyponym, hypernym) pair.

        The two norms of a pair are first divided by one power of two
        (:func:`~lexfit.embeddings.shared_scale`), so their sum stays finite.
        """
        nu, nv, exponents = shared_scale(self.norms[hyponym], self.norms[hypernym])
        total = nu + nv
        score = (nu - nv) / total
        active = score > 0
        self.n_hinges += len(score)
        self.n_active += int(np.count_nonzero(active))
        self.loss += float(np.sum(weight * score[active]))
        nu, nv, total = nu[active], nv[active], total[active]
        # d score / d|u| is 2|v| / (|u| + |v|)^2: undo the shared scale once
        w = np.ldexp(2.0 * weight / total, -exponents[active])
        self._add((hyponym[active], hypernym[active]), (hyponym[active], hypernym[active]),
                  (w * (nv / total), -w * (nu / total)))

    def gradient(self) -> np.ndarray:
        """The ``(len(rows), dim)`` gradient of everything added so far.

        The coefficients of each (dst, src) pair are merged first. Then every
        row adds its j-th source, j = 0, 1, ..., in ascending source order, so
        each cell sums as a ``bincount`` over its terms would; the rows are
        summed busiest first, so the rows with a j-th source are a prefix of
        the sums, and no ``(pairs, dim)`` array is formed.
        """
        n = len(self.rows)
        block = np.zeros_like(self.unit)
        if self._dst:
            m = len(self._sources)
            key = np.concatenate(self._dst) * m + np.concatenate(self._src)
            pairs, which = np.unique(key, return_inverse=True)
            coef = np.bincount(which, weights=np.concatenate(self._coef))
            dst, src = np.divmod(pairs, m)  # dst ascending, then src
            rank = np.arange(len(dst)) - np.searchsorted(dst, dst)  # of src among dst's
            # slot[row]: the row's place among the rows by descending source count
            slot = np.empty(n, np.intp)
            slot[np.argsort(-np.bincount(dst, minlength=n), kind="stable")] = np.arange(n)
            order = np.argsort(rank * n + slot[dst])
            src, coef = src[order], coef[order]
            terms = np.empty_like(block)
            start = 0
            for end in np.cumsum(np.bincount(rank)).tolist():
                part = terms[: end - start]
                np.take(self._sources, src[start:end], axis=0, out=part, mode="clip")
                part *= coef[start:end, None]
                block[: end - start] += part
                start = end
            block = block[slot]
        # a row whose norm overflows float64 has no usable gradient
        block[np.isinf(self.norms)] = np.nan
        return block
