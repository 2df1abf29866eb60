"""Finite-difference gradient oracle for ``BatchLoss``: one case generator per hinge form.

A case is a random store, the vectors it held before its rows were
perturbed (the space preservation terms anchor to), plus the calls training
makes on a ``BatchLoss`` over all of its rows, for ``batch`` instances of one form that share rows
(so the gradient's scatter-add is exercised too). The analytic side is
``BatchLoss.gradient()``. The numeric side takes central differences of
:func:`formula`, a loss-only expression of the same terms, evaluated on every
perturbed copy of the rows in one numpy pass; at the unperturbed point,
``BatchLoss.loss`` and its hinge counts must equal that formula. Cases whose
hinge arguments sit within ``KINK_SLACK`` of a boundary are redrawn, since
central differences straddle the kink there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from lexfit import EmbeddingStore
from lexfit.losses import BatchLoss
from helpers import random_store

KINK_SLACK = 1e-3
BATCH_SIZES = (1, 4)


@dataclass
class Case:
    store: EmbeddingStore
    original: np.ndarray  # the store's vectors before _store perturbed them
    # (margin, terms, count) as BatchLoss.hinge takes them
    hinges: list = field(default_factory=list)
    preserve: list = field(default_factory=list)  # (local rows, weight)
    norms: list = field(default_factory=list)  # (hyponyms, hypernyms, weight)

    def batch_loss(self) -> BatchLoss:
        res = BatchLoss(self.store, np.arange(len(self.store)), self.original)
        for margin, terms, count in self.hinges:
            res.hinge(margin, *terms, count=count)
        for rows, weight in self.preserve:
            res.preserve(rows, weight)
        for hyponym, hypernym, weight in self.norms:
            res.norm_asymmetry(hyponym, hypernym, weight)
        return res


def _distance(a, b):
    cos = np.sum(a * b, axis=-1) / (np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1))
    return 1.0 - np.clip(cos, -1.0, 1.0)


def formula(case: Case, X: np.ndarray):
    """The case's loss at each ``(..., rows, dim)`` point ``X``, and its
    hinge arguments there as ``(arguments, count)`` pairs."""
    loss = 0.0
    args = []
    for margin, terms, count in case.hinges:
        h = margin + sum(sign * _distance(X[..., l, :], X[..., r, :]) for sign, l, r in terms)
        loss = loss + count * np.maximum(h, 0.0).sum(axis=-1)
        args.append((h, count))
    for rows, weight in case.preserve:
        loss = loss + weight * _distance(X[..., rows, :], case.original[rows]).sum(axis=-1)
    for hyponym, hypernym, weight in case.norms:
        nu = np.linalg.norm(X[..., hyponym, :], axis=-1)
        nv = np.linalg.norm(X[..., hypernym, :], axis=-1)
        score = (nu - nv) / (nu + nv)
        loss = loss + weight * np.maximum(score, 0.0).sum(axis=-1)
        args.append((score, 1))
    return loss, args


def _instances(rng, batch: int, width: int):
    """``batch`` instances of ``width`` distinct rows each, drawn from a
    shared pool of ``width + batch - 1`` rows; returns the pool size and one
    index array per position."""
    size = width + batch - 1
    drawn = np.array([rng.choice(size, size=width, replace=False) for _ in range(batch)])
    return size, drawn.T


def _store(rng, n, perturb_rows=()):
    """A random store with ``perturb_rows`` moved, and its vectors before the move."""
    store = random_store(int(rng.integers(0, 2**31)), n, int(rng.integers(5, 51)))
    original = store.current.copy()
    with store.writing() as matrix:
        for row in perturb_rows:
            matrix[row] += 0.5 * rng.standard_normal(store.dim)
    return store, original


def gen_contrastive(rng, batch):
    # counter-fitting: pull synonyms within m, push antonyms beyond m
    size, (a, b) = _instances(rng, batch, 2)
    store = _store(rng, size)
    m = float(rng.uniform(0.2, 1.5))
    if rng.integers(2):
        return Case(*store, hinges=[(-m, [(1.0, a, b)], 1)])
    return Case(*store, hinges=[(m, [(-1.0, a, b)], 1)])


def gen_triplet_attract(rng, batch):
    size, (a, p, n1, n2) = _instances(rng, batch, 4)
    anchor, positive, negative = np.r_[a, a], np.r_[p, p], np.r_[n1, n2]
    m = float(rng.uniform(0.1, 1.2))
    terms = [(1.0, anchor, positive), (-1.0, anchor, negative)]
    return Case(*_store(rng, size), hinges=[(m, terms, 1)])


def gen_triplet_repel(rng, batch):
    size, (a, ant, p1, p2) = _instances(rng, batch, 4)
    anchor, antonym, positive = np.r_[a, a], np.r_[ant, ant], np.r_[p1, p2]
    m = float(rng.uniform(0.1, 1.2))
    terms = [(1.0, anchor, positive), (-1.0, anchor, antonym)]
    return Case(*_store(rng, size), hinges=[(m, terms, 1)])


def gen_quadruplet(rng, batch):
    size, (a, s, h, n1, n2) = _instances(rng, batch, 5)
    m_hs = float(rng.uniform(0.001, 0.5))
    m_hh = float(rng.uniform(0.1, 1.0))
    hinges = [
        (m_hs, [(1.0, a, s), (-1.0, a, h)], 1),
        (m_hs, [(1.0, a, s), (-1.0, s, h)], 1),
        (m_hh, [(1.0, np.r_[a, a], np.r_[s, s]), (-1.0, np.r_[h, h], np.r_[n1, n2])], 2),
    ]
    return Case(*_store(rng, size), hinges=hinges)


def gen_preservation(rng, batch):
    # "batch" weighting: every row once; "triplet": each triplet's rows, with repeats
    size, triplets = _instances(rng, batch, 3)
    store = _store(rng, size, perturb_rows=range(size))
    rows = np.arange(size) if rng.integers(2) else triplets.ravel()
    return Case(*store, preserve=[(rows, float(rng.uniform(0.001, 1.0)))])


def gen_counterfit_preserve(rng, batch):
    # neighbour preservation: one margin -D_original per (row, neighbour) hinge
    size, (a, j1, j2) = _instances(rng, batch, 3)
    store, original = _store(rng, size, perturb_rows=np.unique(a))
    own, near = np.r_[a, a], np.r_[j1, j2]
    d_orig = _distance(original[own], original[near])
    return Case(store, original, hinges=[(-d_orig, [(1.0, own, near)], 1)])


def gen_asymmetric_norm(rng, batch):
    size, (hyponym, hypernym) = _instances(rng, batch, 2)
    store, original = _store(rng, size)
    with store.writing() as matrix:
        matrix *= rng.uniform(0.5, 2.0, size=(size, 1))
    return Case(store, original, norms=[(hyponym, hypernym, float(rng.uniform(0.5, 2.0)))])


GENERATORS = {
    "contrastive": gen_contrastive,
    "triplet_attract": gen_triplet_attract,
    "triplet_repel": gen_triplet_repel,
    "quadruplet_hierarchy": gen_quadruplet,
    "preservation": gen_preservation,
    "counterfit_preserve": gen_counterfit_preserve,
    "asymmetric_norm": gen_asymmetric_norm,
}


def draw_instance(name: str, rng, batch: int = 1, max_tries: int = 200) -> Case:
    gen = GENERATORS[name]
    for _ in range(max_tries):
        case = gen(rng, batch)
        _, args = formula(case, case.store.current)
        if all(np.all(np.abs(h) > KINK_SLACK) for h, _ in args):
            return case
    raise RuntimeError(f"could not draw a kink-free instance for {name}")


def check_case(case: Case, h: float = 1e-5) -> float:
    """Relative L2 error between ``BatchLoss.gradient()`` and central differences."""
    res = case.batch_loss()
    X = case.store.current
    loss, args = formula(case, X)
    assert abs(res.loss - loss) <= 1e-12 * max(1.0, abs(loss))
    assert res.n_hinges == sum(count * a.size for a, count in args)
    assert res.n_active == sum(count * np.count_nonzero(a > 0) for a, count in args)
    n, dim = X.shape
    copies = np.broadcast_to(X, (2, n * dim, n, dim)).copy()
    coord = np.arange(n * dim)
    flat = copies.reshape(2, n * dim, n * dim)
    flat[0, coord, coord] += h
    flat[1, coord, coord] -= h
    up, down = formula(case, copies)[0]
    numeric = ((up - down) / (2.0 * h)).reshape(n, dim)
    analytic = res.gradient()
    scale = max(np.linalg.norm(analytic), np.linalg.norm(numeric))
    return float(np.linalg.norm(analytic - numeric) / scale) if scale else 0.0


def check_kernel(name: str, instances: int, seed: int, h: float = 1e-5) -> float:
    """Worst relative gradient error over ``instances`` cases at each batch size."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for batch in BATCH_SIZES:
        for _ in range(instances):
            worst = max(worst, check_case(draw_instance(name, rng, batch), h))
    return worst
