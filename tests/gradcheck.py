"""Finite-difference gradient oracle: random instance generators per loss kernel.

Instances whose hinge arguments sit within 1e-3 of a boundary are rejected
and redrawn, since central differences straddle the kink there.
"""

from __future__ import annotations

import numpy as np

from lexfit import (
    asymmetric_norm_loss,
    asymmetric_norm_score,
    contrastive_loss,
    counterfit_preserve_loss,
    distance,
    preservation_loss,
    quadruplet_hierarchy_loss,
    triplet_attract_loss,
    triplet_repel_loss,
)
from helpers import fd_gradients, grad_rel_error, random_store

KINK_SLACK = 1e-3


def _store(rng, n, dim, perturb_rows=()):
    store = random_store(int(rng.integers(0, 2**31)), n, dim)
    for row in perturb_rows:
        store.current[row] += 0.5 * rng.standard_normal(dim)
    return store


def _dim(rng) -> int:
    return int(rng.integers(5, 51))


def gen_contrastive(rng):
    store = _store(rng, 2, _dim(rng))
    y = int(rng.integers(0, 2))
    m = float(rng.uniform(0.2, 1.5))
    d = distance(store.current[0], store.current[1])
    slacks = [] if y == 1 else [m - d]
    return (lambda: contrastive_loss(0, 1, y, m, store)), store, [0, 1], slacks


def gen_triplet_attract(rng):
    store = _store(rng, 4, _dim(rng))
    m = float(rng.uniform(0.1, 1.2))
    d_ap = distance(store.current[0], store.current[1])
    slacks = [m + d_ap - distance(store.current[0], store.current[n]) for n in (2, 3)]
    return (lambda: triplet_attract_loss(0, 1, [2, 3], m, store)), store, [0, 1, 2, 3], slacks


def gen_triplet_repel(rng):
    store = _store(rng, 4, _dim(rng))
    m = float(rng.uniform(0.1, 1.2))
    d_an = distance(store.current[0], store.current[1])
    slacks = [m + distance(store.current[0], store.current[p]) - d_an for p in (2, 3)]
    return (lambda: triplet_repel_loss(0, 1, [2, 3], m, store)), store, [0, 1, 2, 3], slacks


def gen_quadruplet(rng):
    store = _store(rng, 5, _dim(rng))
    m_hs = float(rng.uniform(0.001, 0.5))
    m_hh = float(rng.uniform(0.1, 1.0))
    cur = store.current
    d_as = distance(cur[0], cur[1])
    slacks = [
        m_hs + d_as - distance(cur[0], cur[2]),
        m_hs + d_as - distance(cur[1], cur[2]),
        m_hh + d_as - distance(cur[2], cur[3]),
        m_hh + d_as - distance(cur[2], cur[4]),
    ]
    return (
        (lambda: quadruplet_hierarchy_loss(0, 1, 2, [3, 4], m_hs, m_hh, store)),
        store,
        [0, 1, 2, 3, 4],
        slacks,
    )


def gen_preservation(rng):
    store = _store(rng, 3, _dim(rng), perturb_rows=(0, 1, 2))
    gamma = float(rng.uniform(0.001, 1.0))
    return (lambda: preservation_loss([0, 1, 2], store, gamma)), store, [0, 1, 2], []


def gen_counterfit_preserve(rng):
    store = _store(rng, 3, _dim(rng), perturb_rows=(0,))
    neighbors = [
        (j, float(distance(store.original[0], store.original[j]))) for j in (1, 2)
    ]
    slacks = [distance(store.current[0], store.current[j]) - d for j, d in neighbors]
    return (lambda: counterfit_preserve_loss(0, neighbors, store)), store, [0, 1, 2], slacks


def gen_asymmetric_norm(rng):
    store = _store(rng, 2, _dim(rng))
    store.current[0] *= float(rng.uniform(0.5, 2.0))
    weight = float(rng.uniform(0.5, 2.0))
    slacks = [asymmetric_norm_score(store.current[0], store.current[1])]
    return (lambda: asymmetric_norm_loss(0, 1, weight, store)), store, [0, 1], slacks


GENERATORS = {
    "contrastive": gen_contrastive,
    "triplet_attract": gen_triplet_attract,
    "triplet_repel": gen_triplet_repel,
    "quadruplet_hierarchy": gen_quadruplet,
    "preservation": gen_preservation,
    "counterfit_preserve": gen_counterfit_preserve,
    "asymmetric_norm": gen_asymmetric_norm,
}


def draw_instance(name: str, rng, max_tries: int = 200):
    gen = GENERATORS[name]
    for _ in range(max_tries):
        loss_fn, store, rows, slacks = gen(rng)
        if all(abs(s) > KINK_SLACK for s in slacks):
            return loss_fn, store, rows
    raise RuntimeError(f"could not draw a kink-free instance for {name}")


def check_kernel(name: str, instances: int, seed: int, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        loss_fn, store, rows = draw_instance(name, rng)
        analytic = loss_fn().grads
        numeric = fd_gradients(loss_fn, store, rows, h=h)
        worst = max(worst, grad_rel_error(analytic, numeric, rows))
    return worst
