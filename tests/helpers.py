"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np

from lexfit import ConstraintSet, EmbeddingStore, quad_join
from lexfit.constraints import csr, pair_keys
from reference_view import closure_bfs, pair_sets


def random_store(seed: int, n: int, dim: int) -> EmbeddingStore:
    rng = np.random.default_rng(seed)
    vocab = [f"w{i:03d}" for i in range(n)]
    return EmbeddingStore(vocab, rng.standard_normal((n, dim)))


def toy_hierarchy_fixture(seed: int = 0, noise: float = 0.4) -> tuple[EmbeddingStore, ConstraintSet]:
    """60-word, 10-d fixture: 20 synonym, 10 antonym, 15 direct-hypernym pairs.

    Six synonym triangles over words 0..17 plus two extra pairs; each
    triangle's first two words share a hypernym in 40..45, which makes the
    quadruplet join nonempty (26 seeds). Antonyms oppose different triangles.
    Vectors are drawn around per-group base directions with heavy noise, the
    way related words cluster loosely in distributional space; the rest of
    the vocabulary is uniform noise.
    """
    rng = np.random.default_rng(seed)
    dim = 10
    vectors = rng.standard_normal((60, dim))
    groups = [
        (0, 1, 2, 40), (3, 4, 5, 41), (6, 7, 8, 42),
        (9, 10, 11, 43), (12, 13, 14, 44), (15, 16, 17, 45),
        (18, 19, 46), (20, 21, 47), (22, 48),
    ]
    for members in groups:
        base = rng.standard_normal(dim)
        for word in members:
            vectors[word] = base + noise * rng.standard_normal(dim)
    store = EmbeddingStore([f"w{i:03d}" for i in range(60)], vectors)
    cs = ConstraintSet()
    for t in range(6):
        a, b, c = 3 * t, 3 * t + 1, 3 * t + 2
        cs.add("syn", [(a, b), (a, c), (b, c)])
        cs.add("hyper", [(a, 40 + t), (b, 40 + t)])
    cs.add("syn", [(18, 19), (20, 21)])
    cs.add("hyper", [(18, 46), (20, 47), (22, 48)])
    cs.add("ant", [(0, 3), (1, 4), (2, 5), (6, 9), (7, 10), (8, 11),
                   (12, 15), (13, 16), (14, 17), (18, 20)])
    assert len(cs.pairs["syn"]) == 20 and len(cs.pairs["ant"]) == 10
    assert len(cs.pairs["hyper"]) == 15
    return store, cs


def taxonomy_fixture(seed: int = 0) -> tuple[EmbeddingStore, ConstraintSet, list[tuple[int, int]]]:
    """27-node, 3-level taxonomy: 3 roots, 6 mids, 18 leaves (24 direct pairs).

    Synonym pairs sit between sibling leaves; antonym pairs cross roots.
    Returns the direct (hyponym, hypernym) pairs for norm-direction audits.
    """
    store = random_store(seed, 27, 10)
    cs = ConstraintSet()
    direct = []
    for k in range(6):  # mids 3..8 under roots 0..2
        direct.append((3 + k, k // 2))
    for m in range(6):  # leaves 9..26 under mids 3..8
        for leaf in range(3):
            direct.append((9 + 3 * m + leaf, 3 + m))
    cs.add("hyper", direct)
    cs.add("syn", [(9 + 3 * m, 9 + 3 * m + 1) for m in range(6)])
    cs.add("ant", [(9, 15), (10, 16), (11, 17), (15, 21), (16, 22), (17, 23)])
    return store, cs, direct


def mined_pairs(cs: ConstraintSet, relation: str, closed: bool = False) -> set[tuple[int, int]]:
    """Oracle: the pair set whose partners mining excludes for a relation; the
    hypernym pairs are the closure's when ``closed``, and ``quad`` adds synonyms."""
    syn, ant, direct = pair_sets(cs)
    hyper = closure_bfs(direct) if closed else direct
    return {"syn": syn, "ant": ant, "hyper": hyper, "quad": syn | hyper}[relation]


def joined(cs: ConstraintSet) -> np.ndarray:
    """The quadruplet join of the synonym and direct hypernym arrays of ``cs``."""
    return quad_join(cs.pairs["syn"], cs.pairs["hyper"])


def partner_table(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mining table of an ``(n, 2)`` pair array, as ``run_view`` builds one:
    the CSR table of its pairs read both ways."""
    return csr(*pair_keys(np.concatenate((pairs, pairs[:, ::-1]))))


def as_array(pairs) -> np.ndarray:
    """An ``(n, 2)`` intp array of a collection of row pairs, in sorted order."""
    return np.array(sorted(pairs), dtype=np.intp).reshape(-1, 2)


def held(cs: ConstraintSet, relation: str) -> list[tuple[int, int]]:
    """The pairs ``cs`` holds for a relation, as ascending tuples."""
    return [tuple(pair) for pair in cs.pairs[relation].tolist()]


def pair_partners(pairs, row: int) -> set[int]:
    """Oracle: the rows paired with ``row`` in a set of pairs, in either direction."""
    return {b if a == row else a for a, b in pairs if row in (a, b)}
