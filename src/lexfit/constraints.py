"""Lexical relation pair ingestion, and the integer-array pair format a run reads."""

from __future__ import annotations

import itertools
import logging
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingStore

log = logging.getLogger(__name__)

# the ConstraintSet attribute that holds each pair-file relation
PAIR_SETS = {"syn": "synonyms", "ant": "antonyms", "hyper": "direct_hypernyms"}
RELATIONS = tuple(PAIR_SETS)


class PairFileError(ValueError):
    """Raised when a relation pair file has a malformed line."""


@dataclass
class PairLoadReport:
    """What a single pair-file ingestion added and dropped. ``dropped_conflict``
    counts both sides of the antonym-wins rule: a synonym file's pairs already
    held as antonyms, and the synonyms an antonym file displaces."""

    relation: str
    added: int = 0
    dropped_oov: int = 0
    dropped_self: int = 0
    dropped_conflict: int = 0


class ConstraintSet:
    """Deduplicated word-index pairs per lexical relation.

    Symmetric relations (synonyms, antonyms) store each pair once with the
    smaller row first. Hypernym pairs are ordered ``(hyponym, hypernym)``.
    A pair claimed as both synonym and antonym is kept as an antonym only:
    repelling a genuinely contrasting pair is safer than attracting it.
    A run reads the set once, into its :func:`lexfit.specializer.run_view`.
    """

    def __init__(self) -> None:
        self.synonyms: set[tuple[int, int]] = set()
        self.antonyms: set[tuple[int, int]] = set()
        self.direct_hypernyms: set[tuple[int, int]] = set()
        self.dropped_oov: int = 0
        self.dropped_self: int = 0
        self.dropped_conflict: int = 0

    def add_pair(self, relation: str, row_a: int, row_b: int) -> bool:
        """Insert one pair; returns whether it was added. The drop counters say why not."""
        if relation not in RELATIONS:
            raise ValueError(f"unknown relation {relation!r}, expected one of {RELATIONS}")
        if row_a == row_b:
            self.dropped_self += 1
            return False
        pairs = getattr(self, PAIR_SETS[relation])
        # hypernym pairs keep their (hyponym, hypernym) order
        pair = (row_a, row_b) if relation == "hyper" or row_a < row_b else (row_b, row_a)
        if relation == "syn" and pair in self.antonyms:
            self.dropped_conflict += 1
            return False
        # antonymy wins over a previously ingested synonym claim
        if relation == "ant" and pair in self.synonyms:
            self.synonyms.remove(pair)
            self.dropped_conflict += 1
        if pair in pairs:
            return False
        pairs.add(pair)
        return True


def load_pairs(
    constraints: ConstraintSet, path: str, relation: str, store: EmbeddingStore
) -> PairLoadReport:
    """Ingest a pair file, restricted to the store's vocabulary.

    One pair per line, two whitespace-separated tokens; ``#``-prefixed lines
    are comments. Constraint tokens are matched exactly (no back-off); pairs
    with either word out of vocabulary are dropped and counted.
    """
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}, expected one of {RELATIONS}")
    report = PairLoadReport(relation=relation)
    drops = ("dropped_oov", "dropped_self", "dropped_conflict")
    before = [getattr(constraints, name) for name in drops]
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise PairFileError(f"{path}:{lineno}: expected 2 tokens, got {len(parts)}")
            row_a = store.index.get(parts[0])
            row_b = store.index.get(parts[1])
            if row_a is None or row_b is None:
                constraints.dropped_oov += 1
                continue
            report.added += constraints.add_pair(relation, row_a, row_b)
    # the set keeps the one ledger; the report is this file's share of it
    for name, count in zip(drops, before):
        setattr(report, name, getattr(constraints, name) - count)
    if report.dropped_oov or report.dropped_self or report.dropped_conflict:
        log.info(
            "%s: kept %d %s pairs (dropped: %d oov, %d self, %d conflict)",
            path, report.added, relation,
            report.dropped_oov, report.dropped_self, report.dropped_conflict,
        )
    return report


# --- pair arrays: (n, 2) intp, ascending and distinct by one key per pair,
# src * width + dst (width is one past the largest row: int64 below 3e9 rows)

def distinct(values) -> np.ndarray:
    """``np.unique(values)``, flattened and ascending, by one sort and one neighbour compare."""
    values = np.sort(np.ravel(values))
    return values[np.concatenate((np.ones_like(values[:1], bool), values[1:] != values[:-1]))]


def pair_keys(pairs: Iterable[tuple[int, int]] | np.ndarray) -> tuple[np.ndarray, int]:
    """Distinct keys of row ``pairs``, a pair set or an (n, 2) array, ascending; and the width."""
    if not isinstance(pairs, np.ndarray):
        pairs = np.fromiter(itertools.chain.from_iterable(pairs), np.intp).reshape(-1, 2)
    width = int(pairs.max()) + 1 if len(pairs) else 1
    keys = pairs[:, 0] * width + pairs[:, 1]
    del pairs  # a converted pair set is freed before the sort
    return distinct(keys), width


def pair_array(pairs: Iterable[tuple[int, int]] | np.ndarray) -> np.ndarray:
    """Row ``pairs`` as ``sorted(set(pairs))`` gives them, an ascending ``(n, 2)`` intp array."""
    return np.stack(np.divmod(*pair_keys(pairs)), axis=1)


def csr(keys: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR of :func:`pair_keys`: row r links to ``indices[indptr[r]:indptr[r + 1]]``, ascending."""
    return np.searchsorted(keys, np.arange(width + 1) * width), keys % width


def linked(table: tuple[np.ndarray, np.ndarray], rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ``(i, dst)`` with ``dst`` linked to ``rows[i]`` in a :func:`csr` table,
    as two arrays, by ``i`` and then in table order, without a loop over ``rows``."""
    indptr, indices = table
    n = len(indptr) - 1
    start = indptr[np.minimum(rows, n)]
    counts = indptr[np.minimum(rows + 1, n)] - start
    # position within each row's run of partners
    offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(np.arange(len(rows)), counts), indices[np.repeat(start, counts) + offsets]


def hypernym_closure(direct: Iterable[tuple[int, int]] | np.ndarray) -> np.ndarray:
    """Transitive closure of ordered hypernym pairs, as a :func:`pair_array`: a
    frontier join over the :func:`csr` table of direct parents, whose rounds each
    extend the last round's new pairs by one direct link, so cycles end.
    Self-pairs are never emitted; every other direct pair is."""
    keys, width = pair_keys(direct)
    closure = frontier = keys[keys // width != keys % width]  # no self-pairs
    parents = csr(closure, width)
    while len(frontier):
        owner, dst = linked(parents, frontier % width)
        src = frontier[owner] // width
        keys = distinct((src * width + dst)[src != dst])
        at = np.searchsorted(closure, keys)
        new = closure[np.minimum(at, len(closure) - 1)] != keys
        frontier = keys[new]
        closure = np.insert(closure, at[new], frontier)
    return np.stack(np.divmod(closure, width), axis=1)


def quad_join(syn: np.ndarray, direct: np.ndarray) -> np.ndarray:
    """(anchor, synonym, hypernym) seeds, an ``(n, 3)`` intp array: each ``syn`` pair, in order,
    joined with each ``direct`` hypernym, ascending, of its first word and then of its second
    (the hypernym-owning word becomes the anchor)."""
    # words 2k and 2k + 1 of the raveled pairs are pair k's; linked keeps that order
    owner, hyper = linked(csr(*pair_keys(direct)), syn.ravel())
    return np.stack((syn.ravel()[owner], syn[:, ::-1].ravel()[owner], hyper), axis=1)


def constraint_stats(constraints: ConstraintSet) -> dict[str, int]:
    """Exact cardinalities per relation plus cumulative drop counts;
    ``indirect_hypernyms`` counts the transitive closure of the direct pairs."""
    return {
        "synonyms": len(constraints.synonyms),
        "antonyms": len(constraints.antonyms),
        "direct_hypernyms": len(constraints.direct_hypernyms),
        "indirect_hypernyms": len(hypernym_closure(constraints.direct_hypernyms)),
        "dropped_oov": constraints.dropped_oov,
        "dropped_self": constraints.dropped_self,
        "dropped_conflict": constraints.dropped_conflict,
    }
