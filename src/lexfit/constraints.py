"""Lexical relation pair ingestion, and the integer-array pair format a run reads."""

from __future__ import annotations

import io
import logging
from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingStore, _Sha256Reader

log = logging.getLogger(__name__)

# the name that messages and constraint_stats give each relation's pairs
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
    sha256: str | None = field(default=None, compare=False)  # of the bytes the load parsed


class ConstraintSet:
    """Deduplicated word-index pairs per lexical relation.

    ``pairs`` maps each relation to its pairs as a :func:`pair_array`, the
    ascending, distinct, read-only arrays a run reads. Symmetric relations
    (synonyms, antonyms) store each pair once with the smaller row first.
    Hypernym pairs are ordered ``(hyponym, hypernym)``. A pair claimed as both
    synonym and antonym is kept as an antonym only: repelling a genuinely
    contrasting pair is safer than attracting it.
    """

    def __init__(self) -> None:
        self.pairs = {rel: pair_array(np.empty((0, 2), np.intp)) for rel in RELATIONS}
        self.dropped_oov = self.dropped_self = self.dropped_conflict = 0

    def add(self, relation: str, rows) -> int:
        """Insert ``(n, 2)`` row pairs as the lines of one pair file, in order; returns
        how many distinct pairs are new. The counters say why the others are not: a
        self pair and a synonym held as an antonym count per line, and each held
        synonym an antonym displaces counts once."""
        if relation not in RELATIONS:
            raise ValueError(f"unknown relation {relation!r}, expected one of {RELATIONS}")
        lines = np.asarray(rows, dtype=np.intp)
        if lines.size and (lines.ndim != 2 or lines.shape[1] != 2 or lines.min() < 0):
            raise ValueError(f"rows must be (n, 2) non-negative row pairs, got shape {lines.shape}")
        lines = lines.reshape(-1, 2)
        rows = lines[lines[:, 0] != lines[:, 1]]  # a copy: each temporary below is freed in turn
        self.dropped_self += len(lines) - len(rows)
        del lines
        if relation != "hyper":  # hypernym pairs keep their (hyponym, hypernym) order
            rows.sort(axis=1)
        if relation == "syn":
            held = _member(rows, self.pairs["ant"])
            self.dropped_conflict += int(held.sum())
            rows = rows[~held]
        if relation == "ant":  # antonymy wins over a previously ingested synonym claim
            displaced = _member(self.pairs["syn"], rows)
            self.dropped_conflict += int(displaced.sum())
            self.pairs["syn"] = pair_array(self.pairs["syn"][~displaced])
        before = len(self.pairs[relation])
        rows = np.concatenate((self.pairs[relation], rows))
        self.pairs[relation] = pair_array(rows)
        return len(self.pairs[relation]) - before


def load_pairs(
    constraints: ConstraintSet, path: str, relation: str, store: EmbeddingStore
) -> PairLoadReport:
    """Ingest a pair file, restricted to the store's vocabulary.

    One pair per line, two whitespace-separated tokens; ``#``-prefixed lines
    are comments. Constraint tokens are matched exactly (no back-off); pairs
    with either word out of vocabulary are dropped and counted. One
    :meth:`ConstraintSet.add` after the last line: a file that fails adds nothing.
    """
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}, expected one of {RELATIONS}")
    rows, dropped_oov = [], 0  # rows: the in-vocabulary lines' row pairs, flattened
    reader = _Sha256Reader(path)
    with io.TextIOWrapper(io.BufferedReader(reader), encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise PairFileError(f"{path}:{lineno}: expected 2 tokens, got {len(parts)}")
            row_a, row_b = map(store.index.get, parts)
            if row_a is None or row_b is None:
                dropped_oov += 1
                continue
            rows += row_a, row_b
    # the set keeps the one ledger; the report is this file's share of it
    before = constraints.dropped_self, constraints.dropped_conflict
    rows = np.array(rows, np.intp).reshape(-1, 2)  # the list is freed before the add
    added = constraints.add(relation, rows)
    constraints.dropped_oov += dropped_oov
    report = PairLoadReport(relation, added, dropped_oov, constraints.dropped_self - before[0],
                            constraints.dropped_conflict - before[1], reader.digest.hexdigest())
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


def pair_keys(pairs: np.ndarray) -> tuple[np.ndarray, int]:
    """Distinct keys of an ``(n, 2)`` row-pair array, ascending; and the width."""
    width = int(pairs.max()) + 1 if len(pairs) else 1
    return distinct(pairs[:, 0] * width + pairs[:, 1]), width


def pair_array(pairs: np.ndarray) -> np.ndarray:
    """The distinct pairs of an ``(n, 2)`` row-pair array: ascending, ``(n, 2)`` intp, read-only."""
    keys, width = pair_keys(pairs)
    array = np.empty((len(keys), 2), np.intp)
    np.divmod(keys, width, out=(array[:, 0], array[:, 1]))
    array.flags.writeable = False
    return array


def _member(pairs: np.ndarray, held: np.ndarray) -> np.ndarray:
    """Whether each row pair of ``pairs`` is one of ``held``'s, by one key per pair: a
    binary search of the sorted held keys (``np.isin`` would import ``numpy.ma``)."""
    width = int(max(pairs.max(initial=0), held.max(initial=0))) + 1
    keys = pairs[:, 0] * width + pairs[:, 1]
    if not len(held):
        return np.zeros(len(keys), bool)
    table = np.sort(held[:, 0] * width + held[:, 1])
    return table[np.minimum(np.searchsorted(table, keys), len(table) - 1)] == keys


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


def hypernym_closure(direct: np.ndarray) -> np.ndarray:
    """Transitive closure of an ``(n, 2)`` array of ordered hypernym pairs, as a
    :func:`pair_array`: a frontier join over the :func:`csr` table of direct parents,
    whose rounds each extend the last round's new pairs by one direct link, so cycles end.
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
        **{name: len(constraints.pairs[rel]) for rel, name in PAIR_SETS.items()},
        "indirect_hypernyms": len(hypernym_closure(constraints.pairs["hyper"])),
        "dropped_oov": constraints.dropped_oov,
        "dropped_self": constraints.dropped_self,
        "dropped_conflict": constraints.dropped_conflict,
    }
