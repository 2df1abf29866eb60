"""Lexical relation pair ingestion, canonicalization, and hypernym closure."""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass

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
    Training only reads the set (:func:`lexfit.specializer.run_view`).
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


def hypernym_closure(direct: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """Transitive closure of ordered hypernym pairs.

    Cycles terminate via a visited set; self-pairs are never emitted. The
    result always contains the direct pairs.
    """
    successors: dict[int, set[int]] = defaultdict(set)
    for lo, hi in direct:
        successors[lo].add(hi)
    closure: set[tuple[int, int]] = set()
    for src in successors:
        reached: set[int] = set()
        frontier = {src}
        while frontier:
            nxt: set[int] = set()
            for node in frontier:
                nxt |= successors.get(node, set())
            nxt -= reached
            reached |= nxt
            frontier = nxt
        closure.update((src, dst) for dst in reached if dst != src)
    return closure


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
