"""Reference pair ingestion: the per-line, set-of-tuples ``add_pair`` and
``load_pairs`` that ``ConstraintSet.add`` replaced, kept as its oracle."""

from __future__ import annotations

from lexfit import PairFileError, PairLoadReport
from lexfit.constraints import RELATIONS

SETS = {"syn": "synonyms", "ant": "antonyms", "hyper": "direct_hypernyms"}


class ReferenceSet:
    """Deduplicated pairs per relation, one Python set each."""

    def __init__(self) -> None:
        self.synonyms: set[tuple[int, int]] = set()
        self.antonyms: set[tuple[int, int]] = set()
        self.direct_hypernyms: set[tuple[int, int]] = set()
        self.dropped_oov = 0
        self.dropped_self = 0
        self.dropped_conflict = 0

    def add_pair(self, relation: str, row_a: int, row_b: int) -> bool:
        """Insert one pair; returns whether it was added."""
        if row_a == row_b:
            self.dropped_self += 1
            return False
        pairs = getattr(self, SETS[relation])
        pair = (row_a, row_b) if relation == "hyper" or row_a < row_b else (row_b, row_a)
        if relation == "syn" and pair in self.antonyms:
            self.dropped_conflict += 1
            return False
        if relation == "ant" and pair in self.synonyms:
            self.synonyms.remove(pair)
            self.dropped_conflict += 1
        if pair in pairs:
            return False
        pairs.add(pair)
        return True

    def sorted_pairs(self) -> dict[str, list[tuple[int, int]]]:
        return {rel: sorted(getattr(self, name)) for rel, name in SETS.items()}


def reference_load(ref: ReferenceSet, path: str, relation: str, store) -> PairLoadReport:
    """Ingest a pair file one line at a time through :meth:`ReferenceSet.add_pair`."""
    assert relation in RELATIONS
    report = PairLoadReport(relation=relation)
    drops = ("dropped_oov", "dropped_self", "dropped_conflict")
    before = [getattr(ref, name) for name in drops]
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
                ref.dropped_oov += 1
                continue
            report.added += ref.add_pair(relation, row_a, row_b)
    for name, count in zip(drops, before):
        setattr(report, name, getattr(ref, name) - count)
    return report
