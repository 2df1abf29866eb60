"""Intrinsic evaluations: similarity correlation, hypernymy detection, graded entailment."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .embeddings import (
    EmbeddingStore,
    backoff_lookup,
    check_decoded,
    row_cosines,
    shared_scale,
    text_reader,
    unit_rows,
)

RELATION_LABELS = ("hyper", "hypo", "other")


class DatasetFormatError(ValueError):
    """Raised when an evaluation dataset file has a malformed line."""


@dataclass
class SimilarityDataset:
    """Word pairs with graded human scores (similarity or entailment strength)."""

    name: str
    pairs: list[tuple[str, str, float]]

    def __post_init__(self) -> None:
        if len(self.pairs) < 2:
            raise ValueError("similarity dataset needs at least 2 pairs")
        if not all(math.isfinite(score) for _, _, score in self.pairs):
            raise ValueError("human scores must be finite")


@dataclass
class RelationEntry:
    word1: str
    word2: str
    label: str


@dataclass
class RelationDataset:
    """Ordered word pairs labeled hyper / hypo / other."""

    name: str
    entries: list[RelationEntry]


@dataclass
class EvalReport:
    """One metric value plus coverage accounting and optional diagnostics."""

    dataset: str
    metric: str
    value: float
    coverage: float
    n_pairs: int
    n_excluded: int
    diagnostics: dict | None = None

    def to_tsv(self) -> str:
        header = "dataset\tmetric\tvalue\tcoverage\tn_pairs\tn_excluded"
        row = (
            f"{self.dataset}\t{self.metric}\t{self.value:.6g}\t"
            f"{self.coverage:.6g}\t{self.n_pairs}\t{self.n_excluded}"
        )
        return header + "\n" + row + "\n"

    def format_table(self) -> str:
        lines = [
            f"dataset     : {self.dataset}",
            f"metric      : {self.metric}",
            f"value       : {self.value:.4f}",
            f"coverage    : {self.coverage:.4f} ({self.n_pairs - self.n_excluded}/{self.n_pairs} pairs)",
        ]
        if self.diagnostics and self.diagnostics.get("mean_threshold") is not None:
            lines.append(f"threshold   : {self.diagnostics['mean_threshold']:.4f} (mean)")
        return "\n".join(lines)


def _records(path: str):
    """``(location, word1, word2, third field)``, each stripped, of each
    ``word1<TAB>word2<TAB>field`` line of a dataset file; blank lines and
    ``#`` lines are skipped, and an empty word field is an error."""
    with text_reader(io.FileIO(path)) as fh:
        for lineno, raw in enumerate(fh, start=1):
            check_decoded(raw, path, lineno, DatasetFormatError)
            line = raw.rstrip("\r\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = [part.strip() for part in line.split("\t")]
            where = f"{path}:{lineno}"
            if len(parts) != 3:
                raise DatasetFormatError(f"{where}: expected 3 tab-separated fields")
            if not parts[0] or not parts[1]:
                raise DatasetFormatError(f"{where}: empty word field")
            yield where, *parts


def load_similarity_dataset(path: str, name: str | None = None) -> SimilarityDataset:
    """Read `word1<TAB>word2<TAB>score` lines; `#` lines are comments."""
    pairs = []
    for where, w1, w2, field in _records(path):
        try:
            pairs.append((w1, w2, float(field)))
        except ValueError as exc:
            raise DatasetFormatError(f"{where}: non-numeric score") from exc
    return SimilarityDataset(name=name or path, pairs=pairs)


def load_relation_dataset(path: str, name: str | None = None) -> RelationDataset:
    """Read `word1<TAB>word2<TAB>label` lines with labels hyper|hypo|other."""
    entries = []
    for where, w1, w2, label in _records(path):
        if label not in RELATION_LABELS:
            raise DatasetFormatError(f"{where}: label {label!r} not in {RELATION_LABELS}")
        entries.append(RelationEntry(w1, w2, label))
    return RelationDataset(name=name or path, entries=entries)


def average_ranks(values) -> np.ndarray:
    """1-based ranks with ties assigned the mean of the positions they span."""
    _, group, counts = np.unique(
        np.asarray(values, dtype=np.float64),
        return_inverse=True, return_counts=True, equal_nan=False,
    )
    ends = np.cumsum(counts)
    # a group of tied values spans the 1-based positions ends - counts + 1 .. ends
    return ((2 * ends - counts + 1) / 2.0)[group]


def spearman(xs, ys) -> float:
    """Spearman rank correlation with average ranks for ties."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("inputs must be 1-d and the same length")
    if len(xs) < 2:
        raise ValueError("need at least 2 observations")
    rx = average_ranks(xs)
    ry = average_ranks(ys)
    rxc = rx - rx.mean()
    ryc = ry - ry.mean()
    denom = math.sqrt(float(rxc @ rxc) * float(ryc @ ryc))
    if denom == 0.0:
        raise ValueError("rank correlation is undefined for constant input")
    return float(rxc @ ryc) / denom


def _resolve_row(store: EmbeddingStore, word: str, use_backoff: bool) -> int | None:
    return backoff_lookup(store, word).row if use_backoff else store.index.get(word)


def _pair_features(store: EmbeddingStore, word_pairs, use_backoff: bool):
    """The covered word pairs, with the cosine and both norms of each.

    Returns the indices into ``word_pairs`` of the pairs whose words both
    resolve, then three arrays aligned with them: the cosine (clipped into
    [-1, 1]), the first word's norm and the second word's norm.
    """
    covered, rows = [], []
    for i, (w1, w2) in enumerate(word_pairs):
        r1 = _resolve_row(store, w1, use_backoff)
        r2 = _resolve_row(store, w2, use_backoff)
        if r1 is not None and r2 is not None:
            covered.append(i)
            rows.append((r1, r2))
    rows = np.array(rows, dtype=np.intp).reshape(-1, 2)
    (u, n1), (v, n2) = (unit_rows(store.current[rows[:, i]]) for i in (0, 1))
    return covered, row_cosines(u, v), n1, n2


def _report(name: str, metric: str, value: float, n_covered: int, n_pairs: int,
            diagnostics: dict | None = None) -> EvalReport:
    """An :class:`EvalReport` of ``value`` over ``n_covered`` of the ``n_pairs`` pairs."""
    return EvalReport(name, metric, value, n_covered / n_pairs, n_pairs, n_pairs - n_covered,
                      diagnostics)


def _graded_score(cos: np.ndarray, n_hyper: np.ndarray, n_hypo: np.ndarray) -> np.ndarray:
    """``cos * (n_hyper / n_hypo)`` per pair: the cosine times the candidate
    hypernym's norm over the hyponym's.

    A ratio past the float64 range saturates the score to +-inf by the sign
    of the cosine, and a zero cosine scores 0, so no score is NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        score = cos * (n_hyper / n_hypo)
    # only 0 * inf is NaN here
    return np.where(np.isnan(score), 0.0, score)


def _rank_correlation(store: EmbeddingStore, dataset: SimilarityDataset, use_backoff: bool,
                      score) -> EvalReport:
    """Spearman correlation between ``score(cos, n1, n2)`` of each covered pair
    and its human score."""
    covered, cos, n1, n2 = _pair_features(
        store, [(w1, w2) for w1, w2, _ in dataset.pairs], use_backoff
    )
    if len(covered) < 2:
        raise ValueError(f"{dataset.name}: fewer than 2 covered pairs")
    rho = spearman(score(cos, n1, n2), [dataset.pairs[i][2] for i in covered])
    return _report(dataset.name, "spearman_rho", rho, len(covered), len(dataset.pairs))


def eval_similarity(
    store: EmbeddingStore, dataset: SimilarityDataset, use_backoff: bool = True
) -> EvalReport:
    """Spearman correlation between model cosine and human scores over covered pairs."""
    return _rank_correlation(store, dataset, use_backoff, lambda cos, n1, n2: cos)


def hyper_score(
    store: EmbeddingStore,
    u: str,
    v: str,
    use_backoff: bool = True,
) -> float:
    """Graded hypernymy score for "u is-a v": cosine times a norm ratio.

    The candidate hypernym's norm is the numerator, so a shorter hyponym
    scores higher; ``hyper_score(store, v, u)`` is the flipped ratio.
    """
    covered, cos, n_u, n_v = _pair_features(store, [(u, v)], use_backoff)
    if not covered:
        missing = u if _resolve_row(store, u, use_backoff) is None else v
        raise KeyError(f"word {missing!r} is not covered by the vocabulary")
    return float(_graded_score(cos, n_v, n_u)[0])


def bless_directionality(
    store: EmbeddingStore, dataset: RelationDataset, use_backoff: bool = True
) -> EvalReport:
    """Fraction of known hyponym-hypernym pairs with strictly smaller hyponym norm.

    Norm ties count as incorrect, so untrained vectors with coinciding norms
    do not inflate the score. No threshold is involved.
    """
    entries = [e for e in dataset.entries if e.label == "hyper"]
    if not entries:
        raise ValueError(f"{dataset.name}: no hyper-labeled pairs")
    covered, _, n1, n2 = _pair_features(store, [(e.word1, e.word2) for e in entries], use_backoff)
    if not covered:
        raise ValueError(f"{dataset.name}: no covered pairs")
    value = int(np.count_nonzero(n1 < n2)) / len(covered)
    return _report(dataset.name, "direction_accuracy", value, len(covered), len(entries))


def _fit_thresholds(
    scores: np.ndarray, labels: np.ndarray, groups: np.ndarray, n_groups: int
) -> np.ndarray:
    """Per group, the threshold maximizing accuracy of `score > t` as the positive rule.

    Entry i of ``scores`` and ``labels`` belongs to group ``groups[i]`` in
    ``range(n_groups)``. A group's candidates are -inf, the midpoints
    between its adjacent distinct scores, and +inf; accuracy ties break
    toward the smaller threshold, so an empty group gets -inf.
    """
    order = np.lexsort((scores, groups))
    ranked, group, positive = scores[order], groups[order], labels[order]
    starts = np.searchsorted(group, np.arange(n_groups + 1))
    positives = np.concatenate(([0], np.cumsum(positive)))  # before each entry
    totals = positives[starts[1:]] - positives[starts[:-1]]
    # last entry of each run of equal scores within a group
    last = np.ones(len(ranked), dtype=bool)
    last[:-1] = (ranked[1:] != ranked[:-1]) | (group[1:] != group[:-1])
    ends = np.flatnonzero(last)
    g = group[ends]
    pos = positives[ends + 1] - positives[starts[g]]
    # a threshold just above a run gets right every positive of its group
    # above it and every negative at or below it
    correct = totals[g] - pos + (ends + 1 - starts[g] - pos)
    # that threshold is the midpoint to the group's next run (the run's own
    # score where no float64 midpoint lies below the next), +inf after its last
    above = np.full(len(ends), np.inf)
    inner = ends + 1 < starts[g + 1]
    low, high = ranked[ends[inner]], ranked[ends[inner] + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        middle = (low + high) / 2.0
    above[inner] = np.where(middle < high, middle, low)
    # each group's candidates side by side: -inf first, then one per run
    first = np.arange(n_groups) + np.searchsorted(g, np.arange(n_groups))
    runs_at = np.arange(len(ends)) + g + 1
    n_candidates = n_groups + len(ends)
    candidates = np.empty(n_candidates)
    candidates[first], candidates[runs_at] = -np.inf, above
    # `score > -inf` gets a -inf score's positive wrong and its negative right
    floor = ranked == -np.inf
    at_floor = np.bincount(group[floor], weights=1.0 - 2.0 * positive[floor], minlength=n_groups)
    n_correct = np.empty(n_candidates, dtype=np.int64)
    n_correct[first], n_correct[runs_at] = totals + at_floor, correct
    most = np.maximum.reduceat(n_correct, first)
    best = np.flatnonzero(n_correct == np.repeat(most, np.diff(first, append=n_candidates)))
    return candidates[best[np.searchsorted(best, first)]]


def _finite_mean(values) -> float | None:
    finite = [v for v in values if math.isfinite(v)]
    return float(np.mean(finite)) if finite else None


def _resampled_accuracy(
    store: EmbeddingStore,
    dataset: RelationDataset,
    label,
    rule,
    seed: int,
    use_backoff: bool,
    iterations: int,
    sample_fraction: float,
    min_classes: int = 1,
) -> EvalReport:
    """Mean accuracy, over ``iterations``, of a threshold rule fit on a small
    sample of the covered pairs and measured on the pairs outside it.

    Each covered entry gets the class ``label(entry)``; fewer than
    ``min_classes`` classes is an error. A sample holds a ``sample_fraction``
    share of the pairs, at least 2, at least one of each class and not all
    of them; the samples are drawn in order from one stream seeded by ``seed``.
    ``rule(classes, cos, n1, n2, samples, groups)`` fits every sample at once
    (``groups[i]`` is the iteration of ``samples.ravel()[i]``) and returns
    ``(hits, thresholds)``: ``hits[i, j]`` says whether iteration i predicts
    pair j right, and ``thresholds`` maps diagnostics keys to the fitted
    thresholds, stage 1 first.
    """
    covered, cos, n1, n2 = _pair_features(
        store, [(e.word1, e.word2) for e in dataset.entries], use_backoff
    )
    classes = [label(dataset.entries[i]) for i in covered]
    n = len(classes)
    present, codes = np.unique(classes, return_inverse=True)
    if n < 2:
        raise ValueError(f"{dataset.name}: fewer than 2 covered pairs")
    if len(present) < min_classes:
        raise ValueError(f"{dataset.name}: needs both classes (hyper and non-hyper)")
    size = max(2, len(present), math.ceil(sample_fraction * n))
    if n - size < 1:
        raise ValueError(
            f"{dataset.name}: a fitting sample of {size} of the {n} covered pairs holds out none"
        )
    rng = np.random.default_rng(seed)
    samples = np.empty((iterations, size), dtype=np.intp)
    for sample in samples:
        for _ in range(10000):  # drawn again until every class occurs
            sample[:] = rng.choice(n, size=size, replace=False)
            if np.bincount(codes[sample], minlength=len(present)).all():
                break
        else:
            raise RuntimeError("could not draw a sample containing every label")
    groups = np.repeat(np.arange(iterations), size)
    hits, thresholds = rule(np.asarray(classes), cos, n1, n2, samples, groups)
    # per iteration, the pairs predicted right less those inside its sample
    inside = np.take_along_axis(hits, samples, axis=1)
    accuracies = (np.count_nonzero(hits, axis=1) - np.count_nonzero(inside, axis=1)) / (n - size)
    return _report(
        dataset.name, "mean_accuracy", float(np.mean(accuracies)), n, len(dataset.entries),
        {
            **{key: values.tolist() for key, values in thresholds.items()},
            "iteration_accuracies": accuracies.tolist(),
            "mean_threshold": _finite_mean(next(iter(thresholds.values()))),
            "iterations": iterations,
            "sample_size": size,
        },
    )


def wbless_classify(
    store: EmbeddingStore,
    dataset: RelationDataset,
    seed: int = 7,
    use_backoff: bool = True,
    iterations: int = 1000,
    sample_fraction: float = 0.02,
) -> EvalReport:
    """Binary hypernymy detection with a repeatedly re-fit score threshold.

    Each iteration fits the threshold on a small random sample (at least one
    entry of each class) and measures accuracy on the rest; the reported
    value is the mean accuracy across iterations.
    """
    def rule(is_hyper, cos, n1, n2, samples, groups):
        scores = _graded_score(cos, n2, n1)
        thresholds = _fit_thresholds(
            scores[samples].ravel(), is_hyper[samples].ravel(), groups, iterations
        )
        return (scores > thresholds[:, None]) == is_hyper, {"thresholds": thresholds}

    return _resampled_accuracy(
        store, dataset, lambda e: e.label == "hyper", rule,
        seed, use_backoff, iterations, sample_fraction, min_classes=2,
    )


def bibless_classify(
    store: EmbeddingStore,
    dataset: RelationDataset,
    seed: int = 7,
    use_backoff: bool = True,
    iterations: int = 1000,
    sample_fraction: float = 0.02,
) -> EvalReport:
    """Three-way detection: taxonomic vs other, then direction by norm asymmetry.

    Stage 1 thresholds a direction-agnostic relatedness score (the larger of
    the two ordered graded scores); stage 2 splits hyper from hypo with the
    signed norm-difference score. Both thresholds are re-fit per iteration on
    the same small sample and evaluated on the rest.
    """
    def rule(labels, cos, n1, n2, samples, groups):
        relatedness = np.maximum(_graded_score(cos, n2, n1), _graded_score(cos, n1, n2))
        s1, s2, _ = shared_scale(n1, n2)
        direction = (s1 - s2) / (s1 + s2)
        taxonomic, hypo = labels != "other", labels == "hypo"
        flat = samples.ravel()
        t1s = _fit_thresholds(relatedness[flat], taxonomic[flat], groups, iterations)
        # direction rule: hypo iff the first word's norm dominates; fit on each
        # sample's taxonomic pairs, and t2 = 0 for a sample without any
        in_taxo = taxonomic[flat]
        taxo = flat[in_taxo]
        t2s = _fit_thresholds(direction[taxo], hypo[taxo], groups[in_taxo], iterations)
        t2s[~in_taxo.reshape(samples.shape).any(axis=1)] = 0.0
        hits = np.where(
            relatedness > t1s[:, None],
            np.where(direction > t2s[:, None], hypo, labels == "hyper"),
            ~taxonomic,
        )
        return hits, {"stage1_thresholds": t1s, "stage2_thresholds": t2s}

    return _resampled_accuracy(
        store, dataset, lambda e: e.label, rule, seed, use_backoff, iterations, sample_fraction
    )


def hyperlex_eval(
    store: EmbeddingStore, dataset: SimilarityDataset, use_backoff: bool = True
) -> EvalReport:
    """Spearman correlation between graded hypernymy scores and human ratings."""
    return _rank_correlation(
        store, dataset, use_backoff, lambda cos, n1, n2: _graded_score(cos, n2, n1)
    )
