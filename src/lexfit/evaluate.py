"""Intrinsic evaluations: similarity correlation, hypernymy detection, graded entailment."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingStore, backoff_lookup, row_cosines, row_norms

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
    direction_known: bool


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


def load_similarity_dataset(path: str, name: str | None = None) -> SimilarityDataset:
    """Read `word1<TAB>word2<TAB>score` lines; `#` lines are comments."""
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DatasetFormatError(f"{path}:{lineno}: expected 3 tab-separated fields")
            try:
                score = float(parts[2])
            except ValueError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: non-numeric score") from exc
            pairs.append((parts[0].strip(), parts[1].strip(), score))
    return SimilarityDataset(name=name or path, pairs=pairs)


def load_relation_dataset(path: str, name: str | None = None) -> RelationDataset:
    """Read `word1<TAB>word2<TAB>label` lines with labels hyper|hypo|other."""
    entries = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DatasetFormatError(f"{path}:{lineno}: expected 3 tab-separated fields")
            label = parts[2].strip()
            if label not in RELATION_LABELS:
                raise DatasetFormatError(
                    f"{path}:{lineno}: label {label!r} not in {RELATION_LABELS}"
                )
            entries.append(
                RelationEntry(parts[0].strip(), parts[1].strip(), label, label != "other")
            )
    return RelationDataset(name=name or path, entries=entries)


def average_ranks(values) -> np.ndarray:
    """1-based ranks with ties assigned the mean of the positions they span."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    n = len(values)
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


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
    u, v = store.current[rows[:, 0]], store.current[rows[:, 1]]
    n1, n2 = row_norms(u), row_norms(v)
    return covered, row_cosines(u, v, n1, n2), n1, n2


def _rank_correlation(store: EmbeddingStore, dataset: SimilarityDataset, use_backoff: bool,
                      score) -> EvalReport:
    """Spearman correlation between ``score(cos, n1, n2)`` of each covered pair
    and its human score."""
    covered, cos, n1, n2 = _pair_features(
        store, [(w1, w2) for w1, w2, _ in dataset.pairs], use_backoff
    )
    n = len(dataset.pairs)
    if len(covered) < 2:
        raise ValueError(f"{dataset.name}: fewer than 2 covered pairs")
    return EvalReport(
        dataset=dataset.name,
        metric="spearman_rho",
        value=spearman(score(cos, n1, n2), [dataset.pairs[i][2] for i in covered]),
        coverage=len(covered) / n,
        n_pairs=n,
        n_excluded=n - len(covered),
    )


def eval_similarity(
    store: EmbeddingStore, dataset: SimilarityDataset, use_backoff: bool = True
) -> EvalReport:
    """Spearman correlation between model cosine and human scores over covered pairs."""
    return _rank_correlation(store, dataset, use_backoff, lambda cos, n1, n2: cos)


def hyper_score(
    store: EmbeddingStore,
    u: str,
    v: str,
    hypernym_norm_in_numerator: bool = True,
    use_backoff: bool = True,
) -> float:
    """Graded hypernymy score for "u is-a v": cosine times a norm ratio.

    With the default orientation the candidate hypernym's norm is the
    numerator, so a shorter hyponym scores higher; pass
    ``hypernym_norm_in_numerator=False`` to flip the ratio.
    """
    covered, cos, n_u, n_v = _pair_features(store, [(u, v)], use_backoff)
    if not covered:
        missing = u if _resolve_row(store, u, use_backoff) is None else v
        raise KeyError(f"word {missing!r} is not covered by the vocabulary")
    ratio = float(n_v[0] / n_u[0])
    if not hypernym_norm_in_numerator:
        ratio = 1.0 / ratio
    return float(cos[0]) * ratio


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
    rows, _, n1, n2 = _pair_features(store, [(e.word1, e.word2) for e in entries], use_backoff)
    covered = len(rows)
    n = len(entries)
    if covered == 0:
        raise ValueError(f"{dataset.name}: no covered pairs")
    return EvalReport(
        dataset=dataset.name,
        metric="direction_accuracy",
        value=int(np.count_nonzero(n1 < n2)) / covered,
        coverage=covered / n,
        n_pairs=n,
        n_excluded=n - covered,
    )


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
    ranked, group = scores[order], groups[order]
    starts = np.searchsorted(group, np.arange(n_groups + 1))
    positives = np.concatenate(([0], np.cumsum(labels[order])))  # before each entry
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
    # that threshold is the midpoint to the group's next run, +inf after its last
    above = np.full(len(ends), np.inf)
    inner = ends + 1 < starts[g + 1]
    above[inner] = (ranked[ends[inner]] + ranked[ends[inner] + 1]) / 2.0
    # each group's candidates side by side: -inf first, then one per run
    first = np.arange(n_groups) + np.searchsorted(g, np.arange(n_groups))
    runs_at = np.arange(len(ends)) + g + 1
    n_candidates = n_groups + len(ends)
    candidates = np.empty(n_candidates)
    candidates[first], candidates[runs_at] = -np.inf, above
    n_correct = np.empty(n_candidates, dtype=np.int64)
    n_correct[first], n_correct[runs_at] = totals, correct
    most = np.maximum.reduceat(n_correct, first)
    best = np.flatnonzero(n_correct == np.repeat(most, np.diff(first, append=n_candidates)))
    return candidates[best[np.searchsorted(best, first)]]


def _held_out_accuracies(hits: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Per iteration, the fraction of the pairs outside its sample predicted right.

    ``hits[i, j]`` says whether iteration i predicts pair j right, and
    ``samples[i]`` holds the distinct pairs of iteration i's sample.
    """
    inside = np.take_along_axis(hits, samples, axis=1)
    n_held_out = hits.shape[1] - samples.shape[1]
    return (np.count_nonzero(hits, axis=1) - np.count_nonzero(inside, axis=1)) / n_held_out


def _finite_mean(values) -> float | None:
    finite = [v for v in values if math.isfinite(v)]
    return float(np.mean(finite)) if finite else None


def _sample_with_all_labels(
    rng: np.random.Generator,
    codes: np.ndarray,
    n_labels: int,
    sample_size: int,
    max_tries: int = 10000,
) -> np.ndarray:
    """Distinct indices into ``codes``, drawn again until every code in
    ``range(n_labels)`` occurs among them."""
    for _ in range(max_tries):
        idx = rng.choice(len(codes), size=sample_size, replace=False)
        if np.bincount(codes[idx], minlength=n_labels).all():
            return idx
    raise RuntimeError("could not draw a sample containing every label")


def _sample_size(name: str, n: int, sample_fraction: float, n_labels: int) -> int:
    """Pairs per fitting sample: a ``sample_fraction`` share of the ``n``
    covered pairs, at least 2 and at least one per label, leaving at least
    one pair held out."""
    size = max(2, n_labels, math.ceil(sample_fraction * n))
    if n - size < 1:
        raise ValueError(
            f"{name}: a fitting sample of {size} of the {n} covered pairs holds out none"
        )
    return size


def _draw_samples(seed: int, labels: list, sample_size: int, iterations: int) -> np.ndarray:
    """One sample per iteration (a row each) that holds every label of ``labels``,
    drawn in order from one seeded stream."""
    rng = np.random.default_rng(seed)
    present, codes = np.unique(labels, return_inverse=True)
    samples = [
        _sample_with_all_labels(rng, codes, len(present), sample_size)
        for _ in range(iterations)
    ]
    return np.array(samples, dtype=np.intp).reshape(iterations, sample_size)


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
    covered, cos, n1, n2 = _pair_features(
        store, [(e.word1, e.word2) for e in dataset.entries], use_backoff
    )
    labels = [dataset.entries[i].label == "hyper" for i in covered]
    n_total = len(dataset.entries)
    n = len(labels)
    if n < 2:
        raise ValueError(f"{dataset.name}: fewer than 2 covered pairs")
    if len(set(labels)) < 2:
        raise ValueError(f"{dataset.name}: needs both classes (hyper and non-hyper)")
    scores_arr = cos * (n2 / n1)
    labels_arr = np.asarray(labels)
    sample_size = _sample_size(dataset.name, n, sample_fraction, 2)
    samples = _draw_samples(seed, labels, sample_size, iterations)
    groups = np.repeat(np.arange(iterations), sample_size)
    thresholds = _fit_thresholds(
        scores_arr[samples].ravel(), labels_arr[samples].ravel(), groups, iterations
    )
    accuracies = _held_out_accuracies(
        (scores_arr > thresholds[:, None]) == labels_arr, samples
    )
    return EvalReport(
        dataset=dataset.name,
        metric="mean_accuracy",
        value=float(np.mean(accuracies)),
        coverage=n / n_total,
        n_pairs=n_total,
        n_excluded=n_total - n,
        diagnostics={
            "thresholds": thresholds.tolist(),
            "iteration_accuracies": accuracies.tolist(),
            "mean_threshold": _finite_mean(thresholds),
            "iterations": iterations,
            "sample_size": sample_size,
        },
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
    covered, cos, n1, n2 = _pair_features(
        store, [(e.word1, e.word2) for e in dataset.entries], use_backoff
    )
    labels = [dataset.entries[i].label for i in covered]
    n_total = len(dataset.entries)
    n = len(labels)
    if n < 2:
        raise ValueError(f"{dataset.name}: fewer than 2 covered pairs")
    agn_arr = np.maximum(cos * n2 / n1, cos * n1 / n2)
    dir_arr = (n1 - n2) / (n1 + n2)
    codes = np.asarray([RELATION_LABELS.index(lab) for lab in labels])
    hyper_code, hypo_code, other_code = range(len(RELATION_LABELS))
    taxo_arr = codes != other_code
    hypo_arr = codes == hypo_code
    sample_size = _sample_size(dataset.name, n, sample_fraction, len(set(labels)))
    samples = _draw_samples(seed, labels, sample_size, iterations)
    flat = samples.ravel()
    groups = np.repeat(np.arange(iterations), sample_size)
    t1s = _fit_thresholds(agn_arr[flat], taxo_arr[flat], groups, iterations)
    # direction rule: hypo iff the first word's norm dominates; fit on each
    # sample's taxonomic pairs, and t2 = 0 for a sample without any
    in_taxo = taxo_arr[flat]
    taxo = flat[in_taxo]
    t2s = _fit_thresholds(dir_arr[taxo], hypo_arr[taxo], groups[in_taxo], iterations)
    t2s[~in_taxo.reshape(samples.shape).any(axis=1)] = 0.0
    hits = np.where(
        agn_arr > t1s[:, None],
        np.where(dir_arr > t2s[:, None], hypo_arr, codes == hyper_code),
        ~taxo_arr,
    )
    accuracies = _held_out_accuracies(hits, samples)
    return EvalReport(
        dataset=dataset.name,
        metric="mean_accuracy",
        value=float(np.mean(accuracies)),
        coverage=n / n_total,
        n_pairs=n_total,
        n_excluded=n_total - n,
        diagnostics={
            "stage1_thresholds": t1s.tolist(),
            "stage2_thresholds": t2s.tolist(),
            "iteration_accuracies": accuracies.tolist(),
            "mean_threshold": _finite_mean(t1s),
            "iterations": iterations,
            "sample_size": sample_size,
        },
    )


def hyperlex_eval(
    store: EmbeddingStore, dataset: SimilarityDataset, use_backoff: bool = True
) -> EvalReport:
    """Spearman correlation between graded hypernymy scores and human ratings."""
    return _rank_correlation(store, dataset, use_backoff, lambda cos, n1, n2: cos * (n2 / n1))
