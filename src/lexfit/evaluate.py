"""Intrinsic evaluations: similarity correlation, hypernymy detection, graded entailment."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingStore, backoff_lookup

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
    if use_backoff:
        hit = backoff_lookup(store, word)
        return hit.row
    return store.index.get(word)


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
    n1 = np.sqrt(np.einsum("ij,ij->i", u, u))
    n2 = np.sqrt(np.einsum("ij,ij->i", v, v))
    cos = np.clip(np.einsum("ij,ij->i", u, v) / (n1 * n2), -1.0, 1.0)
    return covered, cos, n1, n2


def eval_similarity(
    store: EmbeddingStore, dataset: SimilarityDataset, use_backoff: bool = True
) -> EvalReport:
    """Spearman correlation between model cosine and human scores over covered pairs."""
    covered, cos, _, _ = _pair_features(
        store, [(w1, w2) for w1, w2, _ in dataset.pairs], use_backoff
    )
    n = len(dataset.pairs)
    if len(covered) < 2:
        raise ValueError(f"{dataset.name}: fewer than 2 covered pairs")
    rho = spearman(cos, [dataset.pairs[i][2] for i in covered])
    return EvalReport(
        dataset=dataset.name,
        metric="spearman_rho",
        value=rho,
        coverage=len(covered) / n,
        n_pairs=n,
        n_excluded=n - len(covered),
    )


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


def _fit_threshold(scores: np.ndarray, labels: np.ndarray) -> float:
    """Threshold maximizing accuracy of `score > t` as the positive rule.

    Candidates are midpoints between adjacent sorted scores plus +-inf
    sentinels; accuracy ties break toward the smaller threshold.
    """
    order = np.argsort(scores, kind="stable")
    ranked = scores[order]
    positives = np.cumsum(labels[order])
    # last position of each distinct score
    ends = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    uniq = ranked[ends]
    # a threshold just above uniq[i] gets right every positive above it and
    # every negative at or below it
    correct = positives[-1] - positives[ends] + (ends + 1 - positives[ends])
    best = int(np.argmax(np.concatenate(([positives[-1]], correct))))
    candidates = np.concatenate(([-np.inf], (uniq[:-1] + uniq[1:]) / 2.0, [np.inf]))
    return float(candidates[best])


def _finite_mean(values) -> float | None:
    finite = [v for v in values if math.isfinite(v)]
    return float(np.mean(finite)) if finite else None


def _sample_with_all_labels(
    rng: np.random.Generator, labels: list, n: int, sample_size: int, max_tries: int = 10000
) -> np.ndarray:
    present = set(labels)
    for _ in range(max_tries):
        idx = rng.choice(n, size=sample_size, replace=False)
        if {labels[i] for i in idx} == present:
            return idx
    raise RuntimeError("could not draw a sample containing every label")


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
    sample_size = max(2, math.ceil(sample_fraction * n))
    rng = np.random.default_rng(seed)
    thresholds = []
    accuracies = []
    for _ in range(iterations):
        sample = _sample_with_all_labels(rng, labels, n, sample_size)
        t = _fit_threshold(scores_arr[sample], labels_arr[sample])
        mask = np.ones(n, dtype=bool)
        mask[sample] = False
        acc = float(np.mean((scores_arr[mask] > t) == labels_arr[mask]))
        thresholds.append(t)
        accuracies.append(acc)
    return EvalReport(
        dataset=dataset.name,
        metric="mean_accuracy",
        value=float(np.mean(accuracies)),
        coverage=n / n_total,
        n_pairs=n_total,
        n_excluded=n_total - n,
        diagnostics={
            "thresholds": thresholds,
            "iteration_accuracies": accuracies,
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
    sample_size = max(2, math.ceil(sample_fraction * n))
    sample_size = max(sample_size, len(set(labels)))
    rng = np.random.default_rng(seed)
    t1s, t2s, accuracies = [], [], []
    for _ in range(iterations):
        sample = _sample_with_all_labels(rng, labels, n, sample_size)
        t1 = _fit_threshold(agn_arr[sample], taxo_arr[sample])
        taxo_sample = sample[taxo_arr[sample]]
        # direction rule: hypo iff the first word's norm dominates
        t2 = _fit_threshold(dir_arr[taxo_sample], hypo_arr[taxo_sample]) if len(
            taxo_sample
        ) else 0.0
        mask = np.ones(n, dtype=bool)
        mask[sample] = False
        pred = np.where(
            agn_arr > t1, np.where(dir_arr > t2, hypo_code, hyper_code), other_code
        )
        acc = float(np.mean(pred[mask] == codes[mask]))
        t1s.append(t1)
        t2s.append(t2)
        accuracies.append(acc)
    return EvalReport(
        dataset=dataset.name,
        metric="mean_accuracy",
        value=float(np.mean(accuracies)),
        coverage=n / n_total,
        n_pairs=n_total,
        n_excluded=n_total - n,
        diagnostics={
            "stage1_thresholds": t1s,
            "stage2_thresholds": t2s,
            "iteration_accuracies": accuracies,
            "mean_threshold": _finite_mean(t1s),
            "iterations": iterations,
            "sample_size": sample_size,
        },
    )


def hyperlex_eval(
    store: EmbeddingStore, dataset: SimilarityDataset, use_backoff: bool = True
) -> EvalReport:
    """Spearman correlation between graded hypernymy scores and human ratings."""
    covered, cos, n1, n2 = _pair_features(
        store, [(w1, w2) for w1, w2, _ in dataset.pairs], use_backoff
    )
    n = len(dataset.pairs)
    if len(covered) < 2:
        raise ValueError(f"{dataset.name}: fewer than 2 covered pairs")
    return EvalReport(
        dataset=dataset.name,
        metric="spearman_rho",
        value=spearman(cos * (n2 / n1), [dataset.pairs[i][2] for i in covered]),
        coverage=len(covered) / n,
        n_pairs=n,
        n_excluded=n - len(covered),
    )
