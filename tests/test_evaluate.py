import math

import numpy as np
import pytest
from scipy import stats

from lexfit import (
    EmbeddingStore,
    RelationDataset,
    RelationEntry,
    SimilarityDataset,
    average_ranks,
    bibless_classify,
    bless_directionality,
    eval_similarity,
    hyper_score,
    hyperlex_eval,
    load_relation_dataset,
    load_similarity_dataset,
    spearman,
    wbless_classify,
)
from lexfit.evaluate import (
    RELATION_LABELS,
    DatasetFormatError,
    _finite_mean,
    _fit_thresholds,
    _graded_score,
    _pair_features,
)


def norm_store(norms, names=None):
    """Store of collinear vectors along +x: cosine 1 everywhere, norms as given."""
    names = names or [f"t{i}" for i in range(len(norms))]
    return EmbeddingStore(names, [[float(n), 0.0] for n in norms])


class TestSpearman:
    def test_identical_ordering(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0

    def test_reversed(self):
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0

    def test_rank_fixture(self):
        # 1 - 6 * sum(d^2) / (n (n^2 - 1)) with sum(d^2) = 2, n = 4
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == 0.8

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(30), rng.standard_normal(30)
        assert abs(spearman(x, y) - spearman(y, x)) < 1e-15

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal(25), rng.standard_normal(25)
        assert abs(spearman(x, y) - spearman(np.exp(x), y**3)) < 1e-12

    def test_constant_input_errors(self):
        with pytest.raises(ValueError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_tie_handling_matches_scipy(self):
        # independent average-rank oracle over heavily tied lists
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(5, 40))
            x = rng.integers(0, 5, size=n).astype(float)
            y = rng.integers(0, 5, size=n).astype(float)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            expected = stats.spearmanr(x, y).statistic
            assert abs(spearman(x, y) - expected) < 1e-12

    def test_average_ranks(self):
        np.testing.assert_array_equal(
            average_ranks([10.0, 20.0, 20.0, 30.0]), [1.0, 2.5, 2.5, 4.0]
        )

    def test_average_ranks_equal_scipy_on_tie_heavy_inputs(self):
        rng = np.random.default_rng(12)
        pool = np.array([-2.5, -0.0, 0.0, 1e-300, 1.0, 7.0, 1e300])  # -0.0 ties with 0.0
        for _ in range(200):
            n = int(rng.integers(1, 60))
            # a few distinct values each, so most entries are tied
            values = rng.choice(pool[: int(rng.integers(1, len(pool) + 1))], size=n)
            np.testing.assert_array_equal(
                average_ranks(values), stats.rankdata(values, method="average")
            )


class TestLoaders:
    def test_similarity_tsv(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("# w1\tw2\tscore\na\tb\t3.5\nc\td\t1.0\n")
        ds = load_similarity_dataset(str(path))
        assert ds.pairs == [("a", "b", 3.5), ("c", "d", 1.0)]

    def test_relation_tsv(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("cat\tanimal\thyper\nanimal\tcat\thypo\ncat\tdog\tother\n")
        ds = load_relation_dataset(str(path))
        assert [e.label for e in ds.entries] == ["hyper", "hypo", "other"]

    def test_bad_label(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("a\tb\tfriend\n")
        with pytest.raises(DatasetFormatError, match=":1"):
            load_relation_dataset(str(path))

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("a\tb\n")
        with pytest.raises(DatasetFormatError):
            load_similarity_dataset(str(path))

    @pytest.mark.parametrize("loader, field", [
        (load_similarity_dataset, "1.0"), (load_relation_dataset, "hyper"),
    ])
    @pytest.mark.parametrize("words", ["a\t", "\tb", " \tb", "a\t "],
                             ids=["empty-second", "empty-first", "blank-first", "blank-second"])
    def test_empty_word_field(self, tmp_path, loader, field, words):
        path = tmp_path / "d.tsv"
        path.write_text(f"a\tb\t{field}\n{words}\t{field}\n")
        with pytest.raises(DatasetFormatError, match=r"d\.tsv:2: empty word field$"):
            loader(str(path))

    def test_too_small_dataset_rejected(self):
        with pytest.raises(ValueError):
            SimilarityDataset("x", [("a", "b", 1.0)])

    def test_non_numeric_score_is_located(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("a\tb\t1.0\nc\td\thigh\n")
        with pytest.raises(DatasetFormatError, match=r"d\.tsv:2: non-numeric score$"):
            load_similarity_dataset(str(path))

    @pytest.mark.parametrize("loader, field", [
        (load_similarity_dataset, b"1.0"), (load_relation_dataset, b"hyper"),
    ])
    @pytest.mark.parametrize("line", [b"caf\xe9\tb", b"# caf\xe9", b"a\tb\xff\xfe"],
                             ids=["word", "comment", "two-bytes"])
    def test_a_byte_that_is_not_utf8_is_located(self, tmp_path, loader, field, line):
        path = tmp_path / "d.tsv"
        # past the first block a text reader decodes ahead of the line it yields
        rows = b"a\tb\t" + field + b"\n"
        path.write_bytes(rows + (line + b"\t" + field if b"#" not in line else line)
                         + b"\n" + rows * 4000)
        byte = "ff" if b"\xff" in line else "e9"
        with pytest.raises(DatasetFormatError,
                           match=rf"d\.tsv:2: byte 0x{byte} is not valid UTF-8$"):
            loader(str(path))

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_score_rejected(self, tmp_path, score):
        path = tmp_path / "d.tsv"
        path.write_text(f"a\tb\t1.0\nc\td\t{score}\n")
        with pytest.raises(ValueError, match="human scores must be finite"):
            load_similarity_dataset(str(path))


class TestEvalSimilarity:
    def test_perfect_ordering(self):
        store = EmbeddingStore(
            ["a", "b", "c", "d"],
            [[1.0, 0.0], [0.9, 0.1], [0.5, 0.5], [0.0, 1.0]],
        )
        ds = SimilarityDataset(
            "toy",
            [("a", "b", 9.0), ("a", "c", 5.0), ("a", "d", 1.0)],
        )
        report = eval_similarity(store, ds, use_backoff=False)
        assert report.value == 1.0
        assert report.coverage == 1.0

    def test_uncovered_pairs_excluded_and_counted(self):
        store = EmbeddingStore(
            ["a", "b", "c"], [[1.0, 0.0], [0.8, 0.6], [0.0, 1.0]]
        )
        ds = SimilarityDataset(
            "toy", [("a", "b", 1.0), ("a", "zzz", 2.0), ("b", "c", 3.0)]
        )
        report = eval_similarity(store, ds, use_backoff=False)
        assert report.n_pairs == 3
        assert report.n_excluded == 1
        assert report.coverage == pytest.approx(2 / 3)
        assert report.n_pairs - report.n_excluded == 2

    def test_backoff_restores_coverage(self):
        store = EmbeddingStore(
            ["run", "walk", "jog"], [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]
        )
        ds = SimilarityDataset(
            "toy", [("runs", "walks", 1.0), ("run", "jog", 2.0)]
        )
        report = eval_similarity(store, ds, use_backoff=True)
        assert report.coverage == 1.0

    def test_everything_uncovered_errors(self):
        store = norm_store([1, 2], ["a", "b"])
        ds = SimilarityDataset("toy", [("x", "y", 1.0), ("p", "q", 2.0)])
        with pytest.raises(ValueError):
            eval_similarity(store, ds, use_backoff=False)


class TestHyperScore:
    def test_direct_substitution(self):
        # cos = 0.8 between the two directions, norms 1 and 2
        store = EmbeddingStore(["u", "v"], [[1.0, 0.0], [1.6, 1.2]])
        assert abs(hyper_score(store, "u", "v") - 0.8 * 2.0) < 1e-12

    def test_same_word(self):
        store = norm_store([2.0, 1.0], ["u", "v"])
        assert abs(hyper_score(store, "u", "u") - 1.0) < 1e-12

    def test_identical_norms_reduce_to_cosine(self):
        store = EmbeddingStore(["u", "v"], [[3.0, 0.0], [0.0, 3.0]])
        assert abs(hyper_score(store, "u", "v") - 0.0) < 1e-12

    def test_product_identity(self):
        # hs(u, v) * hs(v, u) = cos^2: the norm ratios cancel
        rng = np.random.default_rng(5)
        store = EmbeddingStore(["u", "v"], rng.standard_normal((2, 6)))
        forward = hyper_score(store, "u", "v")
        backward = hyper_score(store, "v", "u")
        from lexfit import cosine
        assert abs(forward * backward - cosine(store.current[0], store.current[1]) ** 2) < 1e-12

    def test_ratio_flip(self):
        store = norm_store([1.0, 4.0], ["u", "v"])
        assert abs(hyper_score(store, "u", "v") - 4.0) < 1e-12
        assert abs(hyper_score(store, "v", "u") - 0.25) < 1e-12

    def test_uncovered_errors(self):
        store = norm_store([1.0, 2.0], ["u", "v"])
        with pytest.raises(KeyError):
            hyper_score(store, "zz", "v", use_backoff=False)

    def test_overflowing_norm_ratio_saturates(self):
        store = EmbeddingStore(["a", "b"], [[1e200, 1e200], [1e-200, 2e-200]])
        assert hyper_score(store, "b", "a") == math.inf  # also the flip of ("a", "b")
        assert hyper_score(store, "a", "b") == 0.0


class TestGradedScore:
    def test_the_product_wherever_the_ratio_is_finite(self):
        rng = np.random.default_rng(4)
        cos = rng.uniform(-1.0, 1.0, 2000)
        cos[::50] = 0.0
        n_hyper, n_hypo = 10.0 ** rng.uniform(-300.0, 300.0, (2, 2000))
        with np.errstate(over="ignore"):
            ratio = n_hyper / n_hypo
        finite = np.isfinite(ratio)
        assert 0 < np.count_nonzero(finite) < 2000
        score = _graded_score(cos, n_hyper, n_hypo)
        assert score[finite].tobytes() == (cos[finite] * ratio[finite]).tobytes()
        over = ~finite & (cos != 0.0)
        np.testing.assert_array_equal(score[over], np.copysign(np.inf, cos[over]))
        np.testing.assert_array_equal(score[cos == 0.0], 0.0)
        assert not np.isnan(score).any()

    def test_saturated_and_zero_scores(self):
        cos = np.array([0.5, -0.5, 0.0, -0.0, 0.5])
        n_hyper = np.array([1e200, 1e200, 1e200, 1e200, 1e-200])
        n_hypo = np.array([1e-200, 1e-200, 1e-200, 1e-200, 1e200])
        np.testing.assert_array_equal(
            _graded_score(cos, n_hyper, n_hypo), [np.inf, -np.inf, 0.0, 0.0, 0.0]
        )


def relation_ds(rows):
    return RelationDataset("toy", [RelationEntry(w1, w2, label) for w1, w2, label in rows])


class TestBless:
    def test_ordered_pair_correct(self):
        store = norm_store([2.0, 5.0], ["hypo", "hyper"])
        ds = relation_ds([("hypo", "hyper", "hyper")])
        assert bless_directionality(store, ds).value == 1.0

    def test_equal_norms_incorrect(self):
        store = EmbeddingStore(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        ds = relation_ds([("a", "b", "hyper")])
        assert bless_directionality(store, ds).value == 0.0

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(9)
        store = EmbeddingStore([f"w{i}" for i in range(10)], rng.standard_normal((10, 4)))
        ds = relation_ds([(f"w{i}", f"w{i+1}", "hyper") for i in range(9)])
        before = bless_directionality(store, ds).value
        with store.writing() as matrix:
            matrix *= 17.3
        assert bless_directionality(store, ds).value == before

    def test_uncovered_excluded(self):
        store = norm_store([1.0, 2.0], ["a", "b"])
        ds = relation_ds([("a", "b", "hyper"), ("a", "zzz", "hyper")])
        report = bless_directionality(store, ds, use_backoff=False)
        assert report.n_excluded == 1
        assert report.value == 1.0

    def test_no_hyper_pairs_errors(self):
        store = norm_store([1.0, 2.0], ["a", "b"])
        with pytest.raises(ValueError, match="toy: no hyper-labeled pairs"):
            bless_directionality(store, relation_ds([("a", "b", "hypo"), ("b", "a", "other")]))

    def test_no_covered_pairs_errors(self):
        store = norm_store([1.0, 2.0], ["a", "b"])
        ds = relation_ds([("a", "zzz", "hyper"), ("a", "b", "hypo")])
        with pytest.raises(ValueError, match="toy: no covered pairs"):
            bless_directionality(store, ds, use_backoff=False)


def separable_wbless(n_pairs=50):
    """Hyper pairs score 2.0, everything else 0.5; perfectly separable."""
    norms, rows = [], []
    names = []
    for i in range(n_pairs):
        hyper = i % 2 == 0
        w1, w2 = f"a{i}", f"b{i}"
        names += [w1, w2]
        norms += [1.0, 2.0 if hyper else 0.5]
        rows.append((w1, w2, "hyper" if hyper else "other"))
    return norm_store(norms, names), relation_ds(rows)


def brute_force_threshold(scores, labels):
    uniq = np.unique(scores)
    # the midpoint of adjacent scores, or the lower where it does not lie below the higher
    with np.errstate(over="ignore", invalid="ignore"):
        middle = (uniq[:-1] + uniq[1:]) / 2.0
    middle = np.where(middle < uniq[1:], middle, uniq[:-1])
    candidates = np.concatenate(([-np.inf], middle, [np.inf]))
    best_t, best_acc = -np.inf, -1.0
    for t in candidates:
        # every candidate ties on an empty group
        acc = float(np.mean((scores > t) == labels)) if len(scores) else 0.0
        if acc > best_acc:
            best_t, best_acc = t, acc
    return float(best_t)


class TestFitThreshold:
    @pytest.mark.parametrize("low, high", [
        (1.0, np.inf),
        (-np.inf, np.inf),
        (1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51),  # their midpoint rounds to the higher
        (1e308, 1.7e308),  # their sum overflows
    ])
    def test_threshold_separates_two_scores(self, low, high):
        scores, labels = np.array([low, high]), np.array([False, True])
        t = _fit_thresholds(scores, labels, np.zeros(2, dtype=np.intp), 1)
        np.testing.assert_array_equal(scores > t[0], labels)

    def test_matches_brute_force_with_ties(self):
        # few distinct scores, so most thresholds tie on accuracy; each call
        # fits many groups, their entries interleaved, among them empty,
        # one-entry and single-class groups; the last 40 trials score the
        # extremes -inf and +inf
        rng = np.random.default_rng(21)
        for trial in range(80):
            n_groups = int(rng.integers(4, 40))
            sizes = rng.integers(0, 40, size=n_groups)
            sizes[:2] = [0, 1]
            groups = rng.permutation(np.repeat(np.arange(n_groups), sizes))
            scores = rng.integers(-3, 4, size=len(groups)) / 2.0
            if trial >= 40:
                scores[np.abs(scores) == 1.5] *= np.inf
            labels = rng.random(len(groups)) < rng.uniform(0.0, 1.0, size=n_groups)[groups]
            labels[groups == 2] = True
            labels[groups == 3] = False
            fitted = _fit_thresholds(scores, labels, groups, n_groups)
            assert fitted.shape == (n_groups,)
            for g in range(n_groups):
                mine = groups == g
                assert fitted[g] == brute_force_threshold(scores[mine], labels[mine]), (trial, g)

    def test_negative_infinity_is_not_above_itself(self):
        # `score > -inf` calls a -inf score negative, so -inf gets 0 of 2 here
        scores, labels = np.array([-np.inf, 1.0]), np.array([True, False])
        t = _fit_thresholds(scores, labels, np.zeros(2, dtype=np.intp), 1)
        assert np.count_nonzero((scores > t[0]) == labels) == 1

    def test_no_groups(self):
        empty = np.empty(0)
        assert _fit_thresholds(empty, empty.astype(bool), empty.astype(np.intp), 0).shape == (0,)


def reference_sample(rng, labels, n, sample_size):
    """A sample of distinct pairs holding every label, redrawn until it does."""
    while True:
        idx = rng.choice(n, size=sample_size, replace=False)
        if {labels[i] for i in idx} == set(labels):
            return idx


def reference_wbless(store, dataset, seed, iterations, sample_fraction=0.02):
    """wbless_classify as one threshold fit per iteration: (value, diagnostics)."""
    covered, cos, n1, n2 = _pair_features(
        store, [(e.word1, e.word2) for e in dataset.entries], True
    )
    labels = [dataset.entries[i].label == "hyper" for i in covered]
    n = len(labels)
    scores, truth = cos * (n2 / n1), np.asarray(labels)
    sample_size = max(2, math.ceil(sample_fraction * n))
    rng = np.random.default_rng(seed)
    thresholds, accuracies = [], []
    for _ in range(iterations):
        sample = reference_sample(rng, labels, n, sample_size)
        t = brute_force_threshold(scores[sample], truth[sample])
        mask = np.ones(n, dtype=bool)
        mask[sample] = False
        thresholds.append(t)
        accuracies.append(float(np.mean((scores[mask] > t) == truth[mask])))
    return float(np.mean(accuracies)), {
        "thresholds": thresholds,
        "iteration_accuracies": accuracies,
        "mean_threshold": _finite_mean(thresholds),
        "iterations": iterations,
        "sample_size": sample_size,
    }


def reference_bibless(store, dataset, seed, iterations, sample_fraction=0.02):
    """bibless_classify as two threshold fits per iteration: (value, diagnostics)."""
    covered, cos, n1, n2 = _pair_features(
        store, [(e.word1, e.word2) for e in dataset.entries], True
    )
    labels = [dataset.entries[i].label for i in covered]
    n = len(labels)
    agn = np.maximum(cos * (n2 / n1), cos * (n1 / n2))
    direction = (n1 - n2) / (n1 + n2)
    codes = np.asarray([RELATION_LABELS.index(lab) for lab in labels])
    taxo, hypo = codes != 2, codes == 1
    sample_size = max(2, math.ceil(sample_fraction * n), len(set(labels)))
    rng = np.random.default_rng(seed)
    t1s, t2s, accuracies = [], [], []
    for _ in range(iterations):
        sample = reference_sample(rng, labels, n, sample_size)
        t1 = brute_force_threshold(agn[sample], taxo[sample])
        taxo_sample = sample[taxo[sample]]
        t2 = brute_force_threshold(direction[taxo_sample], hypo[taxo_sample]) if len(
            taxo_sample
        ) else 0.0
        mask = np.ones(n, dtype=bool)
        mask[sample] = False
        pred = np.where(agn > t1, np.where(direction > t2, 1, 0), 2)
        t1s.append(t1)
        t2s.append(t2)
        accuracies.append(float(np.mean(pred[mask] == codes[mask])))
    return float(np.mean(accuracies)), {
        "stage1_thresholds": t1s,
        "stage2_thresholds": t2s,
        "iteration_accuracies": accuracies,
        "mean_threshold": _finite_mean(t1s),
        "iterations": iterations,
        "sample_size": sample_size,
    }


def tie_heavy_relations(seed, n_pairs=150, labels=RELATION_LABELS):
    """Collinear vectors with norms from {1, 2, 3}: few distinct scores, many ties."""
    rng = np.random.default_rng(seed)
    names, norms, rows = [], [], []
    for i in range(n_pairs):
        names += [f"a{i}", f"b{i}"]
        norms += rng.integers(1, 4, size=2).tolist()
        rows.append((f"a{i}", f"b{i}", labels[int(rng.integers(0, len(labels)))]))
    return norm_store(norms, names), relation_ds(rows)


@pytest.mark.parametrize("seed", [1, 7, 13])
@pytest.mark.parametrize("fraction", [0.02, 0.2])
class TestBatchedFitMatchesPerIterationLoop:
    def test_wbless(self, seed, fraction):
        store, ds = tie_heavy_relations(seed)
        report = wbless_classify(store, ds, seed=seed, iterations=120, sample_fraction=fraction)
        assert (report.value, report.diagnostics) == reference_wbless(
            store, ds, seed, 120, fraction
        )

    def test_bibless(self, seed, fraction):
        store, ds = tie_heavy_relations(seed)
        report = bibless_classify(store, ds, seed=seed, iterations=120, sample_fraction=fraction)
        assert (report.value, report.diagnostics) == reference_bibless(
            store, ds, seed, 120, fraction
        )

    def test_bibless_without_taxonomic_pairs(self, seed, fraction):
        store, ds = tie_heavy_relations(seed, labels=("other",))
        report = bibless_classify(store, ds, seed=seed, iterations=30, sample_fraction=fraction)
        assert report.diagnostics["stage2_thresholds"] == [0.0] * 30
        assert (report.value, report.diagnostics) == reference_bibless(
            store, ds, seed, 30, fraction
        )


@pytest.mark.parametrize("classify, labels", [
    (wbless_classify, ("hyper", "other")),
    (bibless_classify, ("hyper", "other")),
    (bibless_classify, ("hyper", "hypo", "other")),
])
def test_sample_holding_out_nothing_errors(classify, labels):
    # the fitting sample (at least 2 pairs and one per label) would be every covered pair
    n = len(labels)
    store = norm_store([1.0, 2.0] * n, [f"w{i}" for i in range(2 * n)])
    ds = relation_ds([(f"w{2 * i}", f"w{2 * i + 1}", label) for i, label in enumerate(labels)])
    with pytest.raises(ValueError, match="holds out none"):
        classify(store, ds)


class TestWbless:
    def test_perfectly_separable(self):
        store, ds = separable_wbless()
        report = wbless_classify(store, ds, seed=3, iterations=50)
        assert report.value == 1.0

    def test_label_shuffled_near_half(self):
        rng = np.random.default_rng(12)
        n = 1000
        names, norms, rows = [], [], []
        for i in range(n):
            w1, w2 = f"a{i}", f"b{i}"
            names += [w1, w2]
            norms += [1.0, float(rng.uniform(0.5, 2.0))]
            rows.append((w1, w2, "hyper" if rng.integers(0, 2) else "other"))
        store = norm_store(norms, names)
        report = wbless_classify(store, relation_ds(rows), seed=5, iterations=200)
        assert 0.45 <= report.value <= 0.55

    def test_deterministic_under_seed(self):
        store, ds = separable_wbless(30)
        a = wbless_classify(store, ds, seed=11, iterations=40)
        b = wbless_classify(store, ds, seed=11, iterations=40)
        assert a == b

    def test_single_class_errors(self):
        store = norm_store([1.0, 2.0, 1.0, 2.0], ["a", "b", "c", "d"])
        ds = relation_ds([("a", "b", "hyper"), ("c", "d", "hyper")])
        with pytest.raises(ValueError, match="class"):
            wbless_classify(store, ds)

    def test_value_in_unit_interval_and_diagnostics(self):
        store, ds = separable_wbless(40)
        report = wbless_classify(store, ds, seed=2, iterations=25)
        assert 0.0 <= report.value <= 1.0
        assert len(report.diagnostics["thresholds"]) == 25


def separable_bibless():
    """Taxonomic pairs score high either way; direction separated by norms."""
    names, norms, rows = [], [], []
    for i in range(20):
        w1, w2 = f"a{i}", f"b{i}"
        names += [w1, w2]
        kind = ("hyper", "hypo", "other")[i % 3]
        if kind == "hyper":
            norms += [1.0, 3.0]
        elif kind == "hypo":
            norms += [3.0, 1.0]
        else:
            norms += [1.0, 1.0]
        rows.append((w1, w2, kind))
    return norm_store(norms, names), relation_ds(rows)


class TestBibless:
    def test_perfectly_separable(self):
        store, ds = separable_bibless()
        report = bibless_classify(store, ds, seed=4, iterations=50)
        assert report.value == 1.0

    def test_others_only_dataset_scores_one(self):
        store = norm_store([1.0] * 20, [f"w{i}" for i in range(20)])
        ds = relation_ds([(f"w{2*i}", f"w{2*i+1}", "other") for i in range(10)])
        report = bibless_classify(store, ds, seed=1, iterations=20)
        assert report.value == 1.0

    def test_deterministic(self):
        store, ds = separable_bibless()
        a = bibless_classify(store, ds, seed=8, iterations=30)
        b = bibless_classify(store, ds, seed=8, iterations=30)
        assert a == b


class TestHyperlex:
    def test_scores_equal_ratings(self):
        # model hyper-scores are the norm ratios; ratings set to match
        norms = [1.0, 2.0, 1.0, 3.0, 2.0, 1.0]
        names = ["a", "b", "c", "d", "e", "f"]
        store = norm_store(norms, names)
        ds = SimilarityDataset(
            "toy", [("a", "b", 2.0), ("c", "d", 3.0), ("e", "f", 0.5)]
        )
        report = hyperlex_eval(store, ds)
        assert report.value == 1.0

    def test_coverage_accounting(self):
        store = norm_store([1.0, 2.0, 3.0, 4.0], ["a", "b", "c", "d"])
        ds = SimilarityDataset(
            "toy", [("a", "b", 1.0), ("c", "d", 2.0), ("a", "qqq", 3.0)]
        )
        report = hyperlex_eval(store, ds, use_backoff=False)
        assert report.n_excluded == 1
        assert report.n_pairs == 3
