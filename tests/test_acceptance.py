"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 8 needs full published assets and is skipped unless
``LEXFIT_ASSET_DIR`` points at them.
"""

import functools
import os
import time

import numpy as np
import pytest
from scipy import stats

from lexfit import (
    ConstraintSet,
    EmbeddingStore,
    SpecializeConfig,
    distance,
    spearman,
    specialize,
    wbless_classify,
)
from lexfit.cli import main as cli_main
from lexfit.evaluate import RelationDataset, RelationEntry
from gradcheck import GENERATORS, check_kernel
from helpers import held, joined, random_store, taxonomy_fixture, toy_hierarchy_fixture


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {num} ({name}): FAIL")
                raise
            print(f"[acceptance] criterion {num} ({name}): PASS")
        return wrapper
    return decorate


@criterion(1, "gradient oracle")
def test_criterion_1_gradient_oracle():
    start = time.perf_counter()
    for kernel in sorted(GENERATORS):
        worst = check_kernel(kernel, instances=100, seed=2024)
        assert worst < 1e-4, f"{kernel}: worst relative error {worst:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"gradient sweep took {elapsed:.1f}s"


@criterion(2, "retrofitting closed form")
def test_criterion_2_retrofit_closed_form():
    store = random_store(1, 2, 6)
    o_a, o_b = store.current[0].copy(), store.current[1].copy()
    cs = ConstraintSet()
    cs.add("syn", [(0, 1)])
    specialize(
        store, cs, SpecializeConfig("retrofitting", retrofit_alpha=1.0, retrofit_iterations=200)
    )
    assert np.max(np.abs(store.current[0] - (2 * o_a + o_b) / 3)) < 1e-6
    assert np.max(np.abs(store.current[1] - (2 * o_b + o_a) / 3)) < 1e-6

    for seed in range(5):
        rng = np.random.default_rng(seed)
        store = random_store(seed + 10, 10, 5)
        cs = ConstraintSet()
        edges = set()
        while len(edges) < 13:
            a, b = (int(x) for x in rng.integers(0, 10, size=2))
            if a != b:
                edges.add((min(a, b), max(a, b)))
        for a, b in edges:
            cs.add("syn", [(a, b)])
        original = store.current.copy()  # the run anchors to the vectors it is given
        specialize(
            store, cs, SpecializeConfig("retrofitting", retrofit_alpha=1.0, retrofit_iterations=500)
        )
        adjacency = {}
        for a, b in held(cs, "syn"):
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        for word, neighbors in adjacency.items():
            fixed_point = (original[word] + store.current[neighbors].mean(axis=0)) / 2.0
            residual = np.max(np.abs(store.current[word] - fixed_point))
            assert residual < 1e-5, f"seed {seed}, word {word}: residual {residual:.2e}"


@criterion(3, "toy hierarchy-fitting convergence")
def test_criterion_3_toy_hierarchy_fitting():
    start = time.perf_counter()
    store, constraints = toy_hierarchy_fixture(seed=0)
    joins = joined(constraints)
    config = SpecializeConfig(
        preset="hierarchy_fitting", epochs=20, batch_size=8, seed=7
    )
    _, log = specialize(store, constraints, config)
    cur = store.current

    satisfied = sum(
        distance(cur[a], cur[s]) + config.margins.m_hie_syn <= distance(cur[a], cur[h])
        for a, s, h in joins
    )
    assert satisfied / len(joins) >= 0.95, f"(a) {satisfied}/{len(joins)} joins ordered"

    syn_partners, ant_partners = {}, {}
    for a, b in held(constraints, "syn"):
        syn_partners.setdefault(a, []).append(b)
        syn_partners.setdefault(b, []).append(a)
    for a, b in held(constraints, "ant"):
        ant_partners.setdefault(a, []).append(b)
        ant_partners.setdefault(b, []).append(a)
    for word in sorted(set(syn_partners) & set(ant_partners)):
        mean_syn = np.mean([distance(cur[word], cur[p]) for p in syn_partners[word]])
        mean_ant = np.mean([distance(cur[word], cur[p]) for p in ant_partners[word]])
        assert mean_syn < mean_ant, f"(b) word {word}: syn {mean_syn:.3f} >= ant {mean_ant:.3f}"

    first, last = log.epochs[0], log.epochs[-1]
    for relation in first:
        assert last[relation][1] <= first[relation][1], (
            f"(c) {relation}: active fraction rose {first[relation][1]:.3f} "
            f"-> {last[relation][1]:.3f}"
        )
    assert time.perf_counter() - start < 60.0


@criterion(4, "AD directionality")
def test_criterion_4_ad_directionality():
    store, constraints, direct = taxonomy_fixture(seed=0)
    config = SpecializeConfig(
        preset="hierarchy_fitting_ad_dir", epochs=100, batch_size=8, seed=4
    )
    specialize(store, constraints, config)
    norms = np.linalg.norm(store.current, axis=1)
    accuracy = sum(norms[lo] < norms[hi] for lo, hi in direct) / len(direct)
    assert accuracy >= 0.95, f"trained direction accuracy {accuracy:.3f}"

    accuracies = []
    for seed in range(100):
        untrained, _, pairs = taxonomy_fixture(seed=seed)
        n = np.linalg.norm(untrained.current, axis=1)
        accuracies.append(sum(n[lo] < n[hi] for lo, hi in pairs) / len(pairs))
    mc_mean = float(np.mean(accuracies))
    assert 0.4 <= mc_mean <= 0.6, f"untrained Monte-Carlo mean {mc_mean:.3f}"


@criterion(5, "Spearman unit oracle")
def test_criterion_5_spearman():
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0
    assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0
    assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == 0.8

    rng = np.random.default_rng(55)
    checked = 0
    while checked < 50:
        n = int(rng.integers(5, 60))
        xs = rng.integers(0, 6, size=n).astype(float)
        ys = rng.integers(0, 6, size=n).astype(float)
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            continue
        reference = stats.spearmanr(xs, ys).statistic
        assert abs(spearman(xs, ys) - reference) < 1e-12
        checked += 1


def _norm_pair_dataset(scores_and_labels):
    names, vectors, entries = [], [], []
    for i, (score, label) in enumerate(scores_and_labels):
        w1, w2 = f"a{i}", f"b{i}"
        names += [w1, w2]
        vectors += [[1.0, 0.0], [float(score), 0.0]]
        entries.append(RelationEntry(w1, w2, label))
    store = EmbeddingStore(names, vectors)
    return store, RelationDataset("synthetic", entries)


@criterion(6, "WBLESS protocol")
def test_criterion_6_wbless_protocol():
    separable = [(2.0, "hyper") if i % 2 == 0 else (0.5, "other") for i in range(60)]
    store, dataset = _norm_pair_dataset(separable)
    report = wbless_classify(store, dataset, seed=7, iterations=1000)
    assert report.value == 1.0

    rng = np.random.default_rng(123)
    shuffled = [
        (float(rng.uniform(0.5, 2.0)), "hyper" if rng.integers(0, 2) else "other")
        for _ in range(1000)
    ]
    store, dataset = _norm_pair_dataset(shuffled)
    report = wbless_classify(store, dataset, seed=9, iterations=1000)
    assert 0.45 <= report.value <= 0.55, f"shuffled mean accuracy {report.value:.3f}"

    again = wbless_classify(store, dataset, seed=9, iterations=1000)
    assert report == again


@criterion(7, "CLI reproducibility")
def test_criterion_7_cli_reproducibility(tmp_path):
    rng = np.random.default_rng(1)
    words = ["a1", "a2", "a3", "hypa", "b1", "b2", "hypb", "c1", "c2", "d1"]
    vectors = rng.standard_normal((len(words), 8))
    store = EmbeddingStore(words, vectors)
    from lexfit import save_embeddings
    emb = tmp_path / "toy.vec"
    save_embeddings(store, str(emb), "glove-text")
    (tmp_path / "syn.tsv").write_text("a1 a2\na1 a3\na2 a3\nb1 b2\n")
    (tmp_path / "ant.tsv").write_text("a1 b1\na2 b2\n")
    (tmp_path / "hyper.tsv").write_text("a1 hypa\na2 hypa\nb1 hypb\n")
    outputs = []
    for run in (1, 2):
        out = tmp_path / f"out{run}.vec"
        code = cli_main([
            "specialize",
            "--embeddings", str(emb), "--format", "glove-text",
            "--method", "hierarchy-fitting",
            "--syn", str(tmp_path / "syn.tsv"),
            "--ant", str(tmp_path / "ant.tsv"),
            "--hyper", str(tmp_path / "hyper.tsv"),
            "--out", str(out), "--seed", "7", "--epochs", "5", "--batch-size", "4",
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


ASSET_DIR = os.environ.get("LEXFIT_ASSET_DIR")


@pytest.mark.skipif(
    not ASSET_DIR,
    reason="extended tier needs LEXFIT_ASSET_DIR with published vectors and constraints",
)
@criterion(8, "extended published-asset tier")
def test_criterion_8_extended_assets(tmp_path):
    """Full-scale check against the published 300-d vectors.

    Expects under LEXFIT_ASSET_DIR: sgns.vec (word2vec-text), synonyms.tsv,
    antonyms.tsv, hypernyms.tsv, simlex999.tsv, simverb3000.tsv, bless.tsv,
    hyperlex.tsv. See tools/fetch_assets.py for sources.
    """
    from lexfit import (
        eval_similarity, bless_directionality, hyperlex_eval,
        load_embeddings, load_pairs, load_similarity_dataset, load_relation_dataset,
    )
    base = ASSET_DIR
    store = load_embeddings(os.path.join(base, "sgns.vec"), "word2vec-text")
    constraints = ConstraintSet()
    for rel, fname in (("syn", "synonyms.tsv"), ("ant", "antonyms.tsv"),
                       ("hyper", "hypernyms.tsv")):
        load_pairs(constraints, os.path.join(base, fname), rel, store)

    config = SpecializeConfig(preset="hierarchy_fitting", seed=7)
    specialize(store, constraints, config)
    simlex = eval_similarity(store, load_similarity_dataset(os.path.join(base, "simlex999.tsv")))
    simverb = eval_similarity(store, load_similarity_dataset(os.path.join(base, "simverb3000.tsv")))
    assert abs(simlex.value - 0.75) <= 0.05
    assert abs(simverb.value - 0.75) <= 0.05

    store2 = load_embeddings(os.path.join(base, "sgns.vec"), "word2vec-text")
    config2 = SpecializeConfig(preset="hierarchy_fitting_ad_indir", seed=7)
    specialize(store2, constraints, config2)
    bless = bless_directionality(store2, load_relation_dataset(os.path.join(base, "bless.tsv")))
    hyperlex = hyperlex_eval(store2, load_similarity_dataset(os.path.join(base, "hyperlex.tsv")))
    assert bless.value >= 0.90
    assert abs(hyperlex.value - 0.68) <= 0.05
