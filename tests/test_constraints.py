import numpy as np
import pytest

from lexfit import (
    ConstraintSet,
    EmbeddingStore,
    PairFileError,
    constraint_stats,
    hypernym_closure,
    load_pairs,
)


@pytest.fixture
def store():
    vocab = ["good", "nice", "cat", "dog", "animal", "bad"]
    return EmbeddingStore(vocab, np.eye(6))


def write_pairs(tmp_path, text, name="pairs.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadPairs:
    def test_synonym_pair(self, tmp_path, store):
        cs = ConstraintSet()
        report = load_pairs(cs, write_pairs(tmp_path, "good nice\n"), "syn", store)
        assert report.added == 1
        assert cs.synonyms == {(0, 1)}

    def test_self_pair_dropped(self, tmp_path, store):
        cs = ConstraintSet()
        report = load_pairs(cs, write_pairs(tmp_path, "cat cat\n"), "syn", store)
        assert report.added == 0
        assert report.dropped_self == 1

    def test_oov_pair_dropped(self, tmp_path, store):
        cs = ConstraintSet()
        report = load_pairs(cs, write_pairs(tmp_path, "dog mammal\n"), "hyper", store)
        assert report.added == 0
        assert report.dropped_oov == 1
        assert not cs.direct_hypernyms

    def test_no_backoff_for_constraints(self, tmp_path, store):
        cs = ConstraintSet()
        report = load_pairs(cs, write_pairs(tmp_path, "dog animals\n"), "syn", store)
        assert report.dropped_oov == 1

    def test_malformed_line(self, tmp_path, store):
        cs = ConstraintSet()
        path = write_pairs(tmp_path, "good nice fine\n")
        with pytest.raises(PairFileError, match=":1"):
            load_pairs(cs, path, "syn", store)

    def test_comments_and_blanks_ignored(self, tmp_path, store):
        cs = ConstraintSet()
        report = load_pairs(
            cs, write_pairs(tmp_path, "# header\n\ngood nice\n"), "syn", store
        )
        assert report.added == 1

    def test_tab_separator(self, tmp_path, store):
        cs = ConstraintSet()
        load_pairs(cs, write_pairs(tmp_path, "good\tnice\n"), "syn", store)
        assert cs.synonyms == {(0, 1)}

    def test_unordered_canonicalization(self, tmp_path, store):
        cs = ConstraintSet()
        load_pairs(cs, write_pairs(tmp_path, "nice good\ngood nice\n"), "syn", store)
        assert cs.synonyms == {(0, 1)}

    def test_hypernym_keeps_order(self, tmp_path, store):
        cs = ConstraintSet()
        load_pairs(cs, write_pairs(tmp_path, "dog animal\n"), "hyper", store)
        assert cs.direct_hypernyms == {(3, 4)}

    def test_idempotent(self, tmp_path, store):
        cs = ConstraintSet()
        path = write_pairs(tmp_path, "good nice\ncat dog\n")
        load_pairs(cs, path, "syn", store)
        first = set(cs.synonyms)
        report = load_pairs(cs, path, "syn", store)
        assert cs.synonyms == first
        assert report.added == 0

    def test_antonym_wins_conflict(self, tmp_path, store):
        cs = ConstraintSet()
        load_pairs(cs, write_pairs(tmp_path, "good nice\n", "s.txt"), "syn", store)
        load_pairs(cs, write_pairs(tmp_path, "good nice\n", "a.txt"), "ant", store)
        assert cs.synonyms == set()
        assert cs.antonyms == {(0, 1)}
        assert cs.dropped_conflict == 1

    def test_displaced_synonym_is_reported(self, tmp_path, store, caplog):
        cs = ConstraintSet()
        load_pairs(cs, write_pairs(tmp_path, "good nice\n", "s.txt"), "syn", store)
        path = write_pairs(tmp_path, "good nice\n", "a.txt")
        with caplog.at_level("INFO", logger="lexfit.constraints"):
            report = load_pairs(cs, path, "ant", store)
        assert (report.added, report.dropped_conflict) == (1, 1)
        assert constraint_stats(cs)["dropped_conflict"] == 1
        assert f"{path}: kept 1 ant pairs (dropped: 0 oov, 0 self, 1 conflict)" in caplog.text

    def test_summed_reports_equal_the_set_drops(self, tmp_path, store):
        # random files of in- and out-of-vocabulary, self, repeated and
        # conflicting pairs, loaded in turn under every relation
        rng = np.random.default_rng(3)
        words = store.vocab + ["oov"]
        for trial in range(20):
            cs = ConstraintSet()
            drops = np.zeros(3, dtype=int)
            for i in range(6):
                pairs = rng.choice(words, size=(int(rng.integers(1, 8)), 2))
                text = "".join(f"{a} {b}\n" for a, b in pairs)
                relation = str(rng.choice(["syn", "ant", "hyper"]))
                report = load_pairs(cs, write_pairs(tmp_path, text), relation, store)
                drops += [report.dropped_oov, report.dropped_self, report.dropped_conflict]
            stats = constraint_stats(cs)
            assert list(drops) == [stats["dropped_oov"], stats["dropped_self"],
                                   stats["dropped_conflict"]], trial

    def test_synonym_claim_after_antonym_dropped(self, tmp_path, store):
        cs = ConstraintSet()
        load_pairs(cs, write_pairs(tmp_path, "good bad\n", "a.txt"), "ant", store)
        report = load_pairs(cs, write_pairs(tmp_path, "good bad\n", "s.txt"), "syn", store)
        assert report.dropped_conflict == 1
        assert cs.synonyms == set()
        assert cs.antonyms == {(0, 5)}


class TestAddPair:
    """``add_pair`` returns whether it added the pair; the counters say why not."""

    def test_antonym_displacing_a_synonym_is_added(self):
        cs = ConstraintSet()
        assert cs.add_pair("syn", 2, 1) is True
        assert cs.add_pair("ant", 1, 2) is True
        assert (cs.synonyms, cs.antonyms, cs.dropped_conflict) == (set(), {(1, 2)}, 1)

    def test_pairs_not_added(self):
        cs = ConstraintSet()
        assert cs.add_pair("syn", 3, 3) is False
        assert cs.dropped_self == 1
        assert cs.add_pair("hyper", 0, 4) is True
        assert cs.add_pair("hyper", 0, 4) is False
        assert cs.add_pair("ant", 0, 5) is True
        assert cs.add_pair("syn", 5, 0) is False
        assert (cs.dropped_self, cs.dropped_conflict) == (1, 1)
        assert cs.synonyms == set()


def closure_set(direct):
    """The pairs of :func:`hypernym_closure`'s array, as a set of tuples."""
    return {tuple(pair) for pair in hypernym_closure(direct).tolist()}


def walk_closure(direct):
    """Oracle: the pairs of distinct words joined by a walk of direct links,
    by composing the link set with itself."""
    closure: set = set()
    walks = set(direct)  # the pairs joined by a walk of exactly n links, n = 1, 2, ...
    while not walks <= closure:
        closure |= walks
        walks = {(a, c) for a, b in walks for b2, c in direct if b == b2}
    return {(a, b) for a, b in closure if a != b}


class TestClosure:
    def test_two_link_chain(self):
        closure = closure_set({(0, 1), (1, 2)})
        assert closure == {(0, 1), (1, 2), (0, 2)}

    def test_cycle_terminates(self):
        closure = closure_set({(0, 1), (1, 0)})
        assert closure == {(0, 1), (1, 0)}

    def test_matches_reachability_oracle(self):
        # oracle: boolean adjacency matrix, closed by repeated squaring
        rng = np.random.default_rng(5)
        n = 12
        direct = set()
        for _ in range(20):
            a, b = rng.integers(0, n, size=2)
            if a != b:
                direct.add((int(a), int(b)))
        adj = np.zeros((n, n), dtype=bool)
        for a, b in direct:
            adj[a, b] = True
        reach = adj.copy()
        while True:
            nxt = reach | (reach @ reach)
            if np.array_equal(nxt, reach):
                break
            reach = nxt
        expected = {(i, j) for i in range(n) for j in range(n) if reach[i, j] and i != j}
        assert closure_set(direct) == expected

    def test_matches_walk_oracle_on_random_graphs(self):
        rng = np.random.default_rng(17)
        for trial in range(60):
            n = int(rng.integers(2, 9))
            direct = {
                (int(a), int(b)) for a, b in rng.integers(0, n, size=(int(rng.integers(1, 15)), 2))
                if a != b
            }
            if trial % 3 == 0:  # close a cycle through every node
                direct |= {(i, (i + 1) % n) for i in range(n)}
            assert closure_set(direct) == walk_closure(direct), (
                trial, sorted(direct)
            )

    def test_monotone_and_idempotent(self):
        direct = {(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)}
        closed = closure_set(direct)
        assert direct <= closed
        assert closure_set(closed) == closed


class TestStats:
    def test_empty(self):
        stats = constraint_stats(ConstraintSet())
        assert all(v == 0 for v in stats.values())

    def test_counts(self, tmp_path, store):
        cs = ConstraintSet()
        load_pairs(cs, write_pairs(tmp_path, "good nice\n"), "syn", store)
        stats = constraint_stats(cs)
        assert stats["synonyms"] == 1
        assert stats["antonyms"] == 0

    def test_indirect_counts_the_closure(self):
        cs = ConstraintSet()
        cs.add_pair("hyper", 0, 1)
        cs.add_pair("hyper", 1, 2)
        stats = constraint_stats(cs)
        assert (stats["direct_hypernyms"], stats["indirect_hypernyms"]) == (2, 3)

    def test_no_self_pairs_ever(self):
        cs = ConstraintSet()
        for rel in ("syn", "ant", "hyper"):
            cs.add_pair(rel, 2, 2)
        assert cs.dropped_self == 3
        assert not (cs.synonyms | cs.antonyms | cs.direct_hypernyms)
