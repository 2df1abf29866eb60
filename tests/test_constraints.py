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

    def test_synonym_claim_after_antonym_dropped(self, tmp_path, store):
        cs = ConstraintSet()
        load_pairs(cs, write_pairs(tmp_path, "good bad\n", "a.txt"), "ant", store)
        report = load_pairs(cs, write_pairs(tmp_path, "good bad\n", "s.txt"), "syn", store)
        assert report.dropped_conflict == 1
        assert cs.synonyms == set()
        assert cs.antonyms == {(0, 5)}


def walk_closure(direct, max_depth):
    """Oracle: the pairs of distinct words joined by a walk of 1 to ``max_depth``
    direct links (any length for None), by composing the link set with itself."""
    closure: set = set()
    walks = set(direct)  # the pairs joined by a walk of exactly `length` links
    length = 1
    while not walks <= closure and (max_depth is None or length <= max_depth):
        closure |= walks
        walks = {(a, c) for a, b in walks for b2, c in direct if b == b2}
        length += 1
    return {(a, b) for a, b in closure if a != b}


class TestClosure:
    def test_two_link_chain(self):
        closure = hypernym_closure({(0, 1), (1, 2)})
        assert closure == {(0, 1), (1, 2), (0, 2)}

    def test_cycle_terminates(self):
        closure = hypernym_closure({(0, 1), (1, 0)})
        assert closure == {(0, 1), (1, 0)}

    def test_depth_limit(self):
        direct = {(0, 1), (1, 2), (2, 3)}
        assert hypernym_closure(direct, max_depth=1) == direct
        assert hypernym_closure(direct, max_depth=2) == direct | {(0, 2), (1, 3)}

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
        assert hypernym_closure(direct) == expected

    @pytest.mark.parametrize("max_depth", [None, 1, 2, 3])
    def test_matches_walk_oracle_on_random_graphs(self, max_depth):
        rng = np.random.default_rng(17)
        for trial in range(60):
            n = int(rng.integers(2, 9))
            direct = {
                (int(a), int(b)) for a, b in rng.integers(0, n, size=(int(rng.integers(1, 15)), 2))
                if a != b
            }
            if trial % 3 == 0:  # close a cycle through every node
                direct |= {(i, (i + 1) % n) for i in range(n)}
            assert hypernym_closure(direct, max_depth) == walk_closure(direct, max_depth), (
                trial, sorted(direct)
            )

    def test_monotone_and_idempotent(self):
        direct = {(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)}
        closed = hypernym_closure(direct)
        assert direct <= closed
        assert hypernym_closure(closed) == closed

    def test_compute_closure_marks_superset(self):
        cs = ConstraintSet()
        cs.add_pair("hyper", 0, 1)
        cs.add_pair("hyper", 1, 2)
        cs.compute_closure()
        assert cs.closure_computed
        assert cs.direct_hypernyms <= cs.indirect_hypernyms


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

    def test_no_self_pairs_ever(self):
        cs = ConstraintSet()
        for rel in ("syn", "ant", "hyper"):
            cs.add_pair(rel, 2, 2)
        assert cs.dropped_self == 3
        assert not (cs.synonyms | cs.antonyms | cs.direct_hypernyms)


class TestPartners:
    def test_partner_sets(self):
        cs = ConstraintSet()
        cs.add_pair("syn", 0, 1)
        cs.add_pair("ant", 0, 2)
        cs.add_pair("hyper", 0, 3)
        assert cs.partners("syn", 0) == {1}
        assert cs.partners("syn", 1) == {0}
        assert cs.partners("ant", 0) == {2}
        assert cs.partners("hyper", 3) == {0}
        assert cs.partners("quad", 0) == {1, 3}

    def test_cache_invalidation(self):
        cs = ConstraintSet()
        cs.add_pair("syn", 0, 1)
        assert cs.partners("syn", 0) == {1}
        cs.add_pair("syn", 0, 2)
        assert cs.partners("syn", 0) == {1, 2}
        cs.add_pair("hyper", 5, 6)
        cs.add_pair("hyper", 6, 7)
        cs.compute_closure()
        assert cs.partners("hyper", 5) == {6, 7}
