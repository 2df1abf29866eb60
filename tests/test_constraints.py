import hashlib
import tracemalloc

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
from lexfit.constraints import _member
from helpers import as_array, held
from reference_pairs import ReferenceSet, reference_load


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
        assert held(cs, "syn") == [(0, 1)]

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
        assert not len(cs.pairs["hyper"])

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
        assert held(cs, "syn") == [(0, 1)]

    def test_unordered_canonicalization(self, tmp_path, store):
        cs = ConstraintSet()
        load_pairs(cs, write_pairs(tmp_path, "nice good\ngood nice\n"), "syn", store)
        assert held(cs, "syn") == [(0, 1)]

    def test_hypernym_keeps_order(self, tmp_path, store):
        cs = ConstraintSet()
        load_pairs(cs, write_pairs(tmp_path, "dog animal\n"), "hyper", store)
        assert held(cs, "hyper") == [(3, 4)]

    def test_idempotent(self, tmp_path, store):
        cs = ConstraintSet()
        path = write_pairs(tmp_path, "good nice\ncat dog\n")
        load_pairs(cs, path, "syn", store)
        first = held(cs, "syn")
        report = load_pairs(cs, path, "syn", store)
        assert held(cs, "syn") == first
        assert report.added == 0

    def test_antonym_wins_conflict(self, tmp_path, store):
        cs = ConstraintSet()
        load_pairs(cs, write_pairs(tmp_path, "good nice\n", "s.txt"), "syn", store)
        load_pairs(cs, write_pairs(tmp_path, "good nice\n", "a.txt"), "ant", store)
        assert held(cs, "syn") == []
        assert held(cs, "ant") == [(0, 1)]
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
        assert held(cs, "syn") == []
        assert held(cs, "ant") == [(0, 5)]


class TestAdd:
    """``add`` returns how many distinct pairs it added; the counters say why not."""

    def test_antonym_displacing_a_synonym_is_added(self):
        cs = ConstraintSet()
        assert cs.add("syn", [(2, 1)]) == 1
        assert cs.add("ant", [(1, 2)]) == 1
        assert (held(cs, "syn"), held(cs, "ant"), cs.dropped_conflict) == ([], [(1, 2)], 1)

    def test_pairs_not_added(self):
        cs = ConstraintSet()
        assert cs.add("syn", [(3, 3)]) == 0
        assert cs.dropped_self == 1
        assert cs.add("hyper", [(0, 4)]) == 1
        assert cs.add("hyper", [(0, 4)]) == 0
        assert cs.add("ant", [(0, 5)]) == 1
        assert cs.add("syn", [(5, 0)]) == 0
        assert (cs.dropped_self, cs.dropped_conflict) == (1, 1)
        assert held(cs, "syn") == []

    def test_many_lines_at_once(self):
        # a synonym line held as an antonym counts per line; a displaced synonym once
        cs = ConstraintSet()
        assert cs.add("syn", [(4, 1), (1, 4), (2, 3), (5, 5), (5, 5), (1, 2)]) == 3
        assert cs.add("ant", np.array([(3, 2), (2, 3), (0, 1), (4, 1)])) == 3
        assert cs.add("syn", [(1, 0), (0, 1), (6, 7)]) == 1
        assert held(cs, "syn") == [(1, 2), (6, 7)]
        assert held(cs, "ant") == [(0, 1), (1, 4), (2, 3)]
        assert (cs.dropped_self, cs.dropped_conflict) == (2, 4)
        assert cs.add("hyper", np.empty((0, 2), np.intp)) == 0

    def test_pairs_are_read_only_intp_arrays(self):
        cs = ConstraintSet()
        cs.add("hyper", [(2, 1), (0, 1)])
        for rel, pairs in cs.pairs.items():
            assert pairs.dtype == np.intp and pairs.shape[1] == 2, rel
            assert not pairs.flags.writeable, rel
        with pytest.raises(ValueError):
            cs.pairs["hyper"][0, 0] = 5

    def test_unknown_relation(self):
        with pytest.raises(ValueError, match="unknown relation"):
            ConstraintSet().add("hypo", [(0, 1)])

    @pytest.mark.parametrize("rows", [[0, 1, 2, 3], [(0, 1, 2)], [(0, 1), (-1, 2)]])
    def test_rejects_rows_that_are_not_pairs(self, rows):
        cs = ConstraintSet()
        with pytest.raises(ValueError, match=r"\(n, 2\) non-negative row pairs"):
            cs.add("syn", rows)
        assert held(cs, "syn") == [] and cs.dropped_self == 0


def isin_member(pairs, held_pairs):
    """The oracle: ``np.isin`` over one key per pair."""
    width = max(pairs.max(initial=0), held_pairs.max(initial=0)) + 1
    return np.isin(pairs[:, 0] * width + pairs[:, 1], held_pairs[:, 0] * width + held_pairs[:, 1])


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("pairs_top, held_top", [(30, 8), (8, 30), (15, 15)])
def test_member_agrees_with_isin(seed, pairs_top, held_top):
    # either side's largest row may set the key width; held is unsorted, with repeats,
    # as the antonym path passes a file's rows
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, pairs_top, size=(int(rng.integers(1, 60)), 2))
    held_pairs = rng.integers(0, held_top, size=(int(rng.integers(1, 60)), 2))
    held_pairs = np.concatenate((held_pairs, held_pairs[::-2], pairs[::3]))
    found = _member(pairs, held_pairs)
    assert found.dtype == bool and found.any()
    np.testing.assert_array_equal(found, isin_member(pairs, held_pairs))


@pytest.mark.parametrize("pairs, held_pairs", [
    (np.array([(0, 1), (2, 3)]), np.empty((0, 2), np.intp)),
    (np.empty((0, 2), np.intp), np.array([(0, 1), (2, 3)])),
    (np.empty((0, 2), np.intp), np.empty((0, 2), np.intp)),
])
def test_member_of_an_empty_side(pairs, held_pairs):
    found = _member(pairs, held_pairs)
    assert found.dtype == bool and found.shape == (len(pairs),) and not found.any()
    np.testing.assert_array_equal(found, isin_member(pairs, held_pairs))


def random_pair_file(rng, words) -> str:
    """Lines of in- and out-of-vocabulary, self and repeated pairs, with
    comments, blanks, tabs and padding."""
    lines = []
    for _ in range(int(rng.integers(0, 40))):
        a, b = rng.choice(words, size=2)
        kind = int(rng.integers(0, 10))
        if kind == 0:
            lines.append(f"# {a} {b}")
        elif kind == 1:
            lines.append("")
        elif kind == 2:
            lines.append(f"{a}\t{b}")
        elif kind == 3:
            lines.append(f"  {a}  {a} ")
        else:
            lines.append(f"{a} {b}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(12))
def test_load_equals_the_per_line_reference(tmp_path, store, seed):
    # few words, so repeats, self pairs and syn/ant conflicts are common; the
    # relations are loaded in either order, each file more than once
    rng = np.random.default_rng(seed)
    words = store.vocab + ["oov", "mammal"]
    order = ["syn", "ant", "hyper"] if seed % 2 else ["ant", "syn", "hyper"]
    cs, ref = ConstraintSet(), ReferenceSet()
    for step, relation in enumerate(order + order[::-1] + order):
        path = write_pairs(tmp_path, random_pair_file(rng, words), f"{step}.txt")
        assert load_pairs(cs, path, relation, store) == reference_load(ref, path, relation, store)
        assert {rel: held(cs, rel) for rel in cs.pairs} == ref.sorted_pairs(), step
        counters = ("dropped_oov", "dropped_self", "dropped_conflict")
        assert [getattr(cs, name) for name in counters] == [getattr(ref, name) for name in counters]
    assert ref.dropped_conflict and ref.dropped_self and ref.dropped_oov


class TestFailedLoad:
    """A pair file that fails to load leaves the set as it was."""

    @pytest.mark.parametrize("tail", [b"cat dog extra\n", b"cat \xff\n"])
    def test_set_and_counters_unchanged(self, tmp_path, store, tail):
        cs = ConstraintSet()
        load_pairs(cs, write_pairs(tmp_path, "good nice\ncat cat\ndog mammal\n"), "syn", store)
        before = {rel: pairs.copy() for rel, pairs in cs.pairs.items()}
        counters = (cs.dropped_oov, cs.dropped_self, cs.dropped_conflict)
        path = tmp_path / "bad.txt"
        # lines that would displace a synonym, drop a self pair and an OOV
        # pair, past the first block a text reader decodes, then the fault
        path.write_bytes(b"nice good\nbad bad\nbad mammal\n" * 1000 + b"cat dog\n" + tail)
        with pytest.raises((PairFileError, UnicodeDecodeError)):
            load_pairs(cs, str(path), "ant", store)
        assert {rel: pairs.tolist() for rel, pairs in cs.pairs.items()} == {
            rel: pairs.tolist() for rel, pairs in before.items()}
        assert (cs.dropped_oov, cs.dropped_self, cs.dropped_conflict) == counters

    def test_malformed_line_is_named(self, tmp_path, store):
        cs = ConstraintSet()
        with pytest.raises(PairFileError, match=r"pairs.txt:2: expected 2 tokens, got 3"):
            load_pairs(cs, write_pairs(tmp_path, "good nice\ncat dog extra\n"), "syn", store)
        assert held(cs, "syn") == []


def test_a_line_is_split_only_at_line_ends(tmp_path, store):
    # U+001C is whitespace to str.split but no line end to a file reader
    cs = ConstraintSet()
    report = load_pairs(cs, write_pairs(tmp_path, "good\x1cnice\n"), "syn", store)
    assert report.added == 1 and held(cs, "syn") == [(0, 1)]


def test_report_hashes_the_bytes_it_parsed(tmp_path, store):
    data = b"# comment\r\ngood nice\r\n\ncat\tdog\nbad oov\n" * 5000  # past one read block
    path = tmp_path / "pairs.txt"
    path.write_bytes(data)
    report = load_pairs(ConstraintSet(), str(path), "syn", store)
    assert report.sha256 == hashlib.sha256(data).hexdigest()
    assert report == reference_load(ReferenceSet(), str(path), "syn", store)  # sha256 not compared


def test_load_peaks_at_a_few_times_what_it_keeps(tmp_path):
    # the line list is freed before the add, and the add frees each temporary in turn
    words = [f"w{i}" for i in range(20000)]
    big = EmbeddingStore(words, np.ones((len(words), 1)))
    rng = np.random.default_rng(0)
    lines = rng.integers(0, len(words), (100000, 2))
    path = write_pairs(tmp_path, "".join(f"w{a} w{b}\n" for a, b in lines))
    cs = ConstraintSet()
    tracemalloc.start()
    try:
        load_pairs(cs, path, "syn", big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = cs.pairs["syn"].nbytes
    assert len(cs.pairs["syn"]) > 99000
    assert peak < 4.5 * kept, (peak, kept)


def closure_set(direct):
    """The pairs of :func:`hypernym_closure`'s array, as a set of tuples."""
    return {tuple(pair) for pair in hypernym_closure(as_array(direct)).tolist()}


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
        assert cs.add("hyper", [(0, 1)]) == 1
        assert cs.add("hyper", [(1, 2)]) == 1
        stats = constraint_stats(cs)
        assert (stats["direct_hypernyms"], stats["indirect_hypernyms"]) == (2, 3)

    def test_no_self_pairs_ever(self):
        cs = ConstraintSet()
        for rel in ("syn", "ant", "hyper"):
            assert cs.add(rel, [(2, 2)]) == 0
        assert cs.dropped_self == 3
        assert not any(map(len, cs.pairs.values()))
