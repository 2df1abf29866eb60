import logging
import re
import warnings

import numpy as np
import pytest

from lexfit import (
    EmbeddingFormatError,
    EmbeddingStore,
    backoff_lookup,
    cosine,
    distance,
    load_embeddings,
    nearest_neighbors,
    save_embeddings,
)
from lexfit import embeddings
from lexfit.embeddings import cosine_matrix, row_cosines, row_norms, top_k
from helpers import random_store


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoad:
    def test_glove_text(self, tmp_path):
        path = write(tmp_path / "v.txt", "a 1 2 3 4\nb 0 1 0 1\nc -1 0 2 0\n")
        store = load_embeddings(path, "glove-text")
        assert len(store) == 3
        assert store.dim == 4
        assert store.vocab == ["a", "b", "c"]
        np.testing.assert_array_equal(store.current, store.original)

    def test_word2vec_header(self, tmp_path):
        path = write(tmp_path / "v.txt", "2 3\na 1 2 3\nb 4 5 6\n")
        store = load_embeddings(path, "word2vec-text")
        assert len(store) == 2
        assert store.dim == 3

    def test_non_numeric_component(self, tmp_path):
        path = write(tmp_path / "v.txt", "a 1 2 3\nb 1 2 x\n")
        with pytest.raises(EmbeddingFormatError, match="v.txt:2"):
            load_embeddings(path, "glove-text")

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = write(tmp_path / "v.txt", "a 1 2 3\nb 1 2\n")
        with pytest.raises(EmbeddingFormatError, match=":2"):
            load_embeddings(path, "glove-text")

    def test_empty_file(self, tmp_path):
        for text, format in [("", "glove-text"), ("\n  \n", "glove-text"),
                             ("2 3\n\n", "word2vec-text")]:
            path = write(tmp_path / "v.txt", text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(EmbeddingFormatError, match="no embedding records found"):
                    load_embeddings(path, format)

    @pytest.mark.parametrize("text, format, message", [
        # the bulk parse stops at line 3, but line 2 comes first in the file
        ("a 1 2 3\nb 1 0 nan\nc 1 2\nd 1 x 3\n", "glove-text",
         ":2: non-finite vector component"),
        ("a 1 2 3\nb 0 0 0\nc 1 nan 3\n", "glove-text", ":2: all-zero vector for 'b'"),
        ("a 1 2 3\nb 1 inf 3\nc 0 0 0\n", "glove-text", ":2: non-finite vector component"),
        ("a 1 2 3\n\nb 1 2 x\nc 1 2\n", "glove-text", ":3: non-numeric vector component"),
        ("a 1 2 3\nb 1 2\nc 1 2 x\n", "glove-text", ":2: expected 3 values, got 2"),
        ("a 1 2\nb\nc 1 2\n", "glove-text", ":2: expected 2 values, got 0"),
        ("a\nb 1 2\n", "glove-text", ":1: record has no vector values"),
        ("2 3\na 1 2\nb 1 2\n", "word2vec-text", ":2: expected 3 values, got 2"),
        ("2 2\na 1 2\nb 1 2 3\n", "word2vec-text", ":3: expected 2 values, got 3"),
        # Python's float() reads "1_0", the file format does not
        ("a 1_0 2\n", "glove-text", ":1: non-numeric vector component"),
    ])
    def test_first_fault_in_file_order(self, tmp_path, text, format, message):
        path = write(tmp_path / "v.txt", text)
        with pytest.raises(EmbeddingFormatError, match=f"^{re.escape(path + message)}$"):
            load_embeddings(path, format)

    def test_token_ends_at_ascii_space_or_tab(self, tmp_path):
        path = write(tmp_path / "v.txt", "caf\u00a0e 1 2 3\nb\t4 5 6\n")
        store = load_embeddings(path, "glove-text")
        assert store.vocab == ["caf\u00a0e", "b"]
        np.testing.assert_array_equal(store.current, [[1, 2, 3], [4, 5, 6]])

    def test_blank_lines_crlf_and_tabs(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_bytes(b"2 3\r\n\r\n a\t1 2\t3\r\n  \t\r\nb 4\t 5 6 \r\n\n")
        store = load_embeddings(str(path), "word2vec-text")
        assert store.vocab == ["a", "b"]
        np.testing.assert_array_equal(store.current, [[1, 2, 3], [4, 5, 6]])

    def test_header_count_warning(self, tmp_path, caplog):
        path = write(tmp_path / "v.txt", "3 2\na 1 2\nb 3 4\n")
        with caplog.at_level(logging.WARNING, logger="lexfit.embeddings"):
            load_embeddings(path, "word2vec-text")
        assert "header declares 3 vectors but file contains 2" in caplog.text

    def test_non_finite(self, tmp_path):
        path = write(tmp_path / "v.txt", "a 1 nan 3\n")
        with pytest.raises(EmbeddingFormatError, match=":1"):
            load_embeddings(path, "glove-text")

    def test_zero_vector_rejected(self, tmp_path):
        path = write(tmp_path / "v.txt", "a 1 2\nb 0 0\n")
        with pytest.raises(EmbeddingFormatError, match=":2"):
            load_embeddings(path, "glove-text")

    def test_tiny_components_are_not_zero(self, tmp_path):
        # the squares of 1e-200 underflow to 0, the components do not
        path = write(tmp_path / "v.txt", "a 1e-200 1e-200\nb 1 2\n")
        store = load_embeddings(path, "glove-text")
        assert store.current[0].tolist() == [1e-200, 1e-200]

    def test_huge_components_load_without_warnings(self, tmp_path):
        path = write(tmp_path / "v.txt", "a 1e300 -1e300\nb 1 2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store = load_embeddings(path, "glove-text")
        assert store.current[0].tolist() == [1e300, -1e300]

    def test_duplicates_keep_first(self, tmp_path, caplog):
        path = write(tmp_path / "v.txt", "a 1 2\na 9 9\nb 3 4\n")
        with caplog.at_level(logging.WARNING, logger="lexfit.embeddings"):
            store = load_embeddings(path, "glove-text")
        assert "dropped 1 duplicate tokens (first occurrence kept)" in caplog.text
        assert store.vocab == ["a", "b"]
        assert store.n_duplicates_dropped == 1
        np.testing.assert_array_equal(store.current[0], [1.0, 2.0])

    def test_crlf_accepted(self, tmp_path):
        path = (tmp_path / "v.txt")
        path.write_bytes(b"a 1 2\r\nb 3 4\r\n")
        store = load_embeddings(str(path), "glove-text")
        assert store.vocab == ["a", "b"]

    def test_index_round_trips(self, tmp_path):
        path = write(tmp_path / "v.txt", "a 1 2\nb 3 4\nc 5 6\n")
        store = load_embeddings(path, "glove-text")
        for i, token in enumerate(store.vocab):
            assert store.index[token] == i


class TestSave:
    def test_round_trip_components(self, tmp_path):
        store = random_store(3, 5, 10)
        path = str(tmp_path / "out.txt")
        save_embeddings(store, path, "glove-text")
        again = load_embeddings(path, "glove-text")
        assert again.vocab == store.vocab
        assert np.max(np.abs(again.current - store.current)) < 1e-6

    def test_round_trip_preserves_cosines(self, tmp_path):
        store = random_store(4, 8, 7)
        path = str(tmp_path / "out.txt")
        save_embeddings(store, path, "word2vec-text")
        again = load_embeddings(path, "word2vec-text")
        for i in range(len(store)):
            for j in range(i + 1, len(store)):
                before = cosine(store.current[i], store.current[j])
                after = cosine(again.current[i], again.current[j])
                assert abs(before - after) < 1e-6

    def test_glove_output_has_no_header(self, tmp_path):
        store = random_store(5, 3, 4)
        path = tmp_path / "out.txt"
        save_embeddings(store, str(path), "glove-text")
        first = path.read_text().splitlines()[0]
        assert first.startswith("w000 ")

    def test_word2vec_output_header(self, tmp_path):
        store = random_store(5, 3, 4)
        path = tmp_path / "out.txt"
        save_embeddings(store, str(path), "word2vec-text")
        assert path.read_text().splitlines()[0] == "3 4"

    @pytest.mark.parametrize("format", ["glove-text", "word2vec-text"])
    def test_bytes_match_per_component_formatting(self, tmp_path, format):
        values = [
            [-0.0, 5e-324, 1e300, -1e-300],
            [2.5e-310, -1e-300, 1.5e-7, 123456789012.0],
            [0.1, -2.0 / 3.0, 1e16, 3.0],
        ]
        store = EmbeddingStore(["x", "caf\u00e9", "z"], np.ones((3, 4)))
        store.current[:] = values
        path = tmp_path / "out.txt"
        save_embeddings(store, str(path), format)
        expected = "".join(
            token + " " + " ".join(f"{x:.9g}" for x in row) + "\n"
            for token, row in zip(store.vocab, values)
        )
        if format == "word2vec-text":
            expected = "3 4\n" + expected
        assert path.read_bytes() == expected.encode("utf-8")

    def test_empty_store_unconstructible(self):
        with pytest.raises(ValueError):
            EmbeddingStore([], np.zeros((0, 3)))

    @pytest.mark.parametrize("zero", [[0.0, 0.0], [-0.0, 0.0]])
    def test_zero_row_unconstructible(self, zero):
        with pytest.raises(ValueError, match="^all-zero vectors are not allowed$"):
            EmbeddingStore(["a", "b"], [[1e-200, 1e-200], zero])


class TestDistance:
    def test_identical(self):
        u = np.array([1.0, 2.0, 3.0])
        assert distance(u, u) < 1e-9

    def test_orthogonal(self):
        assert distance([1.0, 0.0], [0.0, 5.0]) == 1.0

    def test_opposite(self):
        assert abs(distance([1.0, 2.0], [-1.0, -2.0]) - 2.0) < 1e-9

    def test_zero_vector_errors(self):
        with pytest.raises(ValueError):
            distance([0.0, 0.0], [1.0, 0.0])

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            u = rng.standard_normal(6)
            v = rng.standard_normal(6)
            a, b = rng.uniform(0.1, 10.0, size=2)
            assert abs(distance(u, v) - distance(v, u)) < 1e-12
            assert abs(distance(a * u, b * v) - distance(u, v)) < 1e-9
            assert distance(u, a * u) < 1e-9
            assert 0.0 <= distance(u, v) <= 2.0


class TestGeometry:
    def test_in_range_rows_use_the_plain_formula_uncopied(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((2, 30, 7)) * 10.0 ** rng.uniform(-100, 100, (2, 30, 1))
        na, nb = row_norms(a), row_norms(b)
        np.testing.assert_array_equal(na, np.sqrt(np.einsum("ij,ij->i", a, a)))
        plain = np.clip(np.einsum("ij,ij->i", a, b) / (na * nb), -1.0, 1.0)
        np.testing.assert_array_equal(row_cosines(a, b, na, nb), plain)
        assert embeddings._in_range(a, na)[0] is a

    @pytest.mark.parametrize("scale", [1e300, 1e200, 1e-200, 1e-300, 1e-310])
    def test_extreme_rows_keep_true_norms_and_cosines(self, scale):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((2, 10, 4))
        na, nb = row_norms(a), row_norms(b)
        expected = row_cosines(a, b, na, nb)
        big_a, big_b = a * scale, b * scale
        got_na, got_nb = row_norms(big_a), row_norms(big_b)
        # 1e-310 is subnormal: its components keep only about 14 digits
        rtol = 1e-13 if scale < 1e-300 else 1e-15
        np.testing.assert_allclose(got_na, na * scale, rtol=rtol)
        for left, right, n_left, n_right in ((big_a, big_b, got_na, got_nb),
                                             (big_a, b, got_na, nb)):
            np.testing.assert_allclose(
                row_cosines(left, right, n_left, n_right), expected, rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                cosine_matrix(left, right, n_left, n_right),
                cosine_matrix(a, b, na, nb), rtol=0, atol=1e-12,
            )
        assert abs(cosine(big_a[0], big_b[0]) - expected[0]) < 1e-12

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_cosine_of_extreme_rows(self, scale):
        # plain sums of squares overflow at 1e200 and underflow to 0 at 1e-200
        assert abs(cosine([scale, scale], [3 * scale, scale]) - 0.894427191) < 1e-9
        assert abs(cosine([scale, scale], [1.0, 2.0]) - 0.9486832981) < 1e-9
        assert distance([scale, 0.0], [2 * scale, 0.0]) == 0.0


class TestBackoff:
    def test_exact_hit(self):
        store = EmbeddingStore(["running", "run"], np.eye(2))
        hit = backoff_lookup(store, "running")
        assert (hit.row, hit.matched_token, hit.truncation_depth, hit.covered) == (
            0, "running", 0, True)

    def test_truncation(self):
        store = EmbeddingStore(["run"], [[1.0, 0.0]])
        hit = backoff_lookup(store, "runz")
        assert (hit.row, hit.matched_token, hit.truncation_depth) == (0, "run", 1)

    def test_uncovered(self):
        store = EmbeddingStore(["run"], [[1.0, 0.0]])
        hit = backoff_lookup(store, "qqq")
        assert hit.covered is False and hit.row is None

    def test_terminates_within_token_length(self):
        store = EmbeddingStore(["zz"], [[1.0]])
        hit = backoff_lookup(store, "abcdefgh")
        assert hit.truncation_depth <= len("abcdefgh")

    def test_empty_token_errors(self):
        store = EmbeddingStore(["a"], [[1.0]])
        with pytest.raises(ValueError):
            backoff_lookup(store, "")


class TestNearestNeighbors:
    def test_parallel_vector_is_top(self):
        store = EmbeddingStore(["a", "b", "c"], [[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        top = nearest_neighbors(store, 0, 1)
        assert top == [(1, 1.0)]

    def test_k_capped_at_vocab(self):
        store = random_store(0, 4, 5)
        assert len(nearest_neighbors(store, 0, 99)) == 3

    def test_matches_bruteforce_cosine_sort(self):
        # oracle: exhaustive pairwise cosine, sorted descending with row tiebreak
        store = random_store(7, 5, 8)
        for row in range(5):
            sims = [
                (other, cosine(store.current[row], store.current[other]))
                for other in range(5) if other != row
            ]
            sims.sort(key=lambda t: (-t[1], t[0]))
            got = nearest_neighbors(store, row, 2)
            for (er, es), (gr, gs) in zip(sims[:2], got):
                assert er == gr
                assert abs(es - gs) < 1e-12

    def test_invalid_row(self):
        store = random_store(0, 3, 4)
        with pytest.raises(IndexError):
            nearest_neighbors(store, 5, 1)

    def test_excludes_query(self):
        store = random_store(1, 6, 4)
        assert all(r != 2 for r, _ in nearest_neighbors(store, 2, 5))

    def test_ties_straddling_the_kth_position_go_to_smaller_rows(self):
        # rows 2, 3, 5 and 6 tie behind row 4; k=3 cuts through the tie
        store = EmbeddingStore(
            ["q", "far", "tie_a", "tie_b", "best", "tie_c", "tie_d"],
            [[1.0, 0.0], [-1.0, 0.2], [1.0, 1.0], [1.0, 1.0],
             [1.0, 0.1], [2.0, 2.0], [1.0, 1.0]],
        )
        assert [r for r, _ in nearest_neighbors(store, 0, 3)] == [4, 2, 3]
        assert [r for r, _ in nearest_neighbors(store, 0, 5)] == [4, 2, 3, 5, 6]
        assert [r for r, _ in nearest_neighbors(store, 6, 2)] == [2, 3]

    def test_single_row_store_has_no_neighbors(self):
        store = EmbeddingStore(["a"], [[1.0, 2.0]])
        assert nearest_neighbors(store, 0, 3) == []

    def test_ties_break_by_ascending_row(self):
        # rows 3 and 1 are identical; the smaller row index must come first
        store = EmbeddingStore(
            ["q", "dup_a", "far", "dup_b"],
            [[1.0, 0.0], [1.0, 1.0], [-1.0, 0.0], [1.0, 1.0]],
        )
        rows = [r for r, _ in nearest_neighbors(store, 0, 3)]
        assert rows.index(1) < rows.index(3)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_rows_rank_by_true_cosine(self, scale):
        store = EmbeddingStore(
            ["a", "b", "c", "d"], [[scale, scale], [3 * scale, scale], [1.0, 2.0], [5.0, 1.0]]
        )
        got = nearest_neighbors(store, 0, 3)
        assert [r for r, _ in got] == [2, 1, 3]
        np.testing.assert_allclose([c for _, c in got], [0.9486832981, 0.894427191, 0.8320502943])
        assert [r for r, _ in nearest_neighbors(store, 2, 3)] == [0, 1, 3]


class TestTopK:
    def test_matches_stable_argsort_with_ties(self):
        # few distinct integer values, so most rows tie across the k-th position
        rng = np.random.default_rng(3)
        for trial in range(60):
            n_rows, n = int(rng.integers(1, 6)), int(rng.integers(2, 13))
            sims = rng.integers(-2, 3, size=(n_rows, n)).astype(np.float64)
            sims[rng.random(sims.shape) < 0.1] = -np.inf
            sims[rng.random(sims.shape) < 0.1] = np.nan  # from overflowing norms
            for k in range(1, n + 1):
                expected = np.argsort(-sims, axis=1, kind="stable")[:, :k]
                np.testing.assert_array_equal(top_k(sims, k), expected, err_msg=f"{trial} {k}")

    def test_ties_straddling_the_kth_position_go_to_smaller_columns(self):
        sims = np.array([
            [3.0, 1.0, 3.0, 3.0, 0.0],
            [0.0, 2.0, 2.0, 2.0, 2.0],
            [1.0, 1.0, 1.0, 1.0, 5.0],
        ])
        np.testing.assert_array_equal(top_k(sims, 2), [[0, 2], [1, 2], [4, 0]])
        np.testing.assert_array_equal(top_k(sims, 4), [[0, 2, 3, 1], [1, 2, 3, 4], [4, 0, 1, 2]])

    def test_signed_zeros_tie(self):
        sims = np.array([[-0.0, 0.0, -1.0, 0.0]])
        np.testing.assert_array_equal(top_k(sims, 2), [[0, 1]])
