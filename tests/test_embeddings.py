import errno
import hashlib
import logging
import os
import re
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from lexfit import (
    ConstraintSet,
    EmbeddingFormatError,
    EmbeddingStore,
    SpecializeConfig,
    backoff_lookup,
    cosine,
    distance,
    load_embeddings,
    nearest_neighbors,
    save_embeddings,
    specialize,
)
from lexfit import embeddings
from lexfit.embeddings import row_cosines, row_norms, unit_rows
from helpers import random_store, toy_hierarchy_fixture


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
        np.testing.assert_array_equal(store.current, [[1, 2, 3, 4], [0, 1, 0, 1], [-1, 0, 2, 0]])

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
        ("2\na 1 2\n", "word2vec-text",
         ":1: word2vec-text header must be 'vocab_count dim', got '2'"),
        ("2 2 2\na 1 2\n", "word2vec-text",
         ":1: word2vec-text header must be 'vocab_count dim', got '2 2 2'"),
        ("two 2\na 1 2\n", "word2vec-text", ":1: malformed header 'two 2'"),
        ("2 2.0\na 1 2\n", "word2vec-text", ":1: malformed header '2 2.0'"),
        ("2 0\na 1 2\n", "word2vec-text", ":1: non-positive dimension 0"),
        ("2 -2\na 1 2\n", "word2vec-text", ":1: non-positive dimension -2"),
        # a header after blank lines names its own line
        ("\n\n2 3 4\na 1 2\n", "word2vec-text",
         ":3: word2vec-text header must be 'vocab_count dim', got '2 3 4'"),
        ("\n \t\ntwo 2\na 1 2\n", "word2vec-text", ":3: malformed header 'two 2'"),
        ("\r\n2 0\na 1 2\n", "word2vec-text", ":2: non-positive dimension 0"),
        # Python's float() reads "1_0", the file format does not
        ("a 1_0 2\n", "glove-text", ":1: non-numeric vector component"),
        # every component is finite, the norm is not
        ("a 1 2\nb 1.5e308 1.5e308\n", "glove-text", ":2: vector norm overflows float64"),
        ("a 1 2\nb 1.5e308 1.5e308\nc 1 x\n", "glove-text",
         ":2: vector norm overflows float64"),
    ])
    def test_first_fault_in_file_order(self, tmp_path, text, format, message):
        path = write(tmp_path / "v.txt", text)
        with pytest.raises(EmbeddingFormatError, match=f"^{re.escape(path + message)}$"):
            load_embeddings(path, format)

    @pytest.mark.parametrize("data, format, message", [
        (b"a 1 2\nb\xe9 1 2\n", "glove-text", ":2: byte 0xe9 is not valid UTF-8"),
        (b"a 1 2\nb 1 \xe92\n", "glove-text", ":2: byte 0xe9 is not valid UTF-8"),
        (b"2 2\na 1 2\nb\xe9 1 2\n", "word2vec-text", ":3: byte 0xe9 is not valid UTF-8"),
        (b"\n2 2\xe9\na 1 2\n", "word2vec-text", ":2: byte 0xe9 is not valid UTF-8"),
        # a bad record before the byte comes first, though the byte is decoded first
        (b"a 1 2\nb 0 0\nc\xe9 1 2\n", "glove-text", ":2: all-zero vector for 'b'"),
        (b"a 1 2\nb 1\nc\xe9 1 2\n", "glove-text", ":2: expected 2 values, got 1"),
        # past the first block a text reader decodes ahead of the line it yields
        (b"a 1 2\n" * 3000 + b"\xe9 1 2\n", "glove-text",
         ":3001: byte 0xe9 is not valid UTF-8"),
        # a lone CR ends a line, as it does for every other fault
        (b"a 1 2\rb 1 2\r\xe9 1 2\r", "glove-text", ":3: byte 0xe9 is not valid UTF-8"),
    ], ids=["token", "value", "word2vec", "header", "zero-row-first", "short-row-first",
            "past-first-block", "lone-cr"])
    def test_a_byte_that_is_not_utf8_is_located(self, tmp_path, data, format, message):
        path = tmp_path / "v.txt"
        path.write_bytes(data)
        with pytest.raises(EmbeddingFormatError, match=f"^{re.escape(str(path) + message)}$"):
            load_embeddings(str(path), format)

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

    def test_a_store_holds_one_matrix(self, tmp_path):
        # a loaded or constructed store keeps its matrix once, plus its norms
        # and vocabulary: an 8 MB matrix holds less than 12 MB in all
        source = random_store(9, 20000, 50)
        path = str(tmp_path / "big.txt")
        save_embeddings(source, path, "glove-text")
        for build in (lambda: load_embeddings(path, "glove-text"),
                      lambda: EmbeddingStore(source.vocab, source.current)):
            tracemalloc.start()
            try:
                store = build()
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert held < 1.5 * store.current.nbytes
        path = write(tmp_path / "v.txt", "a 1 2\nb 3 4\na 5 6\n")
        store = load_embeddings(path, "glove-text")
        assert not store.current.flags.writeable
        np.testing.assert_array_equal(store.geometry()[1], [5.0 ** 0.5, 5.0])

    def test_index_round_trips(self, tmp_path):
        path = write(tmp_path / "v.txt", "a 1 2\nb 3 4\nc 5 6\n")
        store = load_embeddings(path, "glove-text")
        for i, token in enumerate(store.vocab):
            assert store.index[token] == i


# a duplicate token and a signed zero; the word2vec-text header counts 5 records
CACHED = {
    "glove-text": "a 1 2 -0.0\nb 0.1 1e-300 0.5\na 9 9 9\nc -1 0 2.5\n",
    "word2vec-text": "5 3\na 1 2 -0.0\nb 0.1 1e-300 0.5\na 9 9 9\nc -1 0 2.5\n",
}


def unreachable(*args):
    raise AssertionError("the text was parsed")


class TestParseCache:
    """A parse of a regular file is kept beside it, and a load of the same
    bytes in the same format reads it instead of parsing."""

    @pytest.fixture(params=sorted(CACHED))
    def text(self, request, tmp_path):
        return write(tmp_path / "v.txt", CACHED[request.param]), request.param

    @staticmethod
    def load(path, format, caplog):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="lexfit.embeddings"):
            store = load_embeddings(path, format)
        return store, [record.getMessage() for record in caplog.records]

    def test_a_hit_returns_what_the_parse_returned(self, text, caplog, capfd, monkeypatch):
        path, format = text
        parsed, warned = self.load(path, format, caplog)
        assert os.path.isfile(path + ".lexfit-cache")
        expected = [f"{path}: dropped 1 duplicate tokens (first occurrence kept)"]
        if format == "word2vec-text":
            expected.insert(0, f"{path}: header declares 5 vectors but file contains 4")
        assert warned == expected
        monkeypatch.setattr(embeddings, "_parse", unreachable)
        hit, warned_again = self.load(path, format, caplog)
        assert hit.vocab == parsed.vocab == ["a", "b", "c"]
        assert hit.current.dtype == np.float64
        assert hit.current.tobytes() == parsed.current.tobytes()
        assert np.signbit(hit.current[0, 2])
        assert hit.n_duplicates_dropped == parsed.n_duplicates_dropped == 1
        assert warned_again == warned
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert hit._source_sha256 == parsed._source_sha256 == digest
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("spoil", ["changed-text", "truncated", "foreign", "directory"])
    def test_a_cache_that_does_not_match_is_parsed_again(self, text, caplog, capfd,
                                                         monkeypatch, spoil):
        path, format = text
        cache = path + ".lexfit-cache"
        first, warned = self.load(path, format, caplog)
        expected = first.current.copy()
        if spoil == "changed-text":
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(CACHED[format].replace("2.5", "3.5"))  # one byte
            expected[2, 2] = 3.5
        elif spoil == "truncated":
            with open(cache, "r+b") as fh:
                fh.truncate(os.path.getsize(cache) - 8)
        elif spoil == "foreign":
            with open(cache, "wb") as fh:
                fh.write(b"a 1 2 3\n")
        else:
            os.remove(cache)
            os.mkdir(cache)
        store, warned_again = self.load(path, format, caplog)
        assert store.vocab == first.vocab
        assert store.current.tobytes() == expected.tobytes()
        assert warned_again == warned
        assert capfd.readouterr().err == ""
        if spoil == "directory":
            assert os.path.isdir(cache)
            return
        monkeypatch.setattr(embeddings, "_parse", unreachable)  # the cache was replaced
        assert self.load(path, format, caplog)[0].current.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("vocab, rows", [
        (["a", "b"], [[np.nan, 2.0], [0.0, 0.0]]),
        (["a", "b"], [[np.nan, 2.0], [3.0, 4.0]]),
        (["a", "b"], [[1.0, 2.0], [0.0, 0.0]]),
        (["a", "a"], [[1.0, 2.0], [3.0, 4.0]]),
        (["a", ""], [[1.0, 2.0], [3.0, 4.0]]),
        (["a", "b c"], [[1.0, 2.0], [3.0, 4.0]]),
        (["a", "b"], [[1.5e308, 1.5e308], [3.0, 4.0]]),
        (["a", "b", "c"], [[1.0, 2.0], [3.0, 4.0]]),
    ], ids=["nan-and-zero", "nan", "zero-row", "duplicate", "empty-token", "spaced-token",
            "norm-overflow", "rows-mismatch"])
    def test_a_cache_the_store_refuses_is_parsed_again(self, tmp_path, monkeypatch, vocab, rows):
        # the key matches the text, so only the store's own checks can refuse it
        path = write(tmp_path / "v.txt", "a 1 2\nb 3 4\n")
        fresh = load_embeddings(path, "glove-text")
        with open(path, "rb") as fh:
            key = embeddings._cache_key("glove-text", hashlib.sha256(fh.read()).hexdigest())
        embeddings._write_cache(path + ".lexfit-cache", key, vocab, np.array(rows), None, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store = load_embeddings(path, "glove-text")
            assert nearest_neighbors(store, 0, 1) == nearest_neighbors(fresh, 0, 1)
        assert store.vocab == fresh.vocab
        assert store.current.tobytes() == fresh.current.tobytes()
        save_embeddings(store, str(tmp_path / "out.txt"), "glove-text")
        assert (tmp_path / "out.txt").read_text(encoding="utf-8") == "a 1 2\nb 3 4\n"
        monkeypatch.setattr(embeddings, "_parse", unreachable)  # the parse rewrote the cache
        assert load_embeddings(path, "glove-text").current.tobytes() == fresh.current.tobytes()

    def test_a_cache_of_the_other_format_is_parsed_again(self, tmp_path, monkeypatch):
        # "2 1" is a header to word2vec-text and a record to glove-text
        path = write(tmp_path / "v.txt", "2 1\na 5\nb 6\n")
        assert load_embeddings(path, "word2vec-text").vocab == ["a", "b"]
        assert load_embeddings(path, "glove-text").vocab == ["2", "a", "b"]
        monkeypatch.setattr(embeddings, "_parse", unreachable)
        assert load_embeddings(path, "glove-text").vocab == ["2", "a", "b"]

    @pytest.mark.parametrize("failure", ["write", "replace"])
    def test_a_failed_write_is_skipped(self, text, tmp_path, caplog, capfd, monkeypatch,
                                       failure):
        path, format = text
        full = OSError(errno.ENOSPC, "No space left on device")
        if failure == "write":
            real = np.lib.format.write_array

            def write_array(fh, array, *args, **kwargs):
                if array.dtype == np.float64:  # the matrix, after the other records
                    fh.write(b"\0" * 8)
                    raise full
                return real(fh, array, *args, **kwargs)

            monkeypatch.setattr(np.lib.format, "write_array", write_array)
        else:
            def replace(src, dst):
                raise full

            monkeypatch.setattr(embeddings.os, "replace", replace)
        store, _ = self.load(path, format, caplog)
        assert store.vocab == ["a", "b", "c"]
        assert os.listdir(tmp_path) == ["v.txt"]
        assert capfd.readouterr().err == ""

    def test_a_malformed_text_raises_its_error_and_writes_nothing(self, tmp_path):
        path = write(tmp_path / "v.txt", "a 1 2 3\nb 1 2 4\n")
        load_embeddings(path, "glove-text")
        with open(path + ".lexfit-cache", "rb") as fh:
            cached = fh.read()
        os.remove(path + ".lexfit-cache")
        for cache in (None, cached):  # a first load, and one beside a stale cache
            if cache is not None:
                with open(path + ".lexfit-cache", "wb") as fh:
                    fh.write(cache)
            write(tmp_path / "v.txt", "a 1 2 3\nb 1 2 x\n")
            with pytest.raises(EmbeddingFormatError,
                               match=f"^{re.escape(path)}:2: non-numeric vector component$"):
                load_embeddings(path, "glove-text")
            names = sorted(os.listdir(tmp_path))
            assert names == ["v.txt"] if cache is None else ["v.txt", "v.txt.lexfit-cache"]
        with open(path + ".lexfit-cache", "rb") as fh:
            assert fh.read() == cached

    def test_a_fifo_is_parsed_and_not_cached(self, tmp_path, caplog):
        path = str(tmp_path / "v.fifo")
        os.mkfifo(path)

        def feed():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(CACHED["glove-text"])

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        store, _ = self.load(path, "glove-text", caplog)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert store.vocab == ["a", "b", "c"]
        assert store._source_sha256 == hashlib.sha256(CACHED["glove-text"].encode()).hexdigest()
        assert os.listdir(tmp_path) == ["v.fifo"]

    @pytest.mark.parametrize("data, message", [
        (b"2 3\na 1 2\nb 1 2\n", ": record 1 ('a'): expected 3 values, got 2"),
        (b"3 2\na 1 2\n\nb nan 2\nc 0 0\n", ": record 2 ('b'): non-finite vector component"),
        (b"2 2\na 1 2\nb\xe9 1 2\n", ":3: byte 0xe9 is not valid UTF-8"),
    ], ids=["dimension", "non-finite", "latin-1"])
    def test_a_fifo_names_its_first_bad_record(self, tmp_path, data, message):
        path = str(tmp_path / "v.fifo")
        os.mkfifo(path)

        def feed():
            with open(path, "wb") as fh:
                fh.write(data)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        with pytest.raises(EmbeddingFormatError, match=f"^{re.escape(path + message)}$"):
            load_embeddings(path, "word2vec-text")
        writer.join(timeout=10)
        assert not writer.is_alive()

    def test_a_store_from_a_hit_holds_one_matrix_and_writes(self, tmp_path, monkeypatch):
        source = random_store(9, 20000, 50)
        path = str(tmp_path / "big.txt")
        save_embeddings(source, path, "glove-text")
        parsed = load_embeddings(path, "glove-text")
        with open(path, "rb") as fh:  # read in many chunks
            assert parsed._source_sha256 == hashlib.sha256(fh.read()).hexdigest()
        monkeypatch.setattr(embeddings, "_parse", unreachable)
        tracemalloc.start()
        try:
            store = load_embeddings(path, "glove-text")
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 1.5 * store.current.nbytes
        assert not store.current.flags.writeable
        with store.writing() as matrix:
            matrix[0] *= 2
        assert not store.current.flags.writeable
        np.testing.assert_array_equal(store.current[0], 2 * parsed.current[0])
        np.testing.assert_array_equal(store.current[1:], parsed.current[1:])

    @pytest.mark.parametrize("preset", ["counterfitting", "hierarchy_fitting_ad_indir"])
    def test_specialize_saves_the_same_text_from_a_hit(self, tmp_path, monkeypatch, preset):
        source, cs = toy_hierarchy_fixture()
        path = str(tmp_path / "v.txt")
        save_embeddings(source, path, "glove-text")
        saved = []
        for _ in range(2):  # a parse, then a hit
            store = load_embeddings(path, "glove-text")
            monkeypatch.setattr(embeddings, "_parse", unreachable)
            specialize(store, cs, SpecializeConfig(preset=preset, epochs=2, seed=1))
            out = tmp_path / f"out{len(saved)}.txt"
            save_embeddings(store, str(out), "glove-text")
            saved.append(out.read_bytes())
        assert saved[0] == saved[1]


class TestPublish:
    @staticmethod
    def writer(text, fail=False):
        def write(tmp):
            Path(tmp).write_text(text)
            if fail:
                raise OSError(errno.ENOSPC, "No space left on device")
        return write

    @pytest.fixture
    def paths(self, tmp_path):
        paths = [str(tmp_path / name) for name in ("a.log", "a.vec", "a.manifest")]
        for path in paths[1:]:  # the first path does not exist yet
            write(tmp_path / os.path.basename(path), f"old {path}")
        return paths

    def state(self, paths):
        return [Path(path).read_text() if os.path.exists(path) else None for path in paths]

    def test_puts_every_file_in_place(self, paths, tmp_path):
        embeddings.publish(*[(path, self.writer(f"new {path}")) for path in paths])
        assert self.state(paths) == [f"new {path}" for path in paths]
        assert not list(tmp_path.glob("*.tmp"))

    def test_a_failed_write_leaves_every_path(self, paths, tmp_path):
        before = self.state(paths)
        written = []

        def later(tmp):
            written.append(tmp)
            self.writer("new")(tmp)

        with pytest.raises(OSError, match="No space left"):
            embeddings.publish((paths[0], self.writer("new")),
                               (paths[1], self.writer("new", fail=True)),
                               (paths[2], later))
        assert self.state(paths) == before and written == []
        assert not list(tmp_path.glob("*.tmp"))

    def test_a_failed_replace_keeps_what_was_replaced(self, paths, tmp_path, monkeypatch):
        before, real = self.state(paths), os.replace
        replaced = []

        def replace(src, dst):
            if len(replaced) == 1:
                raise OSError(errno.EXDEV, "Invalid cross-device link")
            replaced.append(dst)
            real(src, dst)

        monkeypatch.setattr(embeddings.os, "replace", replace)
        with pytest.raises(OSError, match="cross-device"):
            embeddings.publish(*[(path, self.writer(f"new {path}")) for path in paths])
        assert replaced == paths[:1]
        assert self.state(paths) == [f"new {paths[0]}", *before[1:]]
        assert not list(tmp_path.glob("*.tmp"))


    def test_an_error_names_the_path_asked_for(self, paths, tmp_path):
        missing = str(tmp_path / "missing" / "a.tsv")
        with pytest.raises(FileNotFoundError) as raised:
            embeddings.publish((paths[0], self.writer("new")), (missing, self.writer("new")))
        assert (raised.value.filename, raised.value.filename2) == (missing, None)
        assert str(raised.value) == f"[Errno {errno.ENOENT}] No such file or directory: '{missing}'"
        # a replace onto a directory that holds a file
        os.mkdir(paths[0])
        write(tmp_path / "a.log" / "kept", "kept")
        with pytest.raises(OSError) as raised:
            embeddings.publish((paths[1], self.writer("new")), (paths[0], self.writer("new")))
        assert (raised.value.filename, raised.value.filename2) == (paths[0], None)
        assert ".tmp" not in str(raised.value)
        assert self.state(paths[1:2]) == ["new"]  # replaced before the failed replace
        assert not list(tmp_path.glob("*.tmp"))

    def test_an_error_about_another_file_is_kept(self, tmp_path):
        def write_elsewhere(tmp):
            raise FileNotFoundError(errno.ENOENT, "No such file or directory", "elsewhere")

        with pytest.raises(FileNotFoundError, match="'elsewhere'$"):
            embeddings.publish((str(tmp_path / "a.tsv"), write_elsewhere))

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
        # rows at scales from 1e-6 to 1e10, each exponent boundary of fixed
        # notation and its neighbouring floats, signed zeros, subnormals,
        # 1e+-300, exact ties at the 10th significant digit and the decimal
        # ties nearest to them, and more rows than one save block holds
        dim = 40
        rows = 2 * (embeddings._SAVE_BLOCK_CELLS // dim) + 3
        rng = np.random.default_rng(11)
        values = rng.standard_normal((rows, dim)) * 10.0 ** rng.integers(-6, 11, size=(rows, 1))
        edges = np.array([9.99999999e-5, 1e-4, 0.99999999995, 1.0, 99999999.95, 999999999.5])
        listed = np.concatenate([
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
            [0.0, 5e-324, 2.5e-310, 2.2250738585072014e-308, 1e-300, 1e300],
            [123456789.5, 123456788.5, 100000000.5, 999999998.5, 1234567885.0, 1234567895.0],
            [0.1234567885, 1.0000000005, 0.0012345678850, 12345.67885, 99999999.5, 0.5, 2.5],
        ])
        values[:2, : len(listed)] = [listed, -listed]
        # the floats nearest to decimal ties: the product with 10^(8 - X) often
        # rounds onto the tie, to either side of the exact value
        tie_rows = [
            [float(f"{k}5e{x - 9}") for k, x in zip(rng.integers(10 ** 8, 10 ** 9, dim), xs)]
            for xs in rng.integers(-4, 9, size=(4, dim))
        ]
        values[2:6] = tie_rows
        for column, decimals in enumerate(range(0, 9, 2)):  # short decimals
            values[6:, column] = np.round(values[6:, column], decimals)
        vocab = ["caf\u00e9", "\u65e5\u672c", "a\u00a0b"] + [f"w{i}" for i in range(3, rows)]
        store = EmbeddingStore(vocab, np.ones((rows, dim)))
        with store.writing() as matrix:
            matrix[:] = values
        path = tmp_path / "out.txt"
        save_embeddings(store, str(path), format)
        expected = "".join(
            token + " " + " ".join(f"{x:.9g}" for x in row) + "\n"
            for token, row in zip(vocab, values.tolist())
        )
        if format == "word2vec-text":
            expected = f"{rows} {dim}\n" + expected
        assert path.read_bytes() == expected.encode("utf-8")

    def test_peak_memory_is_one_block_of_scratch(self, tmp_path):
        store = random_store(2, 20000, 50)  # an 8 MB matrix
        tracemalloc.start()
        try:
            save_embeddings(store, str(tmp_path / "out.txt"), "glove-text")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_empty_store_unconstructible(self):
        with pytest.raises(ValueError):
            EmbeddingStore([], np.zeros((0, 3)))

    @pytest.mark.parametrize("zero", [[0.0, 0.0], [-0.0, 0.0]])
    def test_zero_row_unconstructible(self, zero):
        with pytest.raises(ValueError, match="^all-zero vectors are not allowed$"):
            EmbeddingStore(["a", "b"], [[1e-200, 1e-200], zero])

    def test_overflowing_norm_unconstructible(self):
        with pytest.raises(ValueError, match="^vector norm overflows float64$"):
            EmbeddingStore(["a", "b"], [[1.0, 2.0], [1.5e308, 1.5e308]])
        # sqrt(2) * 1.2e308 is still below the largest float64
        EmbeddingStore(["a", "b"], [[1.0, 2.0], [1.2e308, 1.2e308]])


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
        a = rng.standard_normal((30, 7)) * 10.0 ** rng.uniform(-100, 100, (30, 1))
        plain = np.sqrt(np.einsum("ij,ij->i", a, a))
        np.testing.assert_array_equal(row_norms(a), plain)
        unit, norms = unit_rows(a)
        np.testing.assert_array_equal(norms, plain)
        np.testing.assert_array_equal(unit, a / plain[:, None])
        assert embeddings._in_range(a)[0] is a

    @pytest.mark.parametrize("scale", [1e300, 1e200, 1e-200, 1e-300, 1e-310])
    def test_extreme_rows_keep_true_norms_and_cosines(self, scale):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((2, 10, 4))
        (ua, na), (ub, _) = unit_rows(a), unit_rows(b)
        expected = row_cosines(ua, ub)
        (big_ua, big_na), (big_ub, _) = unit_rows(a * scale), unit_rows(b * scale)
        # 1e-310 is subnormal: its components keep only about 14 digits
        rtol = 1e-13 if scale < 1e-300 else 1e-15
        np.testing.assert_allclose(big_na, na * scale, rtol=rtol)
        np.testing.assert_array_equal(row_norms(a * scale), big_na)
        np.testing.assert_allclose(big_ua, ua, rtol=0, atol=1e-12)
        for left, right in ((big_ua, big_ub), (big_ua, ub)):
            np.testing.assert_allclose(row_cosines(left, right), expected, rtol=0, atol=1e-12)
            np.testing.assert_allclose(left @ right.T, ua @ ub.T, rtol=0, atol=1e-12)
        assert abs(cosine(a[0] * scale, b[0] * scale) - expected[0]) < 1e-12

    def test_unit_row_of_an_overflowing_norm(self):
        unit, norms = unit_rows(np.array([[1.5e308, 1.5e308], [3.0, 4.0]]))
        np.testing.assert_array_equal(norms, [np.inf, 5.0])
        np.testing.assert_allclose(unit, [[0.5 ** 0.5, 0.5 ** 0.5], [0.6, 0.8]], rtol=1e-15)

    def test_power_of_two_scale_leaves_unit_rows_bit_identical(self):
        a = np.random.default_rng(6).standard_normal((5, 9))
        unit, norms = unit_rows(a)
        for power in (600, -600):
            scaled_unit, scaled_norms = unit_rows(np.ldexp(a, power))
            np.testing.assert_array_equal(scaled_unit, unit)
            np.testing.assert_array_equal(scaled_norms, np.ldexp(norms, power))

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
        assert (hit.row, hit.matched_token, hit.truncation_depth) == (0, "running", 0)

    def test_truncation(self):
        store = EmbeddingStore(["run"], [[1.0, 0.0]])
        hit = backoff_lookup(store, "runz")
        assert (hit.row, hit.matched_token, hit.truncation_depth) == (0, "run", 1)

    def test_uncovered(self):
        store = EmbeddingStore(["run"], [[1.0, 0.0]])
        hit = backoff_lookup(store, "qqq")
        assert hit.row is None

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

    @pytest.mark.parametrize("row, k", [
        (True, 1), (np.True_, 1), (1.0, 1), (np.float64(1.0), 1),
        (0, True), (0, np.True_), (0, 2.5), (0, 2.0),
    ])
    def test_bool_or_non_integral_row_or_k_is_type_error(self, row, k):
        # True would index row 1, or add an axis to a row read; 2.5 would cut
        # to 2 neighbours
        with pytest.raises(TypeError):
            nearest_neighbors(random_store(0, 4, 3), row, k)

    def test_integer_types_are_accepted(self):
        store = random_store(0, 5, 3)
        assert nearest_neighbors(store, np.int64(2), np.int32(3)) == nearest_neighbors(store, 2, 3)

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


def exhaustive_neighbors(vectors, k):
    """Oracle: every cell of the full float64 product, each the einsum dot of
    two range-scaled rows over the product of their norms, clipped, ranked by
    a stable descending sort with the query itself excluded."""
    scaled, norms = embeddings._in_range(np.asarray(vectors, dtype=np.float64))[:2]
    n = len(scaled)
    a, b = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
    sims = np.einsum("ij,ij->i", scaled[a], scaled[b]) / (norms[a] * norms[b])
    sims = np.clip(sims, -1.0, 1.0).reshape(n, n)
    np.fill_diagonal(sims, -np.inf)
    near = np.argsort(-sims, axis=1, kind="stable")[:, : min(k, n - 1)]
    return near, np.take_along_axis(sims, near, axis=1)


class TestNearestRows:
    """The float32 screen and float64 re-rank against the exhaustive oracle:
    the same neighbours and bit-identical cosines."""

    @staticmethod
    def check(vectors, ks):
        """Blocked and one-row queries of every row against the oracle."""
        store = EmbeddingStore([f"w{i}" for i in range(len(vectors))], vectors)
        rows = np.arange(len(vectors))
        for k in ks:
            near, cosines = embeddings.nearest_rows(store.current, rows, k)
            expected_near, expected_cosines = exhaustive_neighbors(vectors, k)
            np.testing.assert_array_equal(near, expected_near, err_msg=f"k={k}")
            np.testing.assert_array_equal(cosines, expected_cosines, err_msg=f"k={k}")
            alone = [nearest_neighbors(store, row, k) for row in rows]
            np.testing.assert_array_equal(
                [[r for r, _ in hits] for hits in alone], expected_near, err_msg=f"k={k}")
            np.testing.assert_array_equal(
                [[c for _, c in hits] for hits in alone], expected_cosines, err_msg=f"k={k}")

    @pytest.mark.parametrize("seed", range(6))
    def test_random_rows(self, seed):
        rng = np.random.default_rng(seed)
        n, dim = int(rng.integers(2, 150)), int(rng.integers(1, 60))
        self.check(rng.standard_normal((n, dim)), [1, 3, 10])

    @pytest.mark.parametrize("spread", [1e-10, 1e-8])
    def test_near_ties_below_float32_resolution(self, spread):
        # copies of one direction, each moved by about ``spread`` of it: float32
        # (resolution 6e-8) merges them, or orders them by its rounding; a
        # screen without the slack of its error bound misses the right ones
        rng = np.random.default_rng(11)
        vectors = rng.standard_normal(16) + spread * rng.standard_normal((40, 16))
        vectors[::5] = rng.standard_normal((8, 16))
        self.check(vectors, [1, 5, 12, 39])

    def test_integer_ties(self):
        rng = np.random.default_rng(12)
        vectors = rng.integers(-2, 3, size=(60, 4)).astype(np.float64)
        vectors[~vectors.any(axis=1)] = 1.0
        self.check(vectors, [1, 4, 10, 59])

    def test_extreme_and_subnormal_rows(self):
        rng = np.random.default_rng(13)
        vectors = rng.standard_normal((48, 6))
        vectors[:8] *= 1e200
        vectors[8:16] *= 1e-200
        vectors[16:24, 1:] *= 1e-41  # unit components subnormal in float32
        vectors[24:32, 1:] *= 1e-312  # and in float64
        vectors[32:40] *= 1e-310  # whole rows subnormal, rescaled
        unit32 = EmbeddingStore([f"w{i}" for i in range(48)], vectors).geometry()[2]
        assert (np.abs(unit32[16:24, 1:]) < np.finfo(np.float32).tiny).all()
        self.check(vectors, [1, 7, 20, 47])

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_k_reaches_every_other_row(self, n):
        self.check(np.random.default_rng(n).standard_normal((n, 3)), [n - 1, n, n + 5])

    def test_block_rows_equal_one_row_calls(self):
        # one block is a float32 matrix product, one row a matrix-vector
        # product; their sums differ, the float64 cells do not
        store = random_store(3, 200, 30)
        rows = np.arange(200)
        near, cosines = embeddings.nearest_rows(store.current, rows, 10)
        alone = [embeddings.nearest_rows(store.current, rows[[r]], 10) for r in rows]
        np.testing.assert_array_equal(near, np.vstack([n for n, _ in alone]))
        np.testing.assert_array_equal(cosines, np.vstack([c for _, c in alone]))
        queries = [nearest_neighbors(store, r, 10) for r in range(200)]
        np.testing.assert_array_equal(near, [[r for r, _ in hits] for hits in queries])
        np.testing.assert_array_equal(cosines, [[c for _, c in hits] for hits in queries])

    def test_rows_wider_than_one_einsum_pass(self, monkeypatch):
        # past _EINSUM_COLUMNS a cell is summed pass by pass; the sums, and so the
        # ranking, do not depend on how many rows each gather of cells holds
        dim = embeddings._EINSUM_COLUMNS + 1000
        rng = np.random.default_rng(14)
        vectors = rng.standard_normal((40, dim))
        vectors[20:] = vectors[:20] + 0.5 * rng.standard_normal((20, dim))
        store = EmbeddingStore([f"w{i}" for i in range(40)], vectors)
        rows = np.arange(40)
        runs = []
        for cells in (1 << 18, dim, 3 * dim):  # gathers of 28, 1 and 3 rows
            monkeypatch.setattr(embeddings, "_NEIGHBOR_BLOCK_CELLS", cells)
            runs.append(embeddings.nearest_rows(store.current, rows, 20))
            queries = [nearest_neighbors(store, row, 20) for row in rows]
            np.testing.assert_array_equal(runs[-1][0], [[r for r, _ in q] for q in queries])
            np.testing.assert_array_equal(runs[-1][1], [[c for _, c in q] for q in queries])
        for near, cosines in runs[1:]:
            np.testing.assert_array_equal(near, runs[0][0])
            np.testing.assert_array_equal(cosines, runs[0][1])
        expected_near, expected_cosines = exhaustive_neighbors(vectors, 20)
        np.testing.assert_array_equal(runs[0][0], expected_near)
        np.testing.assert_allclose(runs[0][1], expected_cosines, rtol=0, atol=1e-13)

    @staticmethod
    def count_cells(monkeypatch):
        """The number of float64 cells of each later :func:`_cell_cosines` call."""
        cells = []
        cell_cosines = embeddings._cell_cosines

        def counting(matrix, norms, a, b):
            cells.append(len(b))
            return cell_cosines(matrix, norms, a, b)

        monkeypatch.setattr(embeddings, "_cell_cosines", counting)
        return cells

    def test_screen_keeps_few_candidates(self, monkeypatch):
        cells = self.count_cells(monkeypatch)
        store = random_store(16, 3000, 50)
        embeddings.nearest_rows(store.current, np.arange(0, 3000, 10), 10)
        assert 300 * 10 <= sum(cells) < 300 * 12

    def test_one_row_screen_keeps_few_candidates(self, monkeypatch):
        cells = self.count_cells(monkeypatch)
        store = random_store(16, 3000, 50)
        for row in range(0, 3000, 10):
            nearest_neighbors(store, row, 10)
        assert len(cells) == 300 and 300 * 10 <= sum(cells) < 300 * 12

    def test_one_row_query_allocates_vocabulary_sized_scratch(self):
        store = random_store(16, 3000, 50)
        nearest_neighbors(store, 0, 10)  # builds the float32 rows
        tracemalloc.start()
        try:
            for row in range(1, 3000, 300):
                nearest_neighbors(store, row, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the float32 rows alone are 600 kB, the matrix 1.2 MB
        assert peak < 4 * 3000 * 8


def fresh_neighbors(store, k):
    """Every row's neighbours on a new store built from ``store.current``."""
    fresh = EmbeddingStore(store.vocab, store.current)
    return [nearest_neighbors(fresh, row, k) for row in range(len(fresh))]


class TestTokens:
    @pytest.mark.parametrize("token", ["", "a b", "a\tb", "a\rb", "a\nb", " a", "a\n"])
    def test_rejects_tokens_the_text_formats_cannot_hold(self, token):
        with pytest.raises(ValueError, match="cannot be saved"):
            EmbeddingStore(["ok", token], [[1.5, 2.5], [3.0, 4.0]])

    @pytest.mark.parametrize("format", ["glove-text", "word2vec-text"])
    def test_no_break_space_round_trips(self, tmp_path, format):
        store = EmbeddingStore(["a\u00a0b", "\u00a0"], [[1.5, 2.5], [3.0, 4.0]])
        path = str(tmp_path / "v.txt")
        save_embeddings(store, path, format)
        again = load_embeddings(path, format)
        assert again.vocab == store.vocab
        np.testing.assert_array_equal(again.current, store.current)


class TestWriting:
    def test_current_is_read_only(self):
        store = random_store(2, 4, 3)
        with pytest.raises(ValueError):
            store.current[0] = [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            store.current[:] *= 2.0
        with pytest.raises(AttributeError):
            store.current = np.ones((4, 3))
        with store.writing() as matrix:
            matrix[0] = [1.0, 2.0, 3.0]
        assert store.current[0].tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            matrix[1] = 0.0  # the yielded matrix is read-only again after the block

    def test_constructor_copies_its_input(self):
        vectors = np.array([[1.0, 2.0], [3.0, 4.0]])
        store = EmbeddingStore(["a", "b"], vectors)
        assert vectors.flags.writeable
        assert not np.shares_memory(vectors, store.current)
        vectors[0, 0] = 9.0
        assert store.current[0, 0] == 1.0

    def test_queries_after_a_write_match_a_fresh_store(self):
        store = random_store(8, 12, 5)
        before = [nearest_neighbors(store, row, 4) for row in range(12)]  # warm the cache
        with store.writing() as matrix:
            matrix[[1, 4]] = matrix[[7, 2]] * 3.0
            matrix[9] = 1e-200 * matrix[3]
            # queries inside the block see every write made so far
            inside = nearest_neighbors(store, 9, 4)
            assert inside == fresh_neighbors(store, 4)[9]
            matrix[9] = -matrix[5]
            assert nearest_neighbors(store, 9, 4) == fresh_neighbors(store, 4)[9] != inside
            matrix[0] *= -1.0
        after = [nearest_neighbors(store, row, 4) for row in range(12)]
        assert after == fresh_neighbors(store, 4)
        assert after != before

    def test_queries_after_a_block_that_raised_match_a_fresh_store(self):
        store = random_store(9, 10, 4)
        before = [nearest_neighbors(store, row, 3) for row in range(10)]
        with pytest.raises(RuntimeError, match="^stop$"):
            with store.writing() as matrix:
                matrix[[2, 5]] = -matrix[[6, 1]]
                raise RuntimeError("stop")
        after = [nearest_neighbors(store, row, 3) for row in range(10)]
        assert after == fresh_neighbors(store, 3)
        assert after != before
        with pytest.raises(ValueError):
            store.current[0] = 0.0

    def test_repeated_queries_on_extreme_rows_match_bruteforce(self):
        vectors = [[1e200, 1e200], [3e-200, 1e-200], [1.0, 2.0], [5e200, 1e200],
                   [-1e-200, 2e-200], [2.0, -1.0]]
        store = EmbeddingStore([f"w{i}" for i in range(6)], vectors)
        for row in range(6):
            sims = [(other, cosine(vectors[row], vectors[other]))
                    for other in range(6) if other != row]
            sims.sort(key=lambda t: (-t[1], t[0]))
            first = nearest_neighbors(store, row, 5)
            assert [r for r, _ in first] == [r for r, _ in sims]
            np.testing.assert_allclose([c for _, c in first], [c for _, c in sims],
                                       rtol=0, atol=1e-12)
            for _ in range(3):
                assert nearest_neighbors(store, row, 5) == first

    def test_norms_are_computed_once_per_state(self, monkeypatch, tmp_path):
        calls = []

        def counting(matrix):
            calls.append(len(matrix))
            return in_range(matrix)

        in_range = embeddings._in_range
        path = str(tmp_path / "v.txt")
        save_embeddings(random_store(4, 30, 6), path, "glove-text")
        monkeypatch.setattr(embeddings, "_in_range", counting)
        load_embeddings(path, "glove-text")  # a parse, checked once
        store = load_embeddings(path, "glove-text")  # a cache hit, checked once
        assert calls == [30, 30]
        del calls[:]
        for row in range(30):
            nearest_neighbors(store, row, 5)
        assert calls == [30]  # once, on the first query
        with store.writing() as matrix:
            matrix[3] *= 2.0
        for row in range(30):
            nearest_neighbors(store, row, 5)
        assert calls == [30, 30]  # once more, on the first query after the write

    def test_float32_rows_are_built_once_per_state(self, monkeypatch, tmp_path):
        builds, calls = [], []
        build, in_range = embeddings._unit_rows32, embeddings._in_range
        store = random_store(4, 30, 6)
        with store.writing() as matrix:
            matrix[7] *= 1e-200  # a rescaled row
        expected = (store.current / row_norms(store.current)[:, None]).astype(np.float32)
        monkeypatch.setattr(embeddings, "_unit_rows32",
                            lambda matrix, norms: builds.append(len(matrix)) or build(matrix, norms))
        monkeypatch.setattr(embeddings, "_in_range",
                            lambda matrix: calls.append(len(matrix)) or in_range(matrix))
        nearest_neighbors(store, 0, 5)
        assert builds == [30] and calls == [30]  # the norms once, after the write
        unit32 = store.geometry()[2]
        for row in range(30):
            nearest_neighbors(store, row, 5)
        assert builds == [30] and calls == [30]
        assert store.geometry()[2] is unit32 and unit32.dtype == np.float32
        np.testing.assert_array_equal(unit32, expected)
        with store.writing() as matrix:
            matrix[3] *= 2.0
        assert store._geometry is None
        for row in range(30):
            nearest_neighbors(store, row, 5)
        assert builds == [30, 30] and calls == [30, 30]
        fresh = random_store(5, 30, 6)
        del calls[:]
        nearest_neighbors(fresh, 0, 5)
        assert builds == [30, 30, 30] and calls == [30]  # on its first query, like any store
        path = str(tmp_path / "v.txt")
        save_embeddings(store, path, "glove-text")
        loaded = load_embeddings(path, "glove-text")
        assert loaded._geometry is None and len(builds) == 3
        # counter-fitting's precompute builds its own float32 rows and leaves none on the store
        cs = ConstraintSet()
        cs.add("syn", [(0, 1)])
        cs.add("ant", [(0, 2)])
        specialize(loaded, cs, SpecializeConfig("counterfitting", epochs=1, neighbor_k=3))
        assert len(builds) == 4 and loaded._geometry is None


class TestRankTies:
    """Exact ties in the float64 ranking of small integer stores, through the
    blocked screen and the one-row screen alike."""

    @staticmethod
    def ranked(vectors, k):
        """The neighbours of row 0 and their cosines, equal through both functions."""
        store = EmbeddingStore([f"w{i}" for i in range(len(vectors))], vectors)
        near, cosines = embeddings.nearest_rows(store.current, np.array([0]), k)
        hits = nearest_neighbors(store, 0, k)
        assert [r for r, _ in hits] == near[0].tolist()
        assert np.array([c for _, c in hits]).tobytes() == cosines[0].tobytes()
        return near[0].tolist(), cosines[0]

    @pytest.mark.parametrize("others, expected", [
        # cosines 1, 0, 1, 1, -1: three rows tie at 1 across k = 2
        ([[2, 0], [0, 1], [3, 0], [1, 0], [-1, 0]], {2: [1, 3], 4: [1, 3, 4, 2]}),
        # cosines -1, then 1/sqrt(2) four times, exactly
        ([[-1, 0], [1, 1], [2, 2], [4, 4], [1, 1]], {2: [2, 3], 4: [2, 3, 4, 5]}),
        # cosines 0 four times, then 1
        ([[0, 1], [0, 2], [0, 3], [0, 1], [5, 0]], {2: [5, 1], 4: [5, 1, 2, 3]}),
    ])
    def test_ties_straddling_the_kth_position_go_to_smaller_rows(self, others, expected):
        for k, rows in expected.items():
            assert self.ranked([[1.0, 0.0], *others], k)[0] == rows

    @pytest.mark.parametrize("zeros", [[[-0.0, -1.0], [0.0, 1.0]], [[0.0, 1.0], [-0.0, -1.0]]])
    def test_signed_zeros_tie(self, zeros):
        # the query's products with one row are -0.0, with the other +0.0:
        # both cosines are 0 and tie, whichever row comes first
        near, cosines = self.ranked([[1.0, 0.0], *zeros, [-1.0, 0.0], [0.0, 2.0]], 2)
        assert near == [1, 2]
        assert cosines.tolist() == [0.0, 0.0]
