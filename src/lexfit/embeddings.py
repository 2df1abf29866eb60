"""Dense word embedding storage, text I/O, and vector-space queries."""

from __future__ import annotations

import functools
import hashlib
import io
import itertools
import logging
import operator
import os
import re
from collections.abc import Callable, Iterator
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

log = logging.getLogger(__name__)

FORMATS = ("word2vec-text", "glove-text")


class EmbeddingFormatError(ValueError):
    """Raised when an embedding file violates its declared text format."""


@dataclass
class LookupResult:
    """Outcome of a vocabulary lookup, possibly after end-truncation back-off.

    ``truncation_depth`` counts the letters removed from the query before a
    match was found (0 means an exact hit); ``row`` is None when none was.
    """

    row: int | None
    matched_token: str | None
    truncation_depth: int


class EmbeddingStore:
    """Vocabulary-indexed embedding matrix.

    ``current`` is the one matrix, read-only: :meth:`writing` is the one way
    to change it. A specialization run anchors to the store it is given, so
    the vectors a run starts from are ``current`` until its write. For cosine
    queries the store keeps the row norms and float32 unit rows that the first query
    computes; a write drops them.
    """

    def __init__(self, vocab, vectors):
        self._own(*_checked([str(t) for t in vocab], np.array(vectors, np.float64)))

    def _own(self, vocab: list[str], matrix: np.ndarray) -> None:
        """Take the checked, unshared ``matrix`` as is."""
        self.vocab: list[str] = vocab
        self.dim: int = int(matrix.shape[1])
        self._matrix = matrix
        self._matrix.setflags(write=False)
        # (matrix, norms, unit32), built by the first query
        self._geometry: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self.index: dict[str, int] = {tok: i for i, tok in enumerate(vocab)}
        self.n_duplicates_dropped: int = 0
        self._source_sha256: str | None = None  # of the text a load read

    @property
    def current(self) -> np.ndarray:
        """The working matrix; read-only outside :meth:`writing`."""
        return self._matrix

    @contextmanager
    def writing(self) -> Iterator[np.ndarray]:
        """Yield ``current``, writable until the ``with`` block exits.

        The cached row geometry is dropped on entry and on exit, also when
        the block raises; queries inside the block recompute it each time.
        Blocks do not nest: the inner exit makes ``current`` read-only.
        """
        self._geometry = None
        self._matrix.setflags(write=True)
        try:
            yield self._matrix
        finally:
            self._matrix.setflags(write=False)
            self._geometry = None

    def geometry(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(matrix, norms, unit32)`` of ``current`` for :func:`nearest_neighbors`:
        the rows with out-of-range norms rescaled (the matrix itself when
        there are none), the norms of those rows, and their float32 unit
        rows, computed on the first read and again on the first read after a write.
        """
        if self._geometry is not None:
            return self._geometry
        matrix, norms = _in_range(self._matrix)[:2]
        geometry = matrix, norms, _unit_rows32(matrix, norms)
        if not self._matrix.flags.writeable:  # kept while no write can change it
            norms.setflags(write=False)
            self._geometry = geometry
        return geometry

    def __len__(self) -> int:
        return len(self.vocab)

    def __contains__(self, token: str) -> bool:
        return token in self.index


def _parse_header(line: str, where: str) -> tuple[int, int]:
    """The count and dimension of a word2vec-text header; ``where`` is its ``path:line``."""
    parts = line.split()
    if len(parts) != 2:
        raise EmbeddingFormatError(
            f"{where}: word2vec-text header must be 'vocab_count dim', got {line!r}"
        )
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise EmbeddingFormatError(f"{where}: malformed header {line!r}") from exc
    if dim <= 0:
        raise EmbeddingFormatError(f"{where}: non-positive dimension {dim}")
    return count, dim


# A token runs to the first ASCII space or tab; other Unicode whitespace,
# such as U+00A0, may occur inside it, but no CR or LF, which end a record.
_TOKEN = re.compile(r"[ \t]*([^ \t\n]+)")
_UNSAVABLE = re.compile(r"[ \t\r\n]")


def _checked(vocab: list[str], matrix: np.ndarray) -> tuple[list[str], np.ndarray]:
    """``vocab`` and ``matrix``, once the two pass every check of a store
    (ValueError if not): built or read from a cache."""
    if matrix.ndim != 2 or matrix.dtype != np.float64:
        raise ValueError("vectors must form a 2-d float64 matrix")
    if matrix.shape[0] != len(vocab):
        raise ValueError(f"vocab size {len(vocab)} does not match matrix rows {matrix.shape[0]}")
    if matrix.shape[0] == 0:
        raise ValueError("empty embedding store")
    if len(set(vocab)) != len(vocab):
        raise ValueError("vocabulary contains duplicate tokens")
    bad = [token for token in vocab if not token or _UNSAVABLE.search(token)]
    if bad:
        raise ValueError(f"token {bad[0]!r} cannot be saved: a token must be nonempty, "
                         "without ASCII space, tab, CR or LF")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("vectors contain non-finite values")
    if not matrix.any(axis=1).all():
        raise ValueError("all-zero vectors are not allowed")
    if np.isinf(_in_range(matrix)[2]).any():
        raise ValueError("vector norm overflows float64")
    return vocab, matrix


def _content_lines(fh):
    """(line number, line) of every line of ``fh`` that is not blank."""
    for lineno, line in enumerate(fh, start=1):
        if not line.isspace():
            yield lineno, line


def _split_record(line: str) -> tuple[str, str]:
    """The token of a record line and the text of its vector values."""
    match = _TOKEN.match(line)
    return match.group(1), line[match.end():]


def load_embeddings(path: str, format: str) -> EmbeddingStore:
    """Read a text embedding file into an :class:`EmbeddingStore`.

    ``word2vec-text`` files carry a ``vocab_count dim`` header line;
    ``glove-text`` files start directly with records. Every record is
    ``token v1 v2 ... vdim``; the token ends at the first ASCII space or tab.
    Duplicate tokens keep their first occurrence (later ones are dropped and
    counted); zero vectors, non-finite or non-numeric values, vectors whose
    norm overflows float64, and dimension mismatches are rejected with the
    line number of the first bad record.

    A parse of a regular file is cached beside it (:func:`_write_cache`); a later load of
    the same bytes in the same format reads the cache instead, and returns the same store
    with the same warnings, unless the cache fails a store's checks: then it parses again.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown embedding format {format!r}, expected one of {FORMATS}")
    cache = os.fspath(path) + _CACHE_SUFFIX
    regular = os.path.isfile(path)
    parsed = None
    if regular and os.path.isfile(cache):
        digest = _sha256(path)
        parsed = _read_cache(cache, _cache_key(format, digest))
    if parsed is None:
        parsed, digest = _parse(path, format, regular)
        if regular:
            _write_cache(cache, _cache_key(format, digest), *parsed)
    vocab, matrix, declared_count, n_duplicates = parsed
    if declared_count is not None and declared_count != len(vocab) + n_duplicates:
        log.warning(
            "%s: header declares %d vectors but file contains %d",
            path, declared_count, len(vocab) + n_duplicates,
        )
    if n_duplicates:
        log.warning("%s: dropped %d duplicate tokens (first occurrence kept)", path, n_duplicates)

    store = EmbeddingStore.__new__(EmbeddingStore)  # checked by the parse or the cache read
    store._own(vocab, matrix)
    store.n_duplicates_dropped = n_duplicates
    store._source_sha256 = digest
    return store


def _parse(path: str, format: str, regular: bool) -> tuple[tuple, str]:
    """The vocabulary, the float64 matrix, the header's count (None without
    one) and the number of duplicates dropped, of the file at ``path``; and
    the sha256 of the bytes that parse read.

    The file is streamed once: the token is split off each line, and the
    rest of every line goes to one bulk numeric parse. Only a ``regular``
    file is read again, to locate a fault by its line.
    """
    tokens: list[str] = []
    dim: int | None = None
    declared_count: int | None = None

    def values(lines):
        for _, line in lines:
            token, rest = _split_record(line)
            if not rest or rest.isspace():
                # the bulk parse would skip this record as a blank line
                raise ValueError("record has no vector values")
            tokens.append(token)
            yield rest

    raw = _Sha256Reader(path)
    with io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8") as fh:
        lines = _content_lines(fh)
        if format == "word2vec-text":
            header = next(lines, None)
            if header is not None:
                lineno, line = header
                declared_count, dim = _parse_header(line.rstrip("\r\n"), f"{path}:{lineno}")
        records = values(lines)
        empty = False  # whether the records read in full are none
        try:
            first = next(records, None)  # np.loadtxt warns on an input without rows
            empty = first is None
            matrix = None if empty else np.loadtxt(
                itertools.chain([first], records), dtype=np.float64, ndmin=2, comments=None
            )
        except ValueError:
            matrix = None
    if (
        matrix is None
        or (dim is not None and matrix.shape[1] != dim)
        or not np.isfinite(matrix).all()
        or not matrix.any(axis=1).all()
        or np.isinf(_in_range(matrix)[2]).any()
    ):
        if regular:
            _raise_first_fault(path, format, dim)
        # a FIFO or device cannot be read again to locate the fault
        raise EmbeddingFormatError(f"{path}: no embedding records found" if empty
                                   else f"{path}: malformed vector data")

    first_rows: dict[str, int] = {}
    for row, token in enumerate(tokens):
        first_rows.setdefault(token, row)
    n_duplicates = len(tokens) - len(first_rows)
    if n_duplicates:
        matrix = matrix[list(first_rows.values())]
    return (list(first_rows), matrix, declared_count, n_duplicates), raw.digest.hexdigest()


def _raise_first_fault(path: str, format: str, dim: int | None) -> NoReturn:
    """Raise the error for the first record, in file order, that cannot be loaded.

    Runs only after the bulk parse of :func:`load_embeddings` failed or found
    a bad row. It parses one record at a time with the same number parser.
    """
    with open(path, encoding="utf-8") as fh:
        lines = _content_lines(fh)
        if format == "word2vec-text":
            next(lines, None)
        lineno = None
        for lineno, line in lines:
            token, rest = _split_record(line)
            n_values = len(rest.split())
            if dim is None:
                dim = n_values
                if dim == 0:
                    raise EmbeddingFormatError(f"{path}:{lineno}: record has no vector values")
            if n_values != dim:
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: expected {dim} values, got {n_values}"
                )
            try:
                vec = np.loadtxt([rest], dtype=np.float64, comments=None)
            except ValueError as exc:
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: non-numeric vector component"
                ) from exc
            if not np.all(np.isfinite(vec)):
                raise EmbeddingFormatError(f"{path}:{lineno}: non-finite vector component")
            if not np.any(vec):
                raise EmbeddingFormatError(f"{path}:{lineno}: all-zero vector for {token!r}")
            if np.isinf(row_norms(vec.reshape(1, -1)))[0]:
                raise EmbeddingFormatError(f"{path}:{lineno}: vector norm overflows float64")
    if lineno is None:
        raise EmbeddingFormatError(f"{path}: no embedding records found")
    raise EmbeddingFormatError(f"{path}: malformed vector data")


# --- parse cache -----------------------------------------------------------
# A parse of a regular file is kept beside it, in <path>.lexfit-cache: four
# .npy records, the key, the counts as text ("<header count or None>
# <duplicates dropped>"), the vocabulary as UTF-8 joined by LF (no token holds
# one) and the matrix. The key is the layout version, the format and the
# sha256 of the text; bump the version whenever parsing could change.
_CACHE_SUFFIX = ".lexfit-cache"
_CACHE_VERSION = 1


def _cache_key(format: str, digest: str) -> bytes:
    return f"lexfit-cache {_CACHE_VERSION} {format} {digest}".encode()


class _Sha256Reader(io.FileIO):
    """The file at ``path``, opened to read unbuffered, feeding each byte that
    :meth:`readinto` returns to ``digest``. An ``io.BufferedReader`` on it
    reads through ``readinto``, except in ``read()`` to the end of the file."""

    def __init__(self, path: str):
        super().__init__(path, "rb")
        self.digest = hashlib.sha256()

    def readinto(self, buffer) -> int:
        n = super().readinto(buffer)
        self.digest.update(memoryview(buffer)[:n])
        return n


def _sha256(path: str) -> str:
    """The hex sha256 of the file at ``path``, read in 1 MiB chunks."""
    buffer = bytearray(1 << 20)
    with _Sha256Reader(path) as raw:
        while raw.readinto(buffer):
            pass
    return raw.digest.hexdigest()


def _read_cache(cache: str, key: bytes) -> tuple | None:
    """What :func:`_parse` returned for the text of ``key``, from ``cache``; None
    if the file holds anything else, cannot be read, or fails :func:`_checked`."""
    read = functools.partial(np.lib.format.read_array, allow_pickle=False)
    try:
        with open(cache, "rb") as fh:
            if read(fh).tobytes() != key:
                return None
            counts, vocab, matrix = read(fh), read(fh), read(fh)
        declared_count, n_duplicates = counts.tobytes().decode().split()
        counts = None if declared_count == "None" else int(declared_count), int(n_duplicates)
        vocab = vocab.tobytes().decode().split("\n")
        _checked(vocab, matrix)
    except (OSError, ValueError):
        return None
    return vocab, matrix, *counts


def _write_cache(cache: str, key: bytes, vocab: list[str], matrix: np.ndarray,
                 declared_count: int | None, n_duplicates: int) -> None:
    """Publish the parse to ``cache``; skipped, without a message, where that fails."""
    records = (key, f"{declared_count} {n_duplicates}".encode(), "\n".join(vocab).encode())

    def write(tmp: str) -> None:
        with open(tmp, "xb") as fh:
            for record in records:
                np.lib.format.write_array(fh, np.frombuffer(record, np.uint8))
            np.lib.format.write_array(fh, matrix)  # a file: tofile, without a copy

    with suppress(OSError):
        publish((cache, write))


def publish(*files: tuple[str, Callable[[str], object]]) -> None:
    """Put each ``(path, write)`` file in place whole.

    Each ``write(tmp)`` writes ``<path>.<pid>.tmp`` beside its path, in the order
    given; once all are written, each replaces its path, in the same order. Where
    a write or a replace raises, the temporary files left are removed and the error
    propagates: a path replaced before a failed replace keeps its new file.
    """
    staged = [(f"{path}.{os.getpid()}.tmp", path) for path, _ in files]
    try:
        for (tmp, _), (_, write) in zip(staged, files):
            write(tmp)
        for tmp, path in staged:
            os.replace(tmp, path)
    finally:
        for tmp, _ in staged:  # none is left once all are in place
            with suppress(OSError):
                os.remove(tmp)


def save_embeddings(store: EmbeddingStore, path: str, format: str) -> None:
    """Write ``store.current`` as text, each component exactly as ``"%.9g"``
    writes it, formatted in numpy one block of rows at a time (:func:`_format_block`).

    A save/load round trip reproduces the vocabulary exactly and every
    component within 1e-6.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown embedding format {format!r}, expected one of {FORMATS}")
    step = max(1, _SAVE_BLOCK_CELLS // store.dim)
    slots = np.empty((min(step, len(store)), store.dim, 3), dtype=_WORD)
    with open(path, "wb") as fh:
        if format == "word2vec-text":
            fh.write(f"{len(store)} {store.dim}\n".encode())
        for start in range(0, len(store), step):
            block = store.current[start : start + step]
            lines = _format_block(block, slots[: len(block)])
            tokens = store.vocab[start : start + step]
            fh.write(b"".join(b"%s %s\n" % (t.encode(), line) for t, line in zip(tokens, lines)))


# --- text save ---------------------------------------------------------------
# "%.9g" writes v in fixed notation when its 9-digit rounding has decimal
# exponent X in [-4, 8]: the digits d0..d8 of round(|v| * 10^(8 - X)) less the
# trailing zeros after the point, which follows d_X (for X < 0, "0." and -X - 1
# zeros precede d0). Each value fills a slot of three little-endian words (p_i:
# a point after d_i), NUL elsewhere, so the text is the slot without its NULs:
#     [- 0 . 0 0 0 d0 p0]  [d1 p1 d2 p2 d3 p3 d4 p4]  [d5 p5 d6 p6 d7 p7 d8 sep]
# "%.9g" itself fills the slots of values in exponent notation and of those
# whose scaled product lands on a half-integer.
_SAVE_BLOCK_CELLS = 1 << 14  # values per block, to bound the scratch
_WORD = np.dtype("<u8")


@functools.cache  # built by the first save, not at import
def _save_tables() -> tuple:
    """The read-only lookup tables of :func:`_format_block`, by X + 4 or by digits."""
    exps = range(-4, 9)
    scale = np.array([float(10 ** (8 - x)) for x in exps])  # exact
    # 4 digits at every other byte, trailing zeros as NUL ("0" | NUL is "0")
    powers = np.array([1000, 100, 10, 1], dtype=np.uint16)
    digits = (np.arange(10 ** 4, dtype=np.uint16)[:, None] // powers % powers[2]).astype(np.uint8)
    kept = np.logical_or.accumulate(digits[:, ::-1] != 0, axis=1)[:, ::-1]
    digits4 = np.zeros((10 ** 4, 8), dtype=np.uint8)
    digits4[:, ::2] = (digits + np.uint8(48)) * kept
    lead = (np.arange(11, dtype=_WORD) + np.uint64(48)) << np.uint64(48)
    # by [negative, point, X + 4]: sign, "0.", zeros, point, stripped integer zeros
    at = [6, *range(8, 24, 2)]  # byte of digit i
    fixed = np.zeros((2, 2, 13, 24), dtype=np.uint8)
    fixed[1, :, :, 0] = ord("-")
    for x in exps:
        if x < 0:
            fixed[:, :, x + 4, 1 : 2 - x] = np.frombuffer(b"0." + b"0" * (-x - 1), np.uint8)
        else:
            fixed[:, :, x + 4, at[1 : x + 1]] = ord("0")
            if x < 8:  # at X = 8 no digit follows the point
                fixed[:, 1, x + 4, at[x] + 1] = ord(".")
    tables = scale, digits4.view(_WORD).ravel(), lead, fixed.view(_WORD).reshape(-1, 3)
    for table in tables:
        table.setflags(write=False)
    return tables


def _format_block(block: np.ndarray, slots: np.ndarray) -> list[bytes]:
    """The text of each row of ``block``, ``" ".join("%.9g" % v for v in row)``,
    and an empty last item; ``slots`` is ``(rows, dim, 3)`` word scratch."""
    scales, digits4, leads, fixed = _save_tables()
    values = block.ravel()
    words = slots.reshape(-1, 3)
    a = np.abs(values)
    with np.errstate(divide="ignore"):  # log10(0) is -inf, clipped to X = -4
        x = np.floor(np.log10(a))
    xi = np.fmax(np.fmin(x, 8.0, out=x), -4.0, out=x).astype(np.intp) + 4  # X + 4
    scale = scales.take(xi)
    s = a * scale
    mantissa = np.rint(s)
    # s is |v| * 10^(8 - X) rounded once, and rounding is monotone: unless s is
    # a half-integer (all below 2^30 are floats), rint rounds it as it would the
    # exact product. An X one too high passes s >= 1e8 only where the exact
    # product is within round-off below 1e8, where its rounding carries anyway
    fast = (s >= 1e8) & (mantissa < 1e9)
    np.subtract(s, mantissa, out=s, where=fast)  # not inf - inf
    fast &= np.abs(s, out=s) < 0.5
    digits = np.fmin(mantissa, 1e9, out=mantissa).astype(np.int64)  # defined for all
    point = digits % scale.astype(np.int64) != 0  # digits after d_X are not all 0
    lead = digits // 10 ** 8
    digits -= lead * 10 ** 8
    middle = digits // 10 ** 4
    digits -= middle * 10 ** 4  # the last four: unless all 0, the middle four keep their zeros
    words[:, 0] = leads.take(lead)
    words[:, 1] = digits4.take(middle) | (digits != 0) * np.uint64(0x0030003000300030)
    words[:, 2] = digits4.take(digits)
    xi += 13 * (point + 2 * (values < 0))
    words |= fixed.take(xi, axis=0)
    slow = np.flatnonzero(~fast)
    text = "".join(["%-23.9g" % v for v in values[slow].tolist()]).replace(" ", "\0")
    words.view(np.uint8)[slow, :23] = np.frombuffer(text.encode(), np.uint8).reshape(-1, 23)
    slots[:, :, 2] |= np.uint64(ord(" ") << 56)
    slots[:, -1, 2] ^= np.uint64((ord(" ") ^ ord("\n")) << 56)
    return slots.tobytes().translate(None, b"\0").split(b"\n")


def cosine(u, v) -> float:
    """Cosine similarity of two nonzero vectors, clipped into [-1, 1]."""
    u, v = (np.asarray(x, dtype=np.float64).reshape(1, -1) for x in (u, v))
    if not (u.any() and v.any()):
        raise ValueError("cosine of a zero vector is undefined")
    return float(row_cosines(unit_rows(u)[0], unit_rows(v)[0])[0])


def distance(u, v) -> float:
    """Cosine distance 1 - cos(u, v), in [0, 2]. Zero iff u, v are positive multiples."""
    return 1.0 - cosine(u, v)


def backoff_lookup(store: EmbeddingStore, token: str) -> LookupResult:
    """Resolve a token, deleting its final character until a vocabulary hit.

    Uncovered queries (the string empties without a match) return
    ``row=None`` rather than raising.
    """
    if not token:
        raise ValueError("empty query token")
    query = token
    depth = 0
    while query:
        row = store.index.get(query)
        if row is not None:
            return LookupResult(row=row, matched_token=query, truncation_depth=depth)
        query = query[:-1]
        depth += 1
    return LookupResult(row=None, matched_token=None, truncation_depth=depth)


# --- cosine geometry --------------------------------------------------------
# Every norm of the package is computed here, and every cosine is a dot of
# unit rows. A row whose norm lies outside [2^-480, 2^480] (its sum of squares
# outside [2^-960, 2^960]) is first divided by the power of two that brings its
# largest component into [0.5, 1). That division is exact, so norms and unit
# rows are right for every finite row.
_NORM_RANGE = (2.0 ** -480, 2.0 ** 480)

# bound the (block rows x vocabulary) screen scratch of :func:`nearest_rows`,
# and the rows :func:`_cell_cosines` gathers; the row floor keeps each block's
# screen a matrix product at large vocabularies
_NEIGHBOR_BLOCK_CELLS = 1 << 18
_NEIGHBOR_BLOCK_ROWS = 64
# einsum reduces at most this many columns of a row in one pass; past it, how
# it splits a row's sum depends on the other rows of the call
_EINSUM_COLUMNS = 8192


def _in_range(matrix: np.ndarray) -> tuple:
    """``matrix`` with its out-of-range rows rescaled (the input, uncopied,
    when every row is in range), the norms of those rows, and the true norms:
    inf where they exceed the largest float64."""
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
    if not len(norms) or _NORM_RANGE[0] <= norms.min() and norms.max() <= _NORM_RANGE[1]:
        return matrix, norms, norms
    out = ~((norms >= _NORM_RANGE[0]) & (norms <= _NORM_RANGE[1]))
    exponents = np.where(out, np.frexp(np.abs(matrix).max(axis=1))[1], 0)
    matrix = np.ldexp(matrix, -exponents[:, None])
    scaled = np.where(out, np.sqrt(np.einsum("ij,ij->i", matrix, matrix)), norms)
    with np.errstate(over="ignore"):
        return matrix, scaled, np.ldexp(scaled, exponents)


def row_norms(matrix: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row; inf where it exceeds the largest float64."""
    return _in_range(matrix)[2]


def unit_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each nonzero row of ``matrix`` divided by its norm, and the norms as
    :func:`row_norms` gives them. The one place rows are normalized, besides
    the float32 screen rows of :func:`_unit_rows32`."""
    scaled, norms, true_norms = _in_range(matrix)
    return scaled / norms[:, None], true_norms


def _unit_rows32(matrix: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """The rows of the range-scaled ``matrix`` over their ``norms``, rounded to
    float32, for the screen of :func:`nearest_rows`. Divided straight into
    the float32 result, so no float64 matrix of that size is formed."""
    return np.divide(matrix, norms[:, None], out=np.empty(matrix.shape, dtype=np.float32))


def _screen_error(dim: int) -> float:
    """A bound on |screen score - float64 cell| in :func:`nearest_rows` for
    rows of ``dim`` columns.

    With u = 2^-24, w = 2^-53 and gamma(m) = m u / (1 - m u), each bound
    measured against the true cosine:
    - a float64 cell (:func:`_cell_cosines`) is a dot of two range-scaled
      rows, off by gamma_w(dim) of the product of their norms, over that
      product, whose norms are each off by (dim / 2 + 1) w, with two more
      roundings; clipping only moves it toward the true cosine. That is
      (2 dim + 4) w, and (2 dim + 8) w also covers the w^2 terms and
      underflow (the norms are at least 2^-480, so dim 2^-115 relative);
    - a float32 unit row (:func:`_unit_rows32`) is the row over its norm,
      rounded to float64 and then to float32: each component is off by
      a = u + (dim / 2 + 2) w relative, or by 2^-126 absolute where float32
      is subnormal, even flushed to zero;
    - a screen score is the float32 dot of two such rows, summed in any
      order, with or without fused multiply-adds: off by
      gamma(dim) (1 + a)^2 + 2 a + a^2, which is at least u less than
      gamma(dim + 3) for every dim below 2^23. Underflow adds at most 2^-126
      per component, product and partial sum: 4 dim 2^-126.
    The spare u, counted twice in the cut, covers the rounding of the cut in
    float64. From 2^23 - 3 columns on, the largest float32 stands in for the
    bound: every finite score passes the cut, so every column is scored in
    float64, but the query's own -inf does not.
    """
    m = (dim + 3) * 2.0 ** -24
    if m >= 0.5:
        return float(np.finfo(np.float32).max)
    return m / (1.0 - m) + (2 * dim + 8) * 2.0 ** -53 + 4 * dim * 2.0 ** -126


def _cell_cosines(matrix: np.ndarray, norms: np.ndarray, a: int, b: np.ndarray) -> np.ndarray:
    """The cosine of row ``a`` of the range-scaled ``matrix`` with each of its
    rows ``b``: the einsum dot of the two rows over the product of their
    ``norms``, clipped into [-1, 1].

    Row ``a`` is read in place. Each cell is reduced on its own, in einsum
    passes of at most ``_EINSUM_COLUMNS`` columns summed in order, so it does
    not depend on the other rows of ``b``. Rows with exact products keep
    exact ties: dotting unit rows instead gives orthogonal integer rows
    cosines like -2.2e-17, which reorders rows tied at 0.
    """
    out = np.empty(len(b))
    x, dim = matrix[a], matrix.shape[1]
    step = max(1, _NEIGHBOR_BLOCK_CELLS // dim)
    for start in range(0, len(b), step):
        y = matrix[b[start : start + step]]
        dots = out[start : start + step]
        np.einsum("j,ij->i", x[:_EINSUM_COLUMNS], y[:, :_EINSUM_COLUMNS], out=dots)
        for col in range(_EINSUM_COLUMNS, dim, _EINSUM_COLUMNS):
            dots += np.einsum("j,ij->i", x[col : col + _EINSUM_COLUMNS],
                              y[:, col : col + _EINSUM_COLUMNS])
    out /= norms[a] * norms[b]
    return np.minimum(np.maximum(out, -1.0, out=out), 1.0, out=out)  # np.clip, with less overhead


def shared_scale(n1: np.ndarray, n2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both norms of each pair ``(n1[i], n2[i])`` divided by one power of two,
    and its exponent.

    A pair whose larger norm exceeds 2^480 is divided by the power of two
    that brings that norm into [0.5, 1), as :func:`_in_range` rescales a row,
    so sums of the two stay finite; other pairs keep their bits (exponent 0).
    """
    larger = np.maximum(n1, n2)
    exponents = np.where(larger > _NORM_RANGE[1], np.frexp(larger)[1], 0)
    return np.ldexp(n1, -exponents), np.ldexp(n2, -exponents), exponents


def row_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine of each row pair ``(a[i], b[i])`` of unit rows; in [-1, 1]."""
    return np.clip(np.einsum("ij,ij->i", a, b), -1.0, 1.0)


def _rank(matrix: np.ndarray, norms: np.ndarray, row: int, scores: np.ndarray,
          k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` other rows of the range-scaled ``matrix`` closest to ``row``
    by float64 cosine, descending, ties toward the smaller row, and their
    cosines. ``scores``, the float32 screen of ``row`` against every row, is
    overwritten at ``row``.

    At least k other columns score kth or more, so their cells, and the
    float64 k-th cell, are at least kth - :func:`_screen_error`; a cell that
    high scores at least kth - 2 * error. Only the columns at or above that
    cut, compared in float64 so it is exact, are scored, by :func:`_cell_cosines`.
    """
    scores[row] = -np.inf
    cut = np.subtract(np.partition(scores, -k)[-k], 2.0 * _screen_error(matrix.shape[1]),
                      dtype=np.float64)
    cols = np.flatnonzero(scores >= cut)
    cells = _cell_cosines(matrix, norms, row, cols)
    picked = np.lexsort((cols, -cells))[:k]
    return cols[picked], cells[picked]


def nearest_rows(matrix: np.ndarray, rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """For each of ``rows``, the ``min(k, len(matrix) - 1)`` other rows of
    ``matrix`` closest by cosine, ranked by :func:`_rank`, and their cosines.
    The range-scaled rows, their norms and their float32 unit rows are
    derived here and dropped on return. Needs ``len(matrix) >= 2``.

    One float32 product of unit rows screens every column, one bounded block
    of ``rows`` at a time; each row of the block is then ranked on its own.
    """
    matrix, norms = _in_range(matrix)[:2]
    unit32 = _unit_rows32(matrix, norms)
    k = min(k, len(matrix) - 1)
    indices = np.empty((len(rows), k), dtype=np.intp)
    cosines = np.empty((len(rows), k))
    step = max(_NEIGHBOR_BLOCK_ROWS, _NEIGHBOR_BLOCK_CELLS // len(matrix))
    for start in range(0, len(rows), step):
        for i, scores in enumerate(unit32[rows[start : start + step]] @ unit32.T, start):
            indices[i], cosines[i] = _rank(matrix, norms, rows[i], scores, k)
    return indices, cosines


def nearest_neighbors(store: EmbeddingStore, row: int, k: int) -> list[tuple[int, float]]:
    """Top-k rows of ``store.current`` by cosine to the query row, excluding the query itself.

    Returns ``min(k, len(store) - 1)`` entries sorted by descending cosine;
    ties break toward the smaller row index; ``row`` and ``k`` are integers,
    not bools. The neighbours and cosines of :func:`nearest_rows`, ranked by
    the same :func:`_rank`; only the screen differs: a float32 matrix-vector
    product of the unit rows the store keeps.
    """
    if isinstance(row, bool) or isinstance(k, bool):
        raise TypeError("row and k must be integers, not bools")
    row, k = operator.index(row), operator.index(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= row < len(store):
        raise IndexError(f"row {row} out of range for store of size {len(store)}")
    if len(store) == 1:
        return []
    matrix, norms, unit32 = store.geometry()
    cols, cells = _rank(matrix, norms, row, unit32 @ unit32[row], min(k, len(matrix) - 1))
    return list(zip(cols.tolist(), cells.tolist()))
