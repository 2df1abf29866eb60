"""Dense word embedding storage, text I/O, and vector-space queries."""

from __future__ import annotations

import itertools
import logging
import re
from collections.abc import Iterator
from contextlib import contextmanager
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
    match was found (0 means an exact hit). ``covered`` is true iff ``row``
    is present.
    """

    row: int | None
    matched_token: str | None
    truncation_depth: int
    covered: bool


class EmbeddingStore:
    """Vocabulary-indexed embedding matrix with a frozen copy of the load-time vectors.

    ``current`` is the matrix that specialization changes, and ``original``
    keeps the pre-specialization vectors for preservation terms. Both are
    read-only: :meth:`writing` is the one way to change ``current``. The
    store keeps the row norms it computed at construction for cosine
    queries, and a write drops them.
    """

    def __init__(self, vocab, vectors):
        vocab = [str(t) for t in vocab]
        matrix = np.array(vectors, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("vectors must form a 2-d matrix")
        if matrix.shape[0] != len(vocab):
            raise ValueError(
                f"vocab size {len(vocab)} does not match matrix rows {matrix.shape[0]}"
            )
        if matrix.shape[0] == 0:
            raise ValueError("empty embedding store")
        if len(set(vocab)) != len(vocab):
            raise ValueError("vocabulary contains duplicate tokens")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("vectors contain non-finite values")
        if not matrix.any(axis=1).all():
            raise ValueError("all-zero vectors are not allowed")
        scaled, norms, true_norms = _in_range(matrix)
        if np.isinf(true_norms).any():
            raise ValueError("vector norm overflows float64")
        self.vocab: list[str] = vocab
        self.dim: int = int(matrix.shape[1])
        self._matrix = matrix
        self._matrix.setflags(write=False)
        self.original: np.ndarray = matrix.copy()
        self.original.setflags(write=False)
        norms.setflags(write=False)
        # current equals original here, so one rescale serves both; a
        # rescaled copy is independent of the matrix it came from
        self._original_geometry = (self.original if scaled is matrix else scaled, norms)
        self._geometry: tuple[np.ndarray, np.ndarray] | None = (scaled, norms)
        self.index: dict[str, int] = {tok: i for i, tok in enumerate(vocab)}
        self.n_duplicates_dropped: int = 0

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

    def geometry(self, original: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """``(matrix, norms)`` of ``current``, or of ``original``, for
        :func:`nearest_rows`: the rows with out-of-range norms rescaled (the
        matrix itself when there are none) and the norms of those rows.
        Computed at construction, and again on the first read after a write.
        """
        if original:
            return self._original_geometry
        geometry = self._geometry
        if geometry is None:
            geometry = _in_range(self._matrix)[:2]
            if not self._matrix.flags.writeable:
                self._geometry = geometry
        return geometry

    def __len__(self) -> int:
        return len(self.vocab)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def row_of(self, token: str) -> int:
        return self.index[token]


def _parse_header(line: str, path: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise EmbeddingFormatError(
            f"{path}:1: word2vec-text header must be 'vocab_count dim', got {line!r}"
        )
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise EmbeddingFormatError(f"{path}:1: malformed header {line!r}") from exc


# A token runs to the first ASCII space or tab; other Unicode whitespace,
# such as U+00A0, may occur inside it.
_TOKEN = re.compile(r"[ \t]*([^ \t\n]+)")


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

    The file is streamed once: the token is split off each line, and the
    rest of every line goes to one bulk numeric parse.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown embedding format {format!r}, expected one of {FORMATS}")

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

    with open(path, encoding="utf-8") as fh:
        lines = _content_lines(fh)
        if format == "word2vec-text":
            header = next(lines, None)
            if header is not None:
                declared_count, dim = _parse_header(header[1].rstrip("\r\n"), path)
                if dim <= 0:
                    raise EmbeddingFormatError(f"{path}:1: non-positive dimension {dim}")
        records = values(lines)
        try:
            first = next(records, None)  # np.loadtxt warns on an input without rows
            matrix = None if first is None else np.loadtxt(
                itertools.chain([first], records), dtype=np.float64, ndmin=2, comments=None
            )
        except ValueError:
            matrix = None
    if (
        matrix is None
        or (dim is not None and matrix.shape[1] != dim)
        or not np.isfinite(matrix).all()
        or not matrix.any(axis=1).all()
        or np.isinf(row_norms(matrix)).any()
    ):
        _raise_first_fault(path, format, dim)

    first_rows: dict[str, int] = {}
    for row, token in enumerate(tokens):
        first_rows.setdefault(token, row)
    n_duplicates = len(tokens) - len(first_rows)
    if declared_count is not None and declared_count != len(tokens):
        log.warning(
            "%s: header declares %d vectors but file contains %d",
            path, declared_count, len(tokens),
        )
    if n_duplicates:
        log.warning("%s: dropped %d duplicate tokens (first occurrence kept)", path, n_duplicates)
        matrix = matrix[list(first_rows.values())]

    store = EmbeddingStore(list(first_rows), matrix)
    store.n_duplicates_dropped = n_duplicates
    return store


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


def save_embeddings(store: EmbeddingStore, path: str, format: str) -> None:
    """Write ``store.current`` as text with 9 significant digits per component.

    A save/load round trip reproduces the vocabulary exactly and every
    component within 1e-6.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown embedding format {format!r}, expected one of {FORMATS}")
    if len(store) == 0:
        raise ValueError("refusing to save an empty store")
    row_format = " ".join(["%.9g"] * store.dim)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if format == "word2vec-text":
            fh.write(f"{len(store)} {store.dim}\n")
        fh.writelines(
            f"{token} {row_format % tuple(vec.tolist())}\n"
            for token, vec in zip(store.vocab, store.current)
        )


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
    ``covered=False`` rather than raising.
    """
    if not token:
        raise ValueError("empty query token")
    query = token
    depth = 0
    while query:
        row = store.index.get(query)
        if row is not None:
            return LookupResult(row=row, matched_token=query, truncation_depth=depth, covered=True)
        query = query[:-1]
        depth += 1
    return LookupResult(row=None, matched_token=None, truncation_depth=depth, covered=False)


# --- cosine geometry --------------------------------------------------------
# Every norm of the package is computed here, and every cosine is a dot of
# unit rows. A row whose norm lies outside [2^-480, 2^480] (its sum of squares
# outside [2^-960, 2^960]) is first divided by the power of two that brings its
# largest component into [0.5, 1). That division is exact, so norms and unit
# rows are right for every finite row.
_NORM_RANGE = (2.0 ** -480, 2.0 ** 480)

# bound the (block rows x vocabulary) similarity scratch of :func:`nearest_rows`;
# the row floor keeps each block's product a matrix product at large vocabularies
_NEIGHBOR_BLOCK_CELLS = 1 << 18
_NEIGHBOR_BLOCK_ROWS = 64


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
    :func:`row_norms` gives them. The one place rows are normalized."""
    scaled, norms, true_norms = _in_range(matrix)
    return scaled / norms[:, None], true_norms


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


def top_k(sims: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k largest entries of each row of ``sims``.

    Each row of the (rows x k) result is in descending order of similarity,
    ties broken toward the smaller column, NaN last: the first k columns of
    ``np.argsort(-sims, axis=1, kind="stable")``. Needs ``1 <= k <= sims.shape[1]``.
    """
    neg = -sims
    kth = np.partition(neg, k - 1, axis=1)[:, k - 1]
    # every entry tied with the k-th value competes, so ties at the cut
    # still go to the smaller columns; written as "not beyond the cut" so
    # that a NaN cut keeps every entry
    rows, cols = np.nonzero(~(neg > kth[:, None]))
    order = np.lexsort((cols, neg[rows, cols], rows))
    # each row's candidates are contiguous in ``order``; keep the first k
    starts = np.searchsorted(rows, np.arange(len(sims)))
    return cols[order[starts[:, None] + np.arange(k)]]


def nearest_rows(
    geometry: tuple[np.ndarray, np.ndarray], rows: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """For each of ``rows``, the ``min(k, len(matrix) - 1)`` other rows closest
    by cosine, ranked by :func:`top_k`, and their cosines; formed one bounded
    block of ``rows`` at a time. ``geometry`` is ``(matrix, norms)`` as
    :meth:`EmbeddingStore.geometry` gives it. Needs ``len(matrix) >= 2``."""
    matrix, norms = geometry
    k = min(k, len(matrix) - 1)
    indices = np.empty((len(rows), k), dtype=np.intp)
    cosines = np.empty((len(rows), k))
    # each block's product is divided by the norms cell by cell, so rows with
    # exact products keep exact ties: a product of unit rows gives orthogonal
    # integer rows cosines like -2.2e-17, which reorders rows tied at 0
    step = max(_NEIGHBOR_BLOCK_ROWS, _NEIGHBOR_BLOCK_CELLS // len(matrix))
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        at = np.arange(len(block))[:, None]
        sims = (matrix[block] @ matrix.T) / (norms[block, None] * norms)
        np.clip(sims, -1.0, 1.0, out=sims)
        sims[at[:, 0], block] = -np.inf
        top = top_k(sims, k)
        indices[start : start + step] = top
        cosines[start : start + step] = sims[at, top]
    return indices, cosines


def nearest_neighbors(store: EmbeddingStore, row: int, k: int) -> list[tuple[int, float]]:
    """Top-k rows of ``store.current`` by cosine to the query row, excluding the query itself.

    Returns ``min(k, len(store) - 1)`` entries sorted by descending cosine;
    ties break toward the smaller row index. Reads the row norms the store
    keeps, so a query makes no pass over the matrix besides the product.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= row < len(store):
        raise IndexError(f"row {row} out of range for store of size {len(store)}")
    if len(store) == 1:
        return []
    indices, cosines = nearest_rows(store.geometry(), np.array([row]), k)
    return list(zip(indices[0].tolist(), cosines[0].tolist()))
