"""Dense word embedding storage, text I/O, and vector-space queries."""

from __future__ import annotations

import itertools
import logging
import re
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

    ``current`` is the matrix that specialization mutates in place;
    ``original`` keeps the pre-specialization vectors for preservation terms
    and is never written after construction.
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
        self.vocab: list[str] = vocab
        self.dim: int = int(matrix.shape[1])
        self.current: np.ndarray = matrix
        self.original: np.ndarray = matrix.copy()
        self.original.setflags(write=False)
        self.index: dict[str, int] = {tok: i for i, tok in enumerate(vocab)}
        self.n_duplicates_dropped: int = 0

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
    counted); zero vectors, non-finite or non-numeric values, and dimension
    mismatches are rejected with the line number of the first bad record.

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
    nu, nv = row_norms(u), row_norms(v)
    if nu[0] == 0.0 or nv[0] == 0.0:
        raise ValueError("cosine of a zero vector is undefined")
    return float(row_cosines(u, v, nu, nv)[0])


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
# Every norm and cosine of the package is computed here. A row whose norm lies
# outside [2^-480, 2^480] (its sum of squares outside [2^-960, 2^960]) is first
# divided by the power of two that brings its largest component into [0.5, 1).
# That division is exact, so norms and cosines are right for every finite row.
_NORM_RANGE = (2.0 ** -480, 2.0 ** 480)

# bounds the (block rows x vocabulary) similarity scratch of :func:`nearest_rows`
_NEIGHBOR_BLOCK_CELLS = 1 << 18


def _in_range(matrix: np.ndarray, norms: np.ndarray) -> tuple:
    """``matrix`` and ``norms`` with the out-of-range rows rescaled, and each row's
    exponent of two; the inputs, uncopied, and None when every row is in range."""
    if not len(norms) or _NORM_RANGE[0] <= norms.min() and norms.max() <= _NORM_RANGE[1]:
        return matrix, norms, None
    out = ~((norms >= _NORM_RANGE[0]) & (norms <= _NORM_RANGE[1]))
    exponents = np.where(out, np.frexp(np.abs(matrix).max(axis=1))[1], 0)
    matrix = np.ldexp(matrix, -exponents[:, None])
    return matrix, np.where(out, np.sqrt(np.einsum("ij,ij->i", matrix, matrix)), norms), exponents


def row_norms(matrix: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row."""
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
    _, scaled, exponents = _in_range(matrix, norms)
    return norms if exponents is None else np.ldexp(scaled, exponents)


def row_cosines(a: np.ndarray, b: np.ndarray, na: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """Cosine of each row pair ``(a[i], b[i])`` given row norms ``na``, ``nb``; in [-1, 1]."""
    a, na, _ = _in_range(a, na)
    b, nb, _ = _in_range(b, nb)
    return np.clip(np.einsum("ij,ij->i", a, b) / (na * nb), -1.0, 1.0)


def cosine_matrix(a: np.ndarray, b: np.ndarray, na: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """Cosine of every row of ``a`` with every row of ``b``, given the row norms
    ``na`` and ``nb``, clipped into [-1, 1]: a ``(len(a), len(b))`` matrix."""
    a, na, _ = _in_range(a, na)
    b, nb, _ = _in_range(b, nb)
    sims = (a @ b.T) / (na[:, None] * nb)
    return np.clip(sims, -1.0, 1.0, out=sims)


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


def nearest_rows(matrix: np.ndarray, rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """For each of ``rows``, the ``min(k, len(matrix) - 1)`` other rows closest
    by cosine, ranked by :func:`top_k`, and their cosines; formed one bounded
    block of ``rows`` at a time. Needs ``len(matrix) >= 2``."""
    k = min(k, len(matrix) - 1)
    # rescaled once here, so the blocks below find every row in range
    matrix, norms, _ = _in_range(matrix, np.sqrt(np.einsum("ij,ij->i", matrix, matrix)))
    indices = np.empty((len(rows), k), dtype=np.intp)
    cosines = np.empty((len(rows), k))
    step = max(1, _NEIGHBOR_BLOCK_CELLS // len(matrix))
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        at = np.arange(len(block))[:, None]
        sims = cosine_matrix(matrix[block], matrix, norms[block], norms)
        sims[at[:, 0], block] = -np.inf
        top = top_k(sims, k)
        indices[start : start + step] = top
        cosines[start : start + step] = sims[at, top]
    return indices, cosines


def nearest_neighbors(store: EmbeddingStore, row: int, k: int) -> list[tuple[int, float]]:
    """Top-k rows of ``store.current`` by cosine to the query row, excluding the query itself.

    Returns ``min(k, len(store) - 1)`` entries sorted by descending cosine;
    ties break toward the smaller row index.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= row < len(store):
        raise IndexError(f"row {row} out of range for store of size {len(store)}")
    if len(store) == 1:
        return []
    indices, cosines = nearest_rows(store.current, np.array([row]), k)
    return list(zip(indices[0].tolist(), cosines[0].tolist()))
