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
        if np.any(np.linalg.norm(matrix, axis=1) == 0.0):
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

    def matrix(self, space: str = "current") -> np.ndarray:
        if space == "current":
            return self.current
        if space == "original":
            return self.original
        raise ValueError(f"unknown space {space!r} (expected 'current' or 'original')")


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
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine of a zero vector is undefined")
    c = float(np.dot(u, v) / (nu * nv))
    return min(1.0, max(-1.0, c))


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


def nearest_neighbors(
    store: EmbeddingStore, row: int, k: int, space: str = "current"
) -> list[tuple[int, float]]:
    """Top-k rows by cosine to the query row, excluding the query itself.

    Returns ``min(k, len(store) - 1)`` entries sorted by descending cosine;
    ties break toward the smaller row index.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= row < len(store):
        raise IndexError(f"row {row} out of range for store of size {len(store)}")
    n_top = min(k, len(store) - 1)
    if n_top == 0:
        return []
    matrix = store.matrix(space)
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
    sims = (matrix @ matrix[row]) / (norms * norms[row])
    np.clip(sims, -1.0, 1.0, out=sims)
    sims[row] = -np.inf
    kth = np.partition(sims, len(sims) - n_top)[len(sims) - n_top]
    # every row tied with the k-th value competes, so ties at the cut still
    # go to the smaller rows
    candidates = np.flatnonzero(sims >= kth)
    top = candidates[np.argsort(-sims[candidates], kind="stable")[:n_top]]
    return [(int(r), float(sims[r])) for r in top]
