"""Deterministic synthetic inputs for the benchmark: a planted taxonomy.

Every file is written with this module's own formatting (never with
``lexfit.save_embeddings``), so the set-up time does not move with the
program under test. The same ``(size, seed)`` always gives byte-identical
files.

The planted world is a three-level taxonomy of concepts (root, mid, leaf).
Each concept owns a synset of 1-4 words; words of one synset are synonyms,
each word of a non-root concept usually gets a direct-hypernym pair to a word
of its parent's synset, and some sibling concepts are paired as contrasting
groups whose words become antonyms. Words outside the taxonomy are
unconstrained fillers. Vector norms shrink with depth, with jitter, so norm
direction starts better than chance but well below perfect.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

# mean norm per taxonomy level; hyponyms start shorter on average
_LEVEL_NORM = {0: 1.25, 1: 1.0, 2: 0.85}
_SYNSET_SIZES = (1, 2, 3, 4)
_SYNSET_P = (0.15, 0.45, 0.30, 0.10)
_HYPER_KEEP = 0.8  # share of non-root words given a direct-hypernym pair
_ANT_FRACTION = 0.5  # share of sibling-concept pairs that contrast


@dataclass(frozen=True)
class Size:
    """Shape of one generated world."""

    vocab: int
    taxonomy_words: int
    eval_pairs: int
    dim: int = 300


@dataclass
class Inputs:
    """Paths of the written files plus what the checker needs to know."""

    paths: dict[str, str]
    vocab: list[str]
    matrix: np.ndarray  # float64, exactly the values written to the vector file
    pair_rows: dict[str, np.ndarray]  # relation -> (n, 2) rows
    sizes: dict


def _tokens(rng: np.random.Generator, n: int) -> list[str]:
    letters = rng.integers(0, 26, size=(n, 8))
    lengths = rng.integers(3, 9, size=n)
    alphabet = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)
    chars = alphabet[letters]
    # the decimal suffix makes every token unique
    return [chars[i, : lengths[i]].tobytes().decode() + str(i) for i in range(n)]


def _unit(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _format_rows(q: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Render integer micro-units as ``-0.dddddd`` fields, vectorized.

    Returns the concatenated bytes of all rows (space-separated values, each
    row ending in a newline) and the end offset of every row.
    """
    n, d = q.shape
    a = np.abs(q)
    cells = np.empty((n, d, 10), dtype=np.uint8)
    cells[..., 0] = ord("-")
    cells[..., 1] = ord("0")
    cells[..., 2] = ord(".")
    for k in range(6):
        cells[..., 3 + k] = ord("0") + (a // 10 ** (5 - k)) % 10
    cells[..., 9] = ord(" ")
    cells[:, -1, 9] = ord("\n")
    keep = np.ones(cells.shape, dtype=bool)
    keep[..., 0] = q < 0
    row_len = 9 * d + (q < 0).sum(axis=1)
    return cells[keep].tobytes(), np.cumsum(row_len)


def _write_vectors(path: str, vocab: list[str], q: np.ndarray) -> None:
    body, ends = _format_rows(q)
    start = 0
    with open(path, "wb") as fh:
        for token, end in zip(vocab, ends):
            fh.write(token.encode() + b" " + body[start:end])
            start = int(end)


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in lines))


class _Taxonomy:
    def __init__(self, rng: np.random.Generator, size: Size):
        n_concepts = max(7, round(size.taxonomy_words / float(np.dot(_SYNSET_SIZES, _SYNSET_P))))
        n_roots = max(2, round(n_concepts / 21))
        n_mid = min(4 * n_roots, n_concepts - n_roots - 1)
        n_leaf = n_concepts - n_roots - n_mid
        self.level = np.array([0] * n_roots + [1] * n_mid + [2] * n_leaf)
        parent = np.full(n_concepts, -1)
        parent[n_roots : n_roots + n_mid] = rng.permutation(n_mid) % n_roots
        parent[n_roots + n_mid :] = n_roots + rng.permutation(n_leaf) % n_mid
        self.parent = parent
        # a fixed mix of synset sizes, so pair counts barely move with the seed
        counts = np.floor(np.array(_SYNSET_P) * n_concepts).astype(int)
        counts[1] += n_concepts - counts.sum()
        sizes = rng.permutation(np.repeat(_SYNSET_SIZES, counts))
        # trim or pad the last synsets so the word count is exact
        excess = int(sizes.sum()) - size.taxonomy_words
        i = n_concepts - 1
        while excess != 0:
            step = 1 if excess > 0 else -1
            if 1 <= sizes[i] - step <= 4:
                sizes[i] -= step
                excess -= step
            i = (i - 1) % n_concepts
        self.synsets: list[list[int]] = []
        word = 0
        for s in sizes:
            self.synsets.append(list(range(word, word + int(s))))
            word += int(s)
        self.word_concept = np.repeat(np.arange(n_concepts), sizes)
        self.children: dict[int, list[int]] = {}
        for c in range(n_concepts):
            if parent[c] >= 0:
                self.children.setdefault(int(parent[c]), []).append(c)

    def root(self, concept: int) -> int:
        chain = self.ancestors(concept)
        return chain[-1] if chain else concept

    def ancestors(self, concept: int) -> list[int]:
        out = []
        while self.parent[concept] >= 0:
            concept = int(self.parent[concept])
            out.append(concept)
        return out


def generate(out_dir: str, size: Size, seed: int) -> Inputs:
    """Plant a taxonomy from ``seed`` and write every input file into ``out_dir``."""
    rng = np.random.default_rng(seed)
    tax = _Taxonomy(rng, size)
    n_tax = size.taxonomy_words
    if n_tax > size.vocab:
        raise ValueError("taxonomy_words must not exceed vocab")

    # concept vectors: children are noisy copies of their parent
    n_concepts = len(tax.synsets)
    concept_vec = np.empty((n_concepts, size.dim))
    for c in range(n_concepts):
        noise = _unit(rng.standard_normal(size.dim))
        if tax.parent[c] < 0:
            concept_vec[c] = noise
        else:
            concept_vec[c] = _unit(concept_vec[tax.parent[c]] + 0.9 * noise)
    word_noise = _unit(rng.standard_normal((size.vocab, size.dim)))
    vectors = word_noise.copy()
    vectors[:n_tax] = _unit(concept_vec[tax.word_concept] + 0.6 * word_noise[:n_tax])
    base_norm = np.ones(size.vocab)
    base_norm[:n_tax] = [_LEVEL_NORM[int(tax.level[c])] for c in tax.word_concept]
    vectors *= (base_norm * np.exp(0.15 * rng.standard_normal(size.vocab)))[:, None]
    q = np.clip(np.rint(vectors * 1e6), -999999, 999999).astype(np.int64)

    # taxonomy words sit at random rows among the fillers
    row_of = rng.permutation(size.vocab)
    tokens = _tokens(rng, size.vocab)
    vocab = [tokens[w] for w in np.argsort(row_of)]
    matrix_q = np.empty_like(q)
    matrix_q[row_of] = q

    syn, ant, hyper = [], [], []
    for members in tax.synsets:
        syn.extend((a, b) for i, a in enumerate(members) for b in members[i + 1 :])
    below_root = np.flatnonzero(tax.parent[tax.word_concept] >= 0)
    n_hyper = round(_HYPER_KEEP * len(below_root))
    for w in np.sort(rng.permutation(below_root)[:n_hyper]):
        parent = tax.synsets[tax.parent[tax.word_concept[w]]]
        hyper.append((int(w), int(rng.choice(parent))))
    sibling_pairs = []
    for siblings in tax.children.values():
        order = rng.permutation(siblings)
        sibling_pairs.extend(zip(order[0::2], order[1::2]))
    n_contrast = round(_ANT_FRACTION * len(sibling_pairs))
    for k in np.sort(rng.permutation(len(sibling_pairs))[:n_contrast]):
        a, b = sibling_pairs[k]
        for w in tax.synsets[a]:
            ant.append((w, int(rng.choice(tax.synsets[b]))))

    paths = {name: os.path.join(out_dir, f"{name}.txt" if name == "vectors" else f"{name}.tsv")
             for name in ("vectors", "syn", "ant", "hyper",
                          "sim", "hyperlex", "bless", "wbless", "bibless")}
    _write_vectors(paths["vectors"], vocab, matrix_q)
    for name, pairs in (("syn", syn), ("ant", ant), ("hyper", hyper)):
        _write_lines(paths[name], [f"{tokens[a]} {tokens[b]}" for a, b in pairs])

    evals = _eval_sets(rng, tax, size, syn, ant, hyper)
    for name in ("sim", "hyperlex"):
        _write_lines(paths[name],
                     [f"{tokens[a]}\t{tokens[b]}\t{score:.2f}" for a, b, score in evals[name]])
    for name in ("bless", "wbless", "bibless"):
        _write_lines(paths[name], [f"{tokens[a]}\t{tokens[b]}\t{lab}" for a, b, lab in evals[name]])

    pair_rows = {name: row_of[np.array(pairs, dtype=np.int64).reshape(-1, 2)]
                 for name, pairs in (("syn", syn), ("ant", ant), ("hyper", hyper))}
    sizes = {
        "rows": size.vocab,
        "dim": size.dim,
        "taxonomy_words": n_tax,
        "concepts": n_concepts,
        "syn_pairs": len(syn),
        "ant_pairs": len(ant),
        "hyper_pairs": len(hyper),
        "closure_pairs": _closure_size(tax, hyper),
        "eval_pairs": {name: len(rows) for name, rows in evals.items()},
        "file_bytes": {name: os.path.getsize(p) for name, p in paths.items()},
    }
    return Inputs(paths=paths, vocab=vocab, matrix=matrix_q / 1e6,
                  pair_rows=pair_rows, sizes=sizes)


def _closure_size(tax: _Taxonomy, hyper: list[tuple[int, int]]) -> int:
    successors: dict[int, set[int]] = {}
    for lo, hi in hyper:
        successors.setdefault(lo, set()).add(hi)
    total = 0
    for src in successors:
        reached: set[int] = set()
        frontier = {src}
        while frontier:
            nxt = set().union(*(successors.get(n, set()) for n in frontier)) - reached
            reached |= nxt
            frontier = nxt
        total += len(reached - {src})
    return total


def _eval_sets(rng, tax: _Taxonomy, size: Size, syn, ant, hyper) -> dict[str, list]:
    """Graded and labelled word pairs whose gold answers follow the taxonomy."""
    n_tax = size.taxonomy_words
    concept = tax.word_concept
    indirect = []
    for w in range(n_tax):
        for anc in tax.ancestors(int(concept[w]))[1:]:
            indirect.append((w, int(rng.choice(tax.synsets[anc]))))
    cohypo = []
    for siblings in tax.children.values():
        if len(siblings) > 1:
            for a in siblings:
                b = siblings[int(rng.integers(len(siblings)))]
                if a != b:
                    cohypo.append((int(rng.choice(tax.synsets[a])),
                                   int(rng.choice(tax.synsets[b]))))
    unrelated = [(int(rng.integers(n_tax)), int(rng.integers(size.vocab)))
                 for _ in range(size.eval_pairs)]
    unrelated = [(a, b) for a, b in unrelated
                 if b >= n_tax or tax.root(int(concept[a])) != tax.root(int(concept[b]))]
    reverse = [(b, a) for a, b in hyper]

    def draw(pool, n):
        if not pool or n <= 0:
            return []
        idx = rng.choice(len(pool), size=min(n, len(pool)), replace=False)
        return [pool[int(i)] for i in sorted(idx)]

    def graded(parts):
        out = []
        for pool, share, lo, hi in parts:
            for a, b in draw(pool, round(share * size.eval_pairs)):
                out.append((a, b, float(rng.uniform(lo, hi))))
        return [out[int(i)] for i in rng.permutation(len(out))]

    def labelled(parts):
        out = []
        for pool, share, label in parts:
            out.extend((a, b, label) for a, b in draw(pool, round(share * size.eval_pairs)))
        return [out[int(i)] for i in rng.permutation(len(out))]

    return {
        "sim": graded([(syn, 0.25, 7.5, 10.0), (hyper, 0.2, 5.0, 7.5), (cohypo, 0.2, 3.0, 5.5),
                       (ant, 0.15, 0.0, 2.0), (unrelated, 0.2, 0.0, 3.0)]),
        "hyperlex": graded([(hyper, 0.35, 7.0, 10.0), (indirect, 0.25, 5.5, 8.5),
                            (reverse, 0.2, 2.0, 4.5), (cohypo, 0.1, 1.0, 3.0),
                            (unrelated, 0.1, 0.0, 1.5)]),
        "bless": labelled([(hyper, 0.4, "hyper"), (indirect, 0.2, "hyper")]),
        "wbless": labelled([(hyper, 0.35, "hyper"), (indirect, 0.15, "hyper"),
                            (reverse, 0.2, "other"), (cohypo, 0.15, "other"),
                            (unrelated, 0.15, "other")]),
        "bibless": labelled([(hyper, 0.25, "hyper"), (indirect, 0.1, "hyper"),
                             (reverse, 0.35, "hypo"), (cohypo, 0.15, "other"),
                             (unrelated, 0.15, "other")]),
    }
