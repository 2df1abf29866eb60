"""Loading, saving, and querying embedding stores.

Builds a tiny vector space, round-trips it through both text formats, and
shows the distance function, the OOV back-off lookup, and neighbor queries.
"""

import tempfile
from pathlib import Path

import numpy as np

from lexfit import (
    EmbeddingStore,
    backoff_lookup,
    distance,
    load_embeddings,
    nearest_neighbors,
    save_embeddings,
)

rng = np.random.default_rng(0)
words = ["cat", "feline", "dog", "animal", "car", "engine"]
vectors = rng.standard_normal((len(words), 8))
vectors[1] = vectors[0] + 0.1 * rng.standard_normal(8)  # feline ~ cat
vectors[3] = 0.5 * (vectors[0] + vectors[2])            # animal between cat and dog
store = EmbeddingStore(words, vectors)

print(f"store: {len(store)} words, {store.dim} dimensions")
print(f"D(cat, feline) = {distance(store.current[0], store.current[1]):.3f}")
print(f"D(cat, car)    = {distance(store.current[0], store.current[4]):.3f}")
print(f"D is scale-free: D(cat, 3*cat) = {distance(store.current[0], 3 * store.current[0]):.1e}")

print("\nnearest neighbors of 'cat':")
for row, sim in nearest_neighbors(store, store.index["cat"], k=3):
    print(f"  {store.vocab[row]:8s} cosine {sim:+.3f}")

print("\nOOV back-off strips final letters until a vocabulary hit:")
for query in ("cats", "felines", "zzz"):
    hit = backoff_lookup(store, query)
    if hit.row is not None:
        print(f"  {query!r} -> {hit.matched_token!r} (letters removed: {hit.truncation_depth})")
    else:
        print(f"  {query!r} -> uncovered")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "vectors.txt"
    for fmt in ("glove-text", "word2vec-text"):
        save_embeddings(store, str(path), fmt)
        again = load_embeddings(str(path), fmt)
        drift = np.max(np.abs(again.current - store.current))
        first_line = path.read_text().splitlines()[0]
        print(f"\n{fmt}: first line {first_line!r}")
        print(f"  round-trip max component drift {drift:.1e}")
