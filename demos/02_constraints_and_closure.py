"""Ingesting relation pair files and computing the hypernym closure.

Shows vocabulary filtering, synonym/antonym conflict resolution, and how the
transitive closure expands a multi-level taxonomy.
"""

import tempfile
from pathlib import Path

import numpy as np

from lexfit import ConstraintSet, EmbeddingStore, constraint_stats, hypernym_closure, load_pairs

rng = np.random.default_rng(1)
words = ["poodle", "dog", "canine", "animal", "cat", "happy", "glad", "sad"]
store = EmbeddingStore(words, rng.standard_normal((len(words), 6)))

with tempfile.TemporaryDirectory() as tmp:
    syn = Path(tmp) / "syn.tsv"
    syn.write_text("# synonym pairs\nhappy glad\nhappy sad\ndog canine\n")
    ant = Path(tmp) / "ant.tsv"
    ant.write_text("happy sad\nunknownword sad\n")
    hyper = Path(tmp) / "hyper.tsv"
    hyper.write_text("poodle dog\ndog canine\ncanine animal\ncat animal\n")

    constraints = ConstraintSet()
    print("loading synonyms (note: 'happy sad' will be claimed by both files):")
    print(" ", load_pairs(constraints, str(syn), "syn", store))
    print("loading antonyms ('unknownword' is out of vocabulary):")
    print(" ", load_pairs(constraints, str(ant), "ant", store))
    print("  -> antonymy wins the conflicting claim, and this report counts the dropped"
          " synonym; synonyms now:", sorted(constraints.synonyms))
    print("loading direct hypernyms:")
    print(" ", load_pairs(constraints, str(hyper), "hyper", store))

print("\ndirect hypernym pairs (hyponym -> hypernym):")
for lo, hi in sorted(constraints.direct_hypernyms):
    print(f"  {store.vocab[lo]} -> {store.vocab[hi]}")

# the closure is an ascending (n, 2) integer array of (hyponym, hypernym) rows
closure = hypernym_closure(constraints.direct_hypernyms)
print(f"\nafter transitive closure ({len(closure)} pairs, array of shape {closure.shape}):")
for lo, hi in closure.tolist():
    if (lo, hi) not in constraints.direct_hypernyms:
        print(f"  {store.vocab[lo]} -> {store.vocab[hi]}   (indirect)")

print("\nstats:", constraint_stats(constraints))
