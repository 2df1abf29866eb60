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
          " synonym; synonyms now:", constraints.pairs["syn"].tolist())
    print("loading direct hypernyms:")
    print(" ", load_pairs(constraints, str(hyper), "hyper", store))

# pairs of rows go in through add, under the same rules as file lines
glad, happy, cat = (store.index[w] for w in ("glad", "happy", "cat"))
added = constraints.add("syn", [(glad, happy), (cat, cat)])
print(f"\nadding (glad, happy) again and (cat, cat): {added} new pairs,"
      f" {constraints.dropped_self} self pair dropped")

print("\ndirect hypernym pairs (hyponym -> hypernym):")
direct = constraints.pairs["hyper"]  # ascending, read-only (n, 2) rows
for lo, hi in direct.tolist():
    print(f"  {store.vocab[lo]} -> {store.vocab[hi]}")

# the closure is an ascending (n, 2) integer array of (hyponym, hypernym) rows
closure = hypernym_closure(direct)
print(f"\nafter transitive closure ({len(closure)} pairs, array of shape {closure.shape}):")
for lo, hi in closure.tolist():
    if [lo, hi] not in direct.tolist():
        print(f"  {store.vocab[lo]} -> {store.vocab[hi]}   (indirect)")

print("\nstats:", constraint_stats(constraints))
