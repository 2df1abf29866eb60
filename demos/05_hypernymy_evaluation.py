"""Evaluating similarity, hypernymy direction, detection, and graded entailment.

Trains the norm-asymmetry variant on a three-level toy taxonomy, then runs
every evaluation protocol against it and prints the reports.
"""

import numpy as np

from lexfit import (
    ConstraintSet,
    EmbeddingStore,
    RelationDataset,
    RelationEntry,
    SimilarityDataset,
    SpecializeConfig,
    bless_directionality,
    eval_similarity,
    hyper_score,
    hyperlex_eval,
    specialize,
    wbless_classify,
)

# three roots, two mids each, three leaves per mid; children start loosely
# clustered around their parents, the way distributional data behaves
rng = np.random.default_rng(0)
names, parents, seed_vecs = [], {}, {}
for r in range(3):
    names.append(f"root{r}")
    seed_vecs[f"root{r}"] = rng.standard_normal(10)
for m in range(6):
    names.append(f"mid{m}")
    parents[f"mid{m}"] = f"root{m // 2}"
    seed_vecs[f"mid{m}"] = seed_vecs[f"root{m // 2}"] + 0.5 * rng.standard_normal(10)
for m in range(6):
    for l in range(3):
        leaf = f"leaf{m}_{l}"
        names.append(leaf)
        parents[leaf] = f"mid{m}"
        seed_vecs[leaf] = seed_vecs[f"mid{m}"] + 0.5 * rng.standard_normal(10)

store = EmbeddingStore(names, [seed_vecs[w] for w in names])
cs = ConstraintSet()
direct = [(child, parent) for child, parent in parents.items()]
row = store.index
cs.add("hyper", [(row[child], row[parent]) for child, parent in direct])
cs.add("syn", [(row[f"leaf{m}_0"], row[f"leaf{m}_1"]) for m in range(6)])
cs.add("ant", [(row[f"leaf{m}_0"], row[f"leaf{m + 3}_0"]) for m in range(3)])
print("constraint pairs:", {rel: len(pairs) for rel, pairs in cs.pairs.items()})

config = SpecializeConfig(preset="hierarchy_fitting_ad_dir", epochs=100, batch_size=8, seed=4)
specialize(store, cs, config)

bless_like = RelationDataset(
    "toy-direction", [RelationEntry(c, p, "hyper") for c, p in direct]
)
report = bless_directionality(store, bless_like)
print(report.format_table())

print("\nhyper-score is direction sensitive after training:")
for c, p in direct[:3]:
    print(f"  score({c} -> {p}) = {hyper_score(store, c, p):.3f}   "
          f"score({p} -> {c}) = {hyper_score(store, p, c):.3f}")

detection_rows = [RelationEntry(c, p, "hyper") for c, p in direct]
detection_rows += [
    RelationEntry(f"leaf{m}_0", f"leaf{(m + 2) % 6}_2", "other") for m in range(6)
]
detection_rows += [RelationEntry(p, c, "other") for c, p in direct[:18:3]]
wbless_like = RelationDataset("toy-detection", detection_rows)
print("\n" + wbless_classify(store, wbless_like, seed=7, iterations=200).format_table())

graded = SimilarityDataset(
    "toy-graded",
    [(c, p, 5.0) for c, p in direct[:8]]
    + [(p, c, 1.0) for c, p in direct[:8]],
)
print("\n" + hyperlex_eval(store, graded).format_table())

similarity = SimilarityDataset(
    "toy-similarity",
    [("leaf0_0", "leaf0_1", 9.0), ("leaf0_0", "mid0", 6.0),
     ("leaf0_0", "leaf3_0", 1.0), ("leaf1_0", "leaf1_1", 9.0),
     ("leaf1_0", "mid1", 6.0), ("leaf1_0", "leaf4_0", 1.0)],
)
print("\n" + eval_similarity(store, similarity).format_table())
