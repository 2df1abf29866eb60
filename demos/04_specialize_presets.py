"""Training the specialization presets on a planted toy world.

Six loose word clusters with synonym triangles, cross-cluster antonyms, and
per-cluster hypernyms; each preset refines the same starting vectors and the
script audits what happened to constrained distances.
"""

import numpy as np

from lexfit import ConstraintSet, EmbeddingStore, SpecializeConfig, distance, specialize

def build_world(seed=0):
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((40, 10))
    syn, hyper = [], []
    for g in range(6):
        base = rng.standard_normal(10)
        a, b, c, h = 3 * g, 3 * g + 1, 3 * g + 2, 30 + g
        for w in (a, b, c, h):
            vectors[w] = base + 0.4 * rng.standard_normal(10)
        syn += [(a, b), (a, c), (b, c)]
        hyper += [(a, h), (b, h)]
    cs = ConstraintSet()
    cs.add("syn", syn)
    cs.add("hyper", hyper)
    # oppose neighboring clusters
    cs.add("ant", [(3 * g + k, 3 * (g + 1) + k) for g in range(0, 6, 2) for k in range(3)])
    store = EmbeddingStore([f"w{i:02d}" for i in range(40)], vectors)
    return store, cs

def audit(store, cs, start):
    cur = store.current
    syn, ant, hyp = (np.mean([distance(cur[a], cur[b]) for a, b in cs.pairs[rel].tolist()])
                     for rel in ("syn", "ant", "hyper"))
    moved = np.mean(np.linalg.norm(cur - start, axis=1))
    return syn, ant, hyp, moved

store0, cs0 = build_world()
s, a, h, _ = audit(store0, cs0, store0.current)
print(f"{'start':22s} mean D: syn {s:.3f}  ant {a:.3f}  hyper {h:.3f}")

for preset in ("retrofitting", "counterfitting", "attract_repel", "lear", "hierarchy_fitting"):
    store, cs = build_world()
    start = store.current.copy()  # the run writes the store it is given
    config = SpecializeConfig(preset=preset, epochs=20, batch_size=8, seed=7)
    _, log = specialize(store, cs, config)
    s, a, h, moved = audit(store, cs, start)
    print(f"{preset:22s} mean D: syn {s:.3f}  ant {a:.3f}  hyper {h:.3f}  "
          f"(mean vector shift {moved:.3f}, {log.batches_processed} batches)")

print("\nhierarchy-fitting's distance ordering after training:")
store, cs = build_world()
specialize(store, cs, SpecializeConfig(preset="hierarchy_fitting", epochs=20, batch_size=8, seed=7))
cur = store.current
for g in range(3):
    a, b, h = 3 * g, 3 * g + 1, 30 + g
    print(f"  cluster {g}: D(a,syn) {distance(cur[a], cur[b]):.3f}"
          f"  <=  D(a,hyper) {distance(cur[a], cur[h]):.3f}")

print("\ntraining-log tail (epoch, relation, mean loss, active hinge fraction):")
store, cs = build_world()
_, log = specialize(store, cs, SpecializeConfig(preset="hierarchy_fitting",
                                                epochs=5, batch_size=8, seed=7))
print("\n".join(log.to_tsv().splitlines()[-4:]))
