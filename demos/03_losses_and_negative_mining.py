"""The loss kernel and the hard/semi-hard/easy negative taxonomy.

Places words at controlled angles so every distance is easy to read, then
evaluates each hinge family the way a training batch adds it to a
``BatchLoss`` (index arrays into the batch's rows) and classifies candidate
negatives against a margin.
"""

import numpy as np

from lexfit import EmbeddingStore, distance
from lexfit.losses import BatchLoss

def at_angle(deg, norm=1.0):
    theta = np.deg2rad(deg)
    return [norm * np.cos(theta), norm * np.sin(theta)]

def rows(*local):
    return np.array(local, dtype=np.intp)

def batch(store, original=None):
    # every row; preservation anchors to ``original``, by default the rows as they are
    return BatchLoss(store, np.arange(len(store)), store.current if original is None else original)

# anchor at 0 deg; synonym, hypernym, and negatives fan out from it
words = ["anchor", "synonym", "hypernym", "neg_near", "neg_mid", "neg_far"]
store = EmbeddingStore(
    words, [at_angle(0), at_angle(10), at_angle(35), at_angle(20), at_angle(70), at_angle(160)]
)
D = lambda a, b: distance(store.current[store.index[a]], store.current[store.index[b]])

print("distances from the anchor:")
for w in words[1:]:
    print(f"  D(anchor, {w:8s}) = {D('anchor', w):.3f}")

print("\ntriplet attract (margin 0.9): pull synonym in, push each negative out")
res = batch(store)
res.hinge(0.9, (1.0, rows(0, 0, 0), rows(1, 1, 1)), (-1.0, rows(0, 0, 0), rows(3, 4, 5)))
touched = np.flatnonzero(res.gradient().any(axis=1)).tolist()
print(f"  loss {res.loss:.3f}, active hinges {res.n_active}/{res.n_hinges}, "
      f"gradient rows {touched}")

print("\nquadruplet (margins 0.001 / 0.6): synonym closer than hypernym, both inside negatives")
res = batch(store)
a, s, h = rows(0), rows(1), rows(2)
res.hinge(0.001, (1.0, a, s), (-1.0, a, h))
res.hinge(0.001, (1.0, a, s), (-1.0, s, h))
res.hinge(0.6, (1.0, a, s), (-1.0, h, rows(4)), count=2)
print(f"  loss {res.loss:.3f}, active hinges {res.n_active}/{res.n_hinges}")

print("\ncounter-fitting push on a dissimilar pair (margin 0.9): active only inside the margin")
for neg in ("neg_near", "neg_far"):
    res = batch(store)
    res.hinge(0.9, (-1.0, rows(0), rows(store.index[neg])))
    print(f"  vs {neg:8s}: loss {res.loss:.3f}")

print("\nnorm-asymmetry hinge: fires only while the hyponym is the longer vector")
tall = EmbeddingStore(["hypo", "hyper"], [at_angle(0, norm=3.0), at_angle(5, norm=1.0)])
for hypo, hyper, norms in ((0, 1, "3.0, 1.0"), (1, 0, "1.0, 3.0")):
    res = batch(tall)
    res.norm_asymmetry(rows(hypo), rows(hyper), 1.0)
    print(f"  norms ({norms}): loss {res.loss:.3f}")

at_load = store.current.copy()

def preservation_loss():
    res = batch(store, at_load)
    res.preserve(rows(0, 1), 0.001)
    return res.loss

print("\npreservation is zero until vectors move:")
print(f"  at load time: loss {preservation_loss()}")
with store.writing() as matrix:
    matrix[1] = at_angle(90)
print(f"  after rotating one row to orthogonal: loss {preservation_loss():.4f}")
with store.writing() as matrix:
    matrix[1] = at_angle(10)

# hard: closer than the positive; easy: beyond the positive plus the margin;
# the boundaries belong to semi-hard, so the three classes partition the line
d_pos = D("anchor", "synonym")
print(f"\nnegative taxonomy against positive at 10 deg (D={d_pos:.3f}), margin 0.9:")
for cand in ("neg_near", "neg_mid", "neg_far"):
    d = D("anchor", cand)
    kind = "hard" if d < d_pos else "semi_hard" if d <= 0.9 + d_pos else "easy"
    print(f"  {cand:8s} (D={d:.3f}) -> {kind}")
