"""Derived limits of towers: when lim vanishes but lim1 does not.

Run with: python3 demos/05_derived_limits.py
"""

from imj.towers import (SupportFunction, TowerSpec, lim_lim1, moore_example,
                        ssq_stage, truncated_kernel)

# A tower of nested sub-sums of F_3 summands whose support threshold
# marches off to infinity: the intersection is empty, but compatible
# partial sums never stabilize.
tower = moore_example(3)
report = lim_lim1(tower)
print(tower.describe())
for line in report.lines():
    print(line)
print()

print("The witness is concrete: the everywhere-one vector of the product.")
w = report.witness
for R in (4, 16, 64):
    print(f"  refuted as an image from window {R}: "
          f"{w.refutes_preimage_window(R)}")
print()

# Exactness of 0 -> lim -> sum -> prod -> lim1 -> 0 on finite windows,
# recomputed with honest linear algebra rather than the closed form.
for R in (4, 8, 16):
    print(f"  truncated kernel on [0,{R}) = "
          f"{sorted(truncated_kernel(tower, R)) or 'empty'}")
print()

# Stage supports agree with per-summand spectral sequence runs: the k-th
# summand dies exactly when the engine kills its filtration-zero class.
print("page r: declared stage vs engine survivors (k <= 4)")
for r in range(2, 7):
    declared = sorted(tower.stage_support(r) & frozenset(range(5)))
    engine = sorted(ssq_stage(3, r, 4))
    marker = "ok" if declared == engine else "MISMATCH"
    print(f"  r={r}: {declared} vs {engine}  {marker}")
print()

# For contrast, a bounded threshold is Mittag-Leffler: lim survives.
bounded = TowerSpec(3, 8, [frozenset(range(3, 8))] * 2, SupportFunction(0, 3))
lim, lim1, _ = lim_lim1(bounded)
print(f"bounded threshold: lim = {lim.describe()}, lim1 nonzero: {lim1}")
