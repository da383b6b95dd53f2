"""Cooperations in the Mahler basis: continuous functions as binomial series.

Every continuous Z_p -> Z_p function is a convergent series in the
binomial functions b_i(x) = (x choose i); the group action becomes an
integer matrix, and the invariant functions drop out of exact linear
algebra.

Run with: python3 demos/04_mahler_invariants.py
"""

from imj.mahler import MahlerFunction, invariants, mahler_coeffs
from imj.padic import PadicInt

p, N, L = 3, 8, 32

# Round trip: sample a function, take finite differences, recover it.
f = MahlerFunction([PadicInt(v, p, N) for v in (7, 1, 0, 5)] +
                   [PadicInt(0, p, N)] * (L - 4))
samples = [f.evaluate(x) for x in range(L)]
back = mahler_coeffs(samples)
print(f"round trip through {L} samples recovers the coefficients: "
      f"{back == f}")
print(f"  f(0), f(1), f(2) = "
      f"{[f.evaluate(x).residue for x in range(3)]}\n")

# The invariants of the group action. Position-by-position the matrix
# id - psi looks like it has a huge kernel at any finite precision;
# the certified computation works at boosted internal precision so that
# accumulated torsion cannot masquerade as a second free generator.
rep = invariants(L, p, N)
print(rep.describe())
gen = rep.generators[0]
print(f"generator coefficients: "
      f"{[c.residue for c in gen.coefficients[:6]]}... "
      f"(exactly the constant function)")
print()
for length in (16, 32, 64):
    r = invariants(length, p, N)
    print(f"  L={length:3d}: rank {r.rank}")
print("Rank 1 at every window length: only the constants are invariant,")
print("matching H^0(Z_p^x, Z_p) = Z_p degree zero.")
