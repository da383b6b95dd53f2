"""The `Smith` oracle of the Mahler torsion law.

`mahler.invariants` reads the Smith valuations of C, the complement of
the constant column of psi - id, from a law in J = floor((L-1)/(p-1))
(the `mahler` module docstring, Determinant).  The law is checked, not
proved; here it is checked against an elimination of C, on a grid in
tier-1 and on the whole domain `invariants` accepts in CI, with its wall
time:

    PYTHONPATH=src python tests/mahler_oracle.py

The same run checks that the law still fails at each window past the
bound where the `mahler` docstring says it does, so that list cannot go
stale.

Generator.  The elimination runs the recurrence of `mahler._h_rows` on
a small integer g that topologically generates Z_p^x, so every product
k g (h_k[i] + h_(k-1)[i]) has a factor of a few digits, and it
eliminates (psi_g - id) diag(U) = H - diag(U), which needs no product by
the inverses of the U_i.  The answer is that of psi.  At any precision
the image of Z_p^x in GL((Z/p^n)^L) is a finite cyclic group, which psi
and g both generate, so psi_g = psi^s and psi = psi_g^r for some
integers s and r.  As psi^s - id = (psi - id)(id + psi + ... +
psi^(s-1)), and the same holds the other way, psi_g - id and psi - id
have the same image and the same kernel, so the same Smith valuations.
Each is at most B = v_p(det C), so precision B + 1 reads them exactly.
"""

import sys
import time

from imj import mahler
from imj.gmod import ModMatrix, Smith
from imj.mahler import invariants
from imj.padic import is_prime, smallest_primitive_root, vp


def integer_generator(p):
    """A small integer that topologically generates Z_p^x: the smallest
    primitive root g mod p, plus p when g^(p-1) = 1 mod p^2, so that it
    is a primitive root mod p^2 (the first such p is 40487, g = 5)."""
    g = smallest_primitive_root(p)
    return g + p if pow(g, p - 1, p * p) == 1 else g


def mahler_complement(L, p):
    """C: H - diag(U) for the integer generator without row and column
    0, at precision B + 1."""
    B = sum(1 + vp(k, p) for k in range(1, L) if k % (p - 1) == 0)
    rows, U = mahler._h_rows(L, p, B + 1, integer_generator(p))
    return ModMatrix([[x - U[i] * (i == j) for j, x in enumerate(row)][1:]
                      for i, row in enumerate(rows)][1:], p, B + 1)


def law_domain():
    """One window per (p, J) that `invariants` accepts with torsion: p an
    odd prime, J >= 1 and L = (p - 1)J + 1 <= MAX_LENGTH; 425 in all.
    The torsion depends on J alone (`mahler` docstring, Determinant)."""
    top = mahler.MAX_LENGTH
    return [((p - 1) * J + 1, p) for p in range(3, top + 1) if is_prime(p)
            for J in range(1, (top - 1) // (p - 1) + 1)]


# The windows past MAX_LENGTH where the law differs from Smith (the
# `mahler` docstring, Determinant): p = 3, J = 3^5 + {3, 4, 10} and
# 2 * 3^5 + {3, 4, 10}
LAW_FAILURES = [(2 * J + 1, 3) for J in (246, 247, 253, 489, 490, 496)]


def smith_torsion(L, p):
    """The positive Smith valuations of C, sorted."""
    return sorted(v for v in Smith(mahler_complement(L, p)).valuations if v)


def law_mismatches(windows):
    """(L, p, Smith's, the law's) for each window where the torsion
    exponents of `invariants` differ from the positive Smith valuations
    of C, sorted."""
    bad = []
    for L, p in windows:
        smith = smith_torsion(L, p)
        law = invariants(L, p, 1).kernel.torsion_exponents()
        if law != smith:
            bad.append((L, p, smith, law))
    return bad


def law_agreements(windows):
    """(L, p) of each window where the law, read from
    `mahler._complement_valuations` because `invariants` refuses L >
    MAX_LENGTH, equals the positive Smith valuations of C."""
    return [(L, p) for L, p in windows if smith_torsion(L, p) == sorted(
        v for v in mahler._complement_valuations((L - 1) // (p - 1), p) if v)]


if __name__ == "__main__":
    start = time.perf_counter()
    domain = law_domain()
    if len(domain) != 425:
        sys.exit(f"law domain has {len(domain)} windows, not 425")
    if bad := law_mismatches(domain):
        sys.exit(f"torsion law differs from Smith at (L, p, Smith, law) = "
                 f"{bad}")
    if agree := law_agreements(LAW_FAILURES):
        sys.exit(f"torsion law equals Smith at (L, p) = {agree}, which the "
                 f"mahler docstring lists as failures")
    print(f"torsion law equals Smith on all {len(domain)} windows and "
          f"differs at the {len(LAW_FAILURES)} listed past the bound, in "
          f"{time.perf_counter() - start:.1f} s")
