"""The image of J against Bernoulli denominators, an oracle that shares no
code with the engine.

Adams (On the groups J(X) IV, Topology 1966): the order of im J in
pi_{4k-1} is the denominator of B_{2k}/4k.  At an odd prime p its p-part
is the order of H^1(Z_p^x; E_{4k}), the abutment in degree t = 4k.  The
Bernoulli numbers come from the standard recursion over the rationals;
nothing but `abutment` is imported from the package.
"""

from fractions import Fraction
from math import comb

import pytest

from imj.grpcoh import abutment

K_MAX = 120


def bernoulli(n):
    """B_0, ..., B_n from sum_{j <= m} C(m+1, j) B_j = 0 for m >= 1."""
    B = [Fraction(1)]
    for m in range(1, n + 1):
        B.append(-sum(comb(m + 1, j) * B[j] for j in range(m)) / (m + 1))
    return B


B = bernoulli(2 * K_MAX)


def p_part(n, p):
    q = 1
    while n % p == 0:
        n //= p
        q *= p
    return q


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_im_j_order_is_the_bernoulli_denominator(p):
    report = abutment(p, (2, 4 * K_MAX))
    for k in range(1, K_MAX + 1):
        denom = (B[2 * k] / (4 * k)).denominator
        e = report.h(1, 4 * k).order_exponent()
        assert p_part(denom, p) == p**e, (p, k)
