"""Truncated Mahler model of continuous functions Z_p -> Z_p.

A length-L window stores Mahler coefficients c_0..c_{L-1} with respect to
the binomial functions b_i(a) = (a choose i); semantics are exact modulo
(p^N, b_{>=L}).  The psi-action is translation on the source,
(psi . f)(x) = f(x psi).  Since x -> (x psi choose i) is a degree-i
polynomial, the length-L window is genuinely psi-stable: no truncation
error enters the action of psi.

The matrix of the action comes from one series identity.  With
S = (1+T)^psi - 1,

    sum_i (x psi choose i) T^i = (1+T)^(x psi) = (1+S)^x
                               = sum_k (x choose k) S^k,

so the coefficient of b_k in psi . b_i is the coefficient of T^i in S^k.
S solves the ODE (1+T) S' = psi (1+S), hence (1+T) (S^k)' =
k psi (S^(k-1) + S^k).  Comparing coefficients of T^i and scaling by i!,
g_k[i] = i! [T^i] S^k obeys the linear recurrence

    g_k[i+1] = k psi (g_k[i] + g_(k-1)[i]) - i g_k[i],   g_0 = [1, 0, ...],

which has no division and costs O(L^2) ring operations for the whole
window, against O(L^3) for the powers S^k.  Column i+1 of the matrix
comes from column i with one product by k psi per entry; the other
factor, i, is small.

Precision.  With an integer a in place of psi, the recurrence runs over
Z.  [T^i] S^k = g_k[i] / i! is an integer, so h_k[i] = g_k[i] /
p^(v_p(i!)) is one too, and it obeys

    h_k[i+1] = (k a (h_k[i] + h_(k-1)[i]) - i h_k[i]) / p^(v_p(i+1)),

an exact division, only where p divides i+1.  Run mod p^M from h_0 =
[1, 0, ...], each division leaves a residue mod a smaller power, so
column i is h_k[i] mod p^(M - v_p(i!)).  [T^i] S^k is h_k[i] divided
by U_i, the unit part of i!, so the matrix of the action of a is
H diag(U)^-1 with H[k][i] = h_k[i].  `psi_matrix` takes a = psi mod
p^M and that product, one per entry.  Its error against psi is
bounded by the same count: [T^i] S^k is an integral polynomial in the
binomials (a choose m), m <= i, and each of those is right mod
p^(M - v_p(m!)).  Only i < L reaches the window, so M = N + v_p((L-1)!)
makes every entry right mod p^N.

Determinant.  psi b_0 = b_0 and no psi b_i, i >= 1, has a b_0 term, so
psi - id = 0 (+) C, with C the upper triangular block on 1..L-1 whose
diagonal psi^k - 1 has valuation 1 + v_p(k) where p - 1 divides k and
0 elsewhere.  These sum to B = v_p(det C), one Legendre sum: k =
(p - 1)j for j = 1 .. J = floor((L - 1)/(p - 1)), so B = J + v_p(J!).
The torsion of H^1(W_L) = coker(psi - id), that of coker(C), depends on
J alone: in the long exact sequence of 0 -> W_L -> W_(L+1) ->
Z_p(psi^L) -> 0 the quotient has no cohomology unless p - 1 divides L,
since psi^L - 1 is a unit, so H^1(W_L) = H^1(W_(L+1)).  Its exponents
follow a law: each k = (p - 1)j < L adds Z/p^(1 + v_p(j)), one unit of
which joins factor 0 at once, and for each m <= v_p(j) one more unit
reaches factor r <= m at J = j + t(m, r), t(m, r) = (p^r - 1)/(p - 1)
+ min(m - r, p - 1) p^(r-1).  With n_m(x) = floor(x/p^m) for x > 0,
else 0, and M the largest m with p^m <= J, that counts

    e_0 = J + sum_(m=1..M) [n_m(J) - n_m(J - t(m, 1))],
    e_r = sum_(m=r..M) [n_m(J - t(m, r)) - n_m(J - t(m, r+1))],

the second term dropped at m = r; the torsion exponents are the
positive e_r, and they sum to J + sum_m n_m(J) = B (at p = 3, L = 7:
(4)).  The law is a fit, not a proof.  It equals the Smith valuations
of C for every odd p <= 256 and J >= 1 with (p - 1)J < 256, so for
every L <= MAX_LENGTH = 256 (p > L has no torsion), and at p <= 13 up
to L about 800, but fails at p = 3 for J = 246, 247, 253, 489, 490 and
496 (L = 493, 495, 507, 979, 981, 993; `tests/mahler_oracle.py`
checks each), its only failures at p = 3 up to J = 600; so
`invariants` refuses L > MAX_LENGTH.  Inside the bound the cap p - 1
matters only at p = 3, J = 84 (L = 169, 170).

Every Smith valuation of C is at most B: below the working precision
N + B of `invariants` for every N >= 1, so the zero column is the only
saturated factor, exponent N + B, and the rank is 1.  A saturated kernel
vector (x_0, x') has C x' = 0 mod p^(N+B); as adj(C) C = det(C) I,
p^B x' = 0 mod p^(N+B), so x' = 0 mod p^N, and x_0 is a unit, since the
vector is a column of an invertible V.  The normalized generator is the
constant function 1, and the result depends on N only through the
exponent N + B.
"""

from __future__ import annotations

import math
from itertools import zip_longest
from typing import NamedTuple

from .gmod import FgModule, ModMatrix
from .grpcoh import character_window
from .padic import (PadicInt, PrecisionError, psi_generator,
                    require_odd_prime, vp)

# Largest window `invariants` accepts, where its law is checked (Determinant)
MAX_LENGTH = 256


def _vp_factorial(n: int, p: int) -> int:
    total, q = 0, p
    while q <= n:
        total += n // q
        q *= p
    return total


def _int_binom(x: int, i: int) -> int:
    if x >= 0:
        return math.comb(x, i)
    return (-1) ** i * math.comb(-x + i - 1, i)


class MahlerFunction:
    """Finitely many Mahler coefficients; f = sum c_i b_i mod (p^N, b_>=L)."""

    __slots__ = ("coefficients", "prime", "precision")

    def __init__(self, coefficients: list[PadicInt]):
        if not coefficients:
            raise ValueError("empty coefficient list")
        self.prime = coefficients[0].prime
        prec = min(c.precision for c in coefficients)
        self.coefficients = [c if c.precision == prec else c.reduce(prec)
                             for c in coefficients]
        self.precision = prec

    def evaluate(self, x: int) -> PadicInt:
        """Exact value at an integer point (binomials stay integral)."""
        p, N = self.prime, self.precision
        pN = p**N
        total = 0
        for i, c in enumerate(self.coefficients):
            if c.residue:
                total += c.residue * _int_binom(x, i)
        return PadicInt(total % pN, p, N)

    def to_csv(self) -> str:
        lines = ["index,residue,valuation"]
        for i, c in enumerate(self.coefficients):
            lines.append(f"{i},{c.residue},{c.valuation()}")
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, MahlerFunction)
                and self.prime == other.prime
                and self.precision == other.precision
                and [c.residue for c in self.coefficients]
                == [c.residue for c in other.coefficients])

    def __repr__(self) -> str:
        res = [c.residue for c in self.coefficients]
        return f"MahlerFunction({res}, p={self.prime}, N={self.precision})"


def mahler_coeffs(values: list[PadicInt]) -> MahlerFunction:
    """Coefficients from samples f(0), ..., f(L-1): c_i = (Delta^i f)(0)."""
    if not values:
        raise ValueError("no sample values")
    prec = min(v.precision for v in values)
    work = [v.reduce(prec) for v in values]
    coeffs = []
    while work:
        coeffs.append(work[0])
        work = [b - a for a, b in zip(work, work[1:])]
    return MahlerFunction(coeffs)


def _h_rows(L: int, p: int, N: int,
            a: int) -> tuple[list[list[int]], list[int]]:
    """H mod p^N as rows, H[k][i] = h_k[i] for the integer a (module
    docstring), and U, U[i] the unit part of i! mod p^N, so that the
    matrix of the action of a is H times the inverse of diag(U).  H is
    upper triangular with diagonal a^i * U[i].  Only a mod p^M matters,
    M = N + v_p((L-1)!); p is an odd prime, which `psi_matrix` asks
    first.

    Column i+1 comes from column i by the recurrence for h_k[i], run mod
    p^(M - v_p(i!)), dividing exactly by p^(v_p(i+1)) where p divides
    i+1; U is the forward product of the unit parts of 1..L-1.  The
    diagonal is checked against a^i * U[i] mod p^N, and the last column
    must hold residues mod p^N, as it does when M is right; a mismatch or
    a shorter modulus, from a working precision too short for the
    division, raises RuntimeError."""
    pN = p**N
    M = N + _vp_factorial(L - 1, p)
    pM = p**M
    ka = [k * a % pM for k in range(1, L)]
    h = [1]  # h_k[i] = g_k[i] / p^(v_p(i!)) for k <= i: column i
    m = pM  # p^(M - v_p(i!)), the modulus of column i of h
    cols, U = [], []
    u = diag = 1  # U[i] and a^i * U[i], mod p^N
    for i in range(L):
        col = [x % pN for x in h]
        if col[i] != diag:
            raise RuntimeError(f"recurrence row {i}: diagonal is not "
                               f"a^{i} U[{i}]")
        cols.append(col)
        U.append(u)
        if i + 1 < L:
            h = [0] + [(c * (x + y) - i * x) % m
                       for c, x, y in zip(ka, h[1:] + [0], h)]
            d = p**vp(i + 1, p)
            q = (i + 1) // d  # i + 1 = q * d, q prime to p
            if d > 1:
                h = [x // d for x in h]
                # at least 1: a short M reaches the diagonal check
                m = max(m // d, 1)
            u = u * q % pN
            diag = diag * a * q % pN
    if m < pN:
        raise RuntimeError(f"recurrence: last column known mod {m} < p^N")
    return [list(row) for row in zip_longest(*cols, fillvalue=0)], U


def psi_matrix(L: int, p: int, N: int) -> ModMatrix:
    """Matrix of the action of psi on b_0..b_{L-1} over Z/p^N.  Entry
    [k][i] is the coefficient of T^i in S^k, S = (1+T)^psi - 1 (module
    docstring), so column i is psi . b_i.  Upper triangular with
    diagonal psi^k.

    The rows of `_h_rows` for a = psi mod p^(N + v_p((L-1)!)), column i
    multiplied by the inverse of the unit part of i! mod p^N: one product
    per entry.  The first steps are `require_odd_prime`, N >= 1."""
    require_odd_prime(p)
    if N < 1:
        raise PrecisionError(f"precision {N} < 1")
    pN = p**N
    a = psi_generator(p, N + _vp_factorial(L - 1, p)).residue
    rows, U = _h_rows(L, p, N, a)
    inv = [pow(u, -1, pN) for u in U]
    return ModMatrix([[x * v for x, v in zip(row, inv)] for row in rows],
                     p, N)


class InvariantsReport(NamedTuple):
    """Kernel of id - psi on the length-L window, and its generators."""

    rank: int
    generators: list[MahlerFunction]
    kernel: FgModule
    length: int

    def describe(self) -> str:
        return (f"invariants: rank {self.rank} (kernel "
                f"{self.kernel.describe()}) at length {self.length}")


def _complement_valuations(J: int, p: int) -> list[int]:
    """e_0, ..., e_M, the Smith valuations of C that can be positive, by
    the law of the module docstring (Determinant)."""
    e, q = [J], p
    while q <= J:
        e.append(0)
        m = len(e) - 1
        moved = J // q
        for r in range(1, m + 1):
            t = (p**r - 1) // (p - 1) + min(m - r, p - 1) * p**(r - 1)
            left, moved = moved, max(J - t, 0) // q
            e[r - 1] += left - moved
        e[m] += moved
        q *= p
    return e


def invariants(L: int, p: int, N: int) -> InvariantsReport:
    """Saturated kernel of id - psi: the genuinely invariant functions.

    Naive saturation counting at precision N lies: id - psi is
    triangular with unit off-diagonal entries, and those merge the
    per-degree torsion into a single invariant factor as large as the
    determinant valuation B of the complement of the constant column.
    Whenever N <= B that accumulated factor also hits the precision
    ceiling and masquerades as a second free generator.  Working at
    N + B separates the two: every finite invariant factor is at most
    B, so only the constant column saturates (module docstring,
    Determinant).  The kernel module keeps that precision, at which all
    its torsion exponents are exact.

    The torsion exponents come from the law `_complement_valuations`,
    checked to sum to B (else RuntimeError); the report adds the
    saturated factor N + B, rank 1 and the constant generator 1.  L
    outside 2 .. MAX_LENGTH, then `require_odd_prime` and N >= 1 are
    asked first, so N + B never hides a precision below 1."""
    if L < 2:
        raise ValueError("window too short to see the translation action")
    if L > MAX_LENGTH:
        raise ValueError(f"window length {L} is above the bound L <= "
                         f"{MAX_LENGTH}, where the torsion law is checked")
    require_odd_prime(p)
    if N < 1:
        raise PrecisionError(f"precision {N} < 1")
    B = (J := (L - 1) // (p - 1)) + _vp_factorial(J, p)
    vals = _complement_valuations(J, p)
    if sum(vals) != B:
        raise RuntimeError(f"Smith valuations of the length-{L} complement "
                           f"sum to {sum(vals)}, not to its determinant "
                           f"valuation {B}")
    torsion, Nw = [v for v in vals if v], N + B
    one = MahlerFunction([PadicInt(1, p, N), *[PadicInt(0, p, N)] * (L - 1)])
    return InvariantsReport(1, [one], FgModule([*torsion, Nw], p, Nw), L)


class RationalProfile(NamedTuple):
    """character_cohomology over a k-window, in increasing k: (h0, h1, torsion
    valuation) per character k, and the k that carry rational H^1."""

    entries: dict[int, tuple[int, int, int]]
    rational_h1: list[int]

    def lines(self) -> list[str]:
        return [f"k={k}: h0={h0} h1={h1} torsion_valuation={tv}"
                for k, (h0, h1, tv) in self.entries.items()]


def h1_rational_profile(k_range: tuple[int, int], p: int,
                        N: int) -> RationalProfile:
    """Per-character rational cohomology over a window of characters.

    Exactly the trivial character carries rational H^0 and H^1; every
    other character contributes only bounded torsion.  The ranks come
    from the engine (`character_window` reads one Lubin-Tate window and
    builds no psi), and a violation means the valuation engine is broken
    and raises."""
    lo, hi = k_range
    entries = dict(character_window(lo, hi, p, N))
    rational = [k for k, (_h0, h1, _tv) in entries.items() if h1]
    expected = [0] if lo <= 0 <= hi else []
    if rational != expected:
        raise RuntimeError(f"rational H^1 carried by {rational}, "
                           f"expected {expected}")
    return RationalProfile(entries, rational)
