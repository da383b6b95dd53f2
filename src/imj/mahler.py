"""Truncated Mahler model of continuous functions Z_p -> Z_p.

A length-L window stores Mahler coefficients c_0..c_{L-1} with respect to
the binomial functions b_i(a) = (a choose i); semantics are exact modulo
(p^N, b_{>=L}).  The psi-action is translation on the source,
(psi . f)(x) = f(x psi).  Since x -> (x psi choose i) is a degree-i
polynomial, the length-L window is genuinely psi-stable: no truncation
error enters act_psi.

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

Generator.  `invariants` runs the recurrence on a small integer g that
topologically generates Z_p^x, so every product k g (h_k[i] +
h_(k-1)[i]) has a factor of a few digits, and it eliminates
(psi_g - id) diag(U) = H - diag(U), which needs no product by the
inverses of the U_i.  The answer is that of psi.  At any precision
the image of Z_p^x in GL((Z/p^n)^L) is a finite cyclic group, which
psi and g both generate, so psi_g = psi^s and psi = psi_g^r for some
integers s and r.  As psi^s - id = (psi - id)(id + psi + ... +
psi^(s-1)), and the same holds the other way, psi_g - id and psi - id
have the same image and the same kernel.  So the Smith valuations, the
kernel module and the kernel mod p^N, which the saturated kernel
columns span, are those of psi, and so is the normalized generator.
"""

from __future__ import annotations

import math
from itertools import zip_longest
from operator import mul

from .gmod import FgModule, ModMatrix, Smith
from .grpcoh import character_window
from .padic import (PadicInt, PrecisionError, psi_generator,
                    require_odd_prime, smallest_primitive_root, vp)


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
        self.coefficients = [c.reduce(prec) for c in coefficients]
        self.precision = prec

    @property
    def length(self) -> int:
        return len(self.coefficients)

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


def act_psi(f: MahlerFunction) -> MahlerFunction:
    """(psi . f)(x) = f(x psi): the coefficient vector times psi_matrix."""
    p, N = f.prime, f.precision
    c = [x.residue for x in f.coefficients]
    return MahlerFunction([PadicInt(sum(map(mul, row, c)), p, N)
                           for row in psi_matrix(f.length, p, N).data])


def _h_rows(L: int, p: int, N: int,
            a: int) -> tuple[list[list[int]], list[int]]:
    """H mod p^N as rows, H[k][i] = h_k[i] for the integer a (module
    docstring), and U, U[i] the unit part of i! mod p^N, so that the
    matrix of the action of a is H times the inverse of diag(U).  H is
    upper triangular with diagonal a^i * U[i].  Only a mod p^M matters,
    M = N + v_p((L-1)!); p is an odd prime, which both callers ask first.

    Column i+1 comes from column i by the recurrence for h_k[i], run mod
    p^(M - v_p(i!)), dividing exactly by p^(v_p(i+1)) where p divides
    i+1; U is the forward product of the unit parts of 1..L-1.  The
    diagonal is checked against a^i * U[i] mod p^N; a mismatch, such as
    a working precision too short for the division, raises
    RuntimeError."""
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
            q, d = i + 1, 1  # i + 1 = q * d, q prime to p
            while q % p == 0:
                q //= p
                d *= p
            if d > 1:
                h = [x // d for x in h]
                # at least 1: a short M reaches the diagonal check
                m = max(m // d, 1)
            u = u * q % pN
            diag = diag * a * q % pN
    return [list(row) for row in zip_longest(*cols, fillvalue=0)], U


def _integer_generator(p: int) -> int:
    """A small integer that topologically generates Z_p^x: the smallest
    primitive root g mod p, plus p when g^(p-1) = 1 mod p^2, so that it
    is a primitive root mod p^2 (the first such p is 40487, g = 5)."""
    g = smallest_primitive_root(p)
    return g + p if pow(g, p - 1, p * p) == 1 else g


def psi_matrix(L: int, p: int, N: int) -> ModMatrix:
    """Matrix of act_psi on b_0..b_{L-1} over Z/p^N.  Entry [k][i] is the
    coefficient of T^i in S^k, S = (1+T)^psi - 1 (module docstring), so
    column i is psi . b_i.  Upper triangular with diagonal psi^k.

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
    rows = [[x * v % pN for x, v in zip(row, inv)] for row in rows]
    return ModMatrix._empty(L, L, p, N, rows)


class InvariantsReport:
    """Kernel of id - act_psi on the length-L window."""

    __slots__ = ("rank", "generators", "kernel", "length")

    def __init__(self, rank: int, generators: list[MahlerFunction],
                 kernel: FgModule, length: int):
        self.rank = rank
        self.generators = generators
        self.kernel = kernel
        self.length = length

    def describe(self) -> str:
        return (f"invariants: rank {self.rank} (kernel "
                f"{self.kernel.describe()}) at length {self.length}")


def invariants(L: int, p: int, N: int) -> InvariantsReport:
    """Saturated kernel of id - act_psi: the genuinely invariant functions.

    Naive saturation counting at precision N lies: id - act_psi is
    triangular with unit off-diagonal entries, and those merge the
    per-degree torsion into a single invariant factor as large as the
    determinant valuation B of the complement of the constant column.
    Whenever N <= B that accumulated factor also hits the precision
    ceiling and masquerades as a second free generator.  Working
    internally at N + B separates the two: every finite invariant factor
    is bounded by B, so only exact kernel vectors saturate.  Tail
    coordinates of a saturated column then carry valuation at least N
    and vanish from the reported generator, which is normalized to
    constant term 1 when that term is a unit.  The kernel module keeps
    the working precision, at which all its torsion exponents are exact.

    The elimination runs on (psi_g - id) diag(U) = H - diag(U), with H
    and U from `_h_rows` for the small integer generator g of
    `_integer_generator` (module docstring: the answer is that of psi):
    one subtraction per diagonal entry, and no product by the inverses
    of the U[i].  A right factor of units leaves every entry's valuation
    alone, so the pivots and valuations are those of id - psi_g, and U
    times a kernel column of H - diag(U) is a kernel column of
    id - psi_g.  Only the saturated kernel columns are read, one at a
    time from the Smith transcript; the row transform and the rest of V
    are never built.  `require_odd_prime` and N >= 1 are asked before
    B, so the working precision N + B never hides a precision below 1."""
    if L < 2:
        raise ValueError("window too short to see the translation action")
    require_odd_prime(p)
    if N < 1:
        raise PrecisionError(f"precision {N} < 1")
    # det of the upper-triangular complement: sum of diagonal valuations
    B = sum(1 + vp(i, p) for i in range(1, L)
            if i % (p - 1) == 0)
    Nw = N + B
    pNw = p**Nw
    rows, U = _h_rows(L, p, Nw, _integer_generator(p))
    for k, row in enumerate(rows):
        row[k] = (row[k] - U[k]) % pNw
    S = Smith(ModMatrix._empty(L, L, p, Nw, rows))
    vals = S.valuations
    pN = p**N
    gens = []
    for j, v in enumerate(vals):
        if v == Nw:
            col = [x * u % pN for x, u in zip(S.kernel_column(j), U)]
            if col[0] % p:
                inv = pow(col[0], -1, pN)
                col = [x * inv % pN for x in col]
            gens.append(MahlerFunction([PadicInt(x, p, N) for x in col]))
    kernel = FgModule(sorted(v for v in vals if v > 0), p, Nw)
    return InvariantsReport(len(gens), gens, kernel, L)


class RationalProfile:
    """character_cohomology aggregated over a k-window."""

    __slots__ = ("entries", "rational_h1", "prime", "precision")

    def __init__(self, entries: dict[int, tuple[int, int, int]],
                 rational_h1: list[int], prime: int, precision: int):
        self.entries = entries
        self.rational_h1 = rational_h1
        self.prime = prime
        self.precision = precision

    def lines(self) -> list[str]:
        out = []
        for k in sorted(self.entries):
            h0, h1, tv = self.entries[k]
            out.append(f"k={k}: h0={h0} h1={h1} torsion_valuation={tv}")
        return out


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
    rational = sorted(k for k, (_h0, h1, _tv) in entries.items() if h1)
    expected = [0] if lo <= 0 <= hi else []
    if rational != expected:
        raise RuntimeError(f"rational H^1 carried by {rational}, "
                           f"expected {expected}")
    return RationalProfile(entries, rational, p, N)
