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
The coefficients of S are the p-adic binomials (psi choose m).  Taken as
exact integer binomials (a choose m) of a residue a = psi mod p^Nw they
are only right mod p^(Nw - v_p(m!)), because the division by m! spends
v_p(m!) digits.  Only m < L reaches the window, so Nw = N + v_p((L-1)!)
makes every one of them right mod p^N; from there on everything is plain
integer arithmetic mod p^N.
"""

from __future__ import annotations

import math
from operator import mul

from .gmod import FgModule, ModMatrix, Smith
from .grpcoh import character_cohomology
from .padic import PadicInt, int_valuation, psi_generator


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


def psi_matrix(L: int, p: int, N: int) -> ModMatrix:
    """Matrix of act_psi on b_0..b_{L-1} over Z/p^N.  Entry [k][i] is the
    coefficient of T^i in S^k, S = (1+T)^psi - 1 (module docstring), so
    column i is psi . b_i.  Upper triangular with diagonal psi^k.

    S is read off the exact integer binomials (a choose m), with
    a = psi mod p^(N + v_p((L-1)!)), reduced mod p^N; row k is row k-1
    times S truncated at T^L.  No division follows the binomials and no
    precision is tracked.  Each row's diagonal is checked against
    a^k mod p^N; a mismatch raises RuntimeError."""
    pN = p**N
    a = psi_generator(p, N + _vp_factorial(L - 1, p)).residue
    s = [0] * L
    b = 1
    for m in range(1, L):
        b = b * (a - m + 1) // m
        s[m] = b % pN
    row = [1] + [0] * (L - 1)
    rows = [row]
    for k in range(1, L):
        # S^(k-1) starts at T^(k-1) and S at T^1
        row = [0] * k + [sum(map(mul, row[k - 1:i], s[i - k + 1:0:-1])) % pN
                         for i in range(k, L)]
        if row[k] != pow(a, k, pN):
            raise RuntimeError(f"psi matrix row {k}: diagonal is not psi^{k}")
        rows.append(row)
    return ModMatrix(rows, p, N)


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

    Only the saturated columns of V are read, one at a time from the
    Smith transcript; U and the rest of V are never built."""
    if L < 2:
        raise ValueError("window too short to see the translation action")
    # det of the upper-triangular complement: sum of diagonal valuations
    B = sum(1 + int_valuation(i, p, L) for i in range(1, L)
            if i % (p - 1) == 0)
    Nw = N + B
    A = ModMatrix.identity(L, p, Nw) - psi_matrix(L, p, Nw)
    S = Smith(A)
    vals = S.valuations
    gens = []
    for j, v in enumerate(vals):
        if v == Nw:
            col = [x % p**N for x in S.kernel_column(j)]
            if col[0] % p:
                inv = pow(col[0], -1, p**N)
                col = [x * inv % p**N for x in col]
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
    other character contributes only bounded torsion.  A violation means
    the valuation engine is broken and raises."""
    lo, hi = k_range
    entries = {k: character_cohomology(k, p, N) for k in range(lo, hi + 1)}
    rational = sorted(k for k, (_h0, h1, _tv) in entries.items() if h1)
    expected = [0] if lo <= 0 <= hi else []
    if rational != expected:
        raise RuntimeError(f"rational H^1 carried by {rational}, "
                           f"expected {expected}")
    return RationalProfile(entries, rational, p, N)
