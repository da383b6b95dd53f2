"""Exact arithmetic in Z/p^N with p-adic semantics.

Every quantity in this package is ultimately a residue mod p^N together
with the odd prime p and the precision exponent N.  The p-adic valuation
of a nonzero residue is exact; zero has valuation N by convention, since
it cannot be told apart from any element of valuation >= N.

psi = sigma*(1+p), built here, generates Z_p^x; v(1 - psi^k) = 1 + v_p(k)
when (p-1) | k != 0, else 0: the image-of-J pattern.  Only
`mahler.psi_matrix`, the tests and demo 01 build it: `mahler.invariants`
runs on a small integer generator, and the `grpcoh` windows step
(1+p)^(p-1).
"""

from __future__ import annotations

from functools import cache


class PrecisionError(ArithmeticError):
    """Raised when an exact answer would need more than the available precision."""


def vp(n: int, p: int) -> int:
    """Exact v_p(n) of a nonzero integer n of either sign, for p >= 2."""
    if n == 0:
        raise ValueError("v_p(0) is infinite")
    if p < 2:
        raise ValueError(f"v_p needs p >= 2, got {p}")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def int_valuation(n: int, p: int, N: int) -> int:
    """p-adic valuation of the residue n mod p^N, capped at N; v(0) = N."""
    n %= p**N
    return vp(n, p) if n else N


class PadicInt:
    """A residue mod p^N, p an odd prime, N >= 1."""

    __slots__ = ("residue", "prime", "precision")

    def __init__(self, residue: int, prime: int, precision: int):
        if precision < 1:
            raise PrecisionError(f"precision {precision} < 1")
        self.prime = prime
        self.precision = precision
        self.residue = residue % prime**precision

    # ---- structure ----

    def _check(self, other: "PadicInt") -> None:
        if self.prime != other.prime or self.precision != other.precision:
            raise ValueError("mixed (p, N) contexts")

    @property
    def modulus(self) -> int:
        return self.prime**self.precision

    def valuation(self) -> int:
        return int_valuation(self.residue, self.prime, self.precision)

    def is_zero(self) -> bool:
        return self.residue == 0

    def is_unit(self) -> bool:
        return self.residue % self.prime != 0

    def reduce(self, precision: int) -> "PadicInt":
        if precision > self.precision:
            raise PrecisionError(
                f"cannot raise precision {self.precision} to {precision}")
        return PadicInt(self.residue, self.prime, precision)

    # ---- ring operations ----

    def __add__(self, other: "PadicInt") -> "PadicInt":
        self._check(other)
        return PadicInt(self.residue + other.residue, self.prime, self.precision)

    def __sub__(self, other: "PadicInt") -> "PadicInt":
        self._check(other)
        return PadicInt(self.residue - other.residue, self.prime, self.precision)

    def __mul__(self, other: "PadicInt") -> "PadicInt":
        self._check(other)
        return PadicInt(self.residue * other.residue, self.prime, self.precision)

    def __neg__(self) -> "PadicInt":
        return PadicInt(-self.residue, self.prime, self.precision)

    def __pow__(self, k: int) -> "PadicInt":
        if k < 0:
            return self.inverse() ** (-k)
        return PadicInt(pow(self.residue, k, self.modulus), self.prime,
                        self.precision)

    def inverse(self) -> "PadicInt":
        if not self.is_unit():
            raise ZeroDivisionError(f"{self.residue} is not a unit mod "
                                    f"{self.prime}^{self.precision}")
        return PadicInt(pow(self.residue, -1, self.modulus), self.prime,
                        self.precision)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PadicInt) and self.prime == other.prime
                and self.precision == other.precision
                and self.residue == other.residue)

    def __hash__(self) -> int:
        return hash((self.residue, self.prime, self.precision))

    def __repr__(self) -> str:
        return f"PadicInt({self.residue}, {self.prime}, {self.precision})"


def teichmuller(x0: int, p: int, N: int) -> PadicInt:
    """The Teichmuller representative: the unique omega with omega^(p-1) = 1
    in Z/p^N and omega = x0 mod p.

    Computed by Hensel lifting: x0 is a root of x^(p-1) - 1 mod p (Fermat),
    and each Newton step doubles the precision of the root, so about
    log2 N steps land on omega.  The derivative (p-1)x^(p-2) is a unit,
    and since x^(p-1) = 1 to the current precision it agrees there with
    (p-1)/x, which is all a doubling step needs:
    x -> x - (x^(p-1) - 1) * x / (p-1) mod p^k, where
    1/(p-1) = -(1 + p + ... + p^(k-1)) = -(p^k - 1)/(p-1) needs no
    modular inverse.
    """
    if x0 % p == 0:
        raise ValueError(f"{x0} is divisible by {p}")
    x = x0 % p
    k = 1
    while k < N:
        k = min(2 * k, N)
        pk = p**k
        x = (x + (pow(x, p - 1, pk) - 1) * x * ((pk - 1) // (p - 1))) % pk
    return PadicInt(x, p, N)


def binom(a: PadicInt, i: int) -> PadicInt:
    """The p-adic binomial coefficient (a choose i) = a(a-1)...(a-i+1)/i!.

    The division by i! is exact in Z_p, but computing it from a residue mod
    p^N costs v_p(i!) digits: the result carries precision N - v_p(i!).
    """
    if i < 0:
        raise ValueError("negative lower index")
    p, N = a.prime, a.precision
    if i == 0:
        return PadicInt(1, p, N)
    pN = p**N
    num = 1
    fact_val = 0
    fact_unit = 1
    for j in range(i):
        num = num * (a.residue - j) % pN
        v = vp(j + 1, p)
        fact_val += v
        fact_unit = fact_unit * ((j + 1) // p**v) % pN
    N_out = N - fact_val
    if N_out <= 0:
        raise PrecisionError(
            f"binom lower index {i} needs more than {N} digits at p={p}")
    # num is divisible by p^fact_val since the true quotient is integral
    q = (num // p**fact_val) % p**N_out
    q = q * pow(fact_unit, -1, p**N_out) % p**N_out
    return PadicInt(q, p, N_out)


def prime_factors(n: int) -> list[int]:
    """Prime factors of n >= 1 with multiplicity, ascending; trial
    division, desk-scale n.  This is the package's one factoring loop."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@cache
def is_prime(n: int) -> bool:
    """Primality by trial division; desk-scale n.  Memoized, so the CLI's
    -p check and `require_odd_prime` share one trial division."""
    return n >= 2 and prime_factors(n) == [n]


def require_odd_prime(p: int) -> None:
    """The one refusal of p, which every engine asks before any arithmetic
    on p: its identities need an odd prime (Z_2^x is not topologically
    cyclic; at p = 0 or +-1 the valuation loops would never end)."""
    if p % 2 == 0 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def smallest_primitive_root(p: int) -> int:
    """Smallest positive primitive root mod p (deterministic); ValueError
    unless p is an odd prime, through `require_odd_prime`."""
    require_odd_prime(p)
    factors = set(prime_factors(p - 1))
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g


def psi_generator(p: int, N: int) -> PadicInt:
    """A topological generator psi = sigma*(1+p) of Z_p^x, p odd.

    sigma is the Teichmuller lift of the smallest primitive root mod p;
    the choice of root is a recorded convention, nothing downstream
    depends on it; `require_odd_prime` refuses any other p first.
    """
    require_odd_prime(p)
    sigma = teichmuller(smallest_primitive_root(p), p, N)
    return sigma * PadicInt(1 + p, p, N)
