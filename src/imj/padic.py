"""Exact arithmetic in Z/p^N with p-adic semantics.

Every quantity in this package is ultimately a residue mod p^N together
with the odd prime p and the precision exponent N.  The p-adic valuation
of a nonzero residue is exact; zero has valuation N by convention, since
it cannot be told apart from any element of valuation >= N.

The generator psi = sigma*(1+p) of Z_p^x built here is the engine of the
whole computation: valuation(1 - psi^k) is 1 + v_p(k) when (p-1) | k != 0
and 0 otherwise, and that single identity produces the image-of-J pattern.
"""

from __future__ import annotations


class PrecisionError(ArithmeticError):
    """Raised when an exact answer would need more than the available precision."""


def int_valuation(n: int, p: int, N: int) -> int:
    """p-adic valuation of the residue n mod p^N, capped at N; v(0) = N."""
    n %= p**N
    if n == 0:
        return N
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PadicInt:
    """A residue mod p^N, p an odd prime, N >= 1."""

    __slots__ = ("residue", "prime", "precision")

    def __init__(self, residue: int, prime: int, precision: int):
        if precision < 1:
            raise PrecisionError(f"precision {precision} < 1")
        self.prime = prime
        self.precision = precision
        self.residue = residue % prime**precision

    # ---- constructors ----

    @classmethod
    def one(cls, p: int, N: int) -> "PadicInt":
        return cls(1, p, N)

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

    Computed by Frobenius iteration x -> x^p, which gains one p-adic digit
    per step; N steps land on the fixed point exactly.
    """
    if x0 % p == 0:
        raise ValueError(f"{x0} is divisible by {p}")
    pN = p**N
    x = x0 % pN
    for _ in range(N):
        x = pow(x, p, pN)
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
        return PadicInt.one(p, N)
    pN = p**N
    num = 1
    fact_val = 0
    fact_unit = 1
    for j in range(i):
        num = num * (a.residue - j) % pN
        m = j + 1
        while m % p == 0:
            m //= p
            fact_val += 1
        fact_unit = fact_unit * m % pN
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


def is_prime(n: int) -> bool:
    """Primality by trial division; desk-scale n."""
    return n >= 2 and prime_factors(n) == [n]


def smallest_primitive_root(p: int) -> int:
    """Smallest positive primitive root mod the odd prime p (deterministic)."""
    if p < 3:
        raise ValueError(f"{p} is not an odd prime")
    factors = set(prime_factors(p - 1))
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise ValueError(f"{p} is not an odd prime")


def psi_generator(p: int, N: int) -> PadicInt:
    """A topological generator psi = sigma*(1+p) of Z_p^x, p odd.

    sigma is the Teichmuller lift of the smallest primitive root mod p;
    the choice of root is a recorded convention, nothing downstream
    depends on it.  Raises ValueError unless p is an odd prime: every
    engine downstream (teichmuller, the division-free Mahler matrix)
    assumes it and would not notice otherwise.
    """
    if p == 2:
        raise ValueError("Z_2^x is not topologically cyclic")
    if not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    sigma = teichmuller(smallest_primitive_root(p), p, N)
    return sigma * PadicInt(1 + p, p, N)
