"""Tests for exact Z/p^N arithmetic.

Derived values are checked against independent characterizations (a
Teichmuller lift is the unique (p-1)-st root of unity congruent to its
seed; psi is sigma*(1+p)), never against the implementation's own
algorithm.
"""

import math
import random

import pytest

from imj.padic import (
    PadicInt,
    PrecisionError,
    binom,
    int_valuation,
    is_prime,
    prime_factors,
    psi_generator,
    smallest_primitive_root,
    teichmuller,
)


def test_valuation_examples():
    assert PadicInt(18, 3, 4).valuation() == 2  # 18 = 2*3^2
    assert PadicInt(0, 3, 4).valuation() == 4  # zero convention
    assert PadicInt(7, 5, 3).valuation() == 0  # unit


def test_valuation_of_product():
    rng = random.Random(11)
    for _ in range(100):
        p = rng.choice([3, 5, 7])
        N = rng.randint(2, 10)
        x = PadicInt(rng.randrange(p**N), p, N)
        y = PadicInt(rng.randrange(p**N), p, N)
        assert (x * y).valuation() == min(N, x.valuation() + y.valuation())


def test_teichmuller_frozen_values():
    # omega(2) at p=3, N=3: the unique square root of 1 that is 2 mod 3.
    w = teichmuller(2, 3, 3)
    assert w.residue == 26
    assert pow(26, 2, 27) == 1 and 26 % 3 == 2
    # omega(2) at p=5, N=2: 7^4 = 2401 = 96*25 + 1.
    w = teichmuller(2, 5, 2)
    assert w.residue == 7
    assert pow(7, 4, 25) == 1 and 7 % 5 == 2
    assert teichmuller(1, 7, 5).residue == 1


def test_teichmuller_characterization():
    # omega^(p-1) = 1 and omega = x0 mod p, for many (x0, p, N)
    rng = random.Random(5)
    for _ in range(60):
        p = rng.choice([3, 5, 7, 11])
        N = rng.randint(1, 12)
        x0 = rng.randrange(1, p)
        w = teichmuller(x0, p, N)
        assert pow(w.residue, p - 1, p**N) == 1
        assert w.residue % p == x0 % p


def test_teichmuller_rejects_p_divisible():
    with pytest.raises(ValueError):
        teichmuller(6, 3, 4)


def test_binom_minus_one():
    p, N = 3, 5
    a = PadicInt(p**N - 1, p, N)  # -1
    b = binom(a, 3)
    # (-1 choose 3) = -1; answer carries precision N - v_p(3!) = N - 1
    assert b.precision == N - 1
    assert b.residue == p ** (N - 1) - 1


def test_binom_half():
    # a = 1/2 mod 9 is 5; (1/2 choose 2) = (1/2)(-1/2)/2 = -1/8
    a = PadicInt(5, 3, 2)
    b = binom(a, 2)
    # -1/8 mod 9: 8 = -1 mod 9 so -1/8 = 1 mod 9, at full precision (v_3(2!)=0)
    assert b.precision == 2
    assert b.residue == 1


def test_binom_zero_index():
    a = PadicInt(123456 % 5**6, 5, 6)
    b = binom(a, 0)
    assert b.residue == 1 and b.precision == 6


def test_binom_integer_oracle():
    # against math.comb for ordinary integer arguments
    rng = random.Random(7)
    for _ in range(80):
        p = rng.choice([3, 5])
        N = rng.randint(9, 12)
        n = rng.randrange(0, 60)
        i = rng.randrange(0, min(n + 1, 16))
        got = binom(PadicInt(n % p**N, p, N), i)
        assert got.residue == math.comb(n, i) % p**got.precision


def test_binom_precision_exhaustion():
    # v_3(9!) = 4 eats all of N=4
    with pytest.raises(PrecisionError):
        binom(PadicInt(5, 3, 4), 9)


def test_pascal_identity():
    # binom(a,i) = binom(a-1,i-1) + binom(a-1,i), compared at the coarser precision
    rng = random.Random(13)
    for _ in range(200):
        p = rng.choice([3, 5, 7])
        N = rng.randint(9, 12)  # v_3(20!) = 8, keep one digit spare
        a = PadicInt(rng.randrange(p**N), p, N)
        i = rng.randint(1, 20)
        lhs = binom(a, i)
        r1 = binom(a - PadicInt(1, p, N), i - 1)
        r2 = binom(a - PadicInt(1, p, N), i)
        M = min(lhs.precision, r1.precision, r2.precision)
        assert lhs.residue % p**M == (r1.residue + r2.residue) % p**M


def test_smallest_primitive_root():
    assert smallest_primitive_root(3) == 2
    assert smallest_primitive_root(5) == 2
    assert smallest_primitive_root(7) == 3
    assert smallest_primitive_root(11) == 2


def test_psi_generator_frozen_values():
    # psi = teichmuller(2)*(1+p): at p=3, N=3 that is 26*4 = 104 = 23 mod 27
    assert psi_generator(3, 3).residue == 23
    # p=5, N=2: 7*6 = 42 = 17 mod 25
    assert psi_generator(5, 2).residue == 17
    for p in (3, 5, 7):
        psi = psi_generator(p, 6)
        assert psi.residue % p == smallest_primitive_root(p)


def test_is_prime():
    assert [n for n in range(-2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(2) == [2]
    assert prime_factors(360) == [2, 2, 2, 3, 3, 5]
    assert prime_factors(3**5) == [3] * 5
    assert prime_factors(9973) == [9973]
    for n in range(1, 600):
        got = prime_factors(n)
        assert math.prod(got) == n and got == sorted(got)
        # every factor is prime by the definition, not by the routine
        assert all(f > 1 and all(f % d for d in range(2, f)) for f in got)
    for bad in (0, -6):
        with pytest.raises(ValueError):
            prime_factors(bad)


@pytest.mark.parametrize("p", [1, 9, 15, 25])
def test_psi_generator_rejects_non_prime(p):
    with pytest.raises(ValueError, match=f"odd prime, got {p}"):
        psi_generator(p, 6)


def test_psi_valuation_identity():
    # valuation(1 - psi^k) = 1 + v_p(k) if (p-1) | k != 0, else 0.
    # This single identity drives every differential downstream.
    N = 14
    for p in (3, 5, 7):
        psi = psi_generator(p, N)
        for k in range(-200, 201):
            if k == 0:
                continue
            pk = pow(psi.residue, k, p**N) if k > 0 else pow(
                pow(psi.residue, -1, p**N), -k, p**N)
            v = int_valuation((1 - pk) % p**N, p, N)
            if k % (p - 1) == 0:
                assert v == 1 + int_valuation(k, p, N), (p, k)
            else:
                assert v == 0, (p, k)


def test_arithmetic_and_inverse():
    p, N = 5, 4
    x = PadicInt(7, p, N)
    y = x.inverse()
    assert (x * y).residue == 1
    with pytest.raises(ZeroDivisionError):
        PadicInt(10, p, N).inverse()
    assert (-PadicInt(1, p, N)).residue == p**N - 1
    assert (PadicInt(2, p, N) ** 3).residue == 8
