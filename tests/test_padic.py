"""Tests for exact Z/p^N arithmetic.

Derived values are checked against independent characterizations (a
Teichmuller lift is the unique (p-1)-st root of unity congruent to its
seed; psi is sigma*(1+p)), never against the implementation's own
algorithm.  The Newton lift of `teichmuller` is also checked against
`frobenius_teichmuller`, the Frobenius iteration, as an oracle.
"""

import json
import math
import os
import random
import subprocess
import sys

import pytest

from imj.padic import (
    PadicInt,
    PrecisionError,
    binom,
    int_valuation,
    is_prime,
    prime_factors,
    psi_generator,
    require_odd_prime,
    smallest_primitive_root,
    teichmuller,
    vp,
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


def frobenius_teichmuller(x0: int, p: int, N: int) -> int:
    """The Teichmuller lift of x0 mod p^N by Frobenius iteration
    x -> x^p, which gains one p-adic digit per step: N steps land on the
    fixed point exactly."""
    pN = p**N
    x = x0 % pN
    for _ in range(N):
        x = pow(x, p, pN)
    return x


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 1000003, 2**31 - 1])
def test_teichmuller_newton_lift_matches_frobenius(p):
    """The lift mod p^N is the reduction of the lift mod p^64 (it is the
    unique root of unity over x0), so one Frobenius run per seed checks
    every N = 1..64; at small p each N is also iterated on its own."""
    for x0 in sorted({2, p - 1, p + 1, 7 * p - 3, 12345, -5}):
        if x0 % p == 0:
            continue
        omega = frobenius_teichmuller(x0, p, 64)
        for N in range(1, 65):
            assert teichmuller(x0, p, N).residue == omega % p**N
            if p < 100:
                assert frobenius_teichmuller(x0, p, N) == omega % p**N


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


def test_precision_below_one_or_raised_is_refused():
    with pytest.raises(PrecisionError) as exc:
        PadicInt(1, 3, 0)
    assert str(exc.value) == "precision 0 < 1"
    with pytest.raises(PrecisionError) as exc:
        PadicInt(1, 3, 2).reduce(3)
    assert str(exc.value) == "cannot raise precision 2 to 3"


def test_padic_ints_compare_by_value_not_by_hash():
    assert PadicInt(5, 3, 2) == PadicInt(5, 3, 2)
    assert hash(PadicInt(5, 3, 2)) == hash(PadicInt(5, 3, 2))
    assert PadicInt(5, 3, 2) != PadicInt(5, 3, 3)
    # 0 and the hash modulus hash alike; p^2 > modulus keeps both residues
    p = 2147483647
    a, b = PadicInt(0, p, 2), PadicInt(sys.hash_info.modulus, p, 2)
    assert hash(a) == hash(b) and a != b


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


def test_is_prime_is_memoized(monkeypatch):
    import imj.padic as padic
    calls = []

    def counting(n):
        calls.append(n)
        return prime_factors(n)

    monkeypatch.setattr(padic, "prime_factors", counting)
    padic.prime_power.cache_clear()
    assert [is_prime(n) for n in (97, 91, 97, 91)] == [True, False] * 2
    assert calls == [97, 91]
    # a prime power read after is_prime is not factored again
    assert [padic.prime_power(n) for n in (97, 91, 3**5, 3**5, 1)] == \
        [(97, 1), None, (3, 5), (3, 5), None]
    assert calls == [97, 91, 3**5]


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


def test_vp_and_binom_refuse_out_of_range_arguments():
    with pytest.raises(ValueError) as exc:
        vp(5, 1)
    assert str(exc.value) == "v_p needs p >= 2, got 1"
    with pytest.raises(ValueError) as exc:
        binom(PadicInt(3, 3, 4), -1)
    assert str(exc.value) == "negative lower index"


@pytest.mark.parametrize("p", [1, 9, 15, 25])
def test_psi_generator_rejects_non_prime(p):
    with pytest.raises(ValueError, match=f"odd prime, got {p}"):
        psi_generator(p, 6)


def test_require_odd_prime():
    for p in (3, 5, 7, 97, 2**31 - 1):
        require_odd_prime(p)
    for p in (-3, -1, 0, 1, 2, 4, 9, 25, 2**31 + 1):
        with pytest.raises(ValueError,
                           match=fr"^p must be an odd prime, got {p}$"):
            require_odd_prime(p)


# Each call runs its refusal before any arithmetic on p; before the one
# gate, the loops in vp, binom and the Mahler factorial valuation never
# ended at p = +-1, p = 0 or 1 divided by 2p - 2 = 0, and
# smallest_primitive_root answered 2 for composite n.  PadicInt and
# teichmuller built residues mod 9^N or 4^N, or divided by p - 1 = 0.
_BAD_P_CALLS = """
import json, sys
from imj.grpcoh import abutment, character_cohomology, character_window
from imj.mahler import invariants, psi_matrix
from imj.padic import (PadicInt, binom, smallest_primitive_root,
                       teichmuller, vp)
from imj.ssq import run
from imj.towers import moore_example, ssq_stage
calls = [  # (call, the p it refuses, thunk)
    ("abutment(-1, (0, 8), 5)", -1, lambda: abutment(-1, (0, 8), 5)),
    ("run(-1, (0, 8), 5)", -1, lambda: run(-1, (0, 8), 5)),
    ("character_cohomology(4, -1, 5)", -1,
     lambda: character_cohomology(4, -1, 5)),
    ("psi_matrix(8, 1, 5)", 1, lambda: psi_matrix(8, 1, 5)),
    ("psi_matrix(8, -1, 5)", -1, lambda: psi_matrix(8, -1, 5)),
    ("invariants(8, -1, 5)", -1, lambda: invariants(8, -1, 5)),
    ("ssq_stage(-1, 2, 2)", -1, lambda: ssq_stage(-1, 2, 2)),
    ("abutment(1, (0, 4), 5)", 1, lambda: abutment(1, (0, 4), 5)),
    ("abutment(0, (0, 4), 5)", 0, lambda: abutment(0, (0, 4), 5)),
    ("invariants(8, 1, 5)", 1, lambda: invariants(8, 1, 5)),
    ("character_window(0, 3, 1, 5)", 1,
     lambda: list(character_window(0, 3, 1, 5))),
    ("moore_example(-3)", -3, lambda: moore_example(-3)),
]
calls += [(f"smallest_primitive_root({n})", n,
           lambda n=n: smallest_primitive_root(n))
          for n in (4, 9, 15, 21, 25, 27)]
calls += [(f"vp(4, {p})", p, lambda p=p: vp(4, p)) for p in (-1, 0, 1)]
calls += [(f"binom(PadicInt(3, {p}, 4), 2)", p,
           lambda p=p: binom(PadicInt(3, p, 4), 2)) for p in (-1, 1)]
calls += [("PadicInt(1, 4, 2)", 4, lambda: PadicInt(1, 4, 2)),
          ("PadicInt(3, 9, 1).valuation()", 9,
           lambda: PadicInt(3, 9, 1).valuation()),
          ("teichmuller(1, 0, 3)", 0, lambda: teichmuller(1, 0, 3)),
          ("teichmuller(2, 9, 4)", 9, lambda: teichmuller(2, 9, 4))]
out = []
for name, p, call in calls:
    try:
        out.append([name, p, "returned", repr(call())])
    except Exception as exc:
        out.append([name, p, type(exc).__name__, str(exc)])
json.dump(out, sys.stdout)
"""


def test_bad_p_is_refused_at_once():
    # in a process with a timeout, so a hang that comes back fails here
    # instead of stalling the suite
    import imj
    src = os.path.dirname(os.path.dirname(os.path.abspath(imj.__file__)))
    proc = subprocess.run([sys.executable, "-c", _BAD_P_CALLS],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    got = json.loads(proc.stdout)
    assert len(got) == 27
    for name, p, kind, message in got:
        want = (f"v_p needs p >= 2, got {p}" if name.startswith("vp(")
                else f"p must be an odd prime, got {p}")
        assert (kind, message) == ("ValueError", want), name


@pytest.mark.parametrize("contexts", [((3, 4), (5, 4)), ((3, 4), (3, 5))])
def test_mixed_contexts_refused(contexts):
    (p, N), (q, M) = contexts
    x, y = PadicInt(1, p, N), PadicInt(1, q, M)
    for op in ("__add__", "__sub__", "__mul__"):
        with pytest.raises(ValueError, match="mixed"):
            getattr(x, op)(y)


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


def test_vp_of_either_sign():
    for p in (3, 5, 7):
        for e in range(6):
            for u in (1, 2, p - 1, p + 1):
                assert vp(p**e * u, p) == vp(-p**e * u, p) == e
    with pytest.raises(ValueError):
        vp(0, 3)


def test_vp_is_not_capped():
    # int_valuation stops at the precision; vp reads every digit
    for p in (3, 5, 1000003):
        for u in (1, 2, -1):
            assert vp(p**40 * u, p) == 40
            assert int_valuation(p**40 * u, p, 8) == 8


@pytest.mark.parametrize("p", [3, 5, 1000003])
def test_vp_agrees_with_int_valuation_on_nonzero_residues(p):
    rng = random.Random(p)
    N = 6
    pN = p**N
    for _ in range(300):
        x = p**rng.randrange(N) * rng.randrange(1, pN) % pN
        if x:
            assert vp(x, p) == vp(x - pN, p) == int_valuation(x, p, N), x


def test_vp_of_a_negative_degree_index():
    # k = t/(2p-2) in a degree t < 0 has the valuation of -k
    for p in (3, 5, 7):
        per = 2 * p - 2
        for e in range(5):
            for u in (1, 2, p + 1):
                t = -per * p**e * u
                assert vp(t // per, p) == vp(-t // per, p) == e


def test_arithmetic_and_inverse():
    p, N = 5, 4
    x = PadicInt(7, p, N)
    y = x ** -1
    assert (x * y).residue == 1
    assert (x ** -3 * x ** 3).residue == 1
    with pytest.raises(ValueError):  # 10 is not a unit mod 5^4
        PadicInt(10, p, N) ** -1
    assert (-PadicInt(1, p, N)).residue == p**N - 1
    assert (PadicInt(2, p, N) ** 3).residue == 8
