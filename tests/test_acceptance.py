"""Acceptance gate: one test per advertised capability, exact tolerances.

Every check is exact arithmetic; the stated runtime ceilings are asserted
so a performance regression fails loudly instead of rotting quietly.
"""

import random
import time

import numpy as np

from imj.cobar import ExteriorHopf, cobar_ext, cobar_matrix, symmetric_oracle
from imj.gmod import ModMatrix, matinv, snf
from imj.grpcoh import abutment
from imj.mahler import MahlerFunction, h1_rational_profile, invariants, \
    mahler_coeffs
from imj.padic import PadicInt, binom, int_valuation, teichmuller
from imj.ssq import ChartClass, e2_page, run
from imj.towers import lim_lim1, moore_example, ssq_stage


def test_abutment_reproduction():
    # p in {3,5,7}, N = 12, all even |t| <= 2(2p-2)p^2: H^{1,t} carries
    # Z/p^{1+v_p(k)} exactly on t = (2p-2)k != 0, H^{0,0} and H^{1,0}
    # are saturated, everything else vanishes.
    start = time.perf_counter()
    N = 12
    for p in (3, 5, 7):
        per = 2 * p - 2
        T = 2 * per * p * p
        rep = abutment(p, (-T, T), N)
        for t in range(-T, T + 1, 2):
            h0 = rep.entries.get((0, t))
            h1 = rep.entries.get((1, t))
            if t == 0:
                assert h0 is not None and h0.exponents == [N]
                assert h1 is not None and h1.exponents == [N]
                continue
            assert h0 is None or h0.is_zero()
            if t % per == 0:
                k = abs(t) // per
                want = 1 + int_valuation(k, p, N)
                assert h1 is not None, (p, t)
                assert h1.torsion_exponents() == [want], (p, t)
                assert h1.saturated_count() == 0
            else:
                assert h1 is None or h1.is_zero(), (p, t)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"abutment reproduction took {elapsed:.2f}s"


def test_differential_formula_oracle():
    # The generic engine at p in {3,5} over k <= p^2 produces exactly the
    # closed-form differential set d_{1+v}(b^j v1^k) and nothing else.
    start = time.perf_counter()
    N = 6
    for p in (3, 5):
        out = run(p, (0, 2 * (p - 1) * p * p), N)
        got = {(rec.r, rec.source.name, rec.target.name)
               for rec in out.differentials}
        expected = set()
        for k in range(1, p * p + 1):
            v = 1 + int_valuation(k, p, N)
            for j in range(N - v):
                src = ChartClass.monomial(p, k, j, 0)
                tgt = ChartClass.monomial(p, k, j + v, 1)
                expected.add((v, src.name, tgt.name))
        assert got == expected, f"p={p}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"differential oracle took {elapsed:.2f}s"


def test_e2_dimensions():
    # Per tridegree the page-2 count matches F_p[b][v1^{+-1}] (x) Lambda(zeta):
    # one class at every (t, f, c) with 2(p-1) | t, f >= 0, f + c <= fmax.
    fmax = 5
    for p in (3, 5):
        w = 2 * (p - 1) * 6
        counts = {}
        for cl in e2_page(p, (-w, w), fmax):
            key = (cl.t, cl.f, cl.c)
            counts[key] = counts.get(key, 0) + 1
        expected = {}
        for t in range(-w, w + 1):
            if t % (2 * (p - 1)):
                continue
            for c in (0, 1):
                for f in range(0, fmax - c + 1):
                    expected[(t, f, c)] = 1
        assert counts == expected, f"p={p}"


def test_mahler_invariant_rank():
    # ker(id - psi) on the truncated model: rank exactly 1, spanned by the
    # constants, stable under doubling the window.
    start = time.perf_counter()
    for p in (3, 5):
        ranks = []
        for L in (16, 32, 64):
            rep = invariants(L, p, 12)
            ranks.append(rep.rank)
            assert rep.rank == 1, (p, L)
            gen = rep.generators[0]
            assert gen.coefficients[0].residue == 1
            assert not any(c.residue for c in gen.coefficients[1:])
        assert ranks == [1, 1, 1], f"rank drifted under doubling at p={p}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"mahler invariants took {elapsed:.2f}s"


def test_rational_h1_concentration():
    # Over k in [-50, 50] rational H^1 lives only at k = 0; integral
    # torsion is p^{1+v_p(k)} exactly on (p-1) | k != 0.
    N = 8
    for p in (3, 5, 7):
        profile = h1_rational_profile((-50, 50), p, N)
        assert profile.rational_h1 == [0]
        for k, (h0, h1, tv) in profile.entries.items():
            if k == 0:
                assert (h0, h1, tv) == (1, 1, N)
            elif k % (p - 1) == 0:
                assert (h0, h1) == (0, 0)
                assert tv == 1 + int_valuation(abs(k), p, N), (p, k)
            else:
                assert (h0, h1, tv) == (0, 0, 0), (p, k)


def test_cobar_against_oracle():
    # Dimension equality with the symmetric algebra oracle for n <= 3,
    # s <= 5, q in {3,5,9}, plus a d^2 = 0 spot check over GF(9).
    start = time.perf_counter()
    for n in range(4):
        for q in (3, 5, 9):
            got = cobar_ext(ExteriorHopf(n, q), 5)
            assert got == symmetric_oracle(n, 5), (n, q)
    H = ExteriorHopf(3, 9)
    for profile in ((1, 1, 0), (2, 1, 1)):
        _, mid, d0 = cobar_matrix(H, 2, profile)
        mid2, _, d1 = cobar_matrix(H, 3, profile)
        assert mid == mid2
        if d0.size and d1.size:
            assert not ((d1.astype(np.int64) @ d0) % H.field.p).any()
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"cobar oracle took {elapsed:.2f}s"


def test_moore_convergence_witness():
    # moore_example(3): lim = 0 with lim1 != 0 at the modeled bidegree,
    # and the declared stages match per-summand engine runs through page 6.
    rep = lim_lim1(moore_example(3))
    assert rep.lim.is_zero()
    assert rep.lim1_nonzero
    assert rep.witness is not None
    assert rep.witness.refutes_preimage_window(8)
    tower = moore_example(3)
    window = frozenset(range(5))
    for r in range(2, 7):
        assert ssq_stage(3, r, 4) == tower.stage_support(r) & window, r


def test_property_suites():
    start = time.perf_counter()

    # SNF round-trip on 200 random matrices
    rng = random.Random(910)
    for _ in range(200):
        p = rng.choice([3, 5, 7])
        N = rng.randint(2, 9)
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        A = ModMatrix([[rng.randrange(p**N) for _ in range(c)]
                       for _ in range(r)], p, N)
        U, D, V = snf(A)
        assert U * A * V == D
        assert matinv(U) * U == ModMatrix.identity(r, p, N)
        assert matinv(V) * V == ModMatrix.identity(c, p, N)

    # Teichmuller identities: frozen value, Frobenius fixed point,
    # (p-1)-st roots of unity, first-digit agreement
    assert teichmuller(2, 3, 3).residue == 26
    rng = random.Random(911)
    for _ in range(60):
        p = rng.choice([3, 5, 7, 11])
        N = rng.randint(1, 12)
        x0 = rng.randrange(1, p)
        w = teichmuller(x0, p, N)
        assert pow(w.residue, p, p**N) == w.residue
        assert pow(w.residue, p - 1, p**N) == 1
        assert w.residue % p == x0 % p

    # Pascal identity on 200 random inputs
    rng = random.Random(912)
    for _ in range(200):
        p = rng.choice([3, 5, 7])
        N = rng.randint(9, 12)
        a = PadicInt(rng.randrange(p**N), p, N)
        i = rng.randint(1, 20)
        lhs = binom(a, i)
        r1 = binom(a - PadicInt(1, p, N), i - 1)
        r2 = binom(a - PadicInt(1, p, N), i)
        M = min(lhs.precision, r1.precision, r2.precision)
        assert lhs.residue % p**M == (r1.residue + r2.residue) % p**M

    # d o d = 0 on all pages: no differential source is another's target
    for p in (3, 5):
        w = 2 * (p - 1) * 6
        out = run(p, (-w, w), 6)
        by_page = {}
        for rec in out.differentials:
            by_page.setdefault(rec.r, []).append(rec)
        for r, recs in by_page.items():
            sources = {(rec.source.t, rec.source.f, rec.source.c)
                       for rec in recs}
            targets = {(rec.target.t, rec.target.f, rec.target.c)
                       for rec in recs}
            assert not sources & targets, (p, r)
            assert all(rec.source.c == 0 and rec.target.c == 1
                       for rec in recs)

    # Mahler round-trip at L = 128
    rng = random.Random(913)
    for p in (3, 5):
        N = 6
        for _ in range(3):
            f = MahlerFunction([PadicInt(rng.randrange(p**N), p, N)
                                for _ in range(128)])
            back = mahler_coeffs([f.evaluate(x) for x in range(128)])
            assert back == f

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"property suites took {elapsed:.2f}s"
