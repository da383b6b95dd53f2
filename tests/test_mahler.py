"""Mahler-basis model of continuous functions Z_p -> Z_p.

Oracles: finite differences of integer samples are computable in plain
integer arithmetic (no p-adics), and the psi-action on the linear function
is multiplication by psi.  The recurrence behind psi_matrix is checked
against the sample-and-difference engine, kept here, including at the
lengths where v_p((L-1)!) and so the working precision step up.  The
invariants computation is checked against the expectation that constants
are the only fixed functions, and against a `Smith` elimination of
id - psi itself, since it runs on a small integer generator instead.
"""

import math
import random

import pytest

from imj import mahler, padic
from imj.gmod import ModMatrix, Smith
from imj.grpcoh import character_cohomology
from imj.mahler import (MahlerFunction, act_psi, h1_rational_profile,
                        invariants, mahler_coeffs, psi_matrix)
from imj.padic import (PadicInt, PrecisionError, binom, int_valuation,
                       prime_factors, psi_generator, vp)


def pad(values, p, N):
    return [PadicInt(v, p, N) for v in values]


def basis(i, L, p, N):
    """The binomial function b_i on the length-L window."""
    return MahlerFunction(pad([1 if j == i else 0 for j in range(L)], p, N))


def test_mahler_coeffs_square():
    p, N, L = 3, 6, 8
    f = mahler_coeffs(pad([x * x for x in range(L)], p, N))
    got = [c.residue for c in f.coefficients]
    assert got == [0, 1, 2, 0, 0, 0, 0, 0]


def test_mahler_coeffs_constant():
    p, N, L = 5, 4, 6
    f = mahler_coeffs(pad([1] * L, p, N))
    assert [c.residue for c in f.coefficients] == [1, 0, 0, 0, 0, 0]


def test_mahler_coeffs_mixed_precision():
    # samples at precisions 4 and 6: the differences are taken at the
    # common minimum, -8 = 73 mod 3^4 rather than 721 mod 3^6
    vals = [PadicInt(-8 * x * x, 3, 4 if x % 2 else 6) for x in range(5)]
    f = mahler_coeffs(vals)
    assert f.precision == 4
    assert [c.residue for c in f.coefficients] == [0, 73, 65, 0, 0]


def test_mahler_coeffs_basis_element():
    p, N, L = 3, 5, 10
    f = mahler_coeffs(pad([math.comb(x, 3) for x in range(L)], p, N))
    assert [c.residue for c in f.coefficients] == [0, 0, 0, 1] + [0] * 6


def test_round_trip_random():
    rng = random.Random(90125)
    p, N, L = 3, 7, 40
    vals = [rng.randrange(p**N) for _ in range(L)]
    f = mahler_coeffs(pad(vals, p, N))
    assert [f.evaluate(x).residue for x in range(L)] == vals


def test_round_trip_length_128():
    rng = random.Random(128128)
    p, N, L = 3, 8, 128
    vals = [rng.randrange(p**N) for _ in range(L)]
    f = mahler_coeffs(pad(vals, p, N))
    assert [f.evaluate(x).residue for x in range(L)] == vals


def test_evaluate_negative_argument():
    p, N = 3, 5
    f = basis(2, 8, p, N)
    # (-1 choose 2) = 1
    assert f.evaluate(-1).residue == 1
    # (-2 choose 3) = -4
    g = basis(3, 8, p, N)
    assert g.evaluate(-2).residue == (-4) % 3**5


def test_act_psi_linear():
    p, N, L = 3, 6, 8
    psi = psi_generator(p, N)
    out = act_psi(basis(1, L, p, N))
    got = [c.residue for c in out.coefficients]
    assert got == [0, psi.residue] + [0] * (L - 2)


def test_act_psi_fixes_constants():
    p, N, L = 5, 5, 6
    f = mahler_coeffs(pad([7] * L, p, N))
    out = act_psi(f)
    assert [c.residue for c in out.coefficients] == [7] + [0] * (L - 1)


def test_act_psi_b2_by_resampling():
    # act(b_2)(x) must equal (x psi choose 2) recomputed independently
    p, N, L = 3, 5, 8
    out = act_psi(basis(2, L, p, N))
    Nw = N + 4
    psi = psi_generator(p, Nw)
    for x in range(L):
        direct = binom(PadicInt(x, p, Nw) * psi, 2)
        assert out.evaluate(x).residue == direct.residue % 3**N


def test_act_psi_preserves_mahler_degree():
    p, N, L = 3, 6, 12
    out = act_psi(basis(5, L, p, N))
    for i in range(6, L):
        assert out.coefficients[i].residue == 0


def test_psi_matrix_triangular_with_power_diagonal():
    p, N, L = 3, 6, 10
    M = psi_matrix(L, p, N)
    psi = psi_generator(p, N)
    for i in range(L):
        assert M.data[i][i] == (psi**i).residue
        for j in range(i):
            assert M.data[i][j] == 0  # strictly lower part vanishes


def psi_matrix_by_differences(L, p, N):
    """The sample-and-difference engine: sample (x psi choose i) at
    x = 0..L-1 with padic.binom at the working precision
    Nw = N + v_p((L-1)!); row k is the k-th forward difference at x = 0.
    Column i carries precision Nw - v_p(i!) >= N and is differenced at it."""
    Nw = N + sum(int_valuation(i, p, L) for i in range(1, L))
    psi = psi_generator(p, Nw)
    samples = [[binom(PadicInt(x, p, Nw) * psi, i) for i in range(L)]
               for x in range(L)]
    assert min(c.precision for c in samples[0]) >= N
    mods = [p**c.precision for c in samples[0]]
    work = [[c.residue for c in row] for row in samples]
    rows = []
    while work:
        rows.append([c % p**N for c in work[0]])
        work = [[(b - a) % m for a, b, m in zip(r0, r1, mods)]
                for r0, r1 in zip(work, work[1:])]
    return rows


@pytest.mark.parametrize("p", [3, 5, 7])
def test_psi_matrix_matches_difference_oracle(p):
    for L in (2, 3, 5, 16, 33, 64):
        for N in (4, 6, 12, 40):
            assert psi_matrix(L, p, N).data == \
                psi_matrix_by_differences(L, p, N), (L, p, N)


def test_psi_matrix_matches_difference_oracle_at_length_128():
    assert psi_matrix(128, 3, 101).data == \
        psi_matrix_by_differences(128, 3, 101)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_psi_matrix_matches_difference_oracle_at_precision_edges(p):
    # v_p((L-1)!) steps up at L = p + 1, p^2 + 1 and 2p^2 + 1, and at
    # N = 1, 2 no digit is left beyond those the division by i! spends
    for L in (p, p + 1, p * p, p * p + 1, 2 * p * p + 1):
        for N in (1, 2):
            assert psi_matrix(L, p, N).data == \
                psi_matrix_by_differences(L, p, N), (L, p, N)


def test_psi_matrix_diagonal_check_raises(monkeypatch):
    # without the v_p((L-1)!) spare digits the division by i! at i = p
    # leaves the diagonal wrong; the RuntimeError check (unlike assert)
    # also runs under python -O
    monkeypatch.setattr(mahler, "_vp_factorial", lambda n, p: 0)
    with pytest.raises(RuntimeError, match="diagonal"):
        psi_matrix(8, 3, 6)


def pointwise_product(f, g):
    """f * g, exact modulo b_{>=L}: coefficients of the products of the
    samples at 0..L-1."""
    return mahler_coeffs([f.evaluate(x) * g.evaluate(x)
                          for x in range(f.length)])


def test_act_psi_is_ring_action():
    # on functions of low Mahler degree the product is exactly representable
    rng = random.Random(777)
    p, N, L = 3, 6, 32
    cf = [rng.randrange(p**N) if i <= 10 else 0 for i in range(L)]
    cg = [rng.randrange(p**N) if i <= 12 else 0 for i in range(L)]
    f = MahlerFunction(pad(cf, p, N))
    g = MahlerFunction(pad(cg, p, N))
    lhs = act_psi(pointwise_product(f, g))
    rhs = pointwise_product(act_psi(f), act_psi(g))
    assert [c.residue for c in lhs.coefficients] == \
        [c.residue for c in rhs.coefficients]


def max_shift_valuation(L, p, N):
    one = PadicInt(1, p, N)
    psi = psi_generator(p, N)
    return max((one - psi**i).valuation() for i in range(1, L))


def test_invariants_rank_one_p3():
    p, N, L = 3, 8, 16
    rep = invariants(L, p, N)
    assert rep.rank == 1
    gen = rep.generators[0]
    assert gen.coefficients[0].residue == 1
    vmax = max_shift_valuation(L, p, N)
    for c in gen.coefficients[1:]:
        assert c.valuation() >= N - vmax
    # fixed on the nose at working precision
    out = act_psi(gen)
    assert [c.residue for c in out.coefficients] == \
        [c.residue for c in gen.coefficients]


def test_invariants_minimal_length():
    rep = invariants(2, 5, 4)
    assert rep.rank == 1


def test_invariants_rank_stable_as_length_doubles():
    assert invariants(16, 3, 8).rank == invariants(32, 3, 8).rank == 1


def test_invariants_doubled_window_generator_is_exact_constant():
    # doubling the window piles up truncation torsion (the kernel module
    # below genuinely contains Z/3^16) but must not create new invariants
    rep = invariants(32, 3, 8)
    gen = rep.generators[0]
    assert gen.coefficients[0].residue == 1
    assert all(c.residue == 0 for c in gen.coefficients[1:])
    assert rep.kernel.saturated_count() == 1
    assert 16 in rep.kernel.torsion_exponents()


@pytest.mark.parametrize("p", [3, 5, 7, 40487, 2**31 - 1])
def test_integer_generator_is_a_primitive_root_mod_p_squared(p):
    # order p - 1 mod p, and g^(p-1) != 1 mod p^2, so g topologically
    # generates Z_p^x; at 40487 the smallest primitive root, 5, has
    # 5^(p-1) = 1 mod p^2 and is not one
    g = mahler._integer_generator(p)
    assert all(pow(g, (p - 1) // q, p) != 1 for q in set(prime_factors(p - 1)))
    assert pow(g, p - 1, p * p) != 1
    if p == 40487:
        assert g != 5


def invariants_oracle(L, p, N):
    """Sorted Smith valuations of id - psi_matrix(L, p, Nw), psi =
    sigma(1+p), at the working precision Nw of `invariants`, and its
    saturated kernel columns mod p^N, normalized to constant term 1."""
    Nw = N + sum(1 + vp(i, p) for i in range(1, L) if i % (p - 1) == 0)
    S = Smith(ModMatrix.identity(L, p, Nw) - psi_matrix(L, p, Nw))
    pN = p**N
    gens = []
    for j, v in enumerate(S.valuations):
        if v == Nw:
            col = [x % pN for x in S.kernel_column(j)]
            inv = pow(col[0], -1, pN)
            gens.append([x * inv % pN for x in col])
    return sorted(S.valuations), gens


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("L", [2, 16, 64])
@pytest.mark.parametrize("N", [4, 8])
def test_invariants_of_the_integer_generator_are_those_of_psi(p, L, N):
    vals, gens = invariants_oracle(L, p, N)
    rep = invariants(L, p, N)
    exps = rep.kernel.exponents
    assert [0] * (L - len(exps)) + exps == vals
    assert [[c.residue for c in g.coefficients] for g in rep.generators] \
        == gens


def test_invariants_rejects_composite_p():
    with pytest.raises(ValueError, match="odd prime, got 9"):
        invariants(16, 9, 6)


def test_precision_below_one_is_refused_up_front():
    # both Mahler entry points name the caller's N, even where the working
    # precision N + B of invariants is >= 1, and a matrix keeps int residues
    for call in (lambda: invariants(2, 3, 0),
                 lambda: invariants(8, 3, -10),
                 lambda: invariants(8, 3, -3),
                 lambda: psi_matrix(4, 3, 0),
                 lambda: ModMatrix([[1]], 3, -1)):
        with pytest.raises(PrecisionError, match=r"^precision -?\d+ < 1$"):
            call()
    with pytest.raises(PrecisionError, match=r"^precision -10 < 1$"):
        invariants(8, 3, -10)


def test_h1_rational_profile_window():
    rep = h1_rational_profile((-20, 20), 3, 6)
    assert rep.rational_h1 == [0]
    assert rep.entries[0] == (1, 1, 6)
    assert rep.entries[2] == (0, 0, 1)
    assert rep.entries[1] == (0, 0, 0)


def test_h1_rational_profile_builds_psi_once(monkeypatch):
    # no psi is built: the Lubin-Tate window it reads holds the
    # mu_{p-1}-invariant degrees, stepped from 1 + p
    calls = []

    def counted(p, N):
        calls.append((p, N))
        return psi_generator(p, N)

    monkeypatch.setattr(mahler, "psi_generator", counted)
    monkeypatch.setattr(padic, "psi_generator", counted)
    rep = h1_rational_profile((-50, 50), 5, 6)
    assert len(rep.entries) == 101
    assert calls == []
    assert rep.entries == {k: character_cohomology(k, 5, 6)
                           for k in range(-50, 51)}


def test_h1_rational_profile_propagates_precision():
    with pytest.raises(PrecisionError):
        h1_rational_profile((-18, 18), 3, 4)


def test_csv_dump():
    p, N = 3, 5
    f = mahler_coeffs(pad([x * x for x in range(6)], p, N))
    lines = f.to_csv().splitlines()
    assert lines[0] == "index,residue,valuation"
    assert lines[1] == "0,0,5"
    assert lines[2] == "1,1,0"
    assert lines[3] == "2,2,0"
    assert len(lines) == 7
