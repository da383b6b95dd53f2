"""Mahler-basis model of continuous functions Z_p -> Z_p.

Oracles: finite differences of integer samples are computable in plain
integer arithmetic (no p-adics), and the psi-action on the linear function
is multiplication by psi.  The recurrence behind psi_matrix is checked
against the sample-and-difference engine, kept here, including at the
lengths where v_p((L-1)!) and so the working precision step up.  The
invariants computation is checked against the expectation that constants
are the only fixed functions, and against a `Smith` elimination of
id - psi itself, with `kernel_column`, since it reads its torsion from a
law and builds no matrix; the law is checked against `Smith` on the
complement of the constant column (`mahler_oracle`).
"""

import math
import random

import pytest

from imj import cli, mahler, padic
from imj.gmod import ModMatrix, Smith
from imj.grpcoh import character_cohomology
from imj.mahler import (MahlerFunction, h1_rational_profile, invariants,
                        mahler_coeffs, psi_matrix)
from imj.padic import (PadicInt, PrecisionError, binom, int_valuation,
                       prime_factors, psi_generator, vp)
from mahler_oracle import integer_generator, law_mismatches


def pad(values, p, N):
    return [PadicInt(v, p, N) for v in values]


def basis(i, L, p, N):
    """The binomial function b_i on the length-L window."""
    return MahlerFunction(pad([1 if j == i else 0 for j in range(L)], p, N))


def act_psi(f):
    """(psi . f)(x) = f(x psi): the coefficient vector times psi_matrix."""
    p, N = f.prime, f.precision
    c = [x.residue for x in f.coefficients]
    return MahlerFunction([PadicInt(sum(x * y for x, y in zip(row, c)), p, N)
                           for row in psi_matrix(len(c), p, N).data])


def test_empty_coefficients_and_samples_refused():
    with pytest.raises(ValueError) as exc:
        MahlerFunction([])
    assert str(exc.value) == "empty coefficient list"
    with pytest.raises(ValueError) as exc:
        mahler_coeffs([])
    assert str(exc.value) == "no sample values"


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


@pytest.mark.parametrize("N", [1, 2, 4, 8])
def test_psi_matrix_one_digit_short_raises(N, monkeypatch):
    # one spare digit short: column i of `_h_rows` is kept mod
    # p^(M - v_p(i!)), the digits it truly has, so the lost digit reaches
    # the diagonal and the check raises; a column kept mod p^M throughout
    # returns a matrix here instead, right only by luck
    vp_factorial = mahler._vp_factorial
    monkeypatch.setattr(mahler, "_vp_factorial",
                        lambda n, p: vp_factorial(n, p) - 1)
    with pytest.raises(RuntimeError, match="diagonal"):
        psi_matrix(8, 3, N)


def pointwise_product(f, g):
    """f * g, exact modulo b_{>=L}: coefficients of the products of the
    samples at 0..L-1."""
    return mahler_coeffs([f.evaluate(x) * g.evaluate(x)
                          for x in range(len(f.coefficients))])


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
    g = integer_generator(p)
    assert all(pow(g, (p - 1) // q, p) != 1 for q in set(prime_factors(p - 1)))
    assert pow(g, p - 1, p * p) != 1
    if p == 40487:
        assert g != 5


def det_valuation(L, p):
    """B, the valuation of the determinant of the complement of the
    constant column: v_p(1 - psi^i) summed over i = 1..L-1."""
    return sum(1 + vp(i, p) for i in range(1, L) if i % (p - 1) == 0)


def invariants_oracle(L, p, N):
    """Sorted Smith valuations of id - psi_matrix(L, p, Nw), psi =
    sigma(1+p), at the working precision Nw of `invariants`, and its
    saturated kernel columns mod p^N, normalized to constant term 1."""
    Nw = N + det_valuation(L, p)
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
    # the law's exponents against an elimination of psi's own id - psi
    vals, gens = invariants_oracle(L, p, N)
    rep = invariants(L, p, N)
    exps = rep.kernel.exponents
    assert [0] * (L - len(exps)) + exps == vals
    assert [[c.residue for c in g.coefficients] for g in rep.generators] \
        == gens


@pytest.mark.parametrize("L, p", [(2, 3), (16, 5), (96, 3),
                                  (64, 40487), (256, 2**31 - 1)])
def test_invariants_depend_on_n_only_through_the_working_precision(L, p):
    B = det_valuation(L, p)
    low, high = invariants(L, p, 1), invariants(L, p, 12)
    torsion = low.kernel.torsion_exponents()
    assert high.kernel.torsion_exponents() == torsion
    assert sum(torsion) == B
    for N, rep in ((1, low), (12, high)):
        assert rep.kernel.precision == N + B
        assert rep.kernel.saturated_count() == rep.rank == 1
        assert [[(c.residue, c.precision) for c in g.coefficients]
                for g in rep.generators] == [[(1, N)] + [(0, N)] * (L - 1)]


def test_complement_law_matches_smith():
    # every J at p = 3, 5, 7 up to L = 129, one window per J since the
    # torsion depends on J alone; (169, 3) is the one accepted window where
    # the cap min(m - r, p - 1) matters, and L = 256 the largest
    windows = [((p - 1) * J + 1, p) for p in (3, 5, 7)
               for J in range(1, 128 // (p - 1) + 1)]
    windows += [(169, 3), (256, 3), (256, 5), (256, 7)]
    assert law_mismatches(windows) == []


def torsion(L, p):
    return invariants(L, p, 1).kernel.torsion_exponents()


def test_torsion_count_law():
    # H^1(W_L) has floor(log_p L) torsion factors on every accepted (L, p).
    # The torsion depends on J = floor((L - 1)/(p - 1)) alone and
    # floor(log_p L) is monotone in L, so the two ends of each J's run of
    # L cover every window; past p = MAX_LENGTH every window has J = 0
    top = mahler.MAX_LENGTH
    for p in [q for q in range(3, top + 1) if padic.is_prime(q)] + \
            [257, 2**31 - 1]:
        for J in range((top - 1) // (p - 1) + 1):
            for L in {max(2, (p - 1) * J + 1), min(top, (p - 1) * (J + 1))}:
                count = 0
                while p ** (count + 1) <= L:
                    count += 1
                assert len(torsion(L, p)) == count, (L, p)


def test_torsion_floor_law():
    # at L = c p^k, 1 <= c < p, the exponents are floor((L - 1)/((p - 1)
    # p^r)), r < k; at L = p^k they are (p^i - 1)/(p - 1), i = 1..k
    top = mahler.MAX_LENGTH
    windows = [(c * p**k, p, k) for p in range(3, top + 1)
               if padic.is_prime(p) for k in range(1, 6)
               for c in range(1, p) if c * p**k <= top]
    assert (len(windows), sum(L == p**k for L, p, k in windows)) == (198, 62)
    for L, p, k in windows:
        assert torsion(L, p) == sorted((L - 1) // ((p - 1) * p**r)
                                       for r in range(k)), (L, p)
        if L == p**k:
            assert torsion(L, p) == [(p**i - 1) // (p - 1)
                                     for i in range(1, k + 1)], (L, p)


def test_no_mahler_run_constructs_a_smith(monkeypatch, capsys):
    # the torsion comes from the law: no elimination and no matrix
    calls = []
    init = Smith.__init__

    def counted(self, A):
        calls.append((A.rows, A.precision))
        init(self, A)

    def refuse(*args):
        raise RuntimeError("mahler built a matrix")

    monkeypatch.setattr(Smith, "__init__", counted)
    monkeypatch.setattr(mahler, "_h_rows", refuse)
    for p in ("3", "5", "2147483647"):
        for N in ("4", "64"):
            for L in ("2", "16", "169", "256"):
                for fmt in ("table", "json"):
                    assert cli.main(["mahler", "-p", p, "-N", N, "-L", L,
                                     "--format", fmt]) == 0
                    assert capsys.readouterr().err == ""
    assert calls == []


def test_determinant_check_raises(monkeypatch):
    # exponents that do not sum to B are a wrong law; the RuntimeError
    # (unlike assert) also runs under python -O
    monkeypatch.setattr(mahler, "_complement_valuations",
                        lambda J, p: [0] * (J + 1))
    with pytest.raises(RuntimeError, match="sum to 0, not to its "
                                           "determinant valuation 9"):
        invariants(16, 3, 8)


def test_window_above_the_checked_domain_is_refused():
    # the law is checked only up to MAX_LENGTH; the bound is asked with
    # L < 2, before the prime and the precision
    assert mahler.MAX_LENGTH == 256
    invariants(256, 3, 8)
    for call in (lambda: invariants(257, 3, 8),
                 lambda: invariants(257, 9, 0)):
        with pytest.raises(ValueError, match=r"^window length 257 is above "
                                             r"the bound L <= 256,"):
            call()


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
