"""Tests for modules over Z/p^N: SNF, kernels, homology, subgroup arithmetic.

The SNF oracle is the round-trip identity U*A*V = D together with explicit
invertibility of U and V, plus an independent full-sweep elimination with
the same pivot rule (minimal valuation, ties column-major), which must give
the same U, D and V.  The `Smith` readers that
build no transform must agree with `snf` column by column.  Homology
oracles are hand-computable kernels and cokernels and the
transpose-duality of two-term complexes.
"""

import random
import sys

import pytest

from imj import cobar, gmod
from imj.cobar import ExteriorHopf, cobar_ext, symmetric_oracle
from imj.gmod import (
    FgModule,
    ModMatrix,
    Smith,
    diagonal_valuations,
    homology,
    kernel_gens,
    matinv,
    snf,
    solve,
    sub_intersect,
    sub_preimage,
    quotient_presentation,
)
from imj.grpcoh import PsiModule, abutment, boundary_snf, two_term_cohomology
from imj.mahler import invariants, psi_matrix
from imj.padic import int_valuation
from imj.ssq import run
from imj.towers import SupportFunction, TowerSpec, lim_lim1, truncated_kernel
from test_ssq import run_json_oracle


def rand_matrix(rng, p, N, r, c):
    return ModMatrix([[rng.randrange(p**N) for _ in range(c)] for _ in range(r)],
                     p, N)


def test_snf_diagonal_example():
    # [[p,0],[0,1]] at p=3, N=4: invariant factors sort to diag(1, 3)
    A = ModMatrix([[3, 0], [0, 1]], 3, 4)
    U, D, V = snf(A)
    assert U * A * V == D
    assert D.data[0][0] == 1 and D.data[1][1] == 3
    assert D.data[0][1] == 0 and D.data[1][0] == 0


def test_snf_zero_matrix():
    A = ModMatrix([[0]], 3, 4)
    U, D, V = snf(A)
    assert D.data == [[0]]
    assert U * A * V == D


def test_snf_round_trip_random():
    rng = random.Random(42)
    for _ in range(60):
        p = rng.choice([3, 5])
        N = rng.randint(2, 6)
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        A = rand_matrix(rng, p, N, r, c)
        U, D, V = snf(A)
        assert U * A * V == D
        # U, V invertible mod p^N
        assert matinv(U) * U == ModMatrix.identity(r, p, N)
        assert matinv(V) * V == ModMatrix.identity(c, p, N)
        # D diagonal with non-decreasing valuation
        vals = []
        for i in range(r):
            for j in range(c):
                if i != j:
                    assert D.data[i][j] == 0
                else:
                    vals.append(D.entry_valuation(i, i))
        assert vals == sorted(vals)


def test_snf_rectangular():
    rng = random.Random(99)
    for r, c in [(1, 4), (4, 1), (2, 5), (5, 2)]:
        A = rand_matrix(rng, 3, 5, r, c)
        U, D, V = snf(A)
        assert U * A * V == D


def snf_full_sweep(A):
    """U, D, V as row lists by a plain full-sweep elimination: scan the
    whole block for the minimal valuation (ties column-major: the first
    such entry of the leftmost column that has one), then clear column k
    with row operations and row k with column operations on the work
    matrix and V alike."""
    p, N = A.prime, A.precision
    pN = p**N
    r, c = A.rows, A.cols
    M = [row[:] for row in A.data]
    U = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    V = [[1 if i == j else 0 for j in range(c)] for i in range(c)]
    for k in range(min(r, c)):
        best, bi, bj = N, -1, -1
        for j in range(k, c):
            for i in range(k, r):
                if M[i][j]:
                    v = int_valuation(M[i][j], p, N)
                    if v < best:
                        best, bi, bj = v, i, j
        if bi < 0:
            break
        v = best
        if bi != k:
            M[k], M[bi] = M[bi], M[k]
            U[k], U[bi] = U[bi], U[k]
        if bj != k:
            for row in M:
                row[k], row[bj] = row[bj], row[k]
            for row in V:
                row[k], row[bj] = row[bj], row[k]
        unit = M[k][k] // p**v
        inv = pow(unit, -1, pN)
        M[k] = [x * inv % pN for x in M[k]]
        U[k] = [x * inv % pN for x in U[k]]
        pv = p**v
        for i in range(k + 1, r):
            if M[i][k]:
                q = M[i][k] // pv
                M[i] = [(x - q * y) % pN for x, y in zip(M[i], M[k])]
                U[i] = [(x - q * y) % pN for x, y in zip(U[i], U[k])]
        for j in range(k + 1, c):
            if M[k][j]:
                q = M[k][j] // pv
                for row in M:
                    row[j] = (row[j] - q * row[k]) % pN
                for row in V:
                    row[j] = (row[j] - q * row[k]) % pN
    return U, M, V


def mixed_entry(rng, p, N):
    """0, a unit, a multiple of p or an exact power of p, equally often."""
    kind = rng.randrange(4)
    if kind == 0:
        return 0
    if kind == 1:
        return p * rng.randrange(p ** (N - 1)) + rng.randrange(1, p)
    if kind == 2:
        return p * rng.randrange(p ** (N - 1))
    return p ** rng.randrange(N)


def mixed_matrices():
    """320 seeded matrices up to 9 x 9, empty and rectangular ones included,
    over Z/p^N with p in {3, 5, 7} and N in 1..8."""
    rng = random.Random(2718)
    for _ in range(320):
        p = rng.choice([3, 5, 7])
        N = rng.randint(1, 8)
        r, c = rng.randint(0, 9), rng.randint(0, 9)
        A = ModMatrix.zeros(r, c, p, N)
        A.data = [[mixed_entry(rng, p, N) for _ in range(c)]
                  for _ in range(r)]
        yield A


def mahler_boundary(L, p):
    """1 - psi at the working precision `mahler.invariants` uses for N = 8."""
    Nw = 8 + sum(1 + int_valuation(i, p, L) for i in range(1, L)
                 if i % (p - 1) == 0)
    return ModMatrix.identity(L, p, Nw) - psi_matrix(L, p, Nw)


def test_snf_matches_full_sweep_oracle_random():
    for A in mixed_matrices():
        assert [m.data for m in snf(A)] == list(snf_full_sweep(A)), \
            (A.prime, A.precision, A.data)


@pytest.mark.parametrize("p", [3, 5])
def test_snf_matches_full_sweep_oracle_on_mahler_matrix(p):
    A = mahler_boundary(64, p)
    assert [m.data for m in snf(A)] == list(snf_full_sweep(A))


@pytest.mark.parametrize("p", [3, 5])
def test_smith_row_operations_on_mahler_triangle(p):
    # id - psi is upper triangular, so the column-major tie-break takes a
    # unit in the leftmost live column and the rows below are mostly clear
    # already; a row-major scan records 1288 (p = 3) and 658 (p = 5)
    L = 128
    S = Smith(mahler_boundary(L, p))
    assert sum(len(ops) for _, _, _, ops, _ in S.steps) <= 4 * L


@pytest.mark.parametrize("L, p, N, exponents", [
    (128, 3, 8, [1, 7, 20, 65, 101]),
    (256, 3, 8, [1, 4, 13, 42, 128, 196]),
    (96, 5, 12, [4, 23, 39]),
])
def test_invariants_pinned(L, p, N, exponents):
    # the pivot tie-break leaves the invariant factors alone
    inv = invariants(L, p, N)
    assert (inv.rank, inv.kernel.exponents) == (1, exponents)


def test_transcript_matches_snf():
    # the readers that build no transform against the one that builds all
    for A in [*mixed_matrices(), mahler_boundary(64, 3),
              mahler_boundary(64, 5)]:
        S = Smith(A)
        _, D, V = snf(A)
        assert S.valuations == diagonal_valuations(D)
        for j in range(A.cols):
            assert S.v_column(j) == V.column(j), \
                (j, A.prime, A.precision, A.data)


def test_kernel_column_checks_the_replay():
    # ker [3, 1] on (Z/3^4)^2 is spanned by (1, -3); the pivot is the unit
    # in column 1, so a replay that drops the column swap gives (-3, 1)
    S = Smith(ModMatrix([[3, 1]], 3, 4))
    assert S.valuations == [0, 4]
    assert S.kernel_column(1) == [1, 78]
    S.steps[0] = S.steps[0][:1] + (0,) + S.steps[0][2:]
    with pytest.raises(RuntimeError, match="not a kernel vector"):
        S.kernel_column(1)


def test_lone_pivot_takes_no_unit_inverse(monkeypatch):
    """A 1x1 pivot has nothing to clear, so Smith inverts no unit; snf
    still divides it out of U and D."""

    def no_inverse(base, exp, mod=None):
        if exp == -1:
            raise AssertionError("unit inverse taken")
        return pow(base, exp, mod)

    for p, N, u, v in [(3, 4, 2, 0), (5, 6, 7, 2), (7, 3, 48, 1),
                       (1000003, 8, 999, 3)]:
        A = ModMatrix([[u * p**v]], p, N)
        monkeypatch.setattr(gmod, "pow", no_inverse, raising=False)
        S = Smith(A)
        monkeypatch.undo()
        assert S.valuations == [v]
        U, D, V = snf(A)
        assert D.data == [[p**v]]
        assert U * A * V == D


def test_production_builds_no_transform(monkeypatch):
    """Every production path reads the Smith transcript; none calls snf,
    which builds U and V, or the oracle matinv.  Two-term cohomology and
    the invariants are compared with what the full snf gives; abutment
    and run, whose values the grpcoh and ssq tests pin, with themselves
    before snf is broken; a cold cobar_ext, whose spot check re-ranks a
    block mod p, with the symmetric algebra."""
    M = PsiModule({0: psi_matrix(6, 5, 8), 2: psi_matrix(3, 5, 8)}, 5, 8)
    expected_h = {t: [v for v in diagonal_valuations(snf(bd)[1]) if v > 0]
                  for t in M.degrees()
                  for bd in [boundary_snf(M, t)[0]]}
    # a bounded tower: lim is the sub-sum on k >= 3
    T = TowerSpec(3, 2, 8, [frozenset(range(3, 8))] * 2, SupportFunction(0, 3))
    before = (abutment(3, (-40, 40)).table_lines(),
              run_json_oracle(run(3, (-20, 40), 8)))

    def refuse(A):
        raise RuntimeError("snf or matinv called on a production path")

    for name, module in list(sys.modules.items()):
        if name.startswith("imj."):
            for oracle in (snf, matinv):
                if getattr(module, oracle.__name__, None) is oracle:
                    monkeypatch.setattr(module, oracle.__name__, refuse)
    monkeypatch.setattr(cobar, "_BLOCKS", {})
    assert cobar_ext(ExteriorHopf(3, 3), 4) == symmetric_oracle(3, 4)
    inv = invariants(96, 5, 8)  # kernel and generator as read off snf
    assert (inv.rank, inv.kernel.exponents, inv.kernel.precision) == \
        (1, [4, 23, 35], 35)
    assert [c.residue for c in inv.generators[0].coefficients] == \
        [1] + [0] * 95
    rep = two_term_cohomology(M)
    assert {t: rep.h(0, t).exponents for t in M.degrees()} == expected_h
    assert {t: rep.h(1, t).exponents for t in M.degrees()} == expected_h
    assert (abutment(3, (-40, 40)).table_lines(),
            run_json_oracle(run(3, (-20, 40), 8))) == before
    lim, _, _ = lim_lim1(T)
    assert truncated_kernel(T, 6) == lim.window(6) == frozenset({3, 4, 5})


def test_kernel_gens():
    p, N = 3, 4
    # multiplication by p^2 on Z/p^4: kernel = p^2 * Z/p^4, one generator of order p^2
    A = ModMatrix([[9]], p, N)
    K = kernel_gens(A)
    assert K.cols == 1
    assert K.data[0][0] == 9  # p^(N-v) = 3^2
    # unit: kernel trivial
    assert kernel_gens(ModMatrix([[2]], p, N)).cols == 0
    # zero map: kernel everything
    K = kernel_gens(ModMatrix([[0]], p, N))
    assert K.cols == 1 and K.data[0][0] % p != 0


def test_kernel_is_kernel_random():
    rng = random.Random(3)
    for _ in range(50):
        p, N = 3, 5
        A = rand_matrix(rng, p, N, rng.randint(1, 4), rng.randint(1, 4))
        K = kernel_gens(A)
        AK = A * K
        assert AK.is_zero()


def test_solve():
    p, N = 3, 4
    A = ModMatrix([[9, 0], [0, 2]], p, N)
    B = ModMatrix([[27], [4]], p, N)
    X = solve(A, B)
    assert X is not None and A * X == B
    # 3 is not in the image of 9 mod 81
    assert solve(ModMatrix([[9]], p, N), ModMatrix([[3]], p, N)) is None


def test_homology_kernel_of_p_squared():
    p, N = 3, 4
    d_in = ModMatrix.zeros(1, 1, p, N)
    d_out = ModMatrix([[p**2]], p, N)
    H = homology(d_in, d_out)
    assert H.exponents == [2]
    assert H.saturated_flags() == [False]


def test_homology_surjective_image():
    p, N = 3, 4
    d_in = ModMatrix([[2]], p, N)   # unit: image is everything
    d_out = ModMatrix.zeros(1, 1, p, N)
    H = homology(d_in, d_out)
    assert H.is_zero()


def test_homology_of_identity_complex():
    # 0 -> M -> 0 gives M back
    p, N = 5, 3
    z = ModMatrix.zeros(2, 2, p, N)
    H = homology(z, z)
    assert H.exponents == [N, N]
    assert H.saturated_flags() == [True, True]


def test_homology_rejects_non_complex():
    p, N = 3, 4
    with pytest.raises(ValueError):
        homology(ModMatrix([[1]], p, N), ModMatrix([[1]], p, N))


def test_homology_invariance_under_units():
    rng = random.Random(17)
    p, N = 3, 4
    for _ in range(25):
        n = rng.randint(1, 3)
        d_out = rand_matrix(rng, p, N, n, n)
        # build a complex: d_in maps onto part of ker(d_out)
        K = kernel_gens(d_out)
        if K.cols == 0:
            d_in = ModMatrix.zeros(n, 1, p, N)
        else:
            d_in = K
        H0 = homology(d_in, d_out)
        # compose with random invertible matrices
        P = ModMatrix.identity(n, p, N)
        while True:
            P = rand_matrix(rng, p, N, n, n)
            try:
                matinv(P)
                break
            except ValueError:
                continue
        H1 = homology(P * d_in, d_out * matinv(P))
        assert H0.exponents == H1.exponents


def test_homology_transpose_duality():
    # two-term complex: coker and ker swap under transpose, factors agree
    rng = random.Random(23)
    p, N = 3, 5
    for _ in range(40):
        r = rng.randint(1, 4)
        d = rand_matrix(rng, p, N, r, r)
        zin = ModMatrix.zeros(r, 1, p, N)
        zout = ModMatrix.zeros(1, r, p, N)
        h0 = homology(zin, d)                      # ker d
        h0t = homology(zin, d.transpose())         # ker d^T
        assert h0.exponents == h0t.exponents
        h1 = homology(d, zout)                     # coker d
        h1t = homology(d.transpose(), zout)        # coker d^T
        assert h1.exponents == h1t.exponents


def test_square_complex_ker_coker_match():
    # for square d with no saturated factor, ker and coker have equal factors
    rng = random.Random(31)
    p, N = 3, 5
    for _ in range(40):
        r = rng.randint(1, 4)
        d = rand_matrix(rng, p, N, r, r)
        zin = ModMatrix.zeros(r, 1, p, N)
        zout = ModMatrix.zeros(1, r, p, N)
        h0 = homology(zin, d)
        h1 = homology(d, zout)
        if N not in h1.exponents:
            assert h0.exponents == h1.exponents


def test_subgroup_ops():
    p, N = 3, 4
    pN = p**N
    amb = 1
    # subgroups of Z/81: p^a generated
    G1 = ModMatrix([[3]], p, N)    # 3Z/81
    G2 = ModMatrix([[9]], p, N)    # 9Z/81
    I = sub_intersect(G1, G2)
    # intersection is 9Z/81: a generator of valuation 2
    assert I.cols >= 1
    assert min(I.entry_valuation(0, j) for j in range(I.cols)) == 2
    # preimage of 9Z under multiplication by 3 is 3Z
    P = sub_preimage(ModMatrix([[3]], p, N), G2)
    assert min(P.entry_valuation(0, j) for j in range(P.cols)) == 1


def test_quotient_presentation():
    p, N = 3, 4
    # F^1/F^3 inside Z/81: cyclic of order 9
    num = ModMatrix([[3]], p, N)
    den = ModMatrix([[27]], p, N)
    q = quotient_presentation(num, den)
    assert q.exponents == [2]
    # express is exact on the canonical factor generator, sends the
    # denominator to 0, and reproduces any class: 3 = c * gen in F^1/F^3
    assert q.express(q.generator(0)) == [1]
    assert q.express([27]) == [0]
    assert q.express([1]) is None  # 1 is not in F^1
    c = q.express([3])[0]
    assert c % p != 0
    # c * gen recovers 3 up to the denominator subgroup 27Z
    assert (c * q.generator(0)[0] - 3) % p ** (N - 1) == 0


def test_fg_module_describe():
    m = FgModule([2, 4], 3, 4)
    assert "Z/3^2" in m.describe()
    assert "Z_3" in m.describe()  # saturated factor reported as Z_p
    assert FgModule([], 3, 4).describe() == "0"
