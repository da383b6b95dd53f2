"""Tests for modules over Z/p^N: SNF, kernels, homology, subgroup arithmetic.

The SNF oracle is the round-trip identity U*A*V = D together with explicit
invertibility of U and V, plus the full-sweep elimination that `snf`
replaced, which must give the same U, D and V; homology oracles are
hand-computable kernels and cokernels and the transpose-duality of
two-term complexes.
"""

import random

import pytest

from imj.gmod import (
    FgModule,
    ModMatrix,
    homology,
    kernel_gens,
    matinv,
    snf,
    solve,
    sub_intersect,
    sub_preimage,
    quotient_presentation,
)
from imj.mahler import psi_matrix
from imj.padic import int_valuation


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
    """U, D, V as row lists by the elimination `snf` replaced: scan the
    whole block for the minimal valuation (ties row-major), then clear
    column k with row operations and row k with column operations on the
    work matrix and V alike."""
    p, N = A.prime, A.precision
    pN = p**N
    r, c = A.rows, A.cols
    M = [row[:] for row in A.data]
    U = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    V = [[1 if i == j else 0 for j in range(c)] for i in range(c)]
    for k in range(min(r, c)):
        best, bi, bj = N, -1, -1
        for i in range(k, r):
            for j in range(k, c):
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


def test_snf_matches_full_sweep_oracle_random():
    rng = random.Random(2718)
    for _ in range(320):
        p = rng.choice([3, 5, 7])
        N = rng.randint(1, 8)
        r, c = rng.randint(0, 9), rng.randint(0, 9)
        A = ModMatrix.zeros(r, c, p, N)
        A.data = [[mixed_entry(rng, p, N) for _ in range(c)]
                  for _ in range(r)]
        assert [m.data for m in snf(A)] == list(snf_full_sweep(A)), \
            (p, N, A.data)


@pytest.mark.parametrize("p", [3, 5])
def test_snf_matches_full_sweep_oracle_on_mahler_matrix(p):
    # 1 - psi at the working precision `mahler.invariants` uses
    L = 64
    Nw = 8 + sum(1 + int_valuation(i, p, L) for i in range(1, L)
                 if i % (p - 1) == 0)
    A = ModMatrix.identity(L, p, Nw) - psi_matrix(L, p, Nw)
    assert [m.data for m in snf(A)] == list(snf_full_sweep(A))


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
