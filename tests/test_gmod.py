"""Tests for modules over Z/p^N: SNF, kernels, homology, subgroup arithmetic.

The SNF oracle is the round-trip identity U*A*V = D together with explicit
invertibility of U and V, plus an independent full-sweep elimination with
the same pivot rule (minimal valuation, ties column-major), which must give
the same U, D and V.  The pivots are checked step by step against a
plain elimination that picks them by the rule (first unit column-major,
else first strict minimum of valuation), and the valuations of drawn
matrices against their determinantal divisors.  Each `Smith` reader
(`u_rows`, `v_column`, `valuations`) must agree with the full sweep on
its own.  Homology
oracles are hand-computable kernels and cokernels and the
transpose-duality of two-term complexes.
"""

import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imj import cobar, gmod, grpcoh, mahler
from imj.cobar import ExteriorHopf, cobar_ext, symmetric_oracle
from imj.gmod import (
    FgModule,
    ModMatrix,
    Smith,
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
from imj.padic import int_valuation, psi_generator, vp
from imj.ssq import run
from imj.towers import SupportFunction, TowerSpec, lim_lim1, truncated_kernel
from mahler_oracle import mahler_complement
from render_oracle import run_json_oracle


def rand_matrix(rng, p, N, r, c):
    return ModMatrix([[rng.randrange(p**N) for _ in range(c)] for _ in range(r)],
                     p, N)


def test_ragged_rows_refused():
    with pytest.raises(ValueError) as exc:
        ModMatrix([[1, 2], [3]], 3, 2)
    assert str(exc.value) == "ragged rows"


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
                    vals.append(int_valuation(D.data[i][i], p, N))
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
    """1 - psi at precision 8 + B, B = v_p(det) of its complement: the
    working precision of `mahler.invariants` at N = 8, which reads the
    torsion law and builds no matrix."""
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


@pytest.mark.parametrize("L, p", [(64, 3), (48, 5)])
def test_snf_matches_full_sweep_oracle_on_mahler_complement(L, p):
    A = mahler_complement(L, p)
    assert [m.data for m in snf(A)] == list(snf_full_sweep(A))


@pytest.mark.parametrize("p", [3, 5])
def test_smith_row_operations_on_mahler_triangle(p):
    # id - psi is upper triangular, so the column-major tie-break takes a
    # unit in the leftmost live column and the rows below are mostly clear
    # already; a row-major scan records 1288 (p = 3) and 658 (p = 5)
    L = 128
    S = Smith(mahler_boundary(L, p))
    assert sum(len(ops) for _, _, _, ops, _ in S.steps) <= 4 * L


def pivot_rule(M, k, p, N):
    """The pivot of the block of M below and right of (k, k): its first
    unit in column-major order, else its first entry of strictly minimal
    valuation below N; None when every entry vanishes mod p^N."""
    block = [(i, j) for j in range(k, len(M[0])) for i in range(k, len(M))]
    for i, j in block:
        if M[i][j] % p:
            return i, j
    best, piv = N, None
    for i, j in block:
        v = int_valuation(M[i][j], p, N)
        if v < best:
            best, piv = v, (i, j)
    return piv


def pivots_by_rule(A):
    """(bi, bj) at each step of a plain elimination that picks its pivots
    by `pivot_rule` and reduces every row operation mod p^N."""
    p, N = A.prime, A.precision
    pN = p**N
    M = [row[:] for row in A.data]
    out = []
    for k in range(min(A.rows, A.cols)):
        piv = pivot_rule(M, k, p, N)
        if piv is None:
            break
        bi, bj = piv
        M[k], M[bi] = M[bi], M[k]
        for row in M:
            row[k], row[bj] = row[bj], row[k]
        pv = p ** int_valuation(M[k][k], p, N)
        inv = pow(M[k][k] // pv, -1, pN)
        for i in range(k + 1, A.rows):
            if M[i][k]:
                m = M[i][k] // pv * inv
                M[i] = [(x - m * y) % pN for x, y in zip(M[i], M[k])]
        out.append(piv)
    return out


def test_smith_pivots_follow_the_rule():
    for A in [*mixed_matrices(), *(mahler_boundary(L, p)
                                   for L in (64, 128) for p in (3, 5))]:
        assert [step[:2] for step in Smith(A).steps] == pivots_by_rule(A), \
            (A.prime, A.precision, A.data)


def scaled_column_matrices():
    """240 seeded matrices up to 8 x 8 over Z/p^N, p in {3, 5, 7} and N in
    1..6, with the columns at random positions scaled by p^e, e >= 1, so
    that the pivot scan meets columns with no unit below row k.  Every
    fourth matrix has all its columns scaled: no unit at all.  A column
    scaled at e >= N, and every scaled column at precision 1, is zero."""
    rng = random.Random(1618)
    for n in range(240):
        p = rng.choice([3, 5, 7])
        N = rng.randint(1, 6)
        r, c = rng.randint(0, 8), rng.randint(0, 8)
        data = [[mixed_entry(rng, p, N) if rng.randrange(2)
                 else rng.randrange(p**N) for _ in range(c)]
                for _ in range(r)]
        scaled = (range(c) if n % 4 == 0
                  else rng.sample(range(c), rng.randint(0, c)))
        for j in scaled:
            s = p ** rng.randint(1, N + 1)
            for row in data:
                row[j] = row[j] * s % p**N
        yield ModMatrix._empty(r, c, p, N, data)


def test_unitless_columns_keep_the_pivots_of_the_rule():
    # the scan does not read again a column it read to the bottom without
    # a unit: the pivot row has a non-unit there, so no row operation
    # below a pivot makes one
    shapes = set()
    for A in scaled_column_matrices():
        assert [step[:2] for step in Smith(A).steps] == pivots_by_rule(A), \
            (A.prime, A.precision, A.data)
        assert [m.data for m in snf(A)] == list(snf_full_sweep(A)), \
            (A.prime, A.precision, A.data)
        unitless = all(x % A.prime == 0 for row in A.data for x in row)
        shapes.add((A.rows * A.cols == 0, A.rows != A.cols,
                    A.precision == 1, unitless))
    # empty, rectangular, precision-1 and unit-free blocks all occur
    assert all(any(s[i] for s in shapes) for i in range(4))
    assert (False, False, False, True) in shapes


def test_pivot_scan_takes_valuations_only_without_a_unit(monkeypatch):
    # the scan looks for a unit by x % p alone and computes valuations
    # only in a block that has none: 4 of the 128 pivots here, where a
    # scan that takes the valuation of each non-unit it passes on the way
    # to a unit makes 1503 calls
    A = mahler_boundary(128, 3)
    calls = []

    def counted(x, p, N):
        calls.append(x)
        return int_valuation(x, p, N)

    monkeypatch.setattr(gmod, "int_valuation", counted)
    S = Smith(A)
    assert sum(v > 0 for v in S.valuations[:len(S.steps)]) == 4
    assert len(calls) == 30


@pytest.mark.parametrize("L, p, N, exponents", [
    (128, 3, 8, [1, 7, 20, 65, 101]),
    (256, 3, 8, [1, 4, 13, 42, 128, 196]),
    (96, 5, 12, [4, 23, 39]),
])
def test_invariants_pinned(L, p, N, exponents):
    # the pivot tie-break leaves the invariant factors alone
    inv = invariants(L, p, N)
    assert (inv.rank, inv.kernel.exponents) == (1, exponents)


@pytest.mark.parametrize("L, p", [(64, 3), (64, 5), (128, 3)])
def test_psi_minus_id_has_the_transcript_readings_of_id_minus_psi(L, p):
    # the torsion-law oracle eliminates psi - id: negating A flips the
    # signs of the unit inverses and row multipliers only, so the
    # valuations and every column of V are those of id - psi
    A = mahler_boundary(L, p)
    S, T = Smith(A), Smith(A.scale_int(-1))
    assert S.valuations == T.valuations
    Nw = A.precision
    saturated = [j for j, v in enumerate(S.valuations) if v == Nw]
    assert saturated
    for j in saturated:
        assert S.kernel_column(j) == T.kernel_column(j)
    for j in range(L):
        assert S.v_column(j) == T.v_column(j), j


@pytest.mark.parametrize("L, p", [(64, 3), (64, 5), (128, 3)])
def test_psi_minus_id_times_units_has_the_readings_of_psi_minus_id(L, p):
    # the torsion-law oracle eliminates (psi - id) * diag(U) = H - diag(U),
    # U[i] the unit part of i!: a right factor of units leaves every
    # valuation alone, and U times a kernel column of H - diag(U) is one of
    # psi - id
    A = mahler_boundary(L, p).scale_int(-1)
    Nw, pNw = A.precision, A.modulus
    psi = psi_generator(p, Nw + mahler._vp_factorial(L - 1, p))
    rows, U = mahler._h_rows(L, p, Nw, psi.residue)
    for k, row in enumerate(rows):
        row[k] = (row[k] - U[k]) % pNw
    S, T = Smith(ModMatrix(rows, p, Nw)), Smith(A)
    assert S.valuations == T.valuations
    saturated = [j for j, v in enumerate(S.valuations) if v == Nw]
    assert saturated
    for j in saturated:
        assert [x * u % pNw for x, u in zip(S.kernel_column(j), U)] == \
            T.kernel_column(j)


def det(rows):
    """Determinant of a square integer matrix by Laplace expansion along
    the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * x * det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


def determinantal_valuations(data, cols, p, N):
    """min(N, d_k - d_(k-1)) for k = 1..cols, d_k the least valuation of a
    k x k minor of the integer matrix `data` (d_0 = 0); N once every
    k x k minor vanishes."""
    out, prev = [], 0
    for k in range(1, cols + 1):
        minors = [det([[data[i][j] for j in cs] for i in rs])
                  for rs in combinations(range(len(data)), k)
                  for cs in combinations(range(cols), k)]
        nonzero = [m for m in minors if m]
        if not nonzero:
            return out + [N] * (cols - len(out))
        d = min(vp(m, p) for m in nonzero)
        out.append(min(N, d - prev))
        prev = d
    return out


@st.composite
def small_matrices(draw):
    """Up to 4 x 4 over Z/p^N, p in {3, 5}, N <= 4: entries drawn as any
    residue, 0 or a power of p, and some draws with a zero row, a zero
    column, every entry a multiple of p, or the last row a combination
    of the first two."""
    p = draw(st.sampled_from([3, 5]))
    N = draw(st.integers(1, 4))
    r, c = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entry = st.integers(0, p**N - 1) | st.sampled_from(
        [0] + [p**e for e in range(N)])
    data = [[draw(entry) for _ in range(c)] for _ in range(r)]
    shape = draw(st.sampled_from(["any", "zero row", "zero column",
                                  "no unit", "dependent rows"]))
    if shape == "zero row" and r:
        data[draw(st.integers(0, r - 1))] = [0] * c
    elif shape == "dependent rows" and r > 1:
        m = draw(st.integers(0, p**N - 1))
        data[-1] = [(x + m * y) % p**N for x, y in zip(data[0], data[1])]
    elif shape == "zero column" and c:
        j = draw(st.integers(0, c - 1))
        for row in data:
            row[j] = 0
    elif shape == "no unit":
        data = [[x * p % p**N for x in row] for row in data]
    return ModMatrix._empty(r, c, p, N, data)


@settings(max_examples=200)
@given(small_matrices())
def test_smith_valuations_are_the_determinantal_divisors(A):
    # an oracle that replays no step of the elimination: over Z_p the
    # k-th invariant factor has valuation d_k - d_(k-1)
    assert Smith(A).valuations == \
        determinantal_valuations(A.data, A.cols, A.prime, A.precision)


def test_smith_D_comes_back_reduced():
    # column 1 has no pivot: D holds p^N there as its residue 0
    assert snf(ModMatrix([[2, 2], [1, 1]], 3, 1))[1].data == [[1, 0], [0, 0]]
    for A in mixed_matrices():
        pN = A.modulus
        assert all(0 <= x < pN for row in snf(A)[1].data for x in row), \
            (A.prime, A.precision, A.data)


def test_smith_reads_unreduced_entries_as_their_residues():
    # ModMatrix reduces what it is built from, but .data can be set to any
    # ints: shifting every entry by a multiple of p^N, negative ones
    # included, must leave every reading of the transcript alone
    rng = random.Random(1618)
    for A in mixed_matrices():
        pN = A.modulus
        B = ModMatrix.zeros(A.rows, A.cols, A.prime, A.precision)
        B.data = [[x + rng.randint(-3, 3) * pN for x in row]
                  for row in A.data]
        S, T = Smith(A), Smith(B)
        assert T.valuations == S.valuations, (A.prime, A.precision, B.data)
        assert T.u_rows() == S.u_rows(), (A.prime, A.precision, B.data)
        assert T.v_rows() == S.v_rows(), (A.prime, A.precision, B.data)
        for j in range(A.cols):
            assert T.kernel_column(j) == S.kernel_column(j), \
                (j, A.prime, A.precision, B.data)


def test_snf_D_is_diag_of_the_valuations():
    for A in mixed_matrices():
        # p^N is 0 mod p^N, so a column without a pivot is 0
        vals = Smith(A).valuations
        assert snf(A)[1].data == [
            [pow(A.prime, v, A.modulus) if i == j else 0
             for j, v in enumerate(vals)] for i in range(A.rows)], \
            (A.prime, A.precision, A.data)


def test_transcript_matches_snf():
    # each reader of the transcript against the full sweep, which
    # replays nothing: U row by row, V column by column, and the
    # valuations of the diagonal it leaves
    for A in [*mixed_matrices(), mahler_boundary(64, 3),
              mahler_boundary(64, 5)]:
        p, N = A.prime, A.precision
        S = Smith(A)
        U, D, V = snf_full_sweep(A)
        assert S.u_rows() == U, (A.prime, A.precision, A.data)
        assert S.valuations == [int_valuation(D[j][j], p, N) if j < A.rows
                                else N for j in range(A.cols)]
        for j in range(A.cols):
            assert S.v_column(j) == [row[j] for row in V], \
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
    """A rank-1 degree bd = [[u*p^v]] has a lone pivot: the one pass of
    boundary_snf reads its valuation without inverting u.  Smith gives
    the same valuation, and snf divides u out of U and D."""

    def no_inverse(base, exp, mod=None):
        if exp == -1:
            raise AssertionError("unit inverse taken")
        return pow(base, exp, mod)

    for p, N, u, v in [(3, 4, 2, 0), (5, 6, 7, 2), (7, 3, 48, 1),
                       (1000003, 8, 999, 3)]:
        A = ModMatrix([[u * p**v]], p, N)
        M = PsiModule({0: ModMatrix([[1 - u * p**v]], p, N)}, p, N)
        monkeypatch.setattr(grpcoh, "pow", no_inverse, raising=False)
        [(t, bd, vals)] = boundary_snf(M)
        monkeypatch.undo()
        assert t == 0
        assert bd == A.data
        assert vals == [v]
        assert Smith(A).valuations == [v]
        U, D, V = snf(A)
        assert D.data == [[p**v]]
        assert U * A * V == D


def test_production_builds_no_transform(monkeypatch):
    """Every production path reads the Smith transcript; none calls snf,
    which builds U and V, or the oracle matinv.  Two-term cohomology is
    compared with the valuations of one Smith per degree, and the
    invariants with what the full snf gives; abutment
    and run, whose values the grpcoh and ssq tests pin, with themselves
    before snf is broken; a cold cobar_ext, whose spot check re-ranks a
    block mod p, with the symmetric algebra."""
    M = PsiModule({0: psi_matrix(6, 5, 8), 2: psi_matrix(3, 5, 8)}, 5, 8)
    expected_h = {t: [v for v in Smith(ModMatrix(bd, 5, 8)).valuations if v]
                  for t, bd, _ in boundary_snf(M)}
    # a bounded tower: lim is the sub-sum on k >= 3
    T = TowerSpec(3, 8, [frozenset(range(3, 8))] * 2, SupportFunction(0, 3))
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
    assert truncated_kernel(T, 6) == frozenset({3, 4, 5})
    assert all(lim.contains(k) == (k >= 3) for k in range(6))


def test_boundary_builds_no_identity_or_difference(monkeypatch):
    """boundary_snf writes id - psi in one pass: two-term cohomology,
    abutment and run give the same values while ModMatrix.identity and
    ModMatrix.__sub__ refuse to run."""
    M = PsiModule({0: psi_matrix(6, 5, 8), 2: psi_matrix(3, 5, 8)}, 5, 8)

    def values():
        return ({t: two_term_cohomology(M).h(1, t).exponents
                 for t in M.degrees()},
                two_term_cohomology(PsiModule.lubin_tate(3, 8, -40, 40))
                .table_lines(),
                abutment(5, (-80, 80)).table_lines(),
                run_json_oracle(run(3, (-20, 40), 8)))

    before = values()
    assert before[0][0] and before[1] and before[2]

    def refuse(*args):
        raise RuntimeError("identity or difference matrix built")

    monkeypatch.setattr(ModMatrix, "identity", refuse)
    monkeypatch.setattr(ModMatrix, "__sub__", refuse)
    assert values() == before


@pytest.mark.parametrize("p", [3, 5, 1000003])
def test_rank_one_degrees_run_no_elimination(p, monkeypatch):
    """A rank-1 degree reads its valuation off bd's one entry: two-term
    cohomology, abutment and run give the same values while Smith refuses
    every precision above the invertibility check's, and a rank-3 degree
    still eliminates."""
    per = 2 * p - 2
    windows = [(-40, 40), (per - 40, per + 40)]

    def values():
        return [(two_term_cohomology(PsiModule.lubin_tate(p, 8, lo, hi))
                 .table_lines(),
                 abutment(p, (lo, hi)).table_lines(),
                 run_json_oracle(run(p, (lo, hi), 8)))
                for lo, hi in windows]

    before = values()
    assert all(h and a for h, a, _ in before)
    assert before[1][2]["differentials"]
    rank3 = PsiModule({0: psi_matrix(3, p, 8)}, p, 8)

    def refuse(A):
        if A.precision > 1:
            raise RuntimeError("Smith called above precision 1")
        return Smith(A)

    monkeypatch.setattr(grpcoh, "Smith", refuse)
    assert values() == before
    with pytest.raises(RuntimeError, match="above precision 1"):
        two_term_cohomology(rank3)


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
    # a nonzero entry where the pivot is zero (v = N), or in a row past
    # the columns, has no preimage either
    assert solve(ModMatrix([[0]], p, N), ModMatrix([[1]], p, N)) is None
    assert solve(ModMatrix([[1], [0]], p, N),
                 ModMatrix([[0], [1]], p, N)) is None


@pytest.mark.parametrize("call, message", [
    (lambda M: quotient_presentation(M([[3]]), M([[1]])),
     "denominator subgroup is not inside the numerator"),
    (lambda M: homology(M([[1, 0]]), M([[1, 0]])),
     "d_out and d_in do not meet in the same module"),
    (lambda M: M([[1]]).hstack(M([[1], [2]])), "row mismatch"),
    (lambda M: M([[1, 2]]) * M([[1, 2]]), "shape mismatch 1x2 * 1x2"),
    (lambda M: matinv(M([[1, 2]])), "not square")],
    ids=["quotient_presentation", "homology", "hstack", "mul", "matinv"])
def test_oracles_refuse_mismatched_shapes_and_subgroups(call, message):
    with pytest.raises(ValueError) as exc:
        call(lambda rows: ModMatrix(rows, 3, 2))
    assert str(exc.value) == message


def test_homology_kernel_of_p_squared():
    p, N = 3, 4
    d_in = ModMatrix.zeros(1, 1, p, N)
    d_out = ModMatrix([[p**2]], p, N)
    H = homology(d_in, d_out)
    assert H.exponents == [2]
    assert H.saturated_count() == 0


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
    assert H.saturated_count() == 2


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
    assert min(int_valuation(x, p, N) for x in I.data[0]) == 2
    # preimage of 9Z under multiplication by 3 is 3Z
    P = sub_preimage(ModMatrix([[3]], p, N), G2)
    assert min(int_valuation(x, p, N) for x in P.data[0]) == 1


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


@pytest.mark.parametrize("exponents", [[0], [2, 5], [-1]])
def test_fg_module_exponent_outside_1_to_N_refused(exponents):
    with pytest.raises(ValueError, match=r"must lie in \[1, N\]"):
        FgModule(exponents, 3, 4)
