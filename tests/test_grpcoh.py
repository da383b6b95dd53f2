"""Cohomology of Z_p^x acting on graded psi-modules.

Closed-form oracle: on the rank-1 piece in degree t = 2(p-1)k the map
1 - psi^{(p-1)k} has valuation 1 + v_p(k), so H^1 = Z/p^{1+v_p(k)};
degrees not divisible by 2(p-1) die.  Degree 0 carries Z_p in both spots.
"""

import random

import pytest

from imj.gmod import FgModule, ModMatrix, homology
from imj.grpcoh import (PsiModule, abutment, character_cohomology,
                        two_term_cohomology)
from imj.padic import PrecisionError, int_valuation, psi_generator


def test_lubin_tate_shape():
    p, N = 3, 6
    M = PsiModule.lubin_tate(p, N, -4, 8)
    assert M.degrees() == [-4, -2, 0, 2, 4, 6, 8]
    psi = psi_generator(p, N)
    for t in M.degrees():
        mat = M.matrix(t)
        assert mat.rows == mat.cols == 1
        assert mat.data[0][0] == (psi ** (t // 2)).residue


def test_psi_matrix_must_be_invertible():
    p, N = 3, 4
    with pytest.raises(ValueError):
        PsiModule({0: ModMatrix([[3]], p, N)}, p, N)


def test_two_term_degree_zero():
    # psi acts by 1, so the complex has zero differential
    p, N = 3, 5
    M = PsiModule.lubin_tate(p, N, 0, 0)
    rep = two_term_cohomology(M)
    h0, h1 = rep.h(0, 0), rep.h(1, 0)
    assert h0.exponents == [N] and h0.saturated_flags() == [True]
    assert h1.exponents == [N] and h1.saturated_flags() == [True]


def test_two_term_degree_two_vanishes():
    p, N = 3, 5
    rep = two_term_cohomology(PsiModule.lubin_tate(p, N, 2, 2))
    assert rep.h(0, 2).is_zero()
    assert rep.h(1, 2).is_zero()


def test_two_term_degree_twelve():
    # t = 12 = 2(p-1)k with k = 3 at p = 3: exponent 1 + v_3(3) = 2
    p, N = 3, 6
    rep = two_term_cohomology(PsiModule.lubin_tate(p, N, 12, 12))
    assert rep.h(1, 12).exponents == [2]
    # ker(p^2 * unit) mod p^N is a truncation shadow, reported unsaturated
    h0 = rep.h(0, 12)
    assert h0.exponents == [2] and h0.saturated_flags() == [False]


def test_character_examples():
    assert character_cohomology(0, 3, 6) == (1, 1, 6)
    assert character_cohomology(1, 3, 6) == (0, 0, 0)
    assert character_cohomology(6, 3, 6) == (0, 0, 2)
    assert character_cohomology(-6, 3, 6) == (0, 0, 2)


def test_character_precision_guard():
    # k = 6 at p = 3 needs N > 1 + v_3(6) + 1 = 3
    with pytest.raises(PrecisionError):
        character_cohomology(6, 3, 3)
    character_cohomology(6, 3, 4)  # boundary passes


def test_character_closed_form_sweep():
    N = 9
    for p in (3, 5):
        for k in range(-30, 31):
            if k != 0 and int_valuation(abs(k), p, N) > 4:
                continue
            h0, h1, tv = character_cohomology(k, p, N)
            if k == 0:
                assert (h0, h1, tv) == (1, 1, N)
            elif k % (p - 1) == 0:
                assert (h0, h1) == (0, 0)
                assert tv == 1 + int_valuation(abs(k), p, N)
            else:
                assert (h0, h1, tv) == (0, 0, 0)


def test_abutment_p3():
    rep = abutment(3, (0, 40))
    # t = 4: n=0, m=1
    assert rep.h(1, 4).exponents == [1]
    # t = 12: n=1
    assert rep.h(1, 12).exponents == [2]
    # t = 36: k = 9, exponent 3
    assert rep.h(1, 36).exponents == [3]
    # t = 2 not divisible by 2p-2
    assert rep.h(1, 2).is_zero()
    # degree 0 keeps both saturated lines
    assert rep.h(0, 0).saturated_flags() == [True]
    assert rep.h(1, 0).saturated_flags() == [True]
    # H^0 truncation shadows are filtered out of the abutment
    assert rep.h(0, 12).is_zero()


def test_abutment_p5():
    rep = abutment(5, (0, 16))
    assert rep.h(1, 8).exponents == [1]
    assert rep.h(1, 16).exponents == [1]
    assert rep.h(1, 6).is_zero()


def test_abutment_matches_closed_form_across_window():
    p = 3
    rep = abutment(p, (-40, 40))
    for t in range(-40, 41, 2):
        h1 = rep.h(1, t)
        if t == 0:
            assert h1.saturated_flags() == [True]
        elif t % (2 * p - 2) == 0:
            k = abs(t) // (2 * p - 2)
            expected = 1 + int_valuation(k, p, rep.precision)
            assert h1.exponents == [expected], f"t={t}"
        else:
            assert h1.is_zero(), f"t={t}"


def _random_unit_matrix(rng, n, p, N):
    """Random invertible matrix mod p^N: unit-triangular L, U and a unit
    diagonal, so the determinant is a unit."""
    pN = p**N
    L = [[1 if i == j else (rng.randrange(pN) if i > j else 0)
          for j in range(n)] for i in range(n)]
    U = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i < j:
                U[i][j] = rng.randrange(pN)
            elif i == j:
                d = rng.randrange(pN)
                U[i][j] = d if d % p else d + 1
    return ModMatrix(L, p, N) * ModMatrix(U, p, N)


def test_euler_property_random_units():
    # square boundary with determinant of valuation < N: H^0 and H^1 agree
    rng = random.Random(20260816)
    p, N = 3, 5
    hits = 0
    for _ in range(40):
        n = rng.randrange(1, 4)
        psi = _random_unit_matrix(rng, n, p, N)
        M = PsiModule({2: psi}, p, N)
        rep = two_term_cohomology(M)
        h0, h1 = rep.h(0, 2), rep.h(1, 2)
        if all(not f for f in h0.saturated_flags() + h1.saturated_flags()):
            assert h0.exponents == h1.exponents
            hits += 1
    assert hits > 10  # the property actually got exercised


def _oracle_cases(rng, p, N):
    """psi matrices of rank 1-4: the identity (bd = 0), psi = 1 mod p^j,
    psi = 1 - L diag(p^v) R with chosen valuations, and random units."""
    pN = p**N
    for n in range(1, 5):
        yield ModMatrix.identity(n, p, N)
        for j in range(1, N + 1):
            R = [[rng.randrange(pN) for _ in range(n)] for _ in range(n)]
            yield (ModMatrix.identity(n, p, N)
                   - ModMatrix(R, p, N).scale_int(p**j))
        for _ in range(6):
            vs = [rng.randrange(1, N + 1) for _ in range(n)]
            D = ModMatrix([[p**v if i == k else 0 for k, v in enumerate(vs)]
                           for i in range(n)], p, N)
            bd = (_random_unit_matrix(rng, n, p, N) * D
                  * _random_unit_matrix(rng, n, p, N))
            yield ModMatrix.identity(n, p, N) - bd
        for _ in range(3):
            yield _random_unit_matrix(rng, n, p, N)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("N", [1, 2, 4, 8])
def test_two_term_cohomology_matches_homology_oracle(p, N):
    rng = random.Random(1000 * p + N)
    mats = dict(enumerate(_oracle_cases(rng, p, N)))
    rep = two_term_cohomology(PsiModule(mats, p, N))
    shapes = set()
    for t, psi in mats.items():
        n = psi.rows
        bd = ModMatrix.identity(n, p, N) - psi
        h0 = homology(ModMatrix.zeros(n, 0, p, N), bd)
        h1 = homology(bd, ModMatrix.zeros(0, n, p, N))
        assert rep.h(0, t) == h0, f"t={t}"
        assert rep.h(1, t) == h1, f"t={t}"
        shapes.add((h1.saturated_count(), len(h1.torsion_exponents())))
    # saturated, torsion and mixed cases all came up
    assert (0, 0) in shapes and (1, 0) in shapes
    if N > 1:
        assert any(s and t for s, t in shapes)
        assert any(t >= 2 for _, t in shapes)
