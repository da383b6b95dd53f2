"""Cohomology of Z_p^x acting on graded psi-modules.

Closed-form oracle: on the rank-1 piece in degree t = 2(p-1)k the map
1 - psi^{(p-1)k} has valuation 1 + v_p(k), so H^1 = Z/p^{1+v_p(k)};
degrees not divisible by 2(p-1) die.  Degree 0 carries Z_p in both spots.
"""

import random

import pytest

import imj.grpcoh as grpcoh
from imj.gmod import FgModule, ModMatrix, Smith, homology
from imj.grpcoh import (PsiModule, abutment, character_cohomology,
                        two_term_cohomology)
from imj.padic import PrecisionError, int_valuation, psi_generator


def test_lubin_tate_shape():
    M = PsiModule.lubin_tate(3, 6, -4, 8)
    assert M.degrees() == [-4, -2, 0, 2, 4, 6, 8]


@pytest.mark.parametrize("p,N,lo,hi", [
    (3, 6, -4, 8), (3, 9, -41, 37), (5, 5, -17, -3), (7, 4, 0, 60),
    (11, 6, -30, 31)])
def test_lubin_tate_matrices_are_powers_of_psi(p, N, lo, hi):
    """Each degree's scalar, one multiplication past the one before, is
    psi^j computed afresh (inverting first for j < 0)."""
    M = PsiModule.lubin_tate(p, N, lo, hi)
    assert M.degrees() == list(range(lo + lo % 2, hi + 1, 2))
    psi = psi_generator(p, N)
    for t in M.degrees():
        mat = M.matrix(t)
        assert mat.rows == mat.cols == 1
        assert mat.data[0][0] == (psi ** (t // 2)).residue


def test_psi_matrix_must_be_invertible():
    p, N = 3, 4
    with pytest.raises(ValueError):
        PsiModule({0: ModMatrix([[3]], p, N)}, p, N)


@pytest.mark.parametrize("t,rows", [
    (0, [[3]]),
    (6, [[1, 1], [1, 4]]),                  # unit entries, det = 3
    (-2, [[2, 0, 0], [0, 1, 1], [0, 2, 11]]),  # det = 18
])
def test_psi_matrix_singular_mod_p_is_refused(t, rows):
    p, N = 3, 4
    good = {2: ModMatrix([[4]], p, N)}
    with pytest.raises(ValueError) as exc:
        PsiModule({**good, t: ModMatrix(rows, p, N)}, p, N)
    assert str(exc.value) == f"psi matrix in degree {t} is not invertible mod 3"


@pytest.mark.parametrize("mats,bad", [
    # 1, 4 and 7 share the residue 1 mod 3; 3 is singular
    ({0: [[1]], 2: [[4]], 4: [[7]], 6: [[3]], 8: [[4]]}, 6),
    ({-2: [[2]], 0: [[5]], 2: [[6]], 4: [[8]]}, 2),
    # rank 2: the first three share one residue matrix mod 3, det 3 last
    ({0: [[1, 1], [0, 1]], 2: [[4, 1], [3, 7]], 4: [[1, 4], [6, 1]],
      6: [[1, 1], [1, 4]], 8: [[2, 0], [0, 2]]}, 6),
])
def test_shared_residues_still_refuse_a_later_singular_degree(mats, bad):
    p, N = 3, 4
    with pytest.raises(ValueError) as exc:
        PsiModule({t: ModMatrix(rows, p, N) for t, rows in mats.items()},
                  p, N)
    assert str(exc.value) == \
        f"psi matrix in degree {bad} is not invertible mod 3"
    ok = {t: ModMatrix(rows, p, N) for t, rows in mats.items() if t < bad}
    assert PsiModule(ok, p, N).degrees() == sorted(ok)


def test_invertibility_is_decided_once_per_residue_matrix(monkeypatch):
    # one Smith elimination mod p (precision 1) per distinct residue matrix
    seen = []

    def counting(A):
        if A.precision == 1:
            seen.append(tuple(map(tuple, A.data)))
        return Smith(A)

    monkeypatch.setattr(grpcoh, "Smith", counting)
    for p in (3, 5, 7):
        seen.clear()
        PsiModule.lubin_tate(p, 8, -200, 200)
        assert len(seen) == len(set(seen)) == p - 1
    seen.clear()
    PsiModule({0: ModMatrix([[1, 1], [0, 1]], 3, 4),
               2: ModMatrix([[4, 1], [3, 7]], 3, 4),
               4: ModMatrix([[2, 0], [0, 2]], 3, 4)}, 3, 4)
    assert seen == [((1, 1), (0, 1)), ((2, 0), (0, 2))]


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
    assert not any(m.is_zero() for m in rep.entries.values())


def test_abutment_refuses_a_factor_at_the_ceiling():
    # t = 108 = 4 * 27 at p = 3: H^{1,108} = Z/3^4, which mod 3^4 reads
    # as a saturated Z_3 in both H^0 and H^1
    with pytest.raises(PrecisionError, match="t=108 needs N >= 5, have 4"):
        abutment(3, (0, 330), 4)
    with pytest.raises(PrecisionError, match="t=-324 needs N >= 6, have 5"):
        abutment(3, (-330, -300), 5)
    rep = abutment(3, (0, 330), 6)
    assert rep.h(1, 108).exponents == [4]
    assert rep.h(0, 108).is_zero()
    assert rep.h(1, 324).exponents == [5]


@pytest.mark.parametrize("window", [(1, 109), (0, 108), (-109, -1)])
def test_abutment_picks_precision_from_every_even_degree(window):
    # an odd edge still covers t = +-108, which needs N >= 5
    rep = abutment(3, window)
    assert rep.precision == 6
    assert rep.h(1, 108 if window[1] > 0 else -108).exponents == [4]


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
@pytest.mark.parametrize("N", [1, 2, 4, 5, 8])
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
    # only nonzero groups are stored
    assert not any(m.is_zero() for m in rep.entries.values())
    # saturated, torsion and mixed cases all came up
    assert (0, 0) in shapes and (1, 0) in shapes
    if N > 1:
        assert any(s and t for s, t in shapes)
        assert any(t >= 2 for _, t in shapes)
