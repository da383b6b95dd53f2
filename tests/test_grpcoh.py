"""Cohomology of Z_p^x acting on graded psi-modules.

Closed-form oracle: on the rank-1 piece in degree t = 2(p-1)k the map
1 - psi^{(p-1)k} has valuation 1 + v_p(k), so H^1 = Z/p^{1+v_p(k)};
degrees not divisible by 2(p-1) die.  Degree 0 carries Z_p in both spots.
"""

import math
import random

import pytest

import imj.grpcoh as grpcoh
import imj.ssq as ssq
from imj.gmod import FgModule, ModMatrix, Smith, homology
from imj.grpcoh import (PsiModule, abutment, character_cohomology,
                        two_term_cohomology)
from imj.mahler import psi_matrix
from imj.padic import PrecisionError, int_valuation, psi_generator
from imj.ssq import WindowError, run


def test_lubin_tate_shape():
    # the mu_2-invariant degrees at p = 3, the multiples of 2p - 2 = 4
    M = PsiModule.lubin_tate(3, 6, -4, 8)
    assert M.degrees() == [-4, 0, 4, 8]


@pytest.mark.parametrize("p,N,lo,hi", [
    (3, 6, -4, 8), (3, 9, -41, 37), (5, 5, -17, -3), (7, 4, 0, 60),
    (11, 6, -30, 31)])
def test_lubin_tate_matrices_are_powers_of_psi(p, N, lo, hi):
    """The window holds the multiples of 2p - 2 in it, and each degree's
    scalar, (1+p)^{(p-1)m} one multiplication past the one before, is
    psi^{t/2} computed afresh (inverting first for t < 0)."""
    M = PsiModule.lubin_tate(p, N, lo, hi)
    per = 2 * p - 2
    assert M.degrees() == [t for t in range(lo, hi + 1) if t % per == 0]
    psi = psi_generator(p, N)
    for t in M.degrees():
        mat = M.matrix(t)
        assert mat.rows == mat.cols == 1
        assert mat.data[0][0] == (psi ** (t // 2)).residue


def test_psi_matrix_must_be_invertible():
    p, N = 3, 4
    with pytest.raises(ValueError):
        PsiModule({0: ModMatrix([[3]], p, N)}, p, N)


@pytest.mark.parametrize("p", [9, 1, -3])
def test_psi_module_needs_an_odd_prime(p):
    # caller-supplied matrices meet the same gate as a Lubin-Tate window:
    # at p = 9 no report, at p = 1 no "not invertible mod 1"
    with pytest.raises(ValueError) as exc:
        PsiModule({2: ModMatrix([[2]], p, 4)}, p, 4)
    assert str(exc.value) == f"p must be an odd prime, got {p}"


def test_psi_matrix_must_be_square():
    with pytest.raises(ValueError) as exc:
        PsiModule({2: ModMatrix([[1, 0]], 3, 4)}, 3, 4)
    assert str(exc.value) == "psi matrix in degree 2 is not square"


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


def test_invertibility_is_checked_once_per_degree(monkeypatch):
    # one Smith elimination mod p (precision 1) per caller-supplied degree,
    # even where two degrees share a residue matrix (degrees 0 and 2 here);
    # a Lubin-Tate window, every entry 1 mod p, runs none
    seen = []

    def counting(A):
        if A.precision == 1:
            seen.append(tuple(map(tuple, A.data)))
        return Smith(A)

    monkeypatch.setattr(grpcoh, "Smith", counting)
    for p in (3, 5, 7, 1000003):
        seen.clear()
        PsiModule.lubin_tate(p, 8, -200, 200)
        assert seen == []
    seen.clear()
    PsiModule({0: ModMatrix([[1, 1], [0, 1]], 3, 4),
               2: ModMatrix([[4, 1], [3, 7]], 3, 4),
               4: ModMatrix([[2, 0], [0, 2]], 3, 4)}, 3, 4)
    assert seen == [((1, 1), (0, 1)), ((1, 1), (0, 1)), ((2, 0), (0, 2))]


@pytest.mark.parametrize("p", [3, 5, 7, 1000003])
def test_lubin_tate_window_builds_one_modmatrix(p, monkeypatch):
    """A Lubin-Tate window stores rows, runs no invertibility check, and
    boundary_snf reads them without a ModMatrix: run, two_term_cohomology
    and abutment build none."""
    built = []
    empty, init = ModMatrix._empty.__func__, ModMatrix.__init__

    def counting_empty(cls, *args, **kwargs):
        m = empty(cls, *args, **kwargs)
        built.append((m.data, m.precision))
        return m

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append((self.data, self.precision))

    monkeypatch.setattr(ModMatrix, "_empty", classmethod(counting_empty))
    monkeypatch.setattr(ModMatrix, "__init__", counting_init)
    per = 2 * p - 2
    window = (per - 40, per + 40)
    for compute in (lambda: run(p, window, 8),
                    lambda: two_term_cohomology(
                        PsiModule.lubin_tate(p, 8, *window)),
                    lambda: abutment(p, window, 8)):
        built.clear()
        compute()
        assert built == []


@pytest.mark.parametrize("p,N", [(3, 8), (5, 6), (7, 4), (1000003, 3)])
def test_boundary_is_identity_minus_psi(p, N):
    """The one pass of boundary_snf writes id - psi itself, reduced, at
    ranks 1, 3 and 6 and in every degree of a Lubin-Tate window, in
    increasing degree."""
    M = PsiModule({4: psi_matrix(6, p, N), 0: psi_matrix(1, p, N),
                   2: psi_matrix(3, p, N)}, p, N)
    LT = PsiModule.lubin_tate(p, N, -30, 30)
    for mod in (M, LT):
        seen = []
        for t, bd, vals in grpcoh.boundary_snf(mod):
            seen.append(t)
            n = mod.rank(t)
            assert bd == (ModMatrix.identity(n, p, N) - mod.matrix(t)).data
            assert len(bd) == n and all(len(row) == n for row in bd)
            assert vals == Smith(ModMatrix(bd, p, N)).valuations
        assert seen == mod.degrees()
    assert [M.rank(t) for t in M.degrees()] == [1, 3, 6]


@pytest.mark.parametrize("p", [3, 5, 7, 11])
@pytest.mark.parametrize("N", [4, 8, 12])
def test_invariant_window_matches_the_unsplit_module(p, N):
    """The Lubin-Tate window on its mu_{p-1}-invariants against the whole
    module, psi^j on every even degree from psi_generator: the same
    (v, unit) at every held degree, v = 0 at every dropped one, and the
    same two-term cohomology."""
    per = 2 * p - 2
    psi = psi_generator(p, N)
    for lo, hi in [(-40, 40), (-per - 3, per + 1), (-per * p, 2 * per * p),
                   (-1, 0)]:
        full = PsiModule({t: ModMatrix([[(psi ** (t // 2)).residue]], p, N)
                          for t in range(lo + lo % 2, hi + 1, 2)}, p, N)
        split = PsiModule.lubin_tate(p, N, lo, hi)

        def reading(M):
            return {t: (v, bd[0][0] // p**v % p)
                    for t, bd, (v,) in grpcoh.boundary_snf(M)}

        held, every = reading(split), reading(full)
        assert held and set(held) <= set(every)
        assert held == {t: every[t] for t in held}
        assert all(every[t][0] == 0 for t in set(every) - set(held))
        assert (two_term_cohomology(split).entries
                == two_term_cohomology(full).entries)


def test_precision_below_one_is_refused():
    # the module asks N >= 1 right after the odd-prime gate, for a
    # Lubin-Tate window (so for every window engine) and for
    # caller-supplied matrices alike, before any invertibility check
    for call in (lambda: character_cohomology(0, 3, 0),
                 lambda: run(3, (0, 0), 0),
                 lambda: PsiModule.lubin_tate(5, -2, -8, 8),
                 lambda: PsiModule({0: ModMatrix([[1]], 3, 0)}, 3, 0),
                 lambda: PsiModule({}, 3, -1)):
        with pytest.raises(PrecisionError, match=r"^precision -?\d+ < 1$"):
            call()
    with pytest.raises(ValueError, match="p must be an odd prime, got 9"):
        PsiModule({}, 9, 0)


def test_two_term_degree_zero():
    # psi acts by 1, so the complex has zero differential
    p, N = 3, 5
    M = PsiModule.lubin_tate(p, N, 0, 0)
    rep = two_term_cohomology(M)
    h0, h1 = rep.h(0, 0), rep.h(1, 0)
    assert h0.exponents == [N] and h0.saturated_count() == 1
    assert h1.exponents == [N] and h1.saturated_count() == 1


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
    assert h0.exponents == [2] and h0.saturated_count() == 0


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


@pytest.mark.parametrize("p,N,lo,hi", [
    (3, 9, -13, 9), (3, 9, 0, 12), (5, 6, -20, -3), (5, 6, 4, 4),
    (7, 5, -1, 1), (1000003, 4, -30, 30)])
def test_character_window_steps_the_powers_of_psi(p, N, lo, hi):
    """Each row of the window, psi^k stepped from the one before, is the
    valuation of 1 - psi^k with psi^k raised afresh."""
    psi = psi_generator(p, N)
    rows = list(grpcoh.character_window(lo, hi, p, N))
    assert [k for k, _ in rows] == list(range(lo, hi + 1))
    for k, row in rows:
        v = (psi**0 - psi**k).valuation()
        assert row == ((1, 1, N) if k == 0 else (0, 0, v))


def test_trivial_character_needs_an_odd_prime():
    # k = 0 reads no power of psi, but the contract holds there too
    with pytest.raises(ValueError, match="p must be an odd prime"):
        character_cohomology(0, 9, 6)
    with pytest.raises(ValueError, match="p must be an odd prime"):
        list(grpcoh.character_window(0, 0, 15, 6))


@pytest.mark.parametrize("lo,hi,bad",
                         [(-18, 18, -18), (3, 20, 18), (0, 0, None)])
def test_character_window_names_the_first_failing_character(lo, hi, bad):
    # at p = 3, N = 4 a character k with 2 | k and v_3(k) >= 2 is refused
    rows = grpcoh.character_window(lo, hi, 3, 4)
    if bad is None:
        assert list(rows) == [(0, (1, 1, 4))]
        return
    with pytest.raises(PrecisionError,
                       match=f"need N > 4 to resolve the torsion of "
                             f"character {bad}$"):
        list(rows)


@pytest.mark.parametrize("k", [9, 243])
def test_character_without_torsion_needs_no_precision(k):
    # (p - 1) does not divide k, so 1 - psi^k is a unit at every N
    assert character_cohomology(k, 3, 4) == (0, 0, 0)
    assert list(grpcoh.character_window(k, k, 3, 4)) == \
        list(grpcoh.character_window(k, k, 3, 10)) == [(k, (0, 0, 0))]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_character_window_refuses_exactly_what_precision_needs(p):
    # windows inside |k| <= 60: refused iff some k has (p-1) | k and
    # N < 3 + v_p(k), and the refusal names the first such k
    rng = random.Random(p)
    for N in range(4, 9):
        windows = [(-60, 60)] + [tuple(sorted(rng.sample(range(-60, 61), 2)))
                                 for _ in range(20)]
        for lo, hi in windows:
            bad = [k for k in range(lo, hi + 1) if k and k % (p - 1) == 0
                   and N < 3 + int_valuation(k, p, 64)]
            rows = grpcoh.character_window(lo, hi, p, N)
            if not bad:
                assert [k for k, _ in rows] == list(range(lo, hi + 1))
                continue
            with pytest.raises(PrecisionError,
                               match=f"torsion of character {bad[0]}$"):
                list(rows)


def _needs(p, lo, hi, base):
    """(t, base + v_p(k)) for each t = (2p-2)k, k != 0, found by a scan of
    every even degree of [lo, hi], with its own valuation loop: the test's
    independent statement of the precision each degree needs."""
    per, out = 2 * p - 2, []
    for t in range(lo + lo % 2, hi + 1, 2):
        if t and t % per == 0:
            k, v = abs(t // per), 0
            while k % p == 0:
                k, v = k // p, v + 1
            out.append((t, base + v))
    return out


@pytest.mark.parametrize("p", [3, 5, 7])
def test_window_engines_refuse_exactly_what_the_needs_scan_finds(p,
                                                                 monkeypatch):
    """`run` (base 3) and `abutment` (base 2) at N = least - 1, least and
    least + 1, with least the largest need of the test's own `_needs` scan:
    refused exactly when some need passes N, naming the first such t, and
    otherwise reading v = 1 + v_p(k) = need - base + 1 at each degree; on
    odd, negative and inverted edges, windows holding only t = 0 and
    windows with no invariant degree.  `padic.vp` runs once per degree
    below the horizon (1 + v_p(k) < N) plus once at a refused degree, so
    the gate reads v_p(k) only there.  `run` still refuses the inverted
    windows and those with no even degree, and reads every other one at
    its even edges."""
    per = 2 * p - 2
    T = 2 * per * p * p
    windows = [(-T, T), (-T - 1, T + 3), (1 - T, -1), (-per - 1, per + 1),
               (-1, 1), (0, 0), (1, per - 1), (-per + 1, -1), (3, 3),
               (per, per), (-per, -per), (5, -5), (per, -per), (1, 0)]
    calls = []
    monkeypatch.setattr(grpcoh, "vp", lambda n, q: calls.append(n) or
                        int_valuation(n, q, 64))
    for base, engine, read in (
            (3, run, lambda res: {t: v for t, v, _, _ in res.records if t}),
            (2, abutment, lambda rep: {t: m.exponents[0] for (s, t), m
                                       in rep.entries.items() if s and t})):
        for lo, hi in windows:
            if engine is run and lo + lo % 2 > hi - hi % 2:
                continue
            needs = _needs(p, lo, hi, base)
            least = max([need for _, need in needs], default=base)
            for N in (least - 1, least, least + 1):
                calls.clear()
                bad = [(t, need) for t, need in needs if need > N]
                below = sum(1 + need - base < N for _, need in needs)
                if bad:
                    with pytest.raises(PrecisionError) as exc:
                        engine(p, (lo, hi), N)
                    t, need = bad[0]
                    assert str(exc.value) == \
                        f"degree t={t} needs N >= {need}, have {N}"
                    assert len(calls) == below + 1, (base, lo, hi, N)
                    continue
                got = read(engine(p, (lo, hi), N))
                assert got == {t: need - base + 1 for t, need in needs}, \
                    (base, lo, hi, N)
                assert len(calls) == below, (base, lo, hi, N)
    for lo, hi in windows:
        even = (lo + lo % 2, hi - hi % 2)
        if even[0] > even[1]:
            why = "empty degree" if lo > hi else "no even degree"
            with pytest.raises(WindowError, match=why):
                run(p, (lo, hi), 8)
        else:
            assert run(p, (lo, hi), 8).window == even


@pytest.mark.parametrize("p,N,t,window", [
    (3, 6, 12, (-40, 40)), (5, 5, 40, (-80, 80)), (7, 4, -12, (-60, 60))])
def test_a_misread_valuation_is_not_a_precision_failure(monkeypatch, p, N,
                                                         t, window):
    """`boundary_snf` patched to read v = N at degree t, where N covers
    every need of the window: `run` and `abutment` return the misread (a
    record with v = N, a shadow Z_p in H^0) and do not refuse it as a
    precision failure, since the gate asks v_p(k) before it refuses."""
    read = grpcoh.boundary_snf

    def misread(M):
        for u, bd, vals in read(M):
            yield u, bd, [M.precision] if u == t else vals

    monkeypatch.setattr(grpcoh, "boundary_snf", misread)
    monkeypatch.setattr(ssq, "boundary_snf", misread)
    assert {u: v for u, v, _, _ in run(p, window, N).records}[t] == N
    assert abutment(p, window, N).h(0, t).exponents == [N]


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
    for h in (rep.h(0, 0), rep.h(1, 0)):
        assert h.exponents == [h.precision]
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
            assert h1.exponents == [h1.precision]
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


def abutment_oracle(p, window, N=None):
    """The reading `abutment` replaced: the precision checked at every even
    degree of the window, `two_term_cohomology` of the Lubin-Tate window,
    and then H^0 kept only at exponent N.  It states the gate and the
    precision rule itself (t = (2p-2)k, k != 0, needs N >= 2 + v_p(k);
    N = None picks max(4, 3 + v_p(k))), so a wrong rule in the engine
    cannot agree with it."""
    if p < 3 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"p must be an odd prime, got {p}")
    t_min, t_max = window
    needs = _needs(p, t_min, t_max, 2)
    if N is None:
        N = max([4] + [need + 1 for _, need in needs])
    for t, need in needs:
        if N < need:
            raise PrecisionError(f"degree t={t} needs N >= {need}, have {N}")
    M = PsiModule.lubin_tate(p, N, t_min, t_max)
    entries = two_term_cohomology(M).entries
    for t in [t for s, t in entries if s == 0]:
        kept = [e for e in entries[(0, t)].exponents if e == N]
        if kept:
            entries[(0, t)] = FgModule(kept, p, N)
        else:
            del entries[(0, t)]
    return grpcoh.CohomologyReport(entries, p, N)


def _reading(call, *args):
    """The entries in order, the table and the precision of a report, or
    the refusal's type and message."""
    try:
        rep = call(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)
    return ([(key, m.exponents) for key, m in rep.entries.items()],
            rep.table_lines(), rep.precision)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_abutment_is_the_two_term_reading(p):
    # the acceptance window |t| <= 2(2p-2)p^2 and windows with odd or
    # unaligned edges, each at N = None, at the least N the oracle
    # accepts, one above it and one below it (a refusal)
    T = 2 * (2 * p - 2) * p * p
    for window in [(-T, T), (1, T - 1), (-T + 3, -1), (-7, 9), (2, 2),
                   (3, 3), (0, 0)]:
        least = next(N for N in range(1, 20) if not isinstance(
            _reading(abutment_oracle, p, window, N)[0], str))
        for N in (None, least - 1, least, least + 1):
            want = _reading(abutment_oracle, p, window, N)
            assert _reading(abutment, p, window, N) == want, (window, N)
        rep = abutment(p, window, least)
        modules = list(rep.entries.values())
        assert len({id(m) for m in modules}) == len(
            {tuple(m.exponents) for m in modules})


@pytest.mark.parametrize("p", [-1, 0, 1, 9])
@pytest.mark.parametrize("N", [None, 5])
def test_abutment_refuses_p_as_the_two_term_reading(p, N):
    want = _reading(abutment_oracle, p, (-40, 40), N)
    assert want == ("ValueError", f"p must be an odd prime, got {p}")
    assert _reading(abutment, p, (-40, 40), N) == want


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
    # only nonzero groups are stored, one module per distinct exponent list
    assert not any(m.is_zero() for m in rep.entries.values())
    assert len({id(m) for m in rep.entries.values()}) == len(
        {tuple(m.exponents) for m in rep.entries.values()})
    # saturated, torsion and mixed cases all came up
    assert (0, 0) in shapes and (1, 0) in shapes
    if N > 1:
        assert any(s and t for s, t in shapes)
        assert any(t >= 2 for _, t in shapes)
