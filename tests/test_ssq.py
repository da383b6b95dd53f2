"""Filtration-by-p spectral sequence: pages, differentials, convergence.

The closed form is the oracle: in internal degree t = 2(p-1)k with k != 0
the single differential is d_v(b^j v1^k) = zeta b^{j+v} v1^k with
v = 1 + v_p(k), for every j with j + v < N.  The engine must rediscover
this from one Smith normal form per degree.  The generic subquotient
engine `FilteredComplexSS` is a second, independent oracle.
"""

import re

import pytest

from imj.gmod import ModMatrix
from imj.gmod import FgModule
from imj.grpcoh import CohomologyReport, PsiModule, abutment
from imj.padic import PrecisionError, int_valuation
from imj.ssq import (AbutmentReport, ChartClass, FilteredComplexSS,
                     WindowError, abutment_check, e2_page, run)
from render_oracle import run_json_oracle


def names(classes):
    return {cl.name for cl in classes}


def test_e2_page_window_example():
    got = e2_page(3, (0, 0), 2)
    assert names(got) == {"1", "b", "b^2", "zeta", "zeta b"}


def test_e2_page_dead_degree():
    assert e2_page(3, (2, 2), 4) == []


def test_e2_page_below_height_zero_is_empty():
    assert e2_page(3, (0, 0), -1) == []


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("fmax", [0, 3, 5])
def test_e2_page_is_run_page_2(p, fmax):
    """e2 lists page 2 of the spectral sequence that run computes, cut at
    chart height fmax: the same classes, names and (t, f, c) order, over
    k = -2 .. p, where k = p needs N >= 4."""
    per = 2 * p - 2
    window, N = (-2 * per, p * per + 1), 6
    want = [cl for cl in run(p, window, N).page(2) if cl.s <= fmax]
    assert e2_page(p, window, fmax) == want


def test_e2_page_needs_an_odd_prime():
    with pytest.raises(ValueError, match="p must be an odd prime"):
        e2_page(9, (0, 40), 4)


def test_e2_page_p5_stem8():
    got = e2_page(5, (8, 8), 0)
    assert names(got) == {"v1"}


def test_e2_tridegrees_and_chart_coords():
    got = {cl.name: cl for cl in e2_page(3, (0, 4), 3)}
    b = got["b"]
    assert (b.t, b.f, b.c) == (0, 1, 0)
    assert (b.stem, b.s) == (0, 1)
    z = got["zeta"]
    assert (z.t, z.f, z.c) == (0, 0, 1)
    assert (z.stem, z.s) == (-1, 1)
    zbv = got["zeta b v1"]
    assert (zbv.t, zbv.f, zbv.c) == (4, 1, 1)
    assert (zbv.stem, zbv.s) == (3, 2)


def test_run_differential_examples():
    out = run(3, (0, 12), 5)
    recs = {(r.r, r.source.name, r.target.name) for r in out.differentials}
    assert (1, "v1", "zeta b v1") in recs
    assert (2, "v1^3", "zeta b^2 v1^3") in recs
    assert (1, "v1^2", "zeta b v1^2") in recs
    # no premature differential on v1^3
    assert not any(r.r == 1 and r.source.name == "v1^3"
                   for r in out.differentials)


def test_differential_set_matches_closed_form():
    N = 6
    for p in (3, 5):
        w = 2 * (p - 1) * 6
        out = run(p, (-w, w), N)
        got = {(r.r, r.source.name, r.target.name) for r in out.differentials}
        expected = set()
        for k in range(-6, 7):
            if k == 0:
                continue
            v = 1 + int_valuation(abs(k), p, N)
            for j in range(N - v):
                src = ChartClass.monomial(p, k, j, 0)
                tgt = ChartClass.monomial(p, k, j + v, 1)
                expected.add((v, src.name, tgt.name))
        assert got == expected, f"p={p}"


def closed_form_unit(m, p):
    """(1 + v_p(m), m / p^(v_p(m)) mod p) for m != 0, in integer arithmetic
    alone: 1 - (1+p)^((p-1)m) = -(p-1)mp(1 + pO(1)) and -(p-1) = 1 mod p."""
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return 1 + v, m % p


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_differential_units_have_the_closed_form(p):
    # in degree t = 2(p-1)m != 0 the unit of d_{1+v_p(m)} is
    # m / p^(v_p(m)) mod p: every record and every differential, |m| <= 2p^2
    per, N = 2 * p - 2, 5
    out = run(p, (-2 * p * p * per, 2 * p * p * per), N)
    expected = {per * m: closed_form_unit(m, p)
                for m in range(-2 * p * p, 2 * p * p + 1) if m}
    assert {t: (v, unit) for t, v, unit, _ in out.records if t} == expected
    diffs = out.differentials
    assert {d.source.t for d in diffs} == set(expected)
    for d in diffs:
        assert (d.r, d.coefficient) == expected[d.source.t], (p, d)


def test_differential_record_invariants():
    out = run(3, (0, 12), 5)
    for rec in out.differentials:
        assert rec.target.t == rec.source.t
        assert rec.target.f == rec.source.f + rec.r
        assert rec.target.c == rec.source.c + 1
        assert 0 < rec.coefficient < 3
        # zeta-linearity: nothing with a zeta factor supports a differential
        assert rec.source.c == 0
    with pytest.raises(AttributeError):
        rec.coefficient = 1


def test_b_linearity_contiguous_translates():
    N = 5
    out = run(3, (0, 12), N)
    by_deg = {}
    for rec in out.differentials:
        by_deg.setdefault((rec.r, rec.source.t), set()).add(rec.source.f)
    for (r, t), fs in by_deg.items():
        assert fs == set(range(N - r)), (r, t)


def test_leibniz_pth_power():
    # v1^(pk) supports nothing up to the page that kills v1^k
    p, N = 3, 6
    out = run(p, (0, 2 * (p - 1) * p**2), N)
    for rec in out.differentials:
        k = rec.source.t // (2 * p - 2)
        if k and k % p == 0:
            assert rec.r > 1 + int_valuation(abs(k) // p, p, N)


def test_page_recursion_counts():
    # E_{r+1} is the homology of (E_r, d_r), counted per tridegree
    out = run(3, (0, 12), 5)
    for r in range(2, out.last_page):
        cur = {}
        for cl in out.page(r):
            cur[(cl.t, cl.f, cl.c)] = cur.get((cl.t, cl.f, cl.c), 0) + 1
        m = r - 1  # differential label acting on this page
        for rec in out.differentials:
            if rec.r == m:
                cur[(rec.source.t, rec.source.f, rec.source.c)] -= 1
                cur[(rec.target.t, rec.target.f, rec.target.c)] -= 1
        nxt = {}
        for cl in out.page(r + 1):
            nxt[(cl.t, cl.f, cl.c)] = nxt.get((cl.t, cl.f, cl.c), 0) + 1
        assert {k: v for k, v in cur.items() if v} == nxt


def test_first_page_matches_associated_graded_homology():
    out = run(3, (0, 12), 5)
    engine = {(cl.name, cl.t, cl.f, cl.c)
              for cl in out.page(2) if cl.s <= 3}
    direct = {(cl.name, cl.t, cl.f, cl.c)
              for cl in e2_page(3, (0, 12), 3)}
    assert engine == direct


def test_precision_horizon_artifacts():
    p, N = 3, 4
    out = run(p, (12, 12), N)  # v = 2, so f >= N - v = 2 is unresolvable
    assert names(out.artifacts) == {"b^2 v1^3", "b^3 v1^3"}
    assert names(out.e_infinity) == {"zeta v1^3", "zeta b v1^3"}
    # artifacts still sit on the final page, honestly reported
    assert names(out.page(out.last_page)) >= names(out.artifacts)


def test_einfinity_t_zero_column():
    p, N = 3, 4
    out = run(p, (0, 0), N)
    expect = {"1", "b", "b^2", "b^3", "zeta", "zeta b", "zeta b^2",
              "zeta b^3"}
    assert names(out.e_infinity) == expect
    assert out.artifacts == []


def test_abutment_check_p3():
    p, N = 3, 5
    out = run(p, (0, 12), N)
    rep = abutment_check(out, abutment(p, (0, 12), N))
    # ok is a constant, not a field: no report can be built failing
    assert rep.ok is True
    with pytest.raises(TypeError):
        AbutmentReport({}, False)
    assert rep.entries[(1, 12)]["count"] == 2
    assert rep.entries[(1, 12)]["resolved"] == "Z/3^2"
    assert rep.entries[(1, 4)]["resolved"] == "Z/3"
    assert rep.entries[(0, 0)]["resolved"] == "Z_3"
    assert rep.entries[(1, 0)]["resolved"] == "Z_3"
    assert (1, 2) not in rep.entries


def test_abutment_check_p5_t40():
    p, N = 5, 4
    out = run(p, (40, 40), N)
    rep = abutment_check(out, abutment(p, (40, 40), N))
    assert rep.entries[(1, 40)]["count"] == 2
    assert rep.entries[(1, 40)]["resolved"] == "Z/5^2"


@pytest.mark.parametrize("p, N", [(3, 6), (5, 5)])
def test_abutment_check_lines_come_in_t_then_s_order(p, N):
    window = (-24, 24)
    lines = abutment_check(run(p, window, N),
                           abutment(p, window, N)).lines()
    keys = [tuple(map(int, re.match(r"\(s=(-?\d+), t=(-?\d+)\)",
                                    line).groups())) for line in lines]
    assert any(t < 0 for _, t in keys)
    assert keys == sorted(keys, key=lambda st: (st[1], st[0]))


def test_abutment_check_refuses_a_different_precision():
    with pytest.raises(ValueError, match="different precision"):
        abutment_check(run(3, (0, 12), 5), abutment(3, (0, 12), 6))


def test_abutment_check_refuses_a_count_mismatch():
    # a hand-built report with Z/3 where the run leaves two classes
    p, N = 3, 5
    entries = dict(abutment(p, (0, 12), N).entries)
    entries[(1, 12)] = FgModule([1], p, N)
    with pytest.raises(RuntimeError,
                       match=r"^abutment mismatch at \(s=1, t=12\): 2 "
                             r"surviving classes vs order exponent 1$"):
        abutment_check(run(p, (0, 12), N), CohomologyReport(entries, p, N))


@pytest.mark.parametrize("window, message", [
    ((5, 4), "empty degree window"), ((12, 0), "empty degree window"),
    ((5, 5), "window contains no even degree"),
    ((-3, -3), "window contains no even degree")])
def test_run_refuses_a_window_without_even_degrees(window, message):
    with pytest.raises(WindowError, match=f"^{message}$"):
        run(3, window, 5)


def test_precision_guard():
    # k = 3 needs N >= 2 + (1 + 1)
    with pytest.raises(PrecisionError):
        run(3, (0, 12), 3)
    run(3, (0, 12), 4)


@pytest.mark.parametrize("p,window,N", [
    (3, (0, 0), 4), (3, (-40, 40), 6), (5, (0, 200), 5), (7, (2, 10), 4)])
def test_pages_past_the_last_are_stable(p, window, N):
    out = run(p, window, N)
    last = out.page(out.last_page)
    for r in range(out.last_page + 1, out.last_page + 4):
        assert out.page(r) == last
    if out.last_page > 2:
        assert out.page(out.last_page - 1) != last


@pytest.mark.parametrize("r", [1, 0, -1])
def test_pages_below_two_raise_keyerror(r):
    with pytest.raises(KeyError):
        run(3, (0, 12), 5).page(r)


def test_json_document_shape():
    out = run(3, (0, 4), 4)
    doc = run_json_oracle(out)
    assert list(doc) == ["prime", "precision", "window", "pages",
                         "differentials", "e_infinity"]
    page0 = doc["pages"][0]
    assert list(page0) == ["r", "classes"]
    assert list(page0["classes"][0]) == ["name", "t", "f", "c"]
    d0 = doc["differentials"][0]
    assert list(d0) == ["r", "source", "target"]
    assert isinstance(d0["source"], str)


def _row(cl):
    return (cl.name, cl.t, cl.f, cl.c)


def _rows(classes):
    return [_row(cl) for cl in classes]


def _dim(ss, m, t, f, c):
    pres = ss.piece(m, t, f, c)
    return 0 if pres is None else len(pres.exponents)


def oracle_run(p, window, N):
    """Reference for `run`: the same window guard, then what a run shows
    (see `_shown`), built page by page from the generic page pieces of
    FilteredComplexSS, classes in (t, f, c) and differentials in
    (r, t, f) order."""
    t_min, t_max = window
    start = t_min + (t_min % 2)
    ts = list(range(start, t_max + 1, 2))
    per = 2 * p - 2
    vmax = 0
    for t in ts:
        if t % per == 0 and t != 0:
            vk = 1 + int_valuation(abs(t) // per, p, N)
            if N < 2 + vk:
                raise PrecisionError(
                    f"degree t={t} needs N >= {2 + vk}, have {N}")
            vmax = max(vmax, vk)
    ss = FilteredComplexSS(PsiModule.lubin_tate(p, N, ts[0], ts[-1]))
    live = {t: any(_dim(ss, 1, t, f, c) for f in range(N) for c in (0, 1))
            for t in ts}
    pages, records = [], []
    for m in range(1, vmax + 2):
        classes = []
        for t in ts:
            if not live[t]:
                continue
            k = t // per
            for f in range(N):
                for c in (0, 1):
                    d = _dim(ss, m, t, f, c)
                    assert d <= 1
                    if d:
                        classes.append(ChartClass.monomial(p, k, f, c))
            for f, _i, _j, coeff in ss.induced(m, t):
                records.append((m, _row(ChartClass.monomial(p, k, f, 0)),
                                _row(ChartClass.monomial(p, k, f + m, 1)),
                                coeff))
        pages.append((m + 1, _rows(classes)))
    artifacts = [cl for cl in classes if cl.c == 0 and cl.t != 0 and cl.f >=
                 N - int_valuation(ss.boundary(cl.t).data[0][0], p, N)]
    e_inf = [cl for cl in classes if cl not in set(artifacts)]
    return pages, records, _rows(e_inf), _rows(artifacts), (ts[0], ts[-1])


def _shown(p, window, N):
    """Everything a run shows, in its order: pages, differentials with
    coefficients, E_infinity, artifacts and the window."""
    out = run(p, window, N)
    return ([(r, _rows(out.page(r))) for r in range(2, out.last_page + 1)],
            [(rec.r, _row(rec.source), _row(rec.target), rec.coefficient)
             for rec in out.differentials],
            _rows(out.e_infinity), _rows(out.artifacts), out.window)


def _outcome(engine, p, window, N):
    """`engine(p, window, N)`, or the text of its PrecisionError."""
    try:
        return engine(p, window, N)
    except PrecisionError as exc:
        return f"PrecisionError: {exc}"


def _oracle_windows(p, N):
    per = 2 * p - 2
    return [(0, 0),                          # the t = 0 column alone
            (per * p, per * p),              # k = p, so v_p(k) = 1
            (-per, per),                     # straddles 0: k = -1, 0, 1
            (per, per * (p + 1)),            # k = 1..p+1: v = 1, 2, 1
            (per * p**(N - 2),) * 2]         # needs N + 1: PrecisionError


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("N", [4, 5, 6, 8, 10])
def test_run_matches_subquotient_oracle(p, N):
    for window in _oracle_windows(p, N):
        assert (_outcome(_shown, p, window, N)
                == _outcome(oracle_run, p, window, N)), (p, N, window)
    assert _outcome(_shown, p, _oracle_windows(p, N)[-1], N).startswith(
        "PrecisionError")


def test_run_refuses_a_wider_degree(monkeypatch):
    def rank_two(p, N, t_min, t_max):
        mat = ModMatrix([[1 + p, 0], [0, 1]], p, N)
        return PsiModule({0: mat}, p, N)

    monkeypatch.setattr(PsiModule, "lubin_tate", staticmethod(rank_two))
    with pytest.raises(RuntimeError, match="rank 2"):
        run(3, (0, 0), 4)


def monomial_name(k, j, eps):
    return ChartClass.monomial(3, k, j, eps).name


def test_monomial_name_rule():
    assert [monomial_name(k, j, eps) for k, j, eps in [
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 2, 1), (1, 0, 0), (-1, 0, 1),
        (3, 1, 0), (-2, 5, 1)]] == [
        "1", "zeta", "b", "zeta b^2", "v1", "zeta v1^-1", "b v1^3",
        "zeta b^5 v1^-2"]


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("N", [4, 8, 64])
def test_run_names_follow_monomial_name(p, N):
    """Every class and differential end of a run's views is named as
    monomial_name names it, over t = 0, negative t and k = +-1; the CLI
    writers, which name from the records, are held to these views by
    test_cli.py::test_writers_are_the_per_class_oracles."""
    per = 2 * p - 2
    for window in [(-2 * per, 2 * per), (0, 0), (-per, -2), (1, per)]:
        res = run(p, window, N)
        ks = set()
        for cl in [cl for cl, _ in res.classes] + [
                end for rec in res.differentials
                for end in (rec.source, rec.target)]:
            assert cl.t % per == 0
            assert cl.name == monomial_name(cl.t // per, cl.f, cl.c)
            ks.add(cl.t // per)
        assert ks == {k for k in range(-2, 3)
                      if window[0] <= k * per <= window[1]}
        assert res.classes


def test_run_rejects_composite_p():
    with pytest.raises(ValueError, match="odd prime, got 9"):
        run(9, (0, 40), 6)



@pytest.mark.parametrize("p", [3, 5, 7])
def test_filtration_d_r_is_the_adams_d_r_plus_1(p):
    # a differential labeled d_r raises s = f + c by r + 1 and lowers the
    # stem by 1, so it is the Adams d_{r+1}; it is printed as d_r
    per = 2 * p - 2
    out = run(p, (-20 * per, 20 * per), 6)
    assert {rec.r for rec in out.differentials} >= {1, 2}
    for rec in out.differentials:
        assert rec.target.s - rec.source.s == rec.r + 1
        assert rec.target.stem == rec.source.stem - 1
