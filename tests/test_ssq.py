"""Filtration-by-p spectral sequence: pages, differentials, convergence.

The closed form is the oracle: in internal degree t = 2(p-1)k with k != 0
the single differential is d_v(b^j v1^k) = zeta b^{j+v} v1^k with
v = 1 + v_p(k), for every j with j + v < N.  The engine must rediscover
this from one Smith normal form per degree.  The generic subquotient
engine `FilteredComplexSS` is a second, independent oracle.
"""

import pytest

from imj.gmod import ModMatrix
from imj.grpcoh import PsiModule, abutment
from imj.padic import PrecisionError, int_valuation
from imj.ssq import (ChartClass, DifferentialRecord, FilteredComplexSS,
                     RunResult, abutment_check, complete_convergence_probe,
                     e2_page, run)


def names(classes):
    return {cl.name for cl in classes}


def test_e2_page_window_example():
    got = e2_page(3, (0, 0), 2)
    assert names(got) == {"1", "b", "b^2", "zeta", "zeta b"}


def test_e2_page_dead_degree():
    assert e2_page(3, (2, 2), 4) == set()


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


def test_differential_record_invariants():
    out = run(3, (0, 12), 5)
    for rec in out.differentials:
        assert rec.target.t == rec.source.t
        assert rec.target.f == rec.source.f + rec.r
        assert rec.target.c == rec.source.c + 1
        assert 0 < rec.coefficient < 3
        # zeta-linearity: nothing with a zeta factor supports a differential
        assert rec.source.c == 0


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
    labels = sorted(out.pages)
    for r in labels[:-1]:
        cur = {}
        for cl in out.pages[r]:
            cur[(cl.t, cl.f, cl.c)] = cur.get((cl.t, cl.f, cl.c), 0) + 1
        m = r - 1  # differential label acting on this page
        for rec in out.differentials:
            if rec.r == m:
                cur[(rec.source.t, rec.source.f, rec.source.c)] -= 1
                cur[(rec.target.t, rec.target.f, rec.target.c)] -= 1
        nxt = {}
        for cl in out.pages[r + 1]:
            nxt[(cl.t, cl.f, cl.c)] = nxt.get((cl.t, cl.f, cl.c), 0) + 1
        assert {k: v for k, v in cur.items() if v} == nxt


def test_first_page_matches_associated_graded_homology():
    out = run(3, (0, 12), 5)
    first = min(out.pages)
    assert first == 2
    engine = {(cl.name, cl.t, cl.f, cl.c)
              for cl in out.pages[2] if cl.s <= 3}
    direct = {(cl.name, cl.t, cl.f, cl.c)
              for cl in e2_page(3, (0, 12), 3)}
    assert engine == direct


def test_precision_horizon_artifacts():
    p, N = 3, 4
    out = run(p, (12, 12), N)  # v = 2, so f >= N - v = 2 is unresolvable
    assert names(out.artifacts) == {"b^2 v1^3", "b^3 v1^3"}
    assert names(out.e_infinity) == {"zeta v1^3", "zeta b v1^3"}
    # artifacts still sit on the final page, honestly reported
    assert names(out.pages[max(out.pages)]) >= names(out.artifacts)


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
    assert rep.ok
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


def test_convergence_probe_on_finite_run():
    out = run(3, (0, 4), 4)
    stable, lim1 = complete_convergence_probe(out, (1, 4))
    assert lim1 is False
    assert names(stable) == {"zeta v1"}
    stable0, lim1_0 = complete_convergence_probe(out, (0, 4))
    assert lim1_0 is False


def test_precision_guard():
    # k = 3 needs N >= 2 + (1 + 1)
    with pytest.raises(PrecisionError):
        run(3, (0, 12), 3)
    run(3, (0, 12), 4)


def test_run_unpacks_as_triple():
    pages, diffs, einf = run(3, (0, 4), 4)
    assert 2 in pages
    assert all(rec.r >= 1 for rec in diffs)
    assert names(einf)


def test_json_document_shape():
    out = run(3, (0, 4), 4)
    doc = out.to_json_dict()
    assert list(doc) == ["prime", "precision", "window", "pages",
                         "differentials", "e_infinity"]
    page0 = doc["pages"][0]
    assert list(page0) == ["r", "classes"]
    assert list(page0["classes"][0]) == ["name", "t", "f", "c"]
    d0 = doc["differentials"][0]
    assert list(d0) == ["r", "source", "target"]
    assert isinstance(d0["source"], str)


def oracle_run(p, window, N):
    """Reference for `run`: the same window guard, then pages,
    differentials and artifacts from the generic page pieces of
    FilteredComplexSS."""
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
    live = {t: any(ss.dim(1, t, f, c) for f in range(N) for c in (0, 1))
            for t in ts}
    pages, records = {}, []
    for m in range(1, vmax + 2):
        classes = []
        for t in ts:
            if not live[t]:
                continue
            k = t // per
            for f in range(N):
                for c in (0, 1):
                    d = ss.dim(m, t, f, c)
                    assert d <= 1
                    if d:
                        classes.append(ChartClass.monomial(p, k, f, c))
            for f, _i, _j, coeff in ss.induced(m, t):
                records.append(DifferentialRecord(
                    m, ChartClass.monomial(p, k, f, 0),
                    ChartClass.monomial(p, k, f + m, 1), coeff))
        pages[m + 1] = classes
    final = pages[max(pages)]
    artifacts = [cl for cl in final if cl.c == 0 and cl.t != 0
                 and cl.f >= N - ss.boundary(cl.t).entry_valuation(0, 0)]
    e_inf = [cl for cl in final if cl not in set(artifacts)]
    return RunResult(p, N, (ts[0], ts[-1]), pages, records, e_inf, artifacts)


def _outcome(engine, p, window, N):
    """Everything a run shows, in order, or the text of its PrecisionError."""
    def row(cl):
        return (cl.name, cl.t, cl.f, cl.c)
    try:
        out = engine(p, window, N)
    except PrecisionError as exc:
        return f"PrecisionError: {exc}"
    return ([(r, [row(cl) for cl in out.pages[r]]) for r in out.pages],
            [(rec.r, row(rec.source), row(rec.target), rec.coefficient)
             for rec in out.differentials],
            [row(cl) for cl in out.e_infinity],
            [row(cl) for cl in out.artifacts],
            out.window)


def _oracle_windows(p, N):
    per = 2 * p - 2
    return [(0, 0),                          # the t = 0 column alone
            (per * p, per * p),              # k = p, so v_p(k) = 1
            (-per, per),                     # straddles 0: k = -1, 0, 1
            (per * p**(N - 2),) * 2]         # needs N + 1: PrecisionError


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("N", [4, 5, 6, 8, 10])
def test_run_matches_subquotient_oracle(p, N):
    for window in _oracle_windows(p, N):
        assert (_outcome(run, p, window, N)
                == _outcome(oracle_run, p, window, N)), (p, N, window)
    assert _outcome(run, p, _oracle_windows(p, N)[-1], N).startswith(
        "PrecisionError")


def test_run_refuses_a_wider_degree(monkeypatch):
    def rank_two(p, N, t_min, t_max):
        mat = ModMatrix([[1 + p, 0], [0, 1]], p, N)
        return PsiModule({0: mat}, p, N)

    monkeypatch.setattr(PsiModule, "lubin_tate", staticmethod(rank_two))
    with pytest.raises(RuntimeError, match="rank 2"):
        run(3, (0, 0), 4)


def test_convergence_probe_refuses_growing_pages():
    zeta = ChartClass.monomial(3, 1, 0, 1)
    grown = RunResult(3, 4, (4, 4), {2: [], 3: [zeta]}, [], [zeta], [])
    with pytest.raises(RuntimeError, match="pages grew"):
        complete_convergence_probe(grown, (1, 4))
