"""Spectral sequence of the two-term complex filtered by powers of p.

Engine.  The filtration F^j = p^j M is stable under every automorphism
of M, so the Smith normal form U*bd*V = diag(p^v) of the boundary
bd = 1 - psi is an isomorphism of filtered complexes, and in each degree
the spectral sequence splits into pieces Z/p^N --p^v--> Z/p^N.  `run`
iterates `grpcoh.boundary_snf`, the one reader of a Lubin-Tate degree,
takes one SNF per degree from it, and reads every page from v alone.
On internal page m (label r = m + 1):

    (f, 0) survives  iff  m <= v  or  f >= N - v
    (f, 1) survives  iff  f < v   or  m <= v
    d_m : (f, 0) -> (f + m, 1)  fires iff  v = m  and  f + m < N

with coefficient (bd / p^v) mod p.  Nothing about the closed-form answer
enters the engine: v comes out of the SNF.  `run` covers rank-1 degrees
(the Lubin-Tate module) and raises RuntimeError on a wider one.

So a class lives on the pages r = 2 .. v + 1, or forever when f >= N - v
(c = 0) or f < v (c = 1) (`last_page_of`), and a degree with v = 0 has
nothing on page 2.  A run keeps one record (t, v, unit, tail) per live
degree (`degree_records`, the one reader of k = t/(2p-2)): the unit
(bd / p^v) mod p and the tail v1^k of each class name there.  The views
of `RunResult` and `e2_page` (the records at precision 1) name each class
on each access from its record's t and tail, joined to a head zeta^c b^f
(`ChartClass.at`); `imj.cli` writes straight from the records.

Oracle.  `FilteredComplexSS` computes the same pages from the generic
filtered-complex subquotients

    E_m^{f,0} = (F^f n bd^{-1}F^{f+m}) / (F^{f+1} n bd^{-1}F^{f+m})
    E_m^{f,1} = F^f / (F^{f+1} + F^f n bd(F^{max(0,f-m+1)}))

with exact subgroup arithmetic over Z/p^N.  No production code calls it;
the tests compare `run` against it.  It stays importable from `imj.ssq`
because the benchmark tracer (perfbench/tracing.py) looks up its
`piece` and `induced` methods by name when it installs.

Page labels are Adams labels: the homology of the associated graded is
E_2, and the label r page carries the subquotients of internal index
m = r - 1.  A differential's label d_r is its filtration shift: it raises
s = f + c by r + 1 and lowers the stem by 1, so it is the Adams d_{r+1}.

Truncation honesty: mod p^N the filtration dies at level N, so in a degree
whose boundary has valuation v the classes of filtration f >= N - v can
never be seen to die.  They are kept on the pages (that is what the
formula yields) but reported in `artifacts`, and excluded from E_infinity
and the abutment comparison; `kept` states this rule for `RunResult` and
the `imj.cli` writers.
"""

from __future__ import annotations

from typing import NamedTuple

from .gmod import (FgModule, ModMatrix, QuotPres, quotient_presentation,
                   sub_intersect, sub_preimage)
from .grpcoh import CohomologyReport, PsiModule, boundary_snf, past_horizon
from .padic import PrecisionError


class WindowError(ValueError):
    """A requested window is empty or cuts a differential in half."""


def monomial_head(j: int, eps: int) -> str:
    """The zeta^eps b^j part of a monomial's name, "" when both are 0."""
    zeta = "zeta" if eps else ""
    b = "" if j == 0 else "b" if j == 1 else f"b^{j}"
    return f"{zeta} {b}" if zeta and b else zeta or b


def monomial_tail(k: int) -> str:
    """The v1^k part of a monomial's name, "" at k = 0."""
    return "" if k == 0 else "v1" if k == 1 else f"v1^{k}"


def join_name(head: str, tail: str) -> str:
    """A monomial's name from its head and tail; "1" when both are empty."""
    return f"{head} {tail}" if head and tail else head or tail or "1"


class ChartClass(NamedTuple):
    """A named monomial class zeta^eps b^j v1^k with tridegree (t, f, c).

    t is the internal degree 2(p-1)k, f the p-power filtration (the b
    exponent; zeta lives in filtration 0), c the cohomological spot.
    Chart coordinates: vertical s = f + c, horizontal stem = t - c.
    `at` builds a class from t and its name's tail; `monomial` wraps it.
    """

    name: str
    t: int
    f: int
    c: int

    @classmethod
    def at(cls, t: int, tail: str, f: int, c: int) -> "ChartClass":
        return cls(join_name(monomial_head(f, c), tail), t, f, c)

    @classmethod
    def monomial(cls, p: int, k: int, j: int, eps: int) -> "ChartClass":
        return cls.at(2 * (p - 1) * k, monomial_tail(k), j, eps)

    @property
    def s(self) -> int:
        return self.f + self.c

    @property
    def stem(self) -> int:
        return self.t - self.c


class DifferentialRecord(NamedTuple):
    """d_r(source) = coefficient * target, coefficient a unit mod p, target
    at tridegree (0, r, 1) from source (`RunResult.differentials`)."""

    r: int
    source: ChartClass
    target: ChartClass
    coefficient: int

    def __repr__(self) -> str:
        return (f"d_{self.r}({self.source.name}) = "
                f"{self.coefficient}*{self.target.name}")


def last_page_of(N: int, v: int, f: int, c: int) -> int | None:
    """The label of the last page (t, f, c) lives on at v; None: forever."""
    return None if (f < v if c else f >= N - v) else v + 1


def kept(N: int, v: int, zero: bool = True) -> list[tuple[int, int]]:
    """The (f, c), in (f, c) order, that live forever at valuation v; c = 0
    only if zero.  zero = (t == 0) gives E_infinity; the rest, `artifacts`."""
    return [(f, c) for f in range(N) for c in (0, 1)
            if last_page_of(N, v, f, c) is None and (c or zero)]


def degree_records(p: int, window: tuple[int, int], N: int) -> list:
    """The record (t, v, unit, tail) of each degree t of the Lubin-Tate
    window at precision N, in increasing t; rank 1 only.  Each degree it
    holds, (2p-2)k, has bd = 0 mod p, so v > 0: it is live on page 2."""
    per, out = 2 * p - 2, []
    for t, bd, vals in boundary_snf(PsiModule.lubin_tate(p, N, *window)):
        if len(vals) != 1:
            raise RuntimeError(f"degree t={t} has rank {len(vals)}; "
                               f"page 2 is built for rank-1 degrees only")
        v = vals[0]
        out.append((t, v, bd[0][0] // p**v % p, monomial_tail(t // per)))
    return out


def e2_page(p: int, window: tuple[int, int], fmax: int) -> list[ChartClass]:
    """`run`'s page 2 up to chart height s = f+c <= fmax in (t, f, c)
    order, the homology of the associated graded: its boundary 1 - psi^j
    is 0 mod p exactly in the window's degrees (2p-2)k, so its live
    degrees are the records at precision 1.  p must be an odd prime.
    """
    return [ChartClass.at(t, tail, f, c)
            for t, _, _, tail in degree_records(p, window, 1)
            for f in range(fmax + 1) for c in (0, 1) if f + c <= fmax]


class FilteredComplexSS:
    """Page subquotients of the filtered two-term complex of a PsiModule.

    The independent oracle for `run`, from generic subgroup arithmetic.
    Pieces are cached by (m, t, f, c) with m the internal page index
    (m = 1 is the homology of the associated graded)."""

    __slots__ = ("module", "prime", "precision", "_pres", "_bd")

    def __init__(self, module: PsiModule):
        self.module = module
        self.prime = module.prime
        self.precision = module.precision
        self._pres: dict[tuple[int, int, int, int], QuotPres] = {}
        self._bd: dict[int, ModMatrix] = {}

    def boundary(self, t: int) -> ModMatrix:
        if t not in self._bd:
            mat = self.module.matrix(t)
            self._bd[t] = ModMatrix.identity(mat.rows, self.prime,
                                             self.precision) - mat
        return self._bd[t]

    def filtration(self, t: int, j: int) -> ModMatrix:
        n = self.module.rank(t)
        scale = self.prime ** min(max(j, 0), self.precision)
        return ModMatrix.identity(n, self.prime,
                                  self.precision).scale_int(scale)

    def piece(self, m: int, t: int, f: int, c: int) -> QuotPres | None:
        if self.module.rank(t) == 0:
            return None
        key = (m, t, f, c)
        if key in self._pres:
            return self._pres[key]
        bd = self.boundary(t)
        if c == 0:
            reach = sub_preimage(bd, self.filtration(t, f + m))
            num = sub_intersect(self.filtration(t, f), reach)
            den = sub_intersect(self.filtration(t, f + 1), reach)
        else:
            num = self.filtration(t, f)
            hit = bd * self.filtration(t, max(0, f - m + 1))
            den = self.filtration(t, f + 1).hstack(sub_intersect(num, hit))
        pres = quotient_presentation(num, den)
        if any(e != 1 for e in pres.exponents):
            raise RuntimeError(f"page piece {key} is not p-torsion")
        self._pres[key] = pres
        return pres

    def induced(self, m: int, t: int) -> list[tuple[int, int, int, int]]:
        """Nonzero entries of d_m in degree t: (f, src_idx, tgt_idx, coeff)."""
        p = self.prime
        bd = self.boundary(t)
        out = []
        for f in range(self.precision):
            src = self.piece(m, t, f, 0)
            if src is None or not src.exponents:
                continue
            tgt = self.piece(m, t, f + m, 1)
            if tgt is None or not tgt.exponents:
                continue
            for i in range(len(src.exponents)):
                x = src.generator(i)
                y = bd * ModMatrix([[v] for v in x], p, self.precision)
                coords = tgt.express(y.column(0))
                if coords is None:
                    raise RuntimeError(f"d_{m} in degree t={t} left the "
                                       f"target piece at f={f + m}")
                for jdx, coeff in enumerate(coords):
                    if coeff % p:
                        out.append((f, i, jdx, coeff % p))
        return out


class RunResult(NamedTuple):
    """One spectral sequence run: one record (t, v, unit, tail) per live
    degree in increasing t, and views built from them on each access.
    `classes` lists every class of page 2 once with the label of the last
    page it lives on (None: forever); `page(r)` and `last_page`, the label
    of the stable page, derive the pages from it.  `classes`, `page(r)`,
    `e_infinity` and `artifacts` are in (t, f, c) order and
    `differentials` in (r, t, f) order."""

    prime: int
    precision: int
    window: tuple[int, int]
    records: list[tuple[int, int, int, str]]

    @property
    def last_page(self) -> int:
        return 2 + max((v for _, v, _, _ in self.records
                        if v < self.precision), default=0)

    @property
    def classes(self) -> list[tuple[ChartClass, int | None]]:
        N = self.precision
        return [(ChartClass.at(t, tail, f, c), last_page_of(N, v, f, c))
                for t, v, _, tail in self.records
                for f in range(N) for c in (0, 1)]

    def page(self, r: int) -> list[ChartClass]:
        """Classes on page r; pages past `last_page` equal it."""
        if r < 2:
            raise KeyError(r)
        return [cl for cl, last in self.classes if last is None or r <= last]

    @property
    def differentials(self) -> list[DifferentialRecord]:
        N, at = self.precision, ChartClass.at
        return [DifferentialRecord(v, at(t, tail, f, 0),
                                   at(t, tail, f + v, 1), unit)
                for t, v, unit, tail in sorted(self.records,
                                               key=lambda r: r[1])
                for f in range(N - v)]

    @property
    def e_infinity(self) -> list[ChartClass]:
        return [ChartClass.at(t, tail, f, c) for t, v, _, tail in self.records
                for f, c in kept(self.precision, v, t == 0)]

    @property
    def artifacts(self) -> list[ChartClass]:
        return [ChartClass.at(t, tail, f, 0) for t, v, _, tail in self.records
                if t for f, c in kept(self.precision, v) if not c]


def run(p: int, window: tuple[int, int], N: int) -> RunResult:
    """Run the spectral sequence for Z_p[u^{+-1}] over an internal-degree
    window at precision N, from one SNF of bd = 1 - psi per degree, read
    in one pass by `boundary_snf` into one record per live degree.

    Requires N >= 2 + (1 + v_p(k)) for every k = t/(2p-2) in the window,
    so each differential closes strictly below the precision horizon;
    `past_horizon` of its records (base 3) refuses the first t past it."""
    t_min, t_max = window
    if t_min > t_max:
        raise WindowError("empty degree window")
    window = (t_min + t_min % 2, t_max - t_max % 2)
    if window[0] > window[1]:
        raise WindowError("window contains no even degree")
    records = degree_records(p, window, N)
    if hit := past_horizon(p, N, (r[:2] for r in records), 3):
        raise PrecisionError(f"degree t={hit[0]} needs N >= {hit[1]}, "
                             f"have {N}")
    return RunResult(p, N, window, records)


class AbutmentReport(NamedTuple):
    """Per-bidegree comparison of E_infinity against the direct cohomology:
    entries maps (s, t), in (t, s) order, to its class count and group."""

    entries: dict
    ok = True  # not a field: abutment_check raises at the first mismatch

    def lines(self) -> list[str]:
        return [f"(s={s}, t={t}): {e['count']} classes -> {e['resolved']}"
                for (s, t), e in self.entries.items()]


def abutment_check(run_output: RunResult,
                   coh: CohomologyReport) -> AbutmentReport:
    """Check that surviving classes assemble, along b-multiplication, to the
    directly computed H^{s,t}: n surviving classes in a column resolve the
    extension to Z/p^n.  A mismatch is an engine bug and raises."""
    if run_output.precision != coh.precision:
        raise ValueError("run and abutment computed at different precision")
    p, N = run_output.prime, run_output.precision
    counts: dict[tuple[int, int], int] = {}
    for cl in run_output.e_infinity:
        counts[(cl.c, cl.t)] = counts.get((cl.c, cl.t), 0) + 1
    keys = set(counts)
    lo, hi = run_output.window
    keys.update((s, t) for s, t in coh.entries if lo <= t <= hi)
    entries = {}
    for s, t in sorted(keys, key=lambda st: (st[1], st[0])):
        n_ss = counts.get((s, t), 0)
        n_coh = coh.h(s, t).order_exponent()
        if n_ss != n_coh:
            raise RuntimeError(
                f"abutment mismatch at (s={s}, t={t}): {n_ss} surviving "
                f"classes vs order exponent {n_coh}")
        resolved = FgModule([n_ss], p, N).describe() if n_ss else "0"
        entries[(s, t)] = {"count": n_ss, "resolved": resolved}
    return AbutmentReport(entries)

