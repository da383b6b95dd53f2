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
(c = 0) or f < v (c = 1), and a degree with v = 0 has nothing on page 2.
`run` stores each class once with that last page label, and `RunResult`
derives every page from it.  Classes come in (t, f, c) order and
differentials in (r, t, f) order.  `_page2_degrees` builds every live
degree's page-2 classes for `run` (precision N) and `e2_page` (precision
1), each named by the rule of `monomial_name`: a table of heads zeta^c b^f
(`monomial_head`), formatted once, joined with the degree's tail v1^k
(`monomial_tail`).

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
and the abutment comparison.
"""

from __future__ import annotations

from .gmod import (FgModule, ModMatrix, QuotPres, quotient_presentation,
                   sub_intersect, sub_preimage)
from .grpcoh import (CohomologyReport, PsiModule, boundary_snf,
                     require_precision)


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


def monomial_name(k: int, j: int, eps: int) -> str:
    return join_name(monomial_head(j, eps), monomial_tail(k))


class ChartClass:
    """A named monomial class zeta^eps b^j v1^k with tridegree (t, f, c).

    t is the internal degree 2(p-1)k, f the p-power filtration (the b
    exponent; zeta lives in filtration 0), c the cohomological spot.
    Chart coordinates: vertical s = f + c, horizontal stem = t - c.
    """

    __slots__ = ("name", "t", "f", "c")

    def __init__(self, name: str, t: int, f: int, c: int):
        self.name = name
        self.t = t
        self.f = f
        self.c = c

    @classmethod
    def monomial(cls, p: int, k: int, j: int, eps: int) -> "ChartClass":
        return cls(monomial_name(k, j, eps), 2 * (p - 1) * k, j, eps)

    @property
    def s(self) -> int:
        return self.f + self.c

    @property
    def stem(self) -> int:
        return self.t - self.c

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ChartClass)
                and (self.name, self.t, self.f, self.c)
                == (other.name, other.t, other.f, other.c))

    def __hash__(self):
        return hash((self.name, self.t, self.f, self.c))

    def __repr__(self) -> str:
        return f"ChartClass({self.name!r}, t={self.t}, f={self.f}, c={self.c})"


class DifferentialRecord:
    """d_r(source) = coefficient * target, coefficient a unit mod p."""

    __slots__ = ("r", "source", "target", "coefficient")

    def __init__(self, r: int, source: ChartClass, target: ChartClass,
                 coefficient: int):
        if (target.t, target.f, target.c) != (source.t, source.f + r,
                                              source.c + 1):
            raise ValueError("differential record violates tridegree (0,r,1)")
        self.r = r
        self.source = source
        self.target = target
        self.coefficient = coefficient

    def __repr__(self) -> str:
        return (f"d_{self.r}({self.source.name}) = "
                f"{self.coefficient}*{self.target.name}")


def _page2_degrees(module: PsiModule, height: int):
    """Yield (t, v, bd, zero, one) for each degree t of a Lubin-Tate
    module with v > 0, in increasing t, as `boundary_snf` reads it:
    zero[f] and one[f] are the page-2 classes at (t, f, 0) and (t, f, 1),
    f < height, named by joining the degree's tail v1^k onto heads
    zeta^c b^f formatted once.  Raises RuntimeError at rank other than 1."""
    per = 2 * module.prime - 2
    heads = [[monomial_head(f, c) for f in range(height)] for c in (0, 1)]
    for t, bd, vals in boundary_snf(module):
        if len(vals) != 1:
            raise RuntimeError(f"degree t={t} has rank {len(vals)}; "
                               f"page 2 is built for rank-1 degrees only")
        v = vals[0]
        if v == 0:
            continue  # bd is a unit: nothing reaches page 2
        tail = monomial_tail(t // per)
        zero = [ChartClass(join_name(head, tail), t, f, 0)
                for f, head in enumerate(heads[0])]
        one = [ChartClass(join_name(head, tail), t, f, 1)
               for f, head in enumerate(heads[1])]
        yield t, v, bd, zero, one


def e2_page(p: int, window: tuple[int, int], fmax: int) -> list[ChartClass]:
    """`run`'s page 2 up to chart height s = f+c <= fmax, as a list in
    (t, f, c) order: the named basis of the homology of the associated
    graded.

    The graded boundary in internal degree 2m multiplies by 1 - sigma^m
    with sigma the Teichmueller unit, psi mod p, so it is `boundary_snf`
    of the Lubin-Tate module at precision 1, and a degree survives when
    its valuation is positive.  p must be an odd prime.
    """
    module = PsiModule.lubin_tate(p, 1, *window)
    if fmax < 0:
        return []  # no chart height to fill
    out: list[ChartClass] = []
    for _, _, _, zero, one in _page2_degrees(module, fmax + 1):
        for f in range(fmax):
            out += zero[f], one[f]
        out.append(zero[fmax])
    return out


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

    def dim(self, m: int, t: int, f: int, c: int) -> int:
        pres = self.piece(m, t, f, c)
        return 0 if pres is None else len(pres.exponents)

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


class RunResult:
    """One spectral sequence run, each class stored once.

    `classes` lists every class of page 2 once, as a pair (class, label
    of the last page it lives on), the label None for a class that lives
    forever.  `page(r)` and `last_page`, the label of the stable page,
    derive the pages from it.  Order contract: `classes`, every
    `page(r)`, `e_infinity` and `artifacts` are in (t, f, c) order and
    `differentials` in (r, t, f) order, so consumers print them as they
    are."""

    __slots__ = ("prime", "precision", "window", "classes", "last_page",
                 "differentials", "e_infinity", "artifacts")

    def __init__(self, prime, precision, window, classes, differentials,
                 e_infinity, artifacts):
        self.prime = prime
        self.precision = precision
        self.window = window
        self.classes = classes
        self.last_page = 1 + max(
            (last for _, last in classes if last is not None), default=1)
        self.differentials = differentials
        self.e_infinity = e_infinity
        self.artifacts = artifacts

    def page(self, r: int) -> list[ChartClass]:
        """Classes on page r; pages past `last_page` equal it."""
        if r < 2:
            raise KeyError(r)
        return [cl for cl, last in self.classes if last is None or r <= last]


def run(p: int, window: tuple[int, int], N: int) -> RunResult:
    """Run the spectral sequence for Z_p[u^{+-1}] over an internal-degree
    window at precision N, from one SNF of bd = 1 - psi per degree, read
    in one pass by `boundary_snf` (see the module docstring for how
    lifetimes and differentials follow from v).  Each live degree's
    classes come from `_page2_degrees` at height N.

    Requires N >= 2 + (1 + v_p(k)) for every k = t/(2p-2) in the window,
    so each differential closes strictly below the precision horizon."""
    t_min, t_max = window
    if t_min > t_max:
        raise WindowError("empty degree window")
    start = t_min + (t_min % 2)
    ts = list(range(start, t_max + 1, 2))
    if not ts:
        raise WindowError("window contains no even degree")
    require_precision(p, ts, N, 3)
    module = PsiModule.lubin_tate(p, N, ts[0], ts[-1])
    classes: list[tuple[ChartClass, int | None]] = []
    by_r: dict[int, list[DifferentialRecord]] = {}
    e_inf: list[ChartClass] = []
    artifacts: list[ChartClass] = []
    for t, v, bd, zero, one in _page2_degrees(module, N):
        for f in range(N):
            for cl, forever in ((zero[f], f >= N - v), (one[f], f < v)):
                classes.append((cl, None if forever else v + 1))
                if forever:
                    (artifacts if cl.c == 0 and t else e_inf).append(cl)
        unit = bd[0][0] // p**v % p
        by_r.setdefault(v, []).extend(
            DifferentialRecord(v, zero[f], one[f + v], unit)
            for f in range(N - v))
    records = [rec for r in sorted(by_r) for rec in by_r[r]]
    return RunResult(p, N, (ts[0], ts[-1]), classes, records, e_inf,
                     artifacts)


class AbutmentReport:
    """Per-bidegree comparison of E_infinity against the direct cohomology."""

    __slots__ = ("entries", "ok")

    def __init__(self, entries: dict):
        self.entries = entries
        self.ok = all(e["match"] for e in entries.values())

    def lines(self) -> list[str]:
        out = []
        for (s, t), e in sorted(self.entries.items(), key=lambda kv: (kv[0][1],
                                                                      kv[0][0])):
            out.append(f"(s={s}, t={t}): {e['count']} classes -> "
                       f"{e['resolved']}")
        return out


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
        entries[(s, t)] = {"count": n_ss, "order_exponent": n_coh,
                           "resolved": resolved, "match": True}
    return AbutmentReport(entries)

