"""Spectral sequence of the two-term complex filtered by powers of p.

Engine.  The filtration F^j = p^j M is stable under every automorphism
of M, so the Smith normal form U*bd*V = diag(p^v) of the boundary
bd = 1 - psi is an isomorphism of filtered complexes, and in each degree
the spectral sequence splits into pieces Z/p^N --p^v--> Z/p^N.  `run`
takes one SNF per degree through `grpcoh.boundary_snf`, the reading of
the complex that `two_term_cohomology` also uses, and reads every page
from v alone.  On internal page m (label r = m + 1):

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
differentials in (r, t, f) order.

Oracle.  `FilteredComplexSS` computes the same pages from the generic
filtered-complex subquotients

    E_m^{f,0} = (F^f n bd^{-1}F^{f+m}) / (F^{f+1} n bd^{-1}F^{f+m})
    E_m^{f,1} = F^f / (F^{f+1} + F^f n bd(F^{max(0,f-m+1)}))

with exact subgroup arithmetic over Z/p^N.  No production code calls it;
the tests compare `run` against it.  It stays importable from `imj.ssq`
because the benchmark tracer (perfbench/tracing.py) looks up its
`piece` and `induced` methods by name when it installs.

Page labels follow the indexing in which the homology of the associated
graded is called E_2, so the label r page carries the subquotients of
internal index m = r - 1, and a differential labeled d_r shifts
filtration by exactly r.

Truncation honesty: mod p^N the filtration dies at level N, so in a degree
whose boundary has valuation v the classes of filtration f >= N - v can
never be seen to die.  They are kept on the pages (that is what the
formula yields) but reported in `artifacts`, and excluded from E_infinity
and the abutment comparison.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

from .gmod import (FgModule, ModMatrix, QuotPres, quotient_presentation,
                   sub_intersect, sub_preimage)
from .grpcoh import CohomologyReport, PsiModule, boundary_snf
from .padic import PrecisionError, int_valuation, smallest_primitive_root


class WindowError(ValueError):
    """A requested window is empty or cuts a differential in half."""


def monomial_name(k: int, j: int, eps: int) -> str:
    parts = []
    if eps:
        parts.append("zeta")
    if j == 1:
        parts.append("b")
    elif j:
        parts.append(f"b^{j}")
    if k == 1:
        parts.append("v1")
    elif k:
        parts.append(f"v1^{k}")
    return " ".join(parts) if parts else "1"


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

    def sort_key(self):
        return (self.t, self.f, self.c)

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


def json_class_rows(classes, indent: str) -> list[str]:
    """Each class as the JSON object {"name", "t", "f", "c"} that
    `json.dumps(..., indent=2)` writes at the depth of `indent`, a string
    of spaces, with the name escaped as json.dumps escapes it."""
    inner = indent + "  "
    return [f'{indent}{{\n{inner}"name": {_quote(cl.name)},\n'
            f'{inner}"t": {cl.t},\n{inner}"f": {cl.f},\n'
            f'{inner}"c": {cl.c}\n{indent}}}' for cl in classes]


def json_list(rows: list[str], indent: str) -> str:
    """JSON rows (each already indented) as the array json.dumps(...,
    indent=2) writes, its closing bracket at the depth of `indent`."""
    if not rows:
        return "[]"
    return "[\n" + ",\n".join(rows) + "\n" + indent + "]"


def e2_page(p: int, window: tuple[int, int], fmax: int) -> set[ChartClass]:
    """Named basis of the homology of the associated graded, computed from
    the mod-p boundary on each graded line.

    The graded boundary in internal degree 2m multiplies by 1 - sigma^m
    with sigma the Teichmueller unit, so it is computed mod p as
    1 - g^m for a primitive root g.  fmax bounds the chart height s = f+c.
    """
    t_min, t_max = window
    g = smallest_primitive_root(p)
    out: set[ChartClass] = set()
    start = t_min + (t_min % 2)
    for t in range(start, t_max + 1, 2):
        m = t // 2
        if (1 - pow(g, m, p)) % p != 0:
            continue  # graded boundary is a unit: nothing survives
        k = m // (p - 1)
        for c in (0, 1):
            for f in range(0, fmax - c + 1):
                out.add(ChartClass.monomial(p, k, f, c))
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
    derive the pages from it, and `json_text` writes them.  Order
    contract: `classes`, every `page(r)`, `e_infinity` and `artifacts`
    are in (t, f, c) order and `differentials` in (r, t, f) order, so
    consumers print them as they are."""

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

    def json_text(self) -> str:
        """The run as a JSON document with two-space indentation and no
        final newline, keys in this order: prime, precision, window (the
        degrees [lo, hi]), pages (each {"r", "classes"} for r = 2 ..
        last_page), differentials (each {"r", "source", "target"} by
        name) and e_infinity; a class is {"name", "t", "f", "c"}.

        These are the bytes json.dumps(..., indent=2) writes for that
        document, but each class row is formatted once, and a page joins
        the rows of the classes still alive on it."""
        rows = json_class_rows((cl for cl, _ in self.classes), " " * 8)
        lasts = [last for _, last in self.classes]
        pages = []
        for r in range(2, self.last_page + 1):
            alive = [row for row, last in zip(rows, lasts)
                     if last is None or r <= last]
            pages.append(f'    {{\n      "r": {r},\n      "classes": '
                         f'{json_list(alive, " " * 6)}\n    }}')
        diffs = [f'    {{\n      "r": {rec.r},\n'
                 f'      "source": {_quote(rec.source.name)},\n'
                 f'      "target": {_quote(rec.target.name)}\n    }}'
                 for rec in self.differentials]
        e_inf = json_class_rows(self.e_infinity, " " * 4)
        lo, hi = self.window
        return (f'{{\n  "prime": {self.prime},\n'
                f'  "precision": {self.precision},\n'
                f'  "window": [\n    {lo},\n    {hi}\n  ],\n'
                f'  "pages": {json_list(pages, "  ")},\n'
                f'  "differentials": {json_list(diffs, "  ")},\n'
                f'  "e_infinity": {json_list(e_inf, "  ")}\n}}')


def run(p: int, window: tuple[int, int], N: int) -> RunResult:
    """Run the spectral sequence for Z_p[u^{+-1}] over an internal-degree
    window at precision N, from one SNF of bd = 1 - psi per degree (see
    the module docstring for how lifetimes and differentials follow
    from v).

    Requires N >= 2 + (1 + v_p(k)) for every k = t/(2p-2) in the window,
    so each differential closes strictly below the precision horizon."""
    t_min, t_max = window
    if t_min > t_max:
        raise WindowError("empty degree window")
    start = t_min + (t_min % 2)
    ts = list(range(start, t_max + 1, 2))
    if not ts:
        raise WindowError("window contains no even degree")
    per = 2 * p - 2
    for t in ts:
        if t % per == 0 and t != 0:
            # p^bits(t) > |t|, so the valuation of k = |t|/(2p-2) is exact
            vk = 1 + int_valuation(abs(t) // per, p, abs(t).bit_length())
            if N < 2 + vk:
                raise PrecisionError(
                    f"degree t={t} needs N >= {2 + vk}, have {N}")
    module = PsiModule.lubin_tate(p, N, ts[0], ts[-1])
    classes: list[tuple[ChartClass, int | None]] = []
    by_r: dict[int, list[DifferentialRecord]] = {}
    e_inf: list[ChartClass] = []
    artifacts: list[ChartClass] = []
    for t in ts:
        if module.rank(t) != 1:
            raise RuntimeError(f"degree t={t} has rank {module.rank(t)}; "
                               f"run handles rank-1 degrees only")
        bd, (v,) = boundary_snf(module, t)
        if v == 0:
            continue  # bd is a unit: nothing reaches page 2
        k = t // per
        zero = [ChartClass.monomial(p, k, f, 0) for f in range(N)]
        one = [ChartClass.monomial(p, k, f, 1) for f in range(N)]
        for f in range(N):
            for cl, forever in ((zero[f], f >= N - v), (one[f], f < v)):
                classes.append((cl, None if forever else v + 1))
                if forever:
                    (artifacts if cl.c == 0 and t else e_inf).append(cl)
        unit = bd.data[0][0] // p**v % p
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

