"""Continuous cohomology of Z_p^x with graded psi-module coefficients.

The group is topologically generated by psi = omega(g)(1+p), so continuous
cohomology collapses to the two-term complex M --(id - psi)--> M per
internal degree, concentrated in s = 0, 1.  A `PsiModule` stores each
degree as rows of residues; `boundary_snf` makes one pass over them in
increasing degree, writing id - psi and the valuations of its Smith
normal form.  In a rank-1 degree (every Lubin-Tate degree) that form is
the valuation of 1 - psi^j, read with no `ModMatrix`; only a wider
degree runs `gmod.Smith`.  The generic `gmod.homology` serves only the
tests, as the oracle for this reading.  Since Z_p^x = mu_{p-1} x
(1 + pZ_p) with p - 1 a unit, Hochschild-Serre gives H^*(Z_p^x; E_*) =
H^*(1 + pZ_p; E_*^{mu_{p-1}}): the invariants are the degrees
t = (2p-2)m, where psi^{(p-1)m} = (1+p)^{(p-1)m}, and in any other degree
1 - psi^j is a unit.  So a `PsiModule.lubin_tate` window holds the
invariant degrees alone, and its pass through `boundary_snf` is the one
reader of v_p(1 - psi^j).  `two_term_cohomology` reads it into groups,
`abutment` through it; `character_window` and `ssq.degree_records` read
its valuations directly.  Each of these window engines refuses from that
same pass the first degree whose precision need passes N (`past_horizon`).
"""

from __future__ import annotations

from typing import NamedTuple

from .gmod import FgModule, ModMatrix, Smith
from .padic import PrecisionError, require_odd_prime, vp


class PsiModule:
    """Graded module with an action of psi: one square matrix per degree,
    stored as rows of residues mod p^N; `matrix(t)` copies them into a
    `ModMatrix` for a caller that wants one.

    Matrices must be invertible mod p (psi is a group element): every pivot
    of their Smith form at precision 1 is a unit, checked per degree.  The
    first steps are `require_odd_prime`, N >= 1."""

    __slots__ = ("prime", "precision", "_rows")

    def __init__(self, matrices: dict[int, ModMatrix], prime: int,
                 precision: int):
        require_odd_prime(prime)
        if precision < 1:
            raise PrecisionError(f"precision {precision} < 1")
        self.prime = prime
        self.precision = precision
        self._rows = {}
        for t, mat in matrices.items():
            if mat.rows != mat.cols:
                raise ValueError(f"psi matrix in degree {t} is not square")
            self._rows[t] = mat.data
            if any(Smith(ModMatrix(mat.data, prime, 1)).valuations):
                raise ValueError(f"psi matrix in degree {t} is not "
                                 f"invertible mod {prime}")

    @classmethod
    def lubin_tate(cls, p: int, N: int, t_min: int, t_max: int) -> "PsiModule":
        """The mu_{p-1}-invariants of Z_p[u^{+-1}] over a degree window
        (module docstring): in degree t = (2p-2)m the row [(1+p)^{(p-1)m}
        mod p^N], one product from the last; 1 mod p, so none is checked."""
        module = cls({}, p, N)
        per, pN = 2 * p - 2, p**N
        lo, step = -(-t_min // per), pow(1 + p, p - 1, pN)
        power = pow(step, lo, pN)
        for m in range(lo, t_max // per + 1):
            module._rows[per * m] = [[power]]
            power = power * step % pN
        return module

    def degrees(self) -> list[int]:
        return sorted(self._rows)

    def matrix(self, t: int) -> ModMatrix:
        return ModMatrix(self._rows[t], self.prime, self.precision)

    def rank(self, t: int) -> int:
        return len(self._rows.get(t, ()))


class CohomologyReport(NamedTuple):
    """H^{s,t} per bidegree, s in {0, 1}: `entries` holds the nonzero
    groups in (t, s) order, as built, and `h` the zero module elsewhere."""

    entries: dict[tuple[int, int], FgModule]
    prime: int
    precision: int

    def h(self, s: int, t: int) -> FgModule:
        got = self.entries.get((s, t))
        return FgModule([], self.prime, self.precision) if got is None else got

    def described(self) -> list[tuple[int, int, str]]:
        """(s, t, text) of each entry, each distinct module (one shared by
        several bidegrees) described once."""
        text = {id(m): m for m in self.entries.values()}
        text = {key: m.describe() for key, m in text.items()}
        return [(s, t, text[id(m)]) for (s, t), m in self.entries.items()]

    def table_lines(self) -> list[str]:
        return [f"H^({s},{t}) = {group}" for s, t, group in self.described()]


def boundary_snf(M: PsiModule):
    """Yield (t, bd, v) for every degree t of M, in increasing t: bd, as
    rows of residues, is id - psi in degree t, and v lists the diagonal
    valuations v_j of its Smith normal form U*bd*V = diag(p^v_j), with
    v_j = N for a zero entry.

    In rank 1, bd = [[x]] is its own Smith form up to the unit of x, so
    the one valuation is v_p(x), read without an elimination or a
    `ModMatrix`; a wider degree builds bd as one `ModMatrix`, which
    reduces it, and runs `Smith` on it."""
    p, N = M.prime, M.precision
    pN = p**N
    for t in M.degrees():
        rows = M._rows[t]
        if len(rows) == 1:
            x = (1 - rows[0][0]) % pN
            yield t, [[x]], [vp(x, p) if x else N]
            continue
        bd = ModMatrix([[(i == j) - x for j, x in enumerate(row)]
                        for i, row in enumerate(rows)], p, N)
        yield t, bd.data, Smith(bd).valuations


def two_term_cohomology(M: PsiModule) -> CohomologyReport:
    """H^0 = ker(id - psi), H^1 = coker(id - psi), degree by degree.

    U and V are invertible, so (U, V^-1) is an isomorphism from the
    complex M --bd--> M to M --D--> M with D = diag(p^v_j).  For square
    D, ker D and coker D are both the sum of Z/p^{v_j} over v_j > 0, so
    H^0 and H^1 have the same invariant factors: each distinct exponent
    list is one module, which every bidegree with that group shares.
    Degrees with no positive v_j are left out; the rest go in (t, s) order."""
    p, N = M.prime, M.precision
    modules, entries = {}, {}
    for t, _, vals in boundary_snf(M):
        exps = tuple(v for v in vals if v > 0)
        if exps:
            if exps not in modules:
                modules[exps] = FgModule(exps, p, N)
            entries[(0, t)] = entries[(1, t)] = modules[exps]
    return CohomologyReport(entries, p, N)


def character_cohomology(k: int, p: int, N: int) -> tuple[int, int, int]:
    """Rational ranks and integral torsion valuation for the character
    psi -> psi^k.

    Returns (h0_rank, h1_rank, v) with v = valuation of 1 - psi^k; only
    k = 0 carries rational cohomology.  Requires p an odd prime, also at
    k = 0, and N >= 3 + v_p(k) when (p-1) | k, so the torsion exponent is
    resolved below the precision ceiling; at any other k, 1 - psi^k is a
    unit.  A loop over characters uses `character_window` (one window)."""
    return next(character_window(k, k, p, N))[1]


def character_window(lo: int, hi: int, p: int, N: int):
    """Yield (k, character_cohomology(k, p, N)) for k = lo, ..., hi from
    `boundary_snf` of Lubin-Tate degree t = 2k: (1, 1, N) when v = N, else
    (0, 0, v), with v = 0 at a k the window does not hold.  Before the first
    row, `past_horizon` reads that pass at base 3, so only a k with
    (p-1) | k is refused, naming the first."""
    M = PsiModule.lubin_tate(p, N, 2 * lo, 2 * hi)
    held = {t: v for t, _, (v,) in boundary_snf(M)}
    if hit := past_horizon(p, N, held.items(), 3):
        raise PrecisionError(f"need N > {hit[1] - 1} to resolve the "
                             f"torsion of character {hit[0] // 2}")
    for k in range(lo, hi + 1):
        v = held.get(2 * k, 0)
        yield k, (1, 1, N) if v == N else (0, 0, v)


def past_horizon(p: int, N: int, pairs, base: int):
    """The first (t, need) of a pass's pairs (t, v), in increasing t, with
    t != 0 and need = base + v_p(m) > N, m = t/(2p - 2), or None; base is
    the caller's margin.  A Lubin-Tate degree has v = min(N, 1 + v_p(m)),
    so need passes N only where v > N - base + 1, and v_p is read only
    there: a misread v alone is never taken for a precision failure."""
    for t, v in pairs:
        if t and v > N - base + 1:
            if (need := base + vp(t // (2 * p - 2), p)) > N:
                return t, need


def abutment(p: int, window: tuple[int, int],
             N: int | None = None) -> CohomologyReport:
    """H^{s,t}(Z_p^x, Z_p[u^{+-1}]) over an even-degree window.

    A new report from `two_term_cohomology` of the Lubin-Tate window, with
    H^0 kept only where it is Z_p (exponent N): the window has rank 1, so
    any other H^0 is a truncation shadow of 0.  The table is Z_p at (0,0)
    and (1,0), Z/p^{1+v_p(k)} at (1, 2(p-1)k), zero (not stored) elsewhere.

    Requires N >= 2 + v_p(k) for every k = t/(2p-2) != 0 in the window:
    at 1 + v_p(k) >= N the factor reaches the ceiling and reads as a
    shadow Z_p, so `past_horizon` of the report's H^1 at base 2 raises
    PrecisionError at the first such t.  N = None picks max(4, 3 + v_p(k))."""
    if N is None:
        require_odd_prime(p)
        ks = range(-(-window[0] // (2 * p - 2)), window[1] // (2 * p - 2) + 1)
        N = max([4] + [3 + vp(k, p) for k in ks if k])
    report = two_term_cohomology(PsiModule.lubin_tate(p, N, *window))
    h1 = ((t, m.exponents[0]) for (s, t), m in report.entries.items() if s)
    if hit := past_horizon(p, N, h1, 2):
        raise PrecisionError(f"degree t={hit[0]} needs N >= {hit[1]}, "
                             f"have {N}")
    return CohomologyReport({key: m for key, m in report.entries.items()
                             if key[0] or m.exponents == [N]}, p, N)
