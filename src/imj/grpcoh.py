"""Continuous cohomology of Z_p^x with graded psi-module coefficients.

The group is topologically generated by psi = omega(g)(1+p), so continuous
cohomology collapses to the two-term complex M --(id - psi)--> M per
internal degree, concentrated in s = 0, 1.  `boundary_snf` reads that
complex from one Smith normal form per degree; `two_term_cohomology` and
`ssq.run` both go through it.  The generic `gmod.homology` serves only
the tests, as the oracle for this reading.
"""

from __future__ import annotations

from .gmod import FgModule, ModMatrix, Smith
from .padic import PadicInt, PrecisionError, int_valuation, psi_generator


class PsiModule:
    """Graded module with an action of psi: one square matrix per degree.

    Matrices must be invertible mod p (psi is a group element): every
    pivot of the Smith form mod p, precision 1, is a unit.  That depends
    only on the residues mod p, so it is decided once per distinct
    residue matrix: a Lubin-Tate window, whose scalars psi^j mod p
    repeat with period dividing p - 1, takes at most p - 1 eliminations
    however many degrees it has."""

    __slots__ = ("prime", "precision", "_matrices")

    def __init__(self, matrices: dict[int, ModMatrix], prime: int,
                 precision: int):
        self.prime = prime
        self.precision = precision
        self._matrices = dict(matrices)
        invertible = set()  # residue matrices mod p already checked
        for t, mat in self._matrices.items():
            if mat.rows != mat.cols:
                raise ValueError(f"psi matrix in degree {t} is not square")
            key = tuple(tuple(x % prime for x in row) for row in mat.data)
            if key in invertible:
                continue
            if any(Smith(ModMatrix(mat.data, prime, 1)).valuations):
                raise ValueError(
                    f"psi matrix in degree {t} is not invertible mod {prime}")
            invertible.add(key)

    @classmethod
    def lubin_tate(cls, p: int, N: int, t_min: int, t_max: int) -> "PsiModule":
        """Z_p[u^{+-1}] over a degree window: rank 1 in each even degree 2j,
        psi acting on u^j by the scalar psi^j, each power one
        multiplication mod p^N past the one before."""
        psi = psi_generator(p, N)
        pN = p**N
        mats = {}
        start = t_min + (t_min % 2)
        scalar = (psi**(start // 2)).residue
        for t in range(start, t_max + 1, 2):
            mats[t] = ModMatrix([[scalar]], p, N)
            scalar = scalar * psi.residue % pN
        return cls(mats, p, N)

    def degrees(self) -> list[int]:
        return sorted(self._matrices)

    def matrix(self, t: int) -> ModMatrix:
        return self._matrices[t]

    def rank(self, t: int) -> int:
        mat = self._matrices.get(t)
        return mat.rows if mat is not None else 0


class CohomologyReport:
    """H^{s,t} per bidegree, s in {0, 1}: `entries` holds the nonzero
    groups, and `h` gives the zero module at every other bidegree."""

    __slots__ = ("prime", "precision", "entries")

    def __init__(self, entries: dict[tuple[int, int], FgModule], prime: int,
                 precision: int):
        self.entries = dict(entries)
        self.prime = prime
        self.precision = precision

    def h(self, s: int, t: int) -> FgModule:
        got = self.entries.get((s, t))
        if got is None:
            return FgModule([], self.prime, self.precision)
        return got

    def nonzero(self) -> list[tuple[int, int, FgModule]]:
        return sorted(((s, t, m) for (s, t), m in self.entries.items()),
                      key=lambda row: (row[1], row[0]))

    def table_lines(self) -> list[str]:
        lines = []
        for s, t, m in self.nonzero():
            lines.append(f"H^({s},{t}) = {m.describe()}")
        return lines


def boundary_snf(M: PsiModule, t: int) -> tuple[ModMatrix, list[int]]:
    """bd = id - psi in degree t and the diagonal valuations v_j of its
    Smith normal form U*bd*V = diag(p^v_j); v_j = N for a zero entry."""
    mat = M.matrix(t)
    bd = ModMatrix.identity(mat.rows, M.prime, M.precision) - mat
    return bd, Smith(bd).valuations


def two_term_cohomology(M: PsiModule) -> CohomologyReport:
    """H^0 = ker(id - psi), H^1 = coker(id - psi), degree by degree.

    U and V are invertible, so (U, V^-1) is an isomorphism from the
    complex M --bd--> M to M --D--> M with D = diag(p^v_j).  For square
    D, ker D and coker D are both the sum of Z/p^{v_j} over v_j > 0, so
    H^0 and H^1 have the same invariant factors, and one module serves
    both.  Degrees with no positive v_j are left out of the report."""
    p, N = M.prime, M.precision
    entries = {}
    for t in M.degrees():
        exps = [v for v in boundary_snf(M, t)[1] if v > 0]
        if exps:
            entries[(0, t)] = entries[(1, t)] = FgModule(exps, p, N)
    return CohomologyReport(entries, p, N)


def character_cohomology(k: int, p: int, N: int, *,
                         psi: PadicInt | None = None) -> tuple[int, int, int]:
    """Rational ranks and integral torsion valuation for the character
    psi -> psi^k.

    Returns (h0_rank, h1_rank, v) with v = valuation of 1 - psi^k; only
    k = 0 carries rational cohomology.  Requires N > 1 + v_p(k) + 1 so the
    torsion exponent is resolved away from the precision ceiling.  A caller
    that loops over characters passes psi = psi_generator(p, N) once
    instead of having it rebuilt per character."""
    if k == 0:
        return (1, 1, N)
    # p^bits(k) > |k|, so the valuation is exact, not capped at N
    vk = int_valuation(abs(k), p, abs(k).bit_length())
    if N <= vk + 2:
        raise PrecisionError(
            f"need N > {vk + 2} to resolve the torsion of character {k}")
    if psi is None:
        psi = psi_generator(p, N)
    one = psi**0
    v = (one - psi**k).valuation()
    return (0, 0, v)


def abutment(p: int, window: tuple[int, int],
             N: int | None = None) -> CohomologyReport:
    """H^{s,t}(Z_p^x, Z_p[u^{+-1}]) over an even-degree window.

    Computed from the two-term complex, then H^0 factors below the
    precision ceiling are dropped: they are truncation shadows of 0.
    (H^0 gets a new module; H^1 keeps the one they shared.)  The
    surviving table is Z_p at (0,0) and (1,0), Z/p^{1+v_p(k)} at
    (1, 2(p-1)k), zero (not stored) elsewhere.

    Requires N >= 2 + v_p(k) for every k = t/(2p-2) != 0 in the window:
    at 1 + v_p(k) >= N the factor reaches the ceiling and reads as a
    shadow Z_p, so that raises PrecisionError.  N = None picks
    max(4, 3 + v_p(k))."""
    t_min, t_max = window
    per = 2 * p - 2
    # p^bits(t) > |t|, so the valuation of k = |t|/(2p-2) is exact
    need = {t: 2 + int_valuation(abs(t) // per, p, abs(t).bit_length())
            for t in range(t_min + t_min % 2, t_max + 1, 2)
            if t and t % per == 0}
    if N is None:
        N = max([4] + [least + 1 for least in need.values()])
    for t, least in need.items():
        if N < least:
            raise PrecisionError(f"degree t={t} needs N >= {least}, "
                                 f"have {N}")
    M = PsiModule.lubin_tate(p, N, t_min, t_max)
    entries = two_term_cohomology(M).entries
    for t in [t for s, t in entries if s == 0]:
        kept = [e for e in entries[(0, t)].exponents if e == N]
        if kept:
            entries[(0, t)] = FgModule(kept, p, N)
        else:
            del entries[(0, t)]
    return CohomologyReport(entries, p, N)
