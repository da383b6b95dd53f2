"""Finitely generated modules over Z/p^N and their homomorphisms.

Z/p^N is a local ring: every element is unit * p^v, so Smith normal form
needs no Euclidean steps, only valuation pivoting.  All the homological
bookkeeping downstream reduces to the SNF computed here.  Production
reads the two-term complex id - psi from one SNF of its boundary per
degree (`grpcoh.boundary_snf`, used by `two_term_cohomology` and
`ssq.run`).

The generic engine has no production caller and serves the tests as an
oracle: `homology` (with `kernel_gens`, `sub_preimage` and `QuotPres`)
checks that reading of the complex, and `sub_intersect`,
`quotient_presentation` and `QuotPres.express`/`generator` serve the
oracle `ssq.FilteredComplexSS`.  They stay importable from `imj.gmod`
because the benchmark tracer (perfbench/tracing.py) looks up every
traced name when it installs.

A factor with exponent N ("saturated") is indistinguishable mod p^N from
a free Z_p summand; such factors carry a flag and reports print them as
Z_p.  Factors with exponent < N are honest torsion.
"""

from __future__ import annotations

from .padic import PadicInt, int_valuation


class ModMatrix:
    """Matrix over Z/p^N, stored as rows of int residues."""

    __slots__ = ("rows", "cols", "prime", "precision", "data")

    def __init__(self, data: list[list[int]], prime: int, precision: int):
        self.prime = prime
        self.precision = precision
        pN = prime**precision
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        self.data = [[x % pN for x in row] for row in data]
        if any(len(row) != self.cols for row in self.data):
            raise ValueError("ragged rows")

    # ---- constructors ----

    @classmethod
    def zeros(cls, rows: int, cols: int, p: int, N: int) -> "ModMatrix":
        return cls([[0] * cols for _ in range(rows)], p, N) if rows else cls._empty(rows, cols, p, N)

    @classmethod
    def _empty(cls, rows: int, cols: int, p: int, N: int) -> "ModMatrix":
        m = cls.__new__(cls)
        m.prime, m.precision = p, N
        m.rows, m.cols = rows, cols
        m.data = [[0] * cols for _ in range(rows)]
        return m

    @classmethod
    def identity(cls, n: int, p: int, N: int) -> "ModMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)],
                   p, N)

    # ---- basics ----

    @property
    def modulus(self) -> int:
        return self.prime**self.precision

    def entry(self, i: int, j: int) -> PadicInt:
        return PadicInt(self.data[i][j], self.prime, self.precision)

    def entry_valuation(self, i: int, j: int) -> int:
        return int_valuation(self.data[i][j], self.prime, self.precision)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def copy(self) -> "ModMatrix":
        out = ModMatrix._empty(self.rows, self.cols, self.prime,
                               self.precision)
        out.data = [row[:] for row in self.data]
        return out

    def transpose(self) -> "ModMatrix":
        out = ModMatrix._empty(self.cols, self.rows, self.prime, self.precision)
        out.data = [[self.data[i][j] for i in range(self.rows)]
                    for j in range(self.cols)]
        return out

    def hstack(self, other: "ModMatrix") -> "ModMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        out = ModMatrix._empty(self.rows, self.cols + other.cols, self.prime,
                               self.precision)
        out.data = [self.data[i] + other.data[i] for i in range(self.rows)]
        return out

    def take_rows(self, count: int) -> "ModMatrix":
        out = ModMatrix._empty(count, self.cols, self.prime, self.precision)
        out.data = [row[:] for row in self.data[:count]]
        return out

    def column(self, j: int) -> list[int]:
        return [self.data[i][j] for i in range(self.rows)]

    def scale_int(self, c: int) -> "ModMatrix":
        pN = self.modulus
        out = self.copy()
        out.data = [[x * c % pN for x in row] for row in self.data]
        return out

    def __mul__(self, other: "ModMatrix") -> "ModMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * "
                             f"{other.rows}x{other.cols}")
        pN = self.modulus
        ot = other.transpose().data
        out = ModMatrix._empty(self.rows, other.cols, self.prime, self.precision)
        out.data = [[sum(a * b for a, b in zip(row, col)) % pN for col in ot]
                    for row in self.data]
        return out

    def __sub__(self, other: "ModMatrix") -> "ModMatrix":
        pN = self.modulus
        out = self.copy()
        out.data = [[(a - b) % pN for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.data, other.data)]
        return out

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ModMatrix) and self.prime == other.prime
                and self.precision == other.precision
                and self.data == other.data)

    def __hash__(self):
        return hash((self.prime, self.precision,
                     tuple(tuple(r) for r in self.data)))

    def __repr__(self) -> str:
        return (f"ModMatrix({self.data}, p={self.prime}, N={self.precision})")


def matinv(A: ModMatrix) -> ModMatrix:
    """Inverse of a matrix invertible mod p^N (all Gauss pivots units)."""
    if A.rows != A.cols:
        raise ValueError("not square")
    n = A.rows
    p, N = A.prime, A.precision
    pN = p**N
    M = [row[:] + [1 if i == j else 0 for j in range(n)]
         for i, row in enumerate(A.data)]
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k] % p != 0), None)
        if piv is None:
            raise ValueError("matrix is not invertible mod p")
        M[k], M[piv] = M[piv], M[k]
        inv = pow(M[k][k], -1, pN)
        M[k] = [x * inv % pN for x in M[k]]
        for i in range(n):
            if i != k and M[i][k]:
                q = M[i][k]
                M[i] = [(x - q * y) % pN for x, y in zip(M[i], M[k])]
    return ModMatrix([row[n:] for row in M], p, N)


def snf(A: ModMatrix) -> tuple[ModMatrix, ModMatrix, ModMatrix]:
    """Smith normal form over Z/p^N: U*A*V = D, U and V invertible.

    Valuation pivoting: the entry of minimal valuation in the remaining
    block becomes the pivot (ties row-major, so the scan stops at the
    first unit), its unit part is divided out, and the row/column are
    cleared by exact division by p^v.  Cleared entries keep valuation
    >= v, so the diagonal comes out sorted.

    Once the rows below the pivot are cleared, column k of the work matrix
    is zero off the pivot p^v, so the column operations change only row k
    there, and every entry of that row is a multiple of p^v: they are
    applied to V alone and row k is zeroed.
    """
    p, N = A.prime, A.precision
    pN = p**N
    r, c = A.rows, A.cols
    M = [row[:] for row in A.data]
    U = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    V = [[1 if i == j else 0 for j in range(c)] for i in range(c)]
    for k in range(min(r, c)):
        best, bi, bj = N, -1, -1
        for i in range(k, r):
            row = M[i]
            for j in range(k, c):
                if row[j]:
                    v = int_valuation(row[j], p, N)
                    if v < best:
                        best, bi, bj = v, i, j
                        if v == 0:
                            break
            if best == 0:
                break
        if bi < 0:
            break
        v = best
        if bi != k:
            M[k], M[bi] = M[bi], M[k]
            U[k], U[bi] = U[bi], U[k]
        if bj != k:
            for row in M:
                row[k], row[bj] = row[bj], row[k]
            for row in V:
                row[k], row[bj] = row[bj], row[k]
        unit = M[k][k] // p**v
        inv = pow(unit, -1, pN)
        M[k] = [x * inv % pN for x in M[k]]
        U[k] = [x * inv % pN for x in U[k]]
        pv = p**v
        for i in range(k + 1, r):
            if M[i][k]:
                q = M[i][k] // pv
                M[i] = [(x - q * y) % pN for x, y in zip(M[i], M[k])]
                U[i] = [(x - q * y) % pN for x, y in zip(U[i], U[k])]
        qs = [x // pv for x in M[k][k + 1:]]
        if any(qs):
            for row in V:
                x = row[k]
                if x:
                    row[k + 1:] = [(y - q * x) % pN
                                   for y, q in zip(row[k + 1:], qs)]
            M[k][k + 1:] = [0] * (c - k - 1)
    Um = ModMatrix._empty(r, r, p, N)
    Um.data = U
    Dm = ModMatrix._empty(r, c, p, N)
    Dm.data = M
    Vm = ModMatrix._empty(c, c, p, N)
    Vm.data = V
    return (Um, Dm, Vm)


def diagonal_valuations(D: ModMatrix) -> list[int]:
    """Valuation of D_jj per column j, taking N for absent diagonal entries."""
    return [D.entry_valuation(j, j) if j < D.rows else D.precision
            for j in range(D.cols)]


def kernel_gens(A: ModMatrix) -> ModMatrix:
    """Generators of ker(A) acting on (Z/p^N)^cols, as matrix columns.

    From U*A*V = D with D_jj = p^(v_j): the kernel is generated by
    p^(N - v_j) * V[:, j] for every column with v_j > 0.
    """
    p, N = A.prime, A.precision
    _, D, V = snf(A)
    gens = []
    for j, v in enumerate(diagonal_valuations(D)):
        if v > 0:
            gens.append([x * p ** (N - v) % p**N for x in V.column(j)])
    out = ModMatrix._empty(A.cols, len(gens), p, N)
    out.data = [[gens[g][i] for g in range(len(gens))] for i in range(A.cols)]
    return out


def solve(A: ModMatrix, B: ModMatrix) -> ModMatrix | None:
    """Some X with A*X = B over Z/p^N, or None when B is not in the image."""
    p, N = A.prime, A.precision
    pN = p**N
    U, D, V = snf(A)
    C = U * B
    vals = diagonal_valuations(D)
    Y = [[0] * B.cols for _ in range(A.cols)]
    for i in range(A.rows):
        v = vals[i] if i < A.cols else None
        for j in range(B.cols):
            cij = C.data[i][j]
            if v is None or v >= N:
                if cij != 0:
                    return None
            else:
                if int_valuation(cij, p, N) < v:
                    return None
                Y[i][j] = cij // p**v
    return V * ModMatrix(Y, p, N)


def sub_intersect(G1: ModMatrix, G2: ModMatrix) -> ModMatrix:
    """Generators of im(G1) intersect im(G2)."""
    K = kernel_gens(G1.hstack(G2.scale_int(-1)))
    return G1 * K.take_rows(G1.cols)


def sub_preimage(A: ModMatrix, G: ModMatrix) -> ModMatrix:
    """Generators of {x : A*x in im(G)}."""
    K = kernel_gens(A.hstack(G.scale_int(-1)))
    return K.take_rows(A.cols)


class QuotPres:
    """Presentation of im(gens)/relations as a sum of cyclic factors.

    Built from the surjection (Z/p^N)^m -> im(gens), w -> gens*w, whose
    kernel W is given; SNF of W turns the quotient into coker(D).  Factor
    i lives at coordinate i of the transformed basis: coordinates of a
    class are (U*w) mod p^(e_i).
    """

    __slots__ = ("prime", "precision", "gens", "U", "Uinv", "exponents",
                 "indices")

    def __init__(self, gens: ModMatrix, W: ModMatrix):
        self.prime, self.precision = gens.prime, gens.precision
        self.gens = gens
        U, D, _ = snf(W)
        self.U = U
        vals = diagonal_valuations(D) + [self.precision] * (W.rows - W.cols)
        self.exponents = []
        self.indices = []
        for i in range(W.rows):
            e = min(vals[i], self.precision) if i < len(vals) else self.precision
            if e > 0:
                self.exponents.append(e)
                self.indices.append(i)

    def is_zero(self) -> bool:
        return not self.exponents

    def express(self, vector: list[int]) -> list[int] | None:
        """Coordinates of an ambient vector in the cyclic factors; None if
        the vector is not in im(gens)."""
        p = self.prime
        col = ModMatrix([[x] for x in vector], p, self.precision)
        w = solve(self.gens, col)
        if w is None:
            return None
        y = self.U * w
        return [y.data[i][0] % p**e
                for i, e in zip(self.indices, self.exponents)]

    def generator(self, which: int) -> list[int]:
        """Ambient representative of the generator of factor `which`."""
        m = self.gens.cols
        e = ModMatrix([[1 if i == self.indices[which] else 0]
                       for i in range(m)], self.prime, self.precision)
        amb = self.gens * (matinv(self.U) * e)
        return amb.column(0)


def quotient_presentation(num: ModMatrix, den: ModMatrix) -> QuotPres:
    """Presentation of im(num)/im(den); requires im(den) <= im(num)."""
    if solve(num, den) is None:
        raise ValueError("denominator subgroup is not inside the numerator")
    W = sub_preimage(num, den)
    return QuotPres(num, W)


class FgModule:
    """A finite Z/p^N-module as sorted invariant-factor exponents.

    Exponent N is flagged saturated: at working precision it may be the
    shadow of a free Z_p summand, and reports print it as Z_p.
    """

    __slots__ = ("exponents", "prime", "precision")

    def __init__(self, exponents: list[int], prime: int, precision: int):
        if any(e < 1 or e > precision for e in exponents):
            raise ValueError("factor exponents must lie in [1, N]")
        self.exponents = sorted(exponents)
        self.prime = prime
        self.precision = precision

    def is_zero(self) -> bool:
        return not self.exponents

    def saturated_flags(self) -> list[bool]:
        return [e == self.precision for e in self.exponents]

    def saturated_count(self) -> int:
        return sum(1 for e in self.exponents if e == self.precision)

    def torsion_exponents(self) -> list[int]:
        return [e for e in self.exponents if e < self.precision]

    def order_exponent(self) -> int:
        return sum(self.exponents)

    def describe(self) -> str:
        if not self.exponents:
            return "0"
        parts = []
        for e in self.exponents:
            if e == self.precision:
                parts.append(f"Z_{self.prime}")
            elif e == 1:
                parts.append(f"Z/{self.prime}")
            else:
                parts.append(f"Z/{self.prime}^{e}")
        return " + ".join(parts)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FgModule) and self.prime == other.prime
                and self.precision == other.precision
                and self.exponents == other.exponents)

    def __repr__(self) -> str:
        return f"FgModule({self.exponents}, p={self.prime}, N={self.precision})"


def homology(d_in: ModMatrix, d_out: ModMatrix) -> FgModule:
    """ker(d_out)/im(d_in) for a two-sided differential pair at one spot of
    a complex; use zero matrices at the ends.

    The pair must compose to zero; a nonzero composite means the complex
    was mis-built and raises.
    """
    if d_out.cols != d_in.rows:
        raise ValueError("d_out and d_in do not meet in the same module")
    if not (d_out * d_in).is_zero():
        raise ValueError("d_out * d_in != 0: not a complex")
    K = kernel_gens(d_out)
    if K.cols == 0:
        return FgModule([], d_in.prime, d_in.precision)
    W = sub_preimage(K, d_in)
    pres = QuotPres(K, W)
    return FgModule(list(pres.exponents), d_in.prime, d_in.precision)

