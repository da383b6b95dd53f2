"""Finitely generated modules over Z/p^N and their homomorphisms.

Z/p^N is a local ring: every element is unit * p^v, so Smith normal form
needs no Euclidean steps, only valuation pivoting, with ties broken
column-major so that the upper triangular Mahler boundary psi - id is
eliminated with few row operations.  Rows are reduced mod p^N only when
they become pivot rows, a unit pivot row is left unscaled, its unit is
inverted only where the inverse is read, and the pivot scan reads a
column without a unit once (see `Smith`).  All the homological
bookkeeping downstream reduces to the one elimination here, `Smith`,
which keeps the transcript of its steps.  Each output has one reader,
and each caller reads only what it needs:

- `Smith.valuations`, the diagonal D = diag(p^v_k), from the elimination
  alone: the two-term complex id - psi in a degree of rank > 1
  (`grpcoh.boundary_snf`, the one pass over a `PsiModule`'s stored rows
  that `two_term_cohomology` and `ssq.run` iterate; a rank-1 degree
  reads its one valuation without an elimination or a `ModMatrix`).
  At precision 1 every nonzero residue is a unit, so the v = 0 pivots
  count the rank over F_p (`cobar._subfield_spot_check`), and a square
  matrix is invertible mod p exactly when every pivot is a unit
  (`grpcoh.PsiModule`, for caller-supplied matrices; a Lubin-Tate
  window is 1 mod p and checks none);
- `Smith.u_rows`, U, the row steps replayed forwards: `solve` and
  `QuotPres`;
- `Smith.v_column` / `kernel_column`, one column of V in O(rows*cols):
  `mahler.invariants` (the saturated columns) and `kernel_gens`
  (`towers.truncated_kernel`); `v_rows`, all of V from it: `solve`.

`snf` puts the three together, U, D and V, for acceptance check 8 and
the tests.

The generic engine has no production caller and serves the tests as an
oracle: `homology` (with `kernel_gens`, `sub_preimage` and `QuotPres`)
checks that reading of the complex, `sub_intersect`,
`quotient_presentation` and `QuotPres.express`/`generator` serve the
oracle `ssq.FilteredComplexSS`, and `matinv`, a Gauss-Jordan inverse
independent of `Smith`, checks that U and V are invertible.  They stay
importable from `imj.gmod` because the benchmark tracer
(perfbench/tracing.py) looks up every traced name when it installs.

A factor with exponent N ("saturated") is indistinguishable mod p^N from
a free Z_p summand; such factors carry a flag and reports print them as
Z_p.  Factors with exponent < N are honest torsion.
"""

from __future__ import annotations

from operator import mul

from .padic import PrecisionError, int_valuation


class ModMatrix:
    """Matrix over Z/p^N, stored as rows of int residues."""

    __slots__ = ("rows", "cols", "prime", "precision", "data")

    def __init__(self, data: list[list[int]], prime: int, precision: int):
        if precision < 1:
            raise PrecisionError(f"precision {precision} < 1")
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
        return cls._empty(rows, cols, p, N)

    @classmethod
    def _empty(cls, rows: int, cols: int, p: int, N: int,
               data: list[list[int]] | None = None) -> "ModMatrix":
        """A rows x cols matrix holding `data`, rows of residues already
        reduced mod p^N, as is (zeros when None), without the reduction
        and shape check of __init__."""
        m = cls.__new__(cls)
        m.prime, m.precision = p, N
        m.rows, m.cols = rows, cols
        m.data = [[0] * cols for _ in range(rows)] if data is None else data
        return m

    @classmethod
    def identity(cls, n: int, p: int, N: int) -> "ModMatrix":
        return cls._empty(n, n, p, N, [[1 if i == j else 0 for j in range(n)]
                                       for i in range(n)])

    # ---- basics ----

    @property
    def modulus(self) -> int:
        return self.prime**self.precision

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def transpose(self) -> "ModMatrix":
        return ModMatrix._empty(self.cols, self.rows, self.prime,
                                self.precision,
                                [[self.data[i][j] for i in range(self.rows)]
                                 for j in range(self.cols)])

    def hstack(self, other: "ModMatrix") -> "ModMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        return ModMatrix._empty(self.rows, self.cols + other.cols, self.prime,
                                self.precision,
                                [self.data[i] + other.data[i]
                                 for i in range(self.rows)])

    def take_rows(self, count: int) -> "ModMatrix":
        return ModMatrix._empty(count, self.cols, self.prime, self.precision,
                                [row[:] for row in self.data[:count]])

    def column(self, j: int) -> list[int]:
        return [self.data[i][j] for i in range(self.rows)]

    def scale_int(self, c: int) -> "ModMatrix":
        pN = self.modulus
        return ModMatrix._empty(self.rows, self.cols, self.prime,
                                self.precision,
                                [[x * c % pN for x in row]
                                 for row in self.data])

    def __mul__(self, other: "ModMatrix") -> "ModMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * "
                             f"{other.rows}x{other.cols}")
        pN = self.modulus
        ot = other.transpose().data
        return ModMatrix._empty(self.rows, other.cols, self.prime,
                                self.precision,
                                [[sum(a * b for a, b in zip(row, col)) % pN
                                  for col in ot] for row in self.data])

    def __sub__(self, other: "ModMatrix") -> "ModMatrix":
        pN = self.modulus
        return ModMatrix._empty(self.rows, self.cols, self.prime,
                                self.precision,
                                [[(a - b) % pN for a, b in zip(r1, r2)]
                                 for r1, r2 in zip(self.data, other.data)])

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ModMatrix) and self.prime == other.prime
                and self.precision == other.precision
                and self.data == other.data)

    def __repr__(self) -> str:
        return (f"ModMatrix({self.data}, p={self.prime}, N={self.precision})")


def matinv(A: ModMatrix) -> ModMatrix:
    """Inverse of a matrix invertible mod p^N (all Gauss pivots units),
    by Gauss-Jordan elimination: a test oracle, independent of `Smith`."""
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


class Smith:
    """Smith normal form of A over Z/p^N, kept as the transcript of its
    elimination, so that each reader replays only what it needs.

    Valuation pivoting: the entry of minimal valuation in the remaining
    block becomes the pivot, and the rows below are cleared by exact
    division by p^v.  Cleared entries keep valuation >= v, so the diagonal
    comes out sorted.  The remaining rows are zero left of the pivot
    column, so row operations start there.

    Row operations below a pivot do not reduce mod p^N.  A row is reduced
    when it becomes the pivot row and each multiplier is read from the
    reduced entry; the rows left below the last pivot are zero mod p^N
    and are never read again.  Valuations are those of the residues
    (`int_valuation` reduces first), so the pivots are those of an
    elimination that reduces every row operation.

    At a pivot u*p^v with v > 0 the pivot row is multiplied by u^-1; its
    quotients are residues mod p^(N-v) and cannot be scaled at replay
    time.  A unit pivot row (v = 0) is only reduced, and u^-1 is taken
    only where it is read: at the first row cleared below the pivot
    (with q*u^-1), in `v_column` where its quotients meet a nonzero
    entry, and in `u_rows`.  The Mahler boundary at p = 2^31 - 1 has no row
    to clear, so it takes no inverse and no wide product.

    Ties break column-major: the pivot is the first entry of minimal
    valuation in the leftmost column that has one.  The scan looks for
    the first unit, an entry x with x % p != 0, by that test alone, and
    computes valuations only when the remaining block has no unit.  A
    column read to the bottom without a unit is flagged and not read
    again: the pivot row has a non-unit y there, so x - m*y keeps each
    entry's residue mod p, and after a v > 0 pivot no unit is left.
    That suits the Mahler boundary psi - id, which is upper triangular: a
    column holds nothing below its diagonal entry, so a unit taken from
    the leftmost live column leaves few rows below to clear.  A row-major
    tie-break, at a row whose diagonal entry is not a unit, takes a unit
    right of the diagonal, and the column swapped in has entries on every
    row down to its own diagonal: for L = 128 and p = 3 that is 1288 row
    operations against 392.

    Once the rows below the pivot are cleared, column k is zero off the
    pivot p^v, so the column operations that clear row k change only row
    k of the work matrix, and every entry of that row is a multiple of
    p^v: row k is zeroed and only the quotients qs are kept.  The rows
    above k are therefore zero from column k on, and a column swap
    touches only rows k and below.

    Step k records the row and column swapped into place, the pivot's
    unit u, the row multipliers (i, q) and the column quotients qs:
    (x*u^-1 mod p^N) // p^v for the entries x of row k when v > 0, the
    reduced entries themselves at a unit pivot, None when row k was
    already clear.  Each output has one reader: `valuations` comes from
    the elimination alone (the work matrix it leaves is diag(p^v_k) mod
    p^N, so no D is kept), `u_rows` replays the row steps forwards into
    U, and `v_column` replays the column steps backwards on one vector
    (`kernel_column` and `v_rows` read V through it).
    """

    __slots__ = ("A", "steps", "valuations")

    def __init__(self, A: ModMatrix):
        p, N = A.prime, A.precision
        pN = p**N
        r, c = A.rows, A.cols
        M = [row[:] for row in A.data]
        steps, vals = [], []
        unitless = [False] * c  # no unit in rows >= k of column j
        for k in range(min(r, c)):
            unit = None
            for j in range(k, c):
                if not unitless[j]:
                    unit = next(((i, j) for i in range(k, r) if M[i][j] % p),
                                None)
                    if unit:
                        break
                    unitless[j] = True
            if unit:
                v, (bi, bj) = 0, unit
            else:
                v, bj, bi = min(((int_valuation(M[i][j], p, N), j, i)
                                 for j in range(k, c) for i in range(k, r)
                                 if M[i][j]), default=(N, -1, -1))
                if v == N:
                    break
            if bi != k:
                M[k], M[bi] = M[bi], M[k]
            if bj != k:
                # rows above k are zero from column k on
                for row in M[k:]:
                    row[k], row[bj] = row[bj], row[k]
                unitless[k], unitless[bj] = unitless[bj], unitless[k]
            pv = p**v
            Mk = M[k]
            u = Mk[k] % pN // pv
            inv = pow(u, -1, pN) if v else None
            Mk[k] = pv
            if v:
                tail = [x * inv % pN for x in Mk[k + 1:]]
                qs = [x // pv for x in tail]
            else:
                # a unit pivot row stays unscaled: readers scale qs by u^-1
                tail = qs = [x % pN for x in Mk[k + 1:]]
            Mk[k + 1:] = [0] * (c - k - 1)
            ops = []
            for i in range(k + 1, r):
                Mi = M[i]
                if Mi[k]:
                    q = Mi[k] % pN // pv
                    Mi[k] = 0
                    if q:
                        if inv is None:
                            inv = pow(u, -1, pN)
                        m = q if v else q * inv % pN
                        Mi[k + 1:] = [x - m * y
                                      for x, y in zip(Mi[k + 1:], tail)]
                        ops.append((i, q))
            if not any(qs):
                qs = None
            steps.append((bi, bj, u, ops, qs))
            vals.append(v)
        self.A = A
        self.steps = steps
        # v_j of D_jj = p^(v_j), N where the diagonal has no pivot
        self.valuations = vals + [N] * (c - len(vals))

    def u_rows(self) -> list[list[int]]:
        """U as rows: the row steps run forwards on the identity."""
        pN = self.A.modulus
        r = self.A.rows
        U = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        for k, (bi, _, u, ops, _) in enumerate(self.steps):
            inv = pow(u, -1, pN)
            if bi != k:
                U[k], U[bi] = U[bi], U[k]
            Uk = U[k] = [x * inv % pN for x in U[k]]
            for i, q in ops:
                U[i] = [(x - q * y) % pN for x, y in zip(U[i], Uk)]
        return U

    def v_column(self, j: int) -> list[int]:
        """V*e_j: the column steps run backwards on e_j, O(rows*cols)."""
        pN = self.A.modulus
        vals = self.valuations
        x = [0] * self.A.cols
        x[j] = 1
        for k in range(len(self.steps) - 1, -1, -1):
            _, bj, u, _, qs = self.steps[k]
            if qs:
                t = sum(map(mul, qs, x[k + 1:]))
                if t and not vals[k]:
                    t *= pow(u, -1, pN)
                x[k] = (x[k] - t) % pN
            x[k], x[bj] = x[bj], x[k]
        return x

    def v_rows(self) -> list[list[int]]:
        """V as rows; column j is `v_column(j)`."""
        return [list(row) for row in zip(*map(self.v_column,
                                              range(self.A.cols)))]

    def kernel_column(self, j: int) -> list[int]:
        """p^(N - v_j) * V*e_j, which A annihilates since A*V = U^-1 * D.

        Checked against A on the column's support; a nonzero product means
        the transcript was replayed wrongly and raises RuntimeError."""
        A = self.A
        pN = A.modulus
        s = A.prime ** (A.precision - self.valuations[j])
        x = [y * s % pN for y in self.v_column(j)]
        support = [(i, y) for i, y in enumerate(x) if y]
        if any(sum(row[i] * y for i, y in support) % pN for row in A.data):
            raise RuntimeError(f"Smith transcript: column {j} of V is not "
                               f"a kernel vector")
        return x


def snf(A: ModMatrix) -> tuple[ModMatrix, ModMatrix, ModMatrix]:
    """Smith normal form over Z/p^N: U*A*V = D, U and V invertible.

    Read off one `Smith`: U from `u_rows`, V from `v_rows` and D =
    diag(p^v_k) from `valuations`, 0 where v_k = N.  That costs
    O(rows^3 + cols^3) on top of the elimination; callers that need only
    the valuations or a few columns of V read `Smith` directly.
    """
    S = Smith(A)
    p, N = A.prime, A.precision
    r, c = A.rows, A.cols
    D = [[p**v if i == j and v < N else 0 for j, v in enumerate(S.valuations)]
         for i in range(r)]
    return (ModMatrix._empty(r, r, p, N, S.u_rows()),
            ModMatrix._empty(r, c, p, N, D),
            ModMatrix._empty(c, c, p, N, S.v_rows()))


def kernel_gens(A: ModMatrix) -> ModMatrix:
    """Generators of ker(A) acting on (Z/p^N)^cols, as matrix columns.

    From U*A*V = D with D_jj = p^(v_j): the kernel is generated by
    p^(N - v_j) * V[:, j] for every column with v_j > 0.
    """
    S = Smith(A)
    gens = [S.kernel_column(j) for j, v in enumerate(S.valuations) if v > 0]
    return ModMatrix._empty(A.cols, len(gens), A.prime, A.precision,
                            [[g[i] for g in gens] for i in range(A.cols)])


def solve(A: ModMatrix, B: ModMatrix) -> ModMatrix | None:
    """Some X with A*X = B over Z/p^N, or None when B is not in the image."""
    p, N = A.prime, A.precision
    S = Smith(A)
    C = ModMatrix._empty(A.rows, A.rows, p, N, S.u_rows()) * B
    vals = S.valuations
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
    return ModMatrix._empty(A.cols, A.cols, p, N, S.v_rows()) * \
        ModMatrix(Y, p, N)


def sub_intersect(G1: ModMatrix, G2: ModMatrix) -> ModMatrix:
    """Generators of im(G1) intersect im(G2): G1 on `sub_preimage`."""
    return G1 * sub_preimage(G1, G2)


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

    __slots__ = ("prime", "precision", "gens", "U", "exponents", "indices")

    def __init__(self, gens: ModMatrix, W: ModMatrix):
        self.prime, self.precision = gens.prime, gens.precision
        self.gens = gens
        S = Smith(W)
        self.U = ModMatrix._empty(W.rows, W.rows, W.prime, W.precision,
                                  S.u_rows())
        vals = S.valuations + [self.precision] * (W.rows - W.cols)
        self.indices = [i for i in range(W.rows) if vals[i] > 0]
        self.exponents = [vals[i] for i in self.indices]

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

