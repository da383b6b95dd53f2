"""Cobar-complex Ext of exterior Hopf algebras over F_q.

Ext of an exterior coalgebra on primitive odd generators sitting in
internal degree -1 is a symmetric algebra on classes in (s, t) = (1, -1).
The module verifies that by the rank of every block of the reduced cobar
complex, which splits by occurrence profile (how often each generator
appears across the tensor slots).  An s-cell is a tuple of s nonempty
generator sets; d splits one slot into two nonempty sets in every way,
entries the Koszul signs +-1.  `ExteriorHopf.coproduct` and d read the
same splits of a monomial, `_splits`.

Ranks come from an acyclic matching of entries of d (algebraic discrete
Morse theory: Skoldberg, Trans. AMS 2006; Jollenbeck-Welker, Mem. AMS
2009).  Scan the slots of a cell from the left.  A slot of two or more
generators matches the cell up, with the cell that splits the slot into
(lowest generator, rest).  A singleton {g} with g below the lowest
generator of the next slot matches it down, with the cell that merges
the two.  Other singletons pass the scan on.  The unmatched (critical)
cells have singleton slots only, with weakly decreasing generators: one
per profile, in degree s = weight.  If x is matched up at slot i, after
singletons g_1 >= ... >= g_{i-1} and with slot i = {m} u R, m < min R,
the scan of its partner y passes the same singletons, as the next slot
still has lowest generator m, and merges {m} with R back to x.

Acyclic: let x -> x' when x' != x is matched up and the partner y of x
occurs in d(x'); x' merges slots k, k+1 of y, k != i.  Let mu be the
sequence of slot minima.  For k < i the merged singletons {g_k}, {g'}
are disjoint and g_k >= g', so mu(x') < mu(x) lexicographically.  For
k = i+1, x' holds {m} before R u S, S the slot i+1 of x; it is matched
up only if min S <= m < min R, then at slot i+1 with mu(x') = mu(x).
For k > i+1, {m} precedes R and x' is matched down.  So (mu, -i) drops
along every arrow.  A cycle in the graph of d, with matched edges up and
the rest down, alternates between two degrees (a cell has at most one
matched edge), so it would close a path of arrows: there is none.

Rank: list the u_s cells matched up by decreasing (mu, -i), and their
partners alike.  An entry of d^s off the diagonal there is an arrow, so
that submatrix is triangular with +-1 on the diagonal: rank d^s >= u_s
over any field.  One degree down, rank d^{s-1} >= v_s, the number of
cells matched down, and d d = 0 gives rank d^s <= dim - v_s = u_s + c_s
with c_s critical cells.  Where c_s > 0, s is the weight, the block has
no (s+1)-cells and rank d^s = 0 = u_s.  So rank d^s = u_s for every q.

Count: the scan decides a cell at a slot of two or more generators (up)
or at a singleton below the next slot's lowest generator (down), and no
later slot can change that, so a prefix decides a cell.  `_count` gives
(dim, u_s) by a recursion over slot prefixes and lists no cell.  The
multiplicities left are one integer (`_pack`): digit i, of 3 bits, holds
generator i's, up to 7 = S_max + 1 at the guard.  A slot of mask m
leaves `prof - _spread(k)[m]`, k the highest generator present, and no
multiplicity is left once prof is 0.  The memo key is three small ints,
(slots left, packed multiplicities, bit of the previous singleton or 0);
n is not in it, so (1, 1) and (1, 1, 0), which hold the same cells, are
one entry.  After a singleton {g}, a slot whose lowest generator
is above g adds its tails with none matched up (g is matched down);
otherwise a slot of two or more generators adds its tails, all matched
up, and a singleton passes the count on as the previous singleton.
`_count` and the listing `_block_basis` walk the same memoized slot
choices, `_choices`, which enumerates only the admissible ones: a
generator whose multiplicity equals the slots left is forced into the
first slot (none fits if one exceeds them), the other generators present
are free, and the slot holds at most sum(multiplicities) + 1 - slots
generators.  It reads those digit by digit, walks the submasks s of the
free set in increasing order and keeps each nonzero forced | s within
that popcount bound.

`cobar_matrix` with the dense `rank_mod_p` (numpy) stays as an oracle:
the tests compare it with the count on every small block.  `cobar_ext`
lists one small cold block, sized by the count first, and re-ranks it
by `gmod.Smith` mod the characteristic p (precision 1), whose unit
pivots count the rank over F_p.  That is also the rank over F_q: only p
of the field is read, and the work does not depend on q.

Walk: `_profiles(n, s)`, memoized, lists the decreasing profiles of weight
>= s, packed, with their weights, and the permutation count of each of
weight s.  It depends on (n, s) alone, not on q, S_max or `_BLOCKS`:
structure, not a cached answer.  Every call still reads each block and
the rank below it, counts only a missing block, and re-checks h >= 0 and
t = -s.
"""

import functools
import itertools
import math
from typing import NamedTuple

from .gmod import ModMatrix, Smith
from .padic import prime_power


class GF:
    """The order q = p^e of a finite field F_q, checked to be a power of
    an odd prime.  The engine reads only the characteristic p, whose
    Smith valuations give the rank over F_q of an integer matrix (see
    `_subfield_spot_check`).  Even characteristic is out of scope.
    """

    __slots__ = ("q", "p", "e")

    def __init__(self, q: int):
        if q < 2:
            raise ValueError("field order must be a prime power")
        pe = prime_power(q)
        if pe is None:
            raise ValueError(f"{q} is not a prime power")
        p, e = pe
        if p == 2:
            raise ValueError("even characteristic out of scope")
        self.q = q
        self.p = p
        self.e = e


def _shuffle_sign(a_mask: int, b_mask: int) -> int:
    """Koszul sign merging two sorted odd monomials: parity of the pairs
    (a, b) with a in the left factor, b in the right, a > b."""
    inv = 0
    b = b_mask
    while b:
        low = b & -b
        inv += (a_mask & ~(low | (low - 1))).bit_count()
        b ^= low
    return -1 if inv & 1 else 1


def _splits(mask: int):
    """Yield (sub, rest, sign) for every split of the monomial `mask` into
    sub and rest = mask ^ sub, sub running over the submasks of mask in
    decreasing order, from mask itself down to 0, with the Koszul sign of
    the split."""
    sub = mask
    while True:
        rest = mask ^ sub
        yield sub, rest, _shuffle_sign(sub, rest)
        if not sub:
            return
        sub = (sub - 1) & mask


class ExteriorHopf:
    """Exterior Hopf algebra on n primitive odd generators over F_q.

    Basis: the subsets of {1..n}, internal degree minus the size. The
    coproduct splits a subset every possible way, each summand weighted
    by the Koszul sign of the split.
    """

    __slots__ = ("n", "field")

    def __init__(self, n: int, q: int):
        if n < 0:
            raise ValueError("need a nonnegative number of generators")
        self.n = n
        self.field = GF(q)

    def _mask(self, S) -> int:
        m = 0
        for i in S:
            if not 1 <= i <= self.n:
                raise ValueError(f"generator index {i} out of range")
            m |= 1 << (i - 1)
        return m

    @staticmethod
    def _unmask(mask: int) -> frozenset:
        out = set()
        while mask:
            low = mask & -mask
            out.add(low.bit_length())
            mask ^= low
        return frozenset(out)

    def coproduct(self, S) -> list:
        unmask = self._unmask
        return [(unmask(sub), unmask(rest), sign)
                for sub, rest, sign in _splits(self._mask(S))]


_WIDTH = 3  # bits per multiplicity digit of a packed profile
_DIGIT = (1 << _WIDTH) - 1  # the widest multiplicity: S_max + 1 at the guard


def _pack(profile) -> int:
    """A multiplicity profile as one integer: digit i (of _WIDTH bits)
    holds generator i's multiplicity, so trailing zeros drop out and
    (1, 1) and (1, 1, 0) pack alike.  A wider multiplicity would carry
    into the next generator's digit, and raises."""
    prof = 0
    for m in reversed(profile):
        if not 0 <= m <= _DIGIT:
            raise ValueError(f"multiplicity {m} is outside 0..{_DIGIT}")
        prof = prof << _WIDTH | m
    return prof


@functools.cache
def _spread(n: int) -> list:
    """Entry m is mask m on the first n generators as a packed profile: a
    1 in the digit of each generator in m."""
    return [sum(1 << _WIDTH * i for i in range(n) if m >> i & 1)
            for m in range(1 << n)]


@functools.cache
def _choices(slots: int, prof: int) -> list:
    """(sub, rest) for each nonempty mask `sub` that the first of `slots`
    slots may take under the packed profile `prof`, in increasing order,
    if the `rest` it leaves fits the other slots, each a nonempty set:
    max(rest) < slots <= sum(rest) + 1.  A profile no cell fits has none.
    Only those masks are walked: `forced | s` for the submasks s of the
    free generators, within a popcount bound (module docstring, Count).
    No multiplicity in `sub` is 0, so `rest` is one subtraction."""
    forced = free = total = 0
    bit = 1
    digits = prof
    while digits:
        m = digits & _DIGIT
        if m > slots:
            return []
        if m == slots:
            forced |= bit
        elif m:
            free |= bit
        total += m
        digits >>= _WIDTH
        bit <<= 1
    most = total + 1 - slots
    spread = _spread(bit.bit_length() - 1)
    out = []
    s = 0
    while True:
        sub = forced | s
        if sub and sub.bit_count() <= most:
            out.append((sub, prof - spread[sub]))
        if s == free:
            return out
        s = (s - free) & free


def _block_basis(s: int, prof: int) -> list:
    """Tuples of s nonempty generator masks whose multiset union has the
    packed profile `prof`, in lexicographic slot order."""
    if s == 0:
        return [] if prof else [()]
    return [(sub,) + tail for sub, rest in _choices(s, prof)
            for tail in _block_basis(s - 1, rest)]


def _block_entries(tpl):
    """Yield (target_tuple, coefficient) for d applied to one basis tuple."""
    for i, mask in enumerate(tpl):
        if mask.bit_count() < 2:
            continue
        pos = -1 if (i + 1) % 2 else 1
        for sub, rest, sign in _splits(mask):
            if sub and rest:  # a slot splits into two nonempty slots
                yield tpl[:i] + (sub, rest) + tpl[i + 1:], pos * sign


def _block(s: int, prof: int):
    """d^s on the block of packed profile `prof`: (domain basis, target
    basis, entries).  Basis elements are tuples of generator masks;
    entries are the parallel lists (row, column, shuffle sign) of the
    nonzero entries.  No (row, column) pair repeats: a target determines
    the slot that was split, as the first slot where it differs from the
    source."""
    cols = _block_basis(s, prof)
    rows = _block_basis(s + 1, prof)
    index = {t: i for i, t in enumerate(rows)}
    ri, ci, val = [], [], []
    for c, tpl in enumerate(cols):
        for target, coeff in _block_entries(tpl):
            ri.append(index[target])
            ci.append(c)
            val.append(coeff)
    return cols, rows, (ri, ci, val)


def _dtype(p: int):
    """The narrowest type that holds a product of two residues mod p:
    int16 up to p = 181, int64 up to about 3e9, Python ints beyond."""
    import numpy as np
    for t in (np.int16, np.int64):
        if (p - 1) ** 2 + p <= np.iinfo(t).max:
            return t
    return object


def _dense(cols, rows, entries, p: int):
    import numpy as np
    M = np.zeros((len(rows), len(cols)), dtype=_dtype(p))
    ri, ci, val = entries
    if val:
        M[ri, ci] = val
    return M % p


def cobar_matrix(H: ExteriorHopf, s: int, profile):
    """d^s on one occurrence-profile block of the reduced cobar complex.

    Returns (domain_basis, target_basis, matrix): bases are tuples of
    frozensets, matrix[r, c] the coefficient of target r in d(domain c)
    reduced mod p. Entries before reduction are shuffle signs, so they
    live in the prime field for every F_q of that characteristic.
    """
    profile = tuple(profile)
    if len(profile) != H.n:
        raise ValueError("profile must list one multiplicity per generator")
    cols, rows, entries = _block(s, _pack(profile))
    unmask = ExteriorHopf._unmask
    return ([tuple(unmask(m) for m in t) for t in cols],
            [tuple(unmask(m) for m in t) for t in rows],
            _dense(cols, rows, entries, H.field.p))


def rank_mod_p(M, p: int) -> int:
    """Rank over F_p by vectorized forward elimination: rank needs no
    back-substitution, so only rows below each pivot are cleared."""
    import numpy as np
    A = np.asarray(M, dtype=_dtype(p)) % p
    if A.ndim != 2:
        raise ValueError("need a matrix")
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        A[r, c:] = (A[r, c:] * pow(int(A[r, c]), -1, p)) % p
        # the swap left row i with a zero in column c
        below = r + nz[1:]
        if below.size:
            A[below, c:] = (A[below, c:]
                            - np.outer(A[below, c], A[r, c:])) % p
        r += 1
    return r


_BLOCKS = {}


def _count(slots: int, prof: int, prev: int) -> tuple:
    """(tails, tails matched up): the tuples of `slots` nonempty masks with
    packed profile `prof`, as `_block_basis` lists them, and how many of
    them the scan matches up after a singleton of bit `prev` (0: none)
    still undecided.  Memoized in `_BLOCKS`, which all blocks share."""
    if slots == 0:
        return (0, 0) if prof else (1, 0)
    key = (slots, prof, prev)
    got = _BLOCKS.get(key)
    if got is None:
        tails = up = 0
        for sub, rest in _choices(slots, prof):
            if prev and sub & -sub > prev:  # {prev} is matched down
                tails += _count(slots - 1, rest, 0)[0]
            elif sub & (sub - 1):  # matched up at this slot
                t = _count(slots - 1, rest, 0)[0]
                tails += t
                up += t
            else:
                t, u = _count(slots - 1, rest, sub)
                tails += t
                up += u
        got = _BLOCKS[key] = (tails, up)
    return got


def _subfield_spot_check(gf: GF, s: int, canon, rank: int):
    """Re-rank one block of d^s and fail loudly if the matched count
    differs.  The rank is the number of v = 0 Smith valuations mod the
    characteristic p (precision 1): mod p every nonzero pivot is a unit.
    Integer entries lie in the prime subfield F_p, and rank does not
    change under field extension (a nonzero minor over F_p stays nonzero
    in F_q), so that is also the rank over F_q."""
    cols, rows, entries = _block(s, canon)
    M = [[0] * len(cols) for _ in rows]
    for r, c, v in zip(*entries):
        M[r][c] = v
    if Smith(ModMatrix(M, gf.p, 1)).valuations.count(0) != rank:
        raise RuntimeError("F_q elimination disagrees with the matched "
                           "count of a cobar block")


@functools.cache
def _profiles(n: int, s: int) -> tuple:
    """(canon, weight, perms) per decreasing profile of weight >= s, canon
    packed, in the order of its first permutation in
    `itertools.product(range(s + 1), repeat=n)`; perms counts the
    permutations at weight s, else it is 0."""
    out = []
    for low in itertools.combinations_with_replacement(range(s + 1), n):
        w = sum(low)
        if w >= s:
            perms = 0 if w > s else math.factorial(n) // math.prod(
                math.factorial(low.count(m)) for m in set(low))
            out.append((_pack(low[::-1]), w, perms))
    return tuple(out)


class ExtTable(NamedTuple):
    """Bigraded Ext dimensions dims[(s, t_internal)]: the nonzero ones, in
    the (s, t) order their builder wrote them, which `lines` keeps."""

    dims: dict[tuple[int, int], int]

    def lines(self) -> list:
        return [f"s={s} t={t}: dim {d}" for (s, t), d in self.dims.items()]


def cobar_ext(H: ExteriorHopf, S_max: int) -> ExtTable:
    """Cohomology dimensions of the reduced cobar complex through S_max.

    Per cohomological degree s the complex is a direct sum of profile
    blocks; each contributes dim - rank(out) - rank(in), from `_count`.
    Relabeling generators permutes a block's basis and flips signs, so
    each decreasing profile is counted once, weighted by its number of
    permutations. The result must land on the line t = -s; leakage means
    a rank is wrong and raises.  Dims come (0, 0) first, then (s, -s) by s.
    """
    if H.n > 4 or S_max > 6:
        raise ValueError("desk scale is n <= 4 and S_max <= 6")
    if S_max < 0:
        raise ValueError("S_max must be >= 0")
    dims = {(0, 0): 1}
    unchecked = True  # until a small cold block is re-ranked over F_q
    for s in range(1, S_max + 1):
        for canon, w, perms in _profiles(H.n, s):
            got = _BLOCKS.get((s, canon, 0))  # `_count`'s key for it
            if got is None:
                got = _count(s, canon, 0)
                if (unchecked and got[0] <= 30
                        and 0 < _count(s + 1, canon, 0)[0] <= 30):
                    _subfield_spot_check(H.field, s, canon, got[1])
                    unchecked = False
            below = _BLOCKS.get((s - 1, canon, 0)) or _count(s - 1, canon, 0)
            h = got[0] - got[1] - below[1]
            if h < 0:
                raise RuntimeError("cobar ranks overshot a block dimension")
            if h:  # perms is 0 off t = -s, where the key alone is a leak
                dims[(s, -w)] = dims.get((s, -w), 0) + h * perms
    for s, t in dims:
        if t != -s:
            raise RuntimeError(f"cohomology leaked off the line t = -s "
                               f"at (s={s}, t={t})")
    return ExtTable(dims)


def symmetric_oracle(n: int, S_max: int) -> ExtTable:
    """Symmetric algebra on n generators in (1, -1): stars and bars,
    concentrated in internal degree -s, its nonzero dims in increasing s."""
    if n < 0 or S_max < 0:
        raise ValueError("need nonnegative n and S_max")
    return ExtTable({(s, -s): d for s in range(S_max + 1)
                     if (d := math.comb(max(n + s - 1, 0), s))})
