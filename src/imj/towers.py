"""lim and lim1 of towers of graded F_p spaces.

A tower here is a nested family of sub-sums of a countable direct sum
of F_p lines, one stage per page from page 2. Finitely many stages never
determine the derived limit, so every tower must declare its tail
pattern, and `TowerSpec` refuses one that does not when it is built; the
detector only certifies patterns it can actually decide.
"""

from .gmod import ModMatrix, kernel_gens
from .padic import require_odd_prime
from .ssq import last_page_of, run


class SupportFunction:
    """Threshold function r -> max(0, slope*r + shift) over pages.

    The one tail family the detector certifies: divergence is decidable
    (slope > 0) and a bounded tail exposes its eventual value.
    """

    __slots__ = ("slope", "shift")

    def __init__(self, slope: int, shift: int):
        if slope < 0:
            raise ValueError("support thresholds must be nondecreasing "
                             "and nonnegative")
        self.slope = slope
        self.shift = shift

    def __call__(self, r: int) -> int:
        return max(0, self.slope * r + self.shift)

    @property
    def divergent(self) -> bool:
        return self.slope > 0

    def eventual_value(self) -> int:
        if self.divergent:
            raise ValueError("divergent support has no eventual value")
        return max(0, self.shift)

    def describe(self) -> str:
        return f"k >= max(0, {self.slope}*r + {self.shift})"


class SubSum:
    """Sub-sum of sum_{k>=0} F_p: a finite support set, or every
    coordinate at or above a threshold."""

    __slots__ = ("prime", "finite", "threshold")

    def __init__(self, prime: int, finite=None, threshold=None):
        if (finite is None) == (threshold is None):
            raise ValueError("exactly one of finite support or threshold")
        self.prime = prime
        self.finite = frozenset(finite) if finite is not None else None
        self.threshold = threshold

    @classmethod
    def zero(cls, prime: int) -> "SubSum":
        return cls(prime, finite=frozenset())

    def is_zero(self) -> bool:
        return self.finite == frozenset()

    def contains(self, k: int) -> bool:
        if self.finite is not None:
            return k in self.finite
        return k >= self.threshold

    def describe(self) -> str:
        if self.threshold is not None:
            return f"sum_{{k>={self.threshold}}} F_{self.prime}"
        if not self.finite:
            return "0"
        coords = ",".join(str(k) for k in sorted(self.finite))
        return f"F_{self.prime}{{{coords}}}"

    def __eq__(self, other):
        if not isinstance(other, SubSum):
            return NotImplemented
        return (self.prime, self.finite, self.threshold) == \
               (other.prime, other.finite, other.threshold)

    def __hash__(self):
        return hash((self.prime, self.finite, self.threshold))


class Lim1Witness:
    """The everywhere-one vector of prod_k F_p, as a lim1 class.

    It lives in the product but not in the image of the direct sum: a
    preimage would be finitely supported, and any candidate supported
    below R already disagrees at coordinate R.
    """

    __slots__ = ("prime",)

    def __init__(self, prime: int):
        self.prime = prime

    def entry(self, k: int) -> int:
        if k < 0:
            raise ValueError("coordinates are indexed by k >= 0")
        return 1

    def refutes_preimage_window(self, R: int) -> bool:
        # an element supported below R maps to something vanishing at R
        return self.entry(R) != 0

    def describe(self) -> str:
        return (f"(1, 1, 1, ...) in prod_k F_{self.prime}, "
                "missed by every finitely supported vector")


class TowerSpec:
    """Tower of sub-sums with inclusion structure maps.

    stages lists explicit supports for consecutive pages starting at
    first_page = 2, all inside the tracked window range(width); each
    stage must contain the next, so the structure maps are the induced
    inclusions and compose for free. tail declares the rest of the
    tower, and must: "eventually-constant" (freezes the last stage) or
    a SupportFunction g keeping the coordinates k >= g(r) on page r.
    Any other tail, None included, is refused here.
    """

    EVENTUALLY_CONSTANT = "eventually-constant"
    first_page = 2

    __slots__ = ("prime", "width", "stages", "tail")

    def __init__(self, prime: int, width: int, stages, tail):
        if width < 1:
            raise ValueError("window must track at least one coordinate")
        stages = [frozenset(s) for s in stages]
        if not stages:
            raise ValueError("need at least one explicit stage")
        for s in stages:
            if not s <= frozenset(range(width)):
                raise ValueError("stage support outside the tracked window")
        for a, b in zip(stages, stages[1:]):
            if not b <= a:
                raise ValueError("structure maps must be inclusions: "
                                 "each support must contain the next")
        if isinstance(tail, SupportFunction):
            for i, s in enumerate(stages):
                want = frozenset(k for k in range(width)
                                 if k >= tail(self.first_page + i))
                if s != want:
                    raise ValueError("declared tail pattern inconsistent "
                                     "with the explicit stages")
        elif tail is None:
            raise ValueError("undeclared tail: lim1 is not determined by "
                             "finitely many stages")
        elif tail != self.EVENTUALLY_CONSTANT:
            raise ValueError(f"unknown tail pattern: {tail!r}")
        self.prime = prime
        self.width = width
        self.stages = stages
        self.tail = tail

    def stage_support(self, r: int) -> frozenset:
        """Support of page r inside the tracked window."""
        if r < self.first_page:
            raise ValueError("page below the first stage")
        i = r - self.first_page
        if i < len(self.stages):
            return self.stages[i]
        if self.tail == self.EVENTUALLY_CONSTANT:
            return self.stages[-1]
        return frozenset(k for k in range(self.width) if k >= self.tail(r))

    def ambient_window(self, R: int) -> list:
        """Coordinates of the first stage below R, tail included."""
        if isinstance(self.tail, SupportFunction):
            return [k for k in range(R) if k >= self.tail(self.first_page)]
        return sorted(k for k in self.stages[0] if k < R)

    def describe(self) -> str:
        last = self.first_page + len(self.stages) - 1
        if self.tail == self.EVENTUALLY_CONSTANT:
            kind = "eventually constant"
        else:
            kind = f"nested sub-sums, {self.tail.describe()}"
        return (f"tower over F_{self.prime}: pages {self.first_page}..{last} "
                f"explicit, tail {kind}")


class LimReport:
    """lim, the lim1 obstruction flag, and a witness when lim1 != 0."""

    __slots__ = ("lim", "lim1_nonzero", "witness", "tower")

    def __init__(self, lim: SubSum, lim1_nonzero: bool, witness, tower):
        self.lim = lim
        self.lim1_nonzero = lim1_nonzero
        self.witness = witness
        self.tower = tower

    def __iter__(self):
        return iter((self.lim, self.lim1_nonzero, self.witness))

    def lines(self) -> list:
        out = [self.tower.describe(),
               f"lim = {self.lim.describe()}",
               f"lim1 nonzero: {'yes' if self.lim1_nonzero else 'no'}"]
        if self.witness is not None:
            out.append(f"witness: {self.witness.describe()}")
        return out


def lim_lim1(T: TowerSpec) -> LimReport:
    """Derived limits of the declared tower.

    Eventually-constant towers are Mittag-Leffler: lim is the stable
    stage and lim1 vanishes. Nested sub-sums sit in the exact sequence
    0 -> lim -> sum -> prod -> lim1 -> 0; a divergent support threshold
    kills lim and leaves the everywhere-one vector of the product as a
    nonzero class in lim1, while a bounded one stabilizes (Mittag-Leffler
    again) with lim the eventual sub-sum. T's tail is declared, as
    `TowerSpec` refuses a tower without one.
    """
    if T.tail == TowerSpec.EVENTUALLY_CONSTANT:
        return LimReport(SubSum(T.prime, finite=T.stages[-1]), False, None, T)
    g = T.tail
    if g.divergent:
        return LimReport(SubSum.zero(T.prime), True, Lim1Witness(T.prime), T)
    return LimReport(SubSum(T.prime, threshold=g.eventual_value()),
                     False, None, T)


def truncated_kernel(T: TowerSpec, R: int) -> frozenset:
    """Kernel support of the comparison map sum -> prod cut to [0, R).

    The middle map of 0 -> lim -> sum -> prod -> lim1 -> 0 sends a
    vector to its stable residues, i.e. projects away exactly the
    coordinates that survive to lim. Exactness demands its kernel equal
    lim on every window; the kernel is recomputed here with exact
    linear algebra over F_p rather than read off the projection.
    """
    lim, _, _ = lim_lim1(T)
    domain = T.ambient_window(R)
    target = [k for k in domain if not lim.contains(k)]
    p = T.prime
    if not target:
        M = ModMatrix.zeros(0, len(domain), p, 1)
    else:
        M = ModMatrix([[1 if t == d else 0 for d in domain]
                       for t in target], p, 1)
    K = kernel_gens(M)
    return frozenset(domain[i] for i in range(K.rows)
                     for j in range(K.cols) if K.data[i][j])


def moore_example(p: int) -> TowerSpec:
    """Per-page tower at the origin for a wedge of spheres in degrees
    -2(p-1)p^k, one for each k >= 0.

    The degree-2(p-1)p^k generator carries a differential of length
    k + 1, so page r keeps exactly the coordinates with k >= r - 2:
    nested sub-sums over F_p, p an odd prime (`require_odd_prime`), whose
    support threshold diverges.
    """
    require_odd_prime(p)
    g = SupportFunction(1, -2)
    width = 6
    stages = [frozenset(k for k in range(width) if k >= g(r))
              for r in range(2, 8)]
    return TowerSpec(p, width, stages, g)


def ssq_stage(p: int, r: int, kmax: int) -> frozenset:
    """Tower stage recomputed from the spectral sequence, one summand
    at a time: coordinate k survives to page r iff the filtration-zero
    class in internal degree 2(p-1)p^k is still alive there (`last_page_of`
    on the run's record of the degree; KeyError for r < 2, as `page`).
    Summand k runs at precision k + 4, one past what `run` needs for it.

    Independent of the closed-form supports, so it cross-checks
    moore_example.
    """
    if r < 2:
        raise KeyError(r)
    alive = set()
    for k in range(kmax + 1):
        t = 2 * (p - 1) * p**k
        for _, v, _, _ in run(p, (t, t), k + 4).records:
            if (last_page_of(k + 4, v, 0, 0) or r) >= r:  # None: forever
                alive.add(k)
    return frozenset(alive)
