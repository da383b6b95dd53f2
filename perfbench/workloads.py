"""Seeded job lists and their closed-form oracles.

Nothing here imports `imj`: every expected answer is recomputed from the
closed forms the README's acceptance gate states, so a wrong engine cannot
agree with itself.

A workload is an endless sequence of batches.  Each batch runs in a fresh
interpreter (cold module caches) and has the same composition: a fixed
number of jobs from each stratum.  Parameters inside a stratum come from a
seeded shuffle of that stratum's grid, consumed in order across batches, so
every run covers the grid evenly and two seeds give the same mix.
"""

from __future__ import annotations

import json
import math
import random

SPECTRAL_PRIMES = (3, 5, 7)
COMPOSITES = (9, 15, 21, 25)

# Exit codes the README documents: 0 success, 2 precision or usage failure,
# 3 window failure.
EXIT_OK, EXIT_PRECISION, EXIT_WINDOW = 0, 2, 3


class Job:
    """One user job: an `imj` argv (stdout JSON or SVG), or the arguments of
    one `towers.ssq_stage` library call.

    `check(rc, out)` returns None when the result matches the closed form,
    else a one-line reason.  `known_defect` names the documented defect a
    job exposes: a failure of that job with exit 0 is the defect, not an
    unexpected regression."""

    __slots__ = ("kind", "argv", "call", "expect_rc", "oracle", "known_defect")

    def __init__(self, kind, argv=None, call=None, expect_rc=EXIT_OK,
                 oracle=None, known_defect=None):
        self.kind = kind
        self.argv = argv
        self.call = call
        self.expect_rc = expect_rc
        self.oracle = oracle
        self.known_defect = known_defect

    def check(self, rc, out) -> str | None:
        if rc != self.expect_rc:
            return f"exit {rc}, expected {self.expect_rc}"
        if self.oracle is None:
            return None
        try:
            return self.oracle(out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {exc!r}"


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def monomial(k: int, j: int, eps: int) -> str:
    """README naming of the class zeta^eps b^j v1^k."""
    parts = ["zeta"] if eps else []
    if j:
        parts.append("b" if j == 1 else f"b^{j}")
    if k:
        parts.append("v1" if k == 1 else f"v1^{k}")
    return " ".join(parts) or "1"


def _even(lo: int, hi: int) -> range:
    return range(lo + (lo % 2), hi + 1, 2)


def _live_k(p: int, t_lo: int, t_hi: int) -> list[int]:
    """k = t/(2p-2) != 0 for the even t in [t_lo, t_hi] divisible by 2p-2."""
    per = 2 * p - 2
    return [t // per for t in _even(t_lo, t_hi) if t % per == 0 and t]


def run_precision(p: int, t_lo: int, t_hi: int) -> int:
    """Smallest N `imj run` accepts: N >= 4 and N >= 2 + (1 + v_p(k))
    for every k."""
    return max([4] + [3 + vp(k, p) for k in _live_k(p, t_lo, t_hi)])


# ---- oracles ----

def oracle_run(p: int, N: int, stem_min: int, stem_max: int):
    """Differentials are exactly d_{1+v_p(k)}(b^j v1^k) = zeta b^{j+v} v1^k
    for every j with j + v < N."""
    want = set()
    for k in _live_k(p, stem_min, stem_max + 1):
        v = 1 + vp(k, p)
        for j in range(N - v):
            want.add((v, monomial(k, j, 0), monomial(k, j + v, 1)))

    def check(out):
        doc = json.loads(out)
        if (doc["prime"], doc["precision"]) != (p, N):
            return "header mismatch"
        got = {(d["r"], d["source"], d["target"])
               for d in doc["differentials"]}
        if got != want:
            return (f"differential set differs: {len(got - want)} extra, "
                    f"{len(want - got)} missing")
        return None
    return check


def oracle_chart(p: int, N: int, stem_min: int, stem_max: int):
    """Page 2 holds b^j v1^k and zeta b^j v1^k for 0 <= j < N on every
    divisible degree t = (2p-2)k (k = 0 included); the chart draws each
    class at stem t - c with s = j + c <= N."""
    per = 2 * p - 2
    want = 0
    for t in _even(stem_min, stem_max + 1):
        if t % per:
            continue
        want += N * (stem_min <= t <= stem_max)
        want += N * (stem_min <= t - 1 <= stem_max)

    def check(out):
        if not out.startswith("<svg") or not out.rstrip().endswith("</svg>"):
            return "not an svg document"
        got = out.count("<circle ") + out.count("<rect x=")
        return None if got == want else f"{got} glyphs, expected {want}"
    return check


def oracle_abutment(p: int, N: int, t_min: int, t_max: int):
    """Z_p at (0,0) and (1,0); Z/p^{1+v_p(t/(2p-2))} at (1,t) on the
    divisible line; nothing else."""
    want = []
    for t in _even(t_min, t_max):
        if t == 0:
            want += [(0, 0, f"Z_{p}"), (1, 0, f"Z_{p}")]
        elif t % (2 * p - 2) == 0:
            e = 1 + vp(t // (2 * p - 2), p)
            want.append((1, t, f"Z/{p}" if e == 1 else f"Z/{p}^{e}"))

    def check(out):
        doc = json.loads(out)
        got = [(g["s"], g["t"], g["group"]) for g in doc["groups"]]
        return None if got == want else "group table differs"
    return check


def oracle_cohomology(p: int, N: int, k_min: int, k_max: int):
    """Rational H^0 and H^1 only at k = 0; torsion valuation 1 + v_p(k)
    when (p-1) | k, else 0 (N, the ceiling, at k = 0)."""
    want = []
    for k in range(k_min, k_max + 1):
        if k == 0:
            want.append((0, 1, 1, N))
        else:
            want.append((k, 0, 0, 1 + vp(k, p) if k % (p - 1) == 0 else 0))

    def check(out):
        doc = json.loads(out)
        got = [(e["k"], e["h0"], e["h1"], e["torsion_valuation"])
               for e in doc["entries"]]
        return None if got == want else "character table differs"
    return check


def oracle_mahler(L: int):
    """Invariant rank 1, spanned by the constant function."""
    def check(out):
        doc = json.loads(out)
        if doc["rank"] != 1 or doc["length"] != L:
            return f"rank {doc['rank']} at length {doc['length']}"
        if doc["generators"] != [[1] + [0] * (L - 1)]:
            return "generator is not the constant function"
        return None
    return check


def oracle_cobar(n: int, S: int):
    """Ext of an exterior algebra on n generators is symmetric on n classes
    in (1, -1): dimension C(n+s-1, s) at t = -s."""
    want = [(s, -s, math.comb(n + s - 1, s)) for s in range(S + 1)]

    def check(out):
        doc = json.loads(out)
        got = [(d["s"], d["t"], d["dim"]) for d in doc["dims"]]
        return None if got == want else "Ext dimensions differ"
    return check


def oracle_ssq_stage(r: int, kmax: int):
    """Moore tower: page r keeps exactly the k <= kmax with k >= r - 2."""
    want = frozenset(range(max(r - 2, 0), kmax + 1))

    def check(out):
        return None if out == want else f"stage {sorted(out)}"
    return check


# ---- job builders ----

def _window(rng: random.Random, p: int, nk: int) -> tuple[int, int]:
    """A stem window covering about nk divisible degrees, offset at random."""
    per = 2 * p - 2
    lo = per * rng.randint(-nk // 2, 2) - rng.randint(0, 2)
    hi = lo + per * nk + rng.randint(-1, 1)
    return lo, hi


def _cli(*words) -> list[str]:
    return [str(w) for w in words]


def job_run(rng, p, nk, extra, fmt="json"):
    lo, hi = _window(rng, p, nk)
    N = run_precision(p, lo, hi + 1) + extra
    argv = _cli("-p", p, "-N", N, "--stem-min", lo, "--stem-max", hi)
    if fmt == "json":
        return Job("run", ["run", *argv, "--format", "json"],
                   oracle=oracle_run(p, N, lo, hi))
    return Job("chart", ["chart", *argv, "--format", "svg-chart"],
               oracle=oracle_chart(p, N, lo, hi))


def job_abutment(rng, p, quarters):
    """A window of quarters/4 of the gate's |t| <= 2(2p-2)p^2 range, offset
    at random."""
    width = 2 * (2 * p - 2) * p * p * quarters // 2
    t_min = -2 * rng.randint(0, width // 2)
    t_max = t_min + width
    need = max([4] + [2 + vp(k, p) for k in _live_k(p, t_min, t_max)])
    N = need + rng.randint(0, 1)
    return Job("abutment", _cli("abutment", "-p", p, "-N", N, "--t-min",
                                t_min, "--t-max", t_max, "--format", "json"),
               oracle=oracle_abutment(p, N, t_min, t_max))


def job_cohomology(rng, p):
    k_min, k_max = -rng.randint(0, 50), rng.randint(0, 50)
    need = max([4] + [3 + vp(k, p) for k in range(k_min, k_max + 1) if k])
    N = need + rng.randint(0, 4)
    return Job("cohomology", _cli("cohomology", "-p", p, "-N", N, "--k-min",
                                  k_min, "--k-max", k_max, "--format", "json"),
               oracle=oracle_cohomology(p, N, k_min, k_max))


def job_ssq_stage(rng, p, kmax):
    r = rng.randint(2, 8)
    return Job("ssq_stage", call=(p, r, kmax),
               oracle=oracle_ssq_stage(r, kmax))


def job_edge(rng, what):
    """Contract edges: inputs the README says are refused with an exit code."""
    p = rng.choice(SPECTRAL_PRIMES)
    cmd = rng.choice(("run", "chart"))
    fmt = "json" if cmd == "run" else "svg-chart"
    if what == "precision":
        # the window holds k = p^2, so the requirement is at least 5
        per = 2 * p - 2
        lo = per * rng.randint(0, 2)
        hi = per * (p * p + rng.randint(0, 4))
        N = run_precision(p, lo, hi + 1) - 1
        return Job("edge_precision", _cli(cmd, "-p", p, "-N", N, "--stem-min",
                                          lo, "--stem-max", hi, "--format",
                                          fmt), expect_rc=EXIT_PRECISION)
    if what == "composite":
        q = rng.choice(COMPOSITES)
        cmd = rng.choice(("run", "chart", "abutment"))
        fmt = "svg-chart" if cmd == "chart" else "json"
        return Job("edge_composite", _cli(cmd, "-p", q, "--format", fmt),
                   expect_rc=EXIT_PRECISION)
    if what == "inverted_stem":
        a = rng.randint(1, 40)
        return Job("edge_inverted_stem",
                   _cli(cmd, "-p", p, "--stem-min", a, "--stem-max",
                        a - rng.randint(1, 20), "--format", fmt),
                   expect_rc=EXIT_WINDOW)
    if what == "inverted_t":
        a = 2 * rng.randint(1, 40)
        return Job("edge_inverted_t",
                   _cli("abutment", "-p", p, "--t-min", a, "--t-max",
                        a - 2 * rng.randint(1, 20), "--format", "json"),
                   expect_rc=EXIT_WINDOW, known_defect="inverted_t_window")
    if what == "inverted_k":
        a = rng.randint(1, 40)
        return Job("edge_inverted_k",
                   _cli("cohomology", "-p", p, "--k-min", a, "--k-max",
                        a - rng.randint(1, 20), "--format", "json"),
                   expect_rc=EXIT_WINDOW, known_defect="inverted_k_window")
    raise ValueError(what)


def job_mahler(L, p, N):
    return Job(f"mahler_L{L}", _cli("mahler", "-p", p, "-N", N, "-L", L,
                                    "--format", "json"),
               oracle=oracle_mahler(L))


def job_cobar(n, S, q, kind):
    return Job(kind, _cli("cobar", "-n", n, "--smax", S, "--q", q,
                          "--format", "json"),
               oracle=oracle_cobar(n, S))


# ---- batch composition ----

class _Grid:
    """Seeded endless walk over a parameter grid.  Each pass is a fresh
    shuffle, so every len(grid) consecutive draws from a multiple of
    len(grid) cover the grid exactly once."""

    def __init__(self, seed, name, grid):
        self.seed, self.name, self.grid = seed, name, list(grid)

    def __getitem__(self, i):
        cycle, pos = divmod(i, len(self.grid))
        order = list(self.grid)
        random.Random(f"{self.seed}:{self.name}:{cycle}").shuffle(order)
        return order[pos]


# (stratum, jobs per batch, parameter grid).  Every parameter that sets a
# job's cost is in its grid; the per-job random draws only move windows.
# Four batches (a 24 s run) walk every grid a whole number of times.
SPECTRAL_STRATA = (
    # run and chart: (p, divisible degrees in the window, N above the need)
    ("run_small", 6, [(p, nk, e) for p in SPECTRAL_PRIMES
                      for nk in (2, 4, 6, 8) for e in (0, 1)]),
    ("run_medium", 3, [(p, nk, e) for p in SPECTRAL_PRIMES
                       for nk, e in ((16, 0), (20, 1), (24, 0), (28, 1))]),
    # a run's 11th-slowest job, the tail, is the middle of its twelve
    # run_large jobs
    ("run_large", 3, [(p, nk, e) for p in SPECTRAL_PRIMES
                      for nk, e in ((32, 0), (36, 1), (40, 0), (44, 1))]),
    ("run_xl", 1, [(3, 72, 0), (3, 64, 1), (5, 72, 0), (7, 72, 1)]),
    ("chart_small", 3, [(p, nk, e) for p in SPECTRAL_PRIMES
                        for nk, e in ((2, 0), (4, 1), (6, 0), (8, 1))]),
    ("chart_medium", 3, [(p, nk, e) for p in SPECTRAL_PRIMES
                         for nk, e in ((12, 0), (16, 1), (20, 0), (24, 1))]),
    ("abutment", 6, [(p, q) for p in SPECTRAL_PRIMES for q in (1, 2, 3, 4)]),
    ("ssq_stage", 6, [(p, kmax) for p in SPECTRAL_PRIMES
                      for kmax in (2, 3, 5, 6)]),
    # one edge the README contract covers and the code enforces ...
    ("edge_enforced", 1, [("precision",), ("composite",), ("inverted_stem",)]),
    # ... and one whose documented exit code the code does not give today
    ("edge_defect", 1, [("inverted_t",), ("inverted_k",)]),
)

# (p, N) settings of the short jobs: three batches (a 24 s run) walk each
# grid a whole number of times.  A run holds 15 jobs with L >= 96: three
# L = 128 at their cheapest setting and three L = 96 at each of the four
# settings, so the tail (the 11th-slowest job) is the middle L = 96 job of
# the (5, 8) setting rather than the edge of a cost band.
MAHLER_PN = [(3, 8), (5, 8), (5, 12)]
MAHLER_STRATA = (
    ("cohomology", 4, [(p,) for p in (3, 5)]),
    ("L16", 3, [(16, p, N) for p, N in MAHLER_PN]),
    ("L32", 3, [(32, p, N) for p, N in MAHLER_PN]),
    ("L64", 1, [(64, p, N) for p, N in MAHLER_PN]),
    ("L96", 4, [(96, p, N) for p in (3, 5) for N in (8, 12)]),
    ("L128", 1, [(128, 3, 8)]),
)

# Cobar sizes and field orders; q shares its characteristic p with other q,
# and the module caches block ranks by (n, s, profile, p).
COBAR_SIZES = ((2, 6), (3, 4), (3, 5), (4, 3), (4, 4))
COBAR_Q_BY_P = {3: (3, 9, 27), 5: (5, 25), 7: (7,), 11: (11,), 13: (13,)}


def _stratified(seed, workload, batch, strata, build):
    jobs = []
    for name, count, grid in strata:
        walk = _Grid(f"{workload}:{seed}", name, grid)
        for j in range(count):
            rng = random.Random(f"{workload}:{seed}:{batch}:{name}:{j}")
            jobs.append(build(name, rng, *walk[batch * count + j]))
    random.Random(f"{workload}:{seed}:{batch}:order").shuffle(jobs)
    return jobs


def _spectral_job(name, rng, *params):
    if name.startswith("run_"):
        return job_run(rng, *params)
    if name.startswith("chart_"):
        return job_run(rng, *params, fmt="svg")
    if name == "abutment":
        return job_abutment(rng, *params)
    if name == "ssq_stage":
        return job_ssq_stage(rng, *params)
    return job_edge(rng, *params)


def _mahler_job(name, rng, *params):
    if name == "cohomology":
        return job_cohomology(rng, *params)
    return job_mahler(*params)


def _cobar_batch(seed, batch):
    """Every size once, cold, in a fixed order (sizes with the same n share
    the block-dimension cache), each in its own characteristic; the
    assignment rotates from batch to batch.  Each cold job is followed, at
    random places later in the batch, by three repeats of its (n, S, p):
    one spelled with the same q and two with any q of that characteristic.
    The repeats hit the block-rank cache.  Repeats cost in proportion to
    the profiles cobar_ext walks, so with three per size the median job
    sits inside the (3, 5) repeats rather than at a boundary."""
    rng = random.Random(f"cobar:{seed}:{batch}")
    primes = list(COBAR_Q_BY_P)
    shift = batch + random.Random(f"cobar:{seed}").randrange(len(primes))
    keyed = []  # (place in the batch, job)
    for i, (n, S) in enumerate(COBAR_SIZES):
        p = primes[(i + shift) % len(primes)]
        q = rng.choice(COBAR_Q_BY_P[p])
        keyed.append((i, job_cobar(n, S, q, "cobar_cold")))
        for spelling in (q, *rng.choices(COBAR_Q_BY_P[p], k=2)):
            place = i + 0.001 + rng.random() * (len(COBAR_SIZES) - i)
            keyed.append((place, job_cobar(n, S, spelling, "cobar_hit")))
    return [job for _, job in sorted(keyed, key=lambda kj: kj[0])]


WORKLOADS = ("spectral", "mahler", "cobar")

# Batches in a 24 s run (run_seconds in BENCHMARK.json).  These counts
# walk every parameter grid a whole number of times, and each run is 20 to
# 25 s of work at reference speed (hostspeed.py).  A run of --seconds has
# round(BATCHES_PER_24_S * seconds / 24) batches, at least two.
BATCHES_PER_24_S = {"spectral": 4, "mahler": 3, "cobar": 6}


def batch_jobs(workload: str, seed: int, batch: int) -> list[Job]:
    """The jobs of one batch; the same (workload, seed, batch) gives the
    same list."""
    if workload == "spectral":
        return _stratified(seed, workload, batch, SPECTRAL_STRATA,
                           _spectral_job)
    if workload == "mahler":
        return _stratified(seed, workload, batch, MAHLER_STRATA, _mahler_job)
    if workload == "cobar":
        return _cobar_batch(seed, batch)
    raise ValueError(f"unknown workload {workload!r}")
