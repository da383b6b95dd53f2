"""Host-speed reference: a fixed pure-Python kernel timed between jobs.

The reference host alternates between phases in which the same code runs
up to 1.6x slower, each lasting seconds to minutes, and CPU time slows with
wall time.  A run of half a minute can sit wholly inside one phase, so raw
job times spread by 20-30% from run to run.  Each worker therefore times
this kernel before its first job and after every job, and a job's time is
rescaled by the mean of the two readings around it:

    seconds at reference speed = measured seconds * REF_NOMINAL_S / reading

The kernel is benchmark code, so no change to `imj` can move it.  It uses
what the jobs use: small-object churn, modular integer arithmetic, dict
traffic and list comprehensions, and no numpy.
"""

import statistics
from time import perf_counter

# The kernel's reading on the reference host in its fast phase (2 CPUs,
# Python 3.11.7); it sets the scale of every rescaled time.
REF_NOMINAL_S = 0.0033
_ROUNDS = 5


class _Cell:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v


def _kernel() -> int:
    m = 3 ** 20
    cells = [_Cell(i) for i in range(300)]
    acc = 1
    for _ in range(5):
        cells = [_Cell((c.v * 7 + acc) % m) for c in cells]
        acc = sum(c.v for c in cells) % m
    table = {}
    for i in range(1500):
        k = (i * 31 + acc) % 257
        table[k] = table.get(k, 0) + i
    rows = [[(a * b + acc) % 97 for b in range(24)] for a in range(24)]
    return acc + len(table) + rows[5][7]


def reference_seconds() -> float:
    """Median of three timings of _ROUNDS kernel calls (about 10 ms)."""
    samples = []
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(_ROUNDS):
            _kernel()
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


def at_reference(seconds: float, reading: float) -> float:
    """A measured time rescaled to the reference host's fast phase."""
    return seconds * REF_NOMINAL_S / reading
