"""Spans around the public functions of each `imj` module, from outside.

`Tracer.install()` replaces every traced function with a wrapper in every
loaded `imj` module that binds it (`imj.mahler.snf` is the same object as
`imj.gmod.snf`, so both names are patched), and class attributes on their
class.  Each call records a span (name, start, end, parent span, job id)
in flat arrays kept in memory; `write()` dumps them when the batch ends.
Self time is a span's duration minus that of its direct child spans; the
totals rescale each job's self times to reference speed (hostspeed.py),
while the written spans keep the measured times.
`PadicInt` methods are not wrapped: they run millions of times per job,
and their cost shows as self time of the caller (`mahler.psi_matrix`).
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

# (module, attribute path) in the order the per-layer metrics list them.
TRACED = (
    ("cli", "main"),
    ("padic", "psi_generator"), ("padic", "teichmuller"), ("padic", "binom"),
    ("gmod", "snf"), ("gmod", "kernel_gens"), ("gmod", "solve"),
    ("gmod", "homology"), ("gmod", "quotient_presentation"),
    ("gmod", "sub_intersect"), ("gmod", "sub_preimage"), ("gmod", "matinv"),
    ("gmod", "ModMatrix.__mul__"),
    ("ssq", "run"), ("ssq", "e2_page"), ("ssq", "FilteredComplexSS.piece"),
    ("ssq", "FilteredComplexSS.induced"),
    ("grpcoh", "abutment"), ("grpcoh", "two_term_cohomology"),
    ("grpcoh", "character_cohomology"), ("grpcoh", "PsiModule.lubin_tate"),
    ("mahler", "invariants"), ("mahler", "psi_matrix"),
    ("mahler", "h1_rational_profile"),
    ("towers", "ssq_stage"), ("towers", "lim_lim1"),
    ("cobar", "cobar_ext"), ("cobar", "rank_mod_p"),
)

# Matrix arguments whose size (rows * cols) is counted as `cells`.
_CELLS = {"gmod.snf": lambda A: A.rows * A.cols,
          "cobar.rank_mod_p": lambda M: int(M.shape[0]) * int(M.shape[1])}
_PIECE, _COBAR, _RANK = ("ssq.FilteredComplexSS.piece", "cobar.cobar_ext",
                         "cobar.rank_mod_p")


class Tracer:
    """Spans and per-function counts for the jobs of one worker."""

    def __init__(self):
        self.names = [f"{mod}.{path}" for mod, path in TRACED]
        index = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)  # rescaled, finished jobs
        self._job_self = [0.0] * len(self.names)  # measured, current job
        self.cells = {name: [0, 0] for name in _CELLS}  # total, max
        # spans, one entry per call in completion order
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job_of = array("l")
        self.job = -1
        self._open = []  # [span id, child time] of calls still running
        self._next_id = 0
        self._ids = array("l")  # span id of each completed entry
        self._pieces = {}  # id(instance) -> (instance, set of keys), per job
        self.piece_distinct = 0
        self.cobar_cold = 0
        self._index = index
        self.t0 = perf_counter()

    # ---- wrapping ----

    def _wrap(self, name, fn):
        i = self._index[name]
        rank_i = self._index[_RANK]
        opened, calls, self_s = self._open, self.calls, self._job_self
        cells = self.cells.get(name)
        size = _CELLS.get(name)
        note_piece = self._note_piece if name == _PIECE else None
        is_cobar = name == _COBAR
        tracer = self

        def traced(*args, **kwargs):
            if cells is not None:
                c = size(args[0])
                cells[0] += c
                if c > cells[1]:
                    cells[1] = c
            if note_piece is not None:
                note_piece(args)
            ranks = calls[rank_i]
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0.0]
            opened.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                opened.pop()
                dur = t1 - t0
                calls[i] += 1
                self_s[i] += dur - frame[1]
                if opened:
                    opened[-1][1] += dur
                if is_cobar and calls[rank_i] > ranks:
                    tracer.cobar_cold += 1
                tracer._ids.append(sid)
                tracer.name.append(i)
                tracer.start.append(t0 - tracer.t0)
                tracer.end.append(t1 - tracer.t0)
                tracer.parent.append(opened[-1][0] if opened else -1)
                tracer.job_of.append(tracer.job)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _note_piece(self, args):
        inst, key = args[0], args[1:]
        # hold the instance for the job so its id cannot be reused
        entry = self._pieces.setdefault(id(inst), (inst, set()))
        if key not in entry[1]:
            entry[1].add(key)
            self.piece_distinct += 1

    def install(self):
        """Patch every traced name in every loaded imj module."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "imj" or name.startswith("imj.")]
        for name_, (mod, path) in zip(self.names, TRACED):
            owner = sys.modules[f"imj.{mod}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = vars(cls)[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(name_,
                                                              raw.__func__)))
                else:
                    setattr(cls, attr, self._wrap(name_, raw))
                continue
            original = getattr(owner, path)
            wrapped = self._wrap(name_, original)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, attr, wrapped)

    # ---- per job ----

    def begin_job(self, job_id: int):
        self.job = job_id
        self._pieces.clear()

    def end_job(self, scale: float):
        """Fold the job's self times into the totals, multiplied by scale
        (the job's host-speed rescaling factor)."""
        for i, secs in enumerate(self._job_self):
            self.self_s[i] += secs * scale
            self._job_self[i] = 0.0

    # ---- results ----

    def layer_metrics(self) -> dict:
        """Counts and self seconds (at reference speed) per traced name,
        plus the extras."""
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
        for name, (total, peak) in self.cells.items():
            out[f"{name}.cells"] = total
            out[f"{name}.max_cells"] = peak
        out["piece_distinct"] = self.piece_distinct
        out["cobar_cold"] = self.cobar_cold
        return out

    def write(self, path):
        """Spans as gzip CSV: id, name, start_s, end_s, parent id, job.
        Times are as measured, in seconds since the tracer was made."""
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("span,name,start_s,end_s,parent,job\n")
            names = self.names
            for k in range(len(self._ids)):
                fh.write(f"{self._ids[k]},{names[self.name[k]]},"
                         f"{self.start[k]:.7f},{self.end[k]:.7f},"
                         f"{self.parent[k]},{self.job_of[k]}\n")
