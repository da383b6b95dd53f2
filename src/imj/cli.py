"""Command-line entry points for the invariant calculators.

Subcommands: e2, run, chart, abutment, cohomology, mahler, limits,
cobar.  Flags: each subcommand takes only the options it reads
(`imj CMD -h`), declared once with flag, type, default and range check
in `_command` over its handler; a flag table (`_read_flags`), built at
import, and the parser (`_parser()`), built on first use, both come
from those declarations.  An argv of a subcommand and whole flags, each
followed by a value its type takes, is read from the table, which
records only the flags given; the top parser reads every other argv
(help, abbreviations, FLAG=VALUE, values that start with '-' and are
not negative numbers, errors) and refuses FLAG=-- as it refuses
`FLAG --`, so argparse writes all help and usage text.  Either way a
job has one options namespace, which `_resolve` completes in place and
the handler reads.  The config file is flat key=value text (# starts a
comment) whose keys are the subcommand's options spelled like the long
flags; an unknown key, or a value that does not parse (a boolean is one
of 1, true, yes, on, 0, false, no, off), is a configuration error.
Precedence is flags > config file > defaults.

Exit codes are stable: 0 on success, 1 when an engine self-check failed
(a bug; one `internal error:` line on stderr), 2 on precision failure (and
on usage or configuration errors, matching the argparse convention, and
on a value past its bound), 3 on window failure.  A reader that closes
stdout early (`| head`) ends the run with 0 and nothing on stderr.

Output formats. Tables are plain text, one record per line. Every JSON
document is written here, as the bytes json.dumps(doc, indent=2) writes:
`_json_dict` writes the dict documents, and `run` (the schema in
`_run_json`) and `e2` are written degree by degree from the records of
`ssq`, each shape of a degree's rows split once where the degree's own
text (tail and t) goes and filled by one str.join per degree
(`_joined`); each `run` page text of a degree is filled once.  The
tables and charts, whose shapes hold several fields per class, are
%-formatted per degree (`_texts`).  Charts place a class at (stem, s) =
(t - c, f + c):
ascii-chart draws one glyph per class ('o' for c = 0, 'z' for c = 1) in
3-column cells with '\\' in the cell up-left of a differential source;
svg-chart is byte-deterministic with fixed layout constants (28 px
cells, 40 px margins, radius-3 circles for c = 0, 6 px squares for
c = 1).

Stem windows convert to internal-degree windows by t in [a, b + 1], which
always contains its even interior, so any nonempty stem window is
even-compatible.
"""

import argparse
import gc
import json
import os
import re
import sys
from collections.abc import Iterator
from contextlib import nullcontext
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

from .cobar import ExteriorHopf, cobar_ext
from .grpcoh import abutment
from .mahler import MAX_LENGTH, h1_rational_profile, invariants
from .padic import PrecisionError, require_odd_prime
from .ssq import (WindowError, degree_records, join_name, kept,
                  monomial_head, run)
from .towers import lim_lim1, moore_example

_SVG_CELL = 28
_SVG_MARGIN = 40
_SVG_RADIUS = 3
_SVG_SQUARE = 6
# Largest accepted -N, --fmax and window spans; README states the timing
# of each at its bound.  `mahler -L` reads its bound from `mahler`.
_MAX_N = 64
_MAX_FMAX = 64
_MAX_STEMS = 5000
_MAX_T_SPAN = 40000
_MAX_K_SPAN = 10000
# Largest accepted -p and cobar --q: the trial division that decides
# primality stops within about 46,341 steps; README times each subcommand
# at this p.
_MAX_P = 2**31 - 1
# the config spellings of a boolean option
_BOOLS = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(
    ("0", "false", "no", "off"), False)


class _Opt:
    """One option of a subcommand; its config key is the last flag without
    dashes.  The value comes from the flag, else the config file, else
    `default` or, with `follows`, the value of that earlier option.
    `check(value, key, cmd)` returns a refusal message or None."""

    def __init__(self, flags: str, help: str, default: object = None,
                 cast: type = int, check=None, follows: str | None = None,
                 metavar: str | None = None):
        self.flags, self.help, self.default = flags, help, default
        self.cast, self.check, self.follows = cast, check, follows
        self.metavar = metavar
        # once, at declaration: every call of main reads them
        self.key = flags.split()[-1].lstrip("-")
        self.dest = self.key.replace("-", "_")

    def add_to(self, parser) -> None:
        kind = {"action": "store_true"} if self.cast is bool else \
            {"type": self.cast, "metavar": self.metavar}
        shown = "" if self.default is None or self.cast is bool else \
            f" (default {self.default})"
        parser.add_argument(*self.flags.split(), default=None,
                            help=self.help + shown, **kind)

    def resolve(self, args, filecfg: dict) -> object:
        val = getattr(args, self.dest, None)
        if val is None and self.key in filecfg:
            raw = filecfg[self.key]
            try:
                val = _BOOLS[raw.lower()] if self.cast is bool else \
                    self.cast(raw)
            except (KeyError, ValueError):
                want = f"one of {', '.join(_BOOLS)}" if self.cast is bool \
                    else "an integer"
                raise ValueError(f"config key {self.key!r} in {args.config}: "
                                 f"{raw!r} is not {want}") from None
        if val is None:
            val = self.default if self.follows is None else \
                getattr(args, self.follows)
        refusal = self.check and self.check(val, self.key, args.cmd)
        if refusal:
            raise ValueError(refusal)
        return val


def _bounded(noun, hi, lo=None, low=None):
    """Check lo <= value <= hi; `low` replaces the message below lo."""
    def check(v, key, cmd):
        if lo is not None and v < lo:
            return low or f"{noun} {key} must be at least {lo}, got {v}"
        if v > hi:
            return f"{cmd} {noun} {key}={v} is above the bound {key} <= {hi}"
    return check


_PRIME_BOUND = _bounded("prime", _MAX_P)


def _odd_prime(v, key, cmd):
    # the bound first, so trial division never starts past it; the gate's
    # ValueError reaches main as the same one-line error
    return _PRIME_BOUND(v, key, cmd) or require_odd_prime(v)


def _moore_only(v, key, cmd):
    if not v:
        return ("limits needs --moore: the Moore tower is the built-in "
                "example; other towers go through the library API")


def _formats(*names) -> _Opt:
    def check(v, key, cmd):
        if v not in names:
            return (f"format {v!r} not available for {cmd}; choose from "
                    f"{', '.join(names)}")
    return _Opt("--format", " or ".join(names), names[0], str, check)


def _resolve(args, options, window) -> argparse.Namespace:
    """`args` with every option of the subcommand set, flags > config file
    > defaults, checked option by option and then the window."""
    filecfg = {}
    if getattr(args, "config", None) is not None:
        filecfg = _read_config(args.config)
        valid = sorted(opt.key for opt in options)
        unknown = sorted(set(filecfg) - set(valid))
        if unknown:
            raise ValueError(f"unknown config key "
                             f"{', '.join(map(repr, unknown))} in "
                             f"{args.config}; valid keys for {args.cmd}: "
                             f"{', '.join(valid)}")
    for opt in options:
        setattr(args, opt.dest, opt.resolve(args, filecfg))
    if window:
        lo_opt, hi_opt, noun, span = window
        lo, hi = getattr(args, lo_opt.dest), getattr(args, hi_opt.dest)
        if lo > hi:
            raise WindowError(f"empty {noun} window {lo}..{hi}")
        if hi - lo > span:
            raise ValueError(f"{args.cmd} {noun} window {lo}..{hi} is "
                             f"above the bound {hi_opt.key} - "
                             f"{lo_opt.key} <= {span}")
    return args


def _read_config(path: str) -> dict:
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line {raw.strip()!r}: "
                                 f"expected key=value")
            key, _, val = line.partition("=")
            cfg[key.strip()] = val.strip()
    return cfg


_P = _Opt("-p", f"odd prime, at most {_MAX_P}", 3, check=_odd_prime)
_N = _Opt("-N", f"working precision, 4 to {_MAX_N}", 8,
          check=_bounded("precision", _MAX_N, 4))
_STEM_MIN = _Opt("--stem-min", "left edge of the stem window", -1)
_STEM_MAX = _Opt("--stem-max", "right edge of the stem window", 12)
_FMAX = _Opt("--fmax", f"largest chart height s shown, at most {_MAX_FMAX} "
             "(default: N)",
             follows="N", check=_bounded("max filtration", _MAX_FMAX, 0,
                                         "max filtration must be "
                                         "nonnegative"))
_T_MIN = _Opt("--t-min", "lowest internal degree", 0)
_T_MAX = _Opt("--t-max", "highest internal degree", 40)
_K_MIN = _Opt("--k-min", "first character", -50)
_K_MAX = _Opt("--k-max", "last character", 50)
_TABLE = _formats("table", "json")
_OUTPUT = _Opt("-o --output", "write to this path instead of stdout",
               cast=str)
_STEMS = (_STEM_MIN, _STEM_MAX, "stem", _MAX_STEMS)
# every subcommand's, read by `_resolve` itself rather than resolved
_CONFIG = _Opt("--config", "flat key=value config file; flags win",
               cast=str, metavar="PATH")

_COMMANDS = {}


def _command(name, summary, *options, window=None):
    """Declare subcommand `name` over its handler: the options it reads,
    in resolution order, and the window it checks as (low option, high
    option, noun, widest span)."""
    def register(handler):
        _COMMANDS[name] = (handler, summary, options, window)
        return handler
    return register


def _emit(out, output) -> int:
    """Write a handler's dict document (`_json_dict`) or lines (JSON comes
    in chunks that end where a line ends) to stdout or the output path."""
    with (nullcontext(sys.stdout) if output is None
          else open(output, "w", encoding="ascii")) as fh:
        for line in [_json_dict(out)] if isinstance(out, dict) else out:
            fh.write(line)
            fh.write("\n")
    return 0


def _json_dict(doc: dict) -> str:
    """json.dumps(doc, indent=2) for a document of JSON scalars and lists
    of scalars, of such lists or of flat objects, one %-format per object."""
    def text(val, indent):
        if not isinstance(val, list) or not val:
            return str(val) if type(val) is int else _scalar(val)
        inner = indent + "  "
        if isinstance(val[0], dict):
            row = f"{inner}{{\n" + ",\n".join(
                f'{inner}  "{key}": %s' for key in val[0]) + f"\n{inner}}}"
            rows = [row % tuple([x if type(x) is int else _scalar(x)
                                 for x in obj.values()]) for obj in val]
        else:
            rows = [inner + (str(x) if type(x) is int else text(x, inner))
                    for x in val]
        return "[\n" + ",\n".join(rows) + "\n" + indent + "]"
    return "{\n" + ",\n".join(f'  "{key}": {text(val, "  ")}'
                               for key, val in doc.items()) + "\n}"


def _scalar(val) -> str:
    """json.dumps(val) for a JSON scalar; a string through the quoting
    function json.dumps itself calls for one."""
    return _quote(val) if type(val) is str else json.dumps(val)


def _json_chunks(opening: str, texts, indent: str, after: str):
    """`opening`, the JSON array of `texts` (each one degree's rows) closed
    at the depth of `indent`, and `after`, as chunks joined by newlines."""
    held = None
    for text in texts:
        yield opening + "[" if held is None else held + ","
        held = text
    yield opening + "[]" + after if held is None else \
        held + "\n" + indent + "]" + after


def _texts(build, degs) -> Iterator[str]:
    """The nonempty text of each degree of `degs`, pairs (key, fields):
    degrees of one shape (key) differ only by the fields (t, the tail v1^k
    or pixel columns), so build(*key) formats them once as %-format text."""
    shapes = {key: build(*key) for key in {key for key, _ in degs}}
    return filter(None, (shapes[key] % fields for key, fields in degs))


def _joined(build, degs) -> Iterator[str]:
    """The nonempty JSON text of each degree of `degs`, pairs (key, sep):
    build(*key) gives the pieces of the degree's rows split where `sep`,
    its own text, goes, once per shape (key), and sep.join fills them."""
    shapes = {key: build(*key) for key in {key for key, _ in degs}}
    return filter(None, (sep.join(shapes[key]) for key, sep in degs))


@cache
def _names(height: int) -> tuple:
    """names[t0][c][f]: zeta^c b^f joined with the tail %(n)s, none at t0."""
    heads = [[monomial_head(f, c) for f in range(height)] for c in (0, 1)]
    return tuple(tuple(tuple(join_name(head, tail) for head in row)
                       for row in heads) for tail in ("%(n)s", ""))


def _columns(o, t: int) -> tuple:
    """The c for which the classes (t, f, c), at stem t - c, are shown."""
    return tuple(c for c in (0, 1) if o.stem_min <= t - c <= o.stem_max)


def _shown(height: int, cs: tuple, fmax: int) -> list[tuple[int, int]]:
    """The (f, c) shown of a degree: f < height, c in cs, f + c <= fmax."""
    return [(f, c) for f in range(height) for c in cs if f + c <= fmax]


def _sep(i: str, tail: str, t) -> str:
    """A degree's text in each of its class rows at depth `i`: the tail
    that ends the name, the glue to "t" and t; t alone at t = 0, whose
    names have no tail."""
    return f'{tail}",\n{i}  "t": {t}' if tail else str(t)


def _class_rows(names, t0: bool, pairs, i: str) -> list[str]:
    """The classes (f, c) of `pairs` in a degree (t = 0 if t0) as JSON
    objects at depth `i`, split where the degree's `_sep` goes."""
    return ",\n".join(
        f'{i}{{\n{i}  "name": "{names[t0][c][f]}",\n{i}  "t": %(t)s,\n'
        f'{i}  "f": {f},\n{i}  "c": {c}\n{i}}}' for f, c in pairs).split(
            _sep(i, "" if t0 else "%(n)s", "%(t)s"))


def _run_json(result) -> Iterator[str]:
    """An `ssq.RunResult` as a JSON document with two-space indentation.
    Keys in this order: prime, precision, window (the degrees [lo, hi]),
    pages (each {"r", "classes"} for r = 2 .. last_page), differentials
    (each {"r", "source", "target"} by name) and e_infinity; a class is
    {"name", "t", "f", "c"}.  Joined with newlines, the chunks are the
    bytes json.dumps(..., indent=2) writes.  Page r keeps every class of a
    degree with r <= v + 1, and of the others those that live forever."""
    N, last = result.precision, result.last_page
    names, page, top = _names(N), " " * 8, "    "
    # (v, t0, the quoted tail, t) of each degree
    degs = [(v, t == 0, _quote(tail)[1:-1], t)
            for t, v, _, tail in result.records]
    lo, hi = result.window
    opening = (f'{{\n  "prime": {result.prime},\n  "precision": {N},\n'
               f'  "window": [\n    {lo},\n    {hi}\n  ],\n  "pages": [\n')
    shapes = {(w, t0): _class_rows(names, t0, kept(N, w), page)
              for w, t0 in {(w, t0) for v, t0, _, _ in degs for w in (v, N)}}
    seps = [_sep(page, tail, t) for _, _, tail, t in degs]
    # a degree's text is its full text (shape (N, t0)) on pages 2 .. v + 1
    # and its kept text (shape (v, t0)) after; each is filled once, the
    # full text held only where a later page repeats it (v >= 2) and the
    # kept text only where a page shows it (v + 1 < last)
    full = [sep.join(shapes[N, t0]) if v >= 2 else None
            for (v, t0, _, _), sep in zip(degs, seps)]
    stable = [sep.join(shapes[v, t0]) if v + 1 < last else None
              for (v, t0, _, _), sep in zip(degs, seps)]
    for r in range(2, last + 1):
        yield from _json_chunks(
            opening + f'    {{\n      "r": {r},\n      "classes": ',
            (text if r > v + 1 else held or sep.join(shapes[N, t0])
             for (v, t0, _, _), sep, held, text
             in zip(degs, seps, full, stable)),
            " " * 6, "\n    }" + ("," if r < last else ""))
        opening = ""
    yield from _json_chunks('  ],\n  "differentials": ', _joined(
        lambda v, t0: ",\n".join(
            f'    {{\n      "r": {v},\n      "source": "{names[t0][0][f]}",'
            f'\n      "target": "{names[t0][1][f + v]}"\n    }}'
            for f in range(N - v)).split("%(n)s"),
        sorted([((v, t0), tail) for v, t0, tail, _ in degs],
               key=lambda d: d[0][0])), "  ", ",")
    yield from _json_chunks('  "e_infinity": ', _joined(
        lambda v, t0: _class_rows(names, t0, kept(N, v, t0), top),
        [((v, t0), _sep(top, tail, t)) for v, t0, tail, t in degs]),
        "  ", "\n}")


def _run_table(result) -> Iterator[str]:
    """An `ssq.RunResult` as a table: page sizes, differentials, E_infinity."""
    N, recs, names = result.precision, result.records, _names(result.precision)
    lo, hi = result.window
    yield f"run p={result.prime} N={N} t-window {lo}..{hi}"
    forever = {v: len(kept(N, v)) for v in {v for _, v, _, _ in recs}}
    for r in range(2, result.last_page + 1):
        size = sum(2 * N if r <= v + 1 else forever[v] for _, v, _, _ in recs)
        yield f"page {r}: {size} classes"
    yield "differentials:"
    degs = [((v, t == 0), {"n": tail}) for t, v, _, tail in recs]
    yield from _texts(lambda v, t0: "\n".join(
        f"d_{v}: {names[t0][0][f]} -> {names[t0][1][f + v]}"
        for f in range(N - v)), sorted(degs, key=lambda d: d[0][0]))
    yield "e_infinity: " + (", ".join(_texts(lambda v, t0: ", ".join(
        names[t0][c][f] for f, c in kept(N, v, t0)), degs)) or "-")


@_command("e2", "page-2 classes in a stem window", _P, _N, _STEM_MIN,
          _STEM_MAX, _FMAX, _TABLE, _OUTPUT, window=_STEMS)
def _cmd_e2(o) -> Iterator[str]:
    a, b, fmax = o.stem_min, o.stem_max, o.fmax
    names, recs = _names(fmax + 1), degree_records(o.p, (a, b + 1), 1)
    if o.format == "json":
        rows = _joined(lambda cs, t0: _class_rows(
            names, t0, _shown(fmax + 1, cs, fmax), "    "),
            [((_columns(o, t), t == 0), _sep("    ", _quote(tail)[1:-1], t))
             for t, _, _, tail in recs])
        return _json_chunks(
            f'{{\n  "prime": {o.p},\n  "window": [\n    {a},\n    {b}\n'
            f'  ],\n  "fmax": {fmax},\n  "classes": ', rows, "  ", "\n}")
    degs = [((_columns(o, t), t == 0), {"t": t, "u": t - 1, "n": tail})
            for t, _, _, tail in recs]
    return chain([f"E_2 p={o.p} stems {a}..{b} fmax={fmax}"], _texts(
        lambda cs, t0: "\n".join(
            f"{names[t0][c][f]}  t=%(t)s f={f} c={c}  "
            f"(stem %({'u' if c else 't'})s, s {f + c})"
            for f, c in _shown(fmax + 1, cs, fmax)), degs))


@_command("run", "run the filtration spectral sequence", _P, _N,
          _STEM_MIN, _STEM_MAX, _TABLE, _OUTPUT, window=_STEMS)
def _cmd_run(o) -> Iterator[str]:
    return (_run_json if o.format == "json" else _run_table)(
        run(o.p, (o.stem_min, o.stem_max + 1), o.N))


def _render_ascii(o, recs, s_top) -> list:
    a, b, N, fmax = o.stem_min, o.stem_max, o.N, o.fmax
    # three text columns per stem: the glyph, the differential mark, a gap
    rows = [[" "] * (3 * (b - a + 1)) for _ in range(s_top + 1)]
    for t, v, _, _ in recs:
        cs = _columns(o, t)
        for f, c in _shown(N, cs, fmax):
            rows[f + c][3 * (t - c - a)] = "oz"[c]
        # d_v (t, f, 0) -> (t, f + v, 1), both shown: '\\' up-left of f
        for f in range(min(N, fmax) - v if cs == (0, 1) else 0):
            rows[f + 1][3 * (t - 1 - a) + 1] = "\\"
    return ([f"p={o.p} N={N} page 2 stems {a}..{b}"]
            + [f"{s:3d} |" + "".join(rows[s]) for s in range(s_top, -1, -1)]
            + ["    +" + "-" * (3 * (b - a + 1)),
               "     " + "".join(f"{x:<3d}" for x in range(a, b + 1))])


def _render_svg(o, recs, s_top) -> Iterator[str]:
    a, b, N, fmax = o.stem_min, o.stem_max, o.N, o.fmax
    ncols = b - a + 1
    w = 2 * _SVG_MARGIN + ncols * _SVG_CELL
    h = 2 * _SVG_MARGIN + (s_top + 1) * _SVG_CELL

    def xpix(stem: int) -> int:
        return _SVG_MARGIN + (stem - a) * _SVG_CELL + _SVG_CELL // 2

    def ypix(s: int) -> int:
        return _SVG_MARGIN + (s_top - s) * _SVG_CELL + _SVG_CELL // 2

    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
           f'height="{h}" viewBox="0 0 {w} {h}">')
    yield f'<rect width="{w}" height="{h}" fill="#ffffff"/>'
    yield (f'<text x="{_SVG_MARGIN}" y="{_SVG_MARGIN - 16}" '
           f'font-family="monospace" font-size="12" fill="#000000">'
           f'p={o.p} N={N} page 2 stems {a}..{b}</text>')
    x0, x1 = _SVG_MARGIN, _SVG_MARGIN + ncols * _SVG_CELL
    for s in range(s_top + 1):
        y = ypix(s)
        yield (f'<line x1="{x0}" y1="{y}" x2="{x1}" y2="{y}" '
               f'stroke="#dddddd" stroke-width="1"/>')
        yield (f'<text x="{x0 - 18}" y="{y + 4}" font-family="monospace" '
               f'font-size="10" fill="#555555">{s}</text>')
    y0, y1 = _SVG_MARGIN, _SVG_MARGIN + (s_top + 1) * _SVG_CELL
    for st in range(a, b + 1):
        x = xpix(st)
        yield (f'<line x1="{x}" y1="{y0}" x2="{x}" y2="{y1}" '
               f'stroke="#eeeeee" stroke-width="1"/>')
        yield (f'<text x="{x - 4}" y="{y1 + 18}" font-family="monospace" '
               f'font-size="10" fill="#555555">{st}</text>')
    names, half = _names(N), _SVG_SQUARE // 2
    # pixel columns: %(x)s of stem t, %(w)s of t - 1, %(q)s a square there
    degs = [((v, t == 0, _columns(o, t)), {"x": xpix(t), "w": xpix(t - 1),
                                           "q": xpix(t - 1) - half, "n": tail})
            for t, v, _, tail in recs]
    yield from _texts(lambda v, t0, cs: "\n".join(
        f'<line x1="%(x)s" y1="{ypix(f)}" x2="%(w)s" y2="{ypix(f + v + 1)}" '
        f'stroke="#bb2222" stroke-width="1"><title>d_{v}: '
        f'{names[t0][0][f]} -&gt; {names[t0][1][f + v]}</title></line>'
        for f in range(min(N, fmax) - v if cs == (0, 1) else 0)),
        sorted(degs, key=lambda d: d[0][0]))
    yield from _texts(lambda _, t0, cs: "\n".join(
        f'<rect x="%(q)s" y="{ypix(f + 1) - half}" width="{_SVG_SQUARE}" '
        f'height="{_SVG_SQUARE}" fill="#000000"><title>{names[t0][1][f]}'
        f'</title></rect>' if c else
        f'<circle cx="%(x)s" cy="{ypix(f)}" r="{_SVG_RADIUS}" '
        f'fill="#000000"><title>{names[t0][0][f]}</title></circle>'
        for f, c in _shown(N, cs, fmax)), degs)
    yield "</svg>"


@_command("chart", "render the page-2 chart with differentials", _P, _N,
          _STEM_MIN, _STEM_MAX, _FMAX, _formats("ascii-chart", "svg-chart"),
          _OUTPUT, window=_STEMS)
def _cmd_chart(o) -> list | Iterator[str]:
    recs = run(o.p, (o.stem_min, o.stem_max + 1), o.N).records
    # the top chart height shown: s = f + c <= fmax with f < N
    s_top = max((min(o.N - 1 + c, o.fmax) for t, _, _, _ in recs
                 for c in _columns(o, t)), default=0)
    return (_render_svg if o.format == "svg-chart" else _render_ascii)(
        o, recs, s_top)


@_command("abutment", "graded cohomology of the abutment", _P, _N, _T_MIN,
          _T_MAX, _TABLE, _OUTPUT,
          window=(_T_MIN, _T_MAX, "degree", _MAX_T_SPAN))
def _cmd_abutment(o) -> dict | list:
    t_min, t_max = o.t_min, o.t_max
    report = abutment(o.p, (t_min, t_max), o.N)
    if o.format == "json":
        return {"prime": o.p, "precision": o.N, "window": [t_min, t_max],
                "groups": [{"s": s, "t": t, "group": group}
                           for s, t, group in report.described()]}
    return [f"abutment p={o.p} N={o.N} t {t_min}..{t_max}",
            *report.table_lines()]


@_command("cohomology", "per-character cohomology over a k window", _P,
          _N, _K_MIN, _K_MAX, _TABLE, _OUTPUT,
          window=(_K_MIN, _K_MAX, "character", _MAX_K_SPAN))
def _cmd_cohomology(o) -> dict | list:
    k_min, k_max = o.k_min, o.k_max
    profile = h1_rational_profile((k_min, k_max), o.p, o.N)
    if o.format == "json":
        return {"prime": o.p, "precision": o.N, "window": [k_min, k_max],
                "entries": [{"k": k, "h0": h0, "h1": h1,
                             "torsion_valuation": tv}
                            for k, (h0, h1, tv) in profile.entries.items()]}
    return [f"character cohomology p={o.p} N={o.N} k {k_min}..{k_max}",
            *profile.lines()]


@_command("mahler", "invariant functions in the Mahler model", _P, _N,
          _Opt("-L", f"window length, at most {MAX_LENGTH}", 16,
               check=_bounded("length", MAX_LENGTH)),
          _TABLE, _OUTPUT)
def _cmd_mahler(o) -> dict | list:
    rep = invariants(o.L, o.p, o.N)
    if o.format == "json":
        return {"prime": o.p, "precision": o.N, "length": rep.length,
                "rank": rep.rank, "kernel": rep.kernel.describe(),
                "generators": [[c.residue for c in g.coefficients]
                               for g in rep.generators]}
    lines = [f"mahler p={o.p} N={o.N} L={o.L}", rep.describe()]
    for i, gen in enumerate(rep.generators):
        lines.append(f"generator {i}:")
        lines.extend(gen.to_csv().splitlines())
    return lines


@_command("limits", "derived limits of the Moore tower", _P,
          _Opt("--moore", "use the built-in Moore tower", cast=bool,
               check=_moore_only), _TABLE, _OUTPUT)
def _cmd_limits(o) -> dict | list:
    rep = lim_lim1(tower := moore_example(o.p))
    if o.format == "json":
        return {"prime": o.p, "lim": rep.lim.describe(),
                "lim1_nonzero": rep.lim1_nonzero,
                "witness": rep.witness.describe() if rep.witness else None}
    return [tower.describe(), *rep.lines()]


@_command("cobar", "cobar Ext of an exterior Hopf algebra", _P,
          _Opt("-n", "number of generators", 2),
          _Opt("--smax", "top cohomological degree", 4),
          _Opt("--q", f"field order, an odd prime power, at most {_MAX_P} "
               "(default: p)", follows="p",
               check=_bounded("field order", _MAX_P)), _TABLE, _OUTPUT)
def _cmd_cobar(o) -> dict | list:
    n, smax, q = o.n, o.smax, o.q
    table = cobar_ext(ExteriorHopf(n, q), smax)
    if o.format == "json":
        return {"n": n, "q": q, "s_max": smax,
                "dims": [{"s": s, "t": t, "dim": d}
                         for (s, t), d in table.dims.items()]}
    return [f"cobar Ext n={n} q={q} smax={smax}", *table.lines()]


class _Parser(argparse.ArgumentParser):
    """Keeps a usage error on one line: what does not print, repr escapes."""

    def error(self, message):
        super().error("".join(c if c.isprintable() else repr(c)[1:-1]
                              for c in message))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="imj",
        description="height-one chromatic invariants at an odd prime")
    sub = parser.add_subparsers(dest="cmd", required=True,
                                metavar="SUBCOMMAND")
    for name, (_, summary, options, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        for opt in (*options, _CONFIG):
            opt.add_to(sp)
    return parser


# the top parser, built on the first argv the flag table declines, then
# kept: `import imj.cli` and a flag-table argv build none
_parser = cache(_build_parser)
# subcommand -> its flags, each to its _Opt
_FLAGS = {name: {flag: opt for opt in (*options, _CONFIG)
                 for flag in opt.flags.split()}
          for name, (_, _, options, _) in _COMMANDS.items()}
# the values argparse reads although they start with '-': its rule for a
# negative number, on a parser with no option that looks like one
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _read_flags(cmd: str, tokens) -> argparse.Namespace | None:
    """The flags given, with the values `_parser()` reads from [cmd, *tokens],
    when the tokens are whole flags of `cmd`, each followed by a value its
    cast takes (a store_true flag takes none); a repeated flag keeps its
    last value, as in argparse.  `_resolve` fills the options not given.
    Any other argv (-h, an abbreviation, FLAG=VALUE, a missing value, one
    starting with '-' that is not a negative number, one the cast refuses,
    a stray token) gives None, for `_parser()` to read: it alone writes
    help and usage errors."""
    flags, given = _FLAGS[cmd], {}
    rest = iter(tokens)
    for token in rest:
        opt = flags.get(token)
        if opt is None:
            return None
        if opt.cast is bool:
            given[opt.dest] = True
            continue
        val = next(rest, None)
        if val is None or val[:1] == "-" and not _NEGATIVE.match(val):
            return None
        try:
            given[opt.dest] = opt.cast(val)
        except ValueError:
            return None
    return argparse.Namespace(cmd=cmd, **given)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_flags(argv[0], argv[1:]) if argv and argv[0] in _FLAGS \
        else None
    if args is None:
        args = _parser().parse_args(argv)
        for opt in (*_COMMANDS[args.cmd][2], _CONFIG):
            # argparse (Python 3.11) drops the '--' of FLAG=--, leaving
            # [], where it refuses `FLAG --` as a missing value
            if getattr(args, opt.dest) == []:
                _parser().parse_args([args.cmd, opt.flags.split()[0], "--"])
    handler, _, options, window = _COMMANDS[args.cmd]
    try:
        _resolve(args, options, window)
        return _emit(handler(args), args.output)
    except PrecisionError as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return 2
    except WindowError as exc:
        print(f"window failure: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed stdout early (`imj run ... | head`), which is
        # not an error; fd 1 goes to devnull so the flush at exit passes
        if sys.stdout is sys.__stdout__:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


# The modules, functions and flag table built at import live as long as
# the process.  Freezing every object alive now moves them out of the
# collector's generations, so no later collection walks them again.  A
# long-lived caller (perfbench's worker) otherwise pays one generation-1
# pass over them, about 0.4 ms on a 2-CPU host, inside whichever job
# first fills generation 1; which job that is moves with how many
# objects the imports allocate.
gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
