"""Command-line entry points for the invariant calculators.

Subcommands: e2, run, chart, abutment, cohomology, mahler, limits, cobar.
Flags: each subcommand takes only the options it reads (`imj CMD -h`),
declared once with flag, type, default and range check in `_command`
over its handler.  The config file is flat key=value text (# starts a
comment) whose keys are the subcommand's options spelled like the long
flags; an unknown key is a configuration error.  Precedence is flags >
config file > defaults.

Exit codes are stable: 0 on success, 1 when an engine self-check failed
(a bug; one `internal error:` line on stderr), 2 on precision failure (and
on usage or configuration errors, matching the argparse convention, and
on a value past its bound), 3 on window failure.

Output formats. Tables are plain text, one record per line. Every JSON
document is written here, as the bytes json.dumps(doc, indent=2) writes:
`_emit` dumps the dict documents, and `run` and `e2`, whose documents
list one object per class, format each class row once with
`_json_class_rows`; `run` writes the page/differential schema stated in
`_run_json`, one page at a time. Charts place a class at
(stem, s) = (t - c, f + c): ascii-chart draws one glyph per class ('o'
for c = 0, 'z' for c = 1) in 3-column cells with '\\' in the cell
up-left of a differential source; svg-chart is byte-deterministic with
fixed layout constants (28 px cells, 40 px margins, radius-3 circles for
c = 0, 6 px squares for c = 1).

Stem windows convert to internal-degree windows by t in [a, b + 1], which
always contains its even interior, so any nonempty stem window is
even-compatible.
"""

import argparse
import json
import sys
from collections import Counter
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

from .cobar import ExteriorHopf, cobar_ext
from .grpcoh import abutment
from .mahler import h1_rational_profile, invariants
from .padic import PrecisionError, is_prime
from .ssq import WindowError, e2_page, run
from .towers import lim_lim1, moore_example

_SVG_CELL = 28
_SVG_MARGIN = 40
_SVG_RADIUS = 3
_SVG_SQUARE = 6
# Largest accepted `mahler -L` and `mahler -N`, inside the 10 s ceiling:
# the slowest accepted corner, `imj mahler -p 2147483647 -N 64 -L 256
# --format json`, takes 0.88 s (process wall time, median of 5, Python
# 3.11.7, 2 CPUs; BENCH_26.json), and p in {3, 5, 7} at most 0.35 s over
# N in {8, 32, 64} (README).
_MAHLER_MAX_L = 256
_MAHLER_MAX_N = 64
# Largest accepted -N, --fmax and window spans of the other subcommands;
# README states the timing of each at its bound.
_MAX_N = 64
_MAX_FMAX = 64
_MAX_STEMS = 5000
_MAX_T_SPAN = 40000
_MAX_K_SPAN = 10000
# Largest accepted -p and cobar --q: the trial division that decides
# primality (and factors p - 1 for the primitive root) stops within about
# 46,341 steps; README states the timing of each subcommand at this p.
_MAX_P = 2**31 - 1


class _Opt(NamedTuple):
    """One option of a subcommand; its config key is the last flag without
    dashes.  The value comes from the flag, else the config file, else
    `default` or, with `follows`, the value of that earlier option.
    `check(value, key, cmd)` returns a refusal message or None."""

    flags: str
    help: str
    default: object = None
    cast: type = int
    check: object = None
    follows: str | None = None

    @property
    def key(self) -> str:
        return self.flags.split()[-1].lstrip("-")

    @property
    def dest(self) -> str:
        return self.key.replace("-", "_")

    def add_to(self, parser) -> None:
        kind = {"action": "store_true"} if self.cast is bool else \
            {"type": self.cast}
        shown = "" if self.default is None or self.cast is bool else \
            f" (default {self.default})"
        parser.add_argument(*self.flags.split(), default=None,
                            help=self.help + shown, **kind)

    def resolve(self, args, filecfg: dict, got: dict) -> object:
        val = getattr(args, self.dest)
        if val is None and self.key in filecfg:
            raw = filecfg[self.key]
            val = (raw.lower() in ("1", "true", "yes", "on")
                   if self.cast is bool else self.cast(raw))
        if val is None:
            val = self.default if self.follows is None else \
                got[self.follows]
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


def _odd_prime(v, key, cmd):
    # the bound first, so trial division never starts past it
    refusal = _bounded("prime", _MAX_P)(v, key, cmd)
    if refusal:
        return refusal
    if v % 2 == 0 or not is_prime(v):
        return f"p must be an odd prime, got {v}"


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
    """The subcommand's values, flags > config file > defaults, checked
    option by option and then the window."""
    filecfg = _read_config(args.config) if args.config else {}
    valid = sorted(opt.key for opt in options)
    unknown = sorted(set(filecfg) - set(valid))
    if unknown:
        raise ValueError(f"unknown config key "
                         f"{', '.join(map(repr, unknown))} in "
                         f"{args.config}; valid keys for {args.cmd}: "
                         f"{', '.join(valid)}")
    got = {}
    for opt in options:
        got[opt.dest] = opt.resolve(args, filecfg, got)
    if window:
        lo_opt, hi_opt, noun, span = window
        lo, hi = got[lo_opt.dest], got[hi_opt.dest]
        if lo > hi:
            raise WindowError(f"empty {noun} window {lo}..{hi}")
        if hi - lo > span:
            raise ValueError(f"{args.cmd} {noun} window {lo}..{hi} is "
                             f"above the bound {hi_opt.key} - "
                             f"{lo_opt.key} <= {span}")
    return argparse.Namespace(**got)


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
    """Write a handler's JSON document (a dict) with two-space indentation,
    or its lines (any iterable; `run` and `e2` write their JSON text this
    way), to stdout or the output path, each line and then its newline,
    so a large document is not copied once more to join it."""
    if isinstance(out, dict):
        out = [json.dumps(out, indent=2)]
    if output is None:
        _write_lines(out, sys.stdout)
    else:
        with open(output, "w", encoding="ascii") as fh:
            _write_lines(out, fh)
    return 0


def _write_lines(lines, fh) -> None:
    for line in lines:
        fh.write(line)
        fh.write("\n")


def _json_class_rows(classes, indent: str) -> list[str]:
    """Each class as the JSON object {"name", "t", "f", "c"} that
    `json.dumps(..., indent=2)` writes at the depth of `indent`, a string
    of spaces, with the name escaped as json.dumps escapes it."""
    inner = indent + "  "
    return [f'{indent}{{\n{inner}"name": {_quote(cl.name)},\n'
            f'{inner}"t": {cl.t},\n{inner}"f": {cl.f},\n'
            f'{inner}"c": {cl.c}\n{indent}}}' for cl in classes]


def _json_list(rows: list[str], indent: str) -> str:
    """JSON rows (each already indented) as the array json.dumps(...,
    indent=2) writes, its closing bracket at the depth of `indent`."""
    if not rows:
        return "[]"
    return "[\n" + ",\n".join(rows) + "\n" + indent + "]"


def _run_json(result) -> Iterator[str]:
    """An `ssq.RunResult` as a JSON document with two-space indentation,
    yielded as its head, each page and its tail, which join with newlines
    and end with no final newline.  Keys in this order: prime, precision,
    window (the degrees [lo, hi]), pages (each {"r", "classes"} for
    r = 2 .. last_page), differentials (each {"r", "source", "target"} by
    name) and e_infinity; a class is {"name", "t", "f", "c"}.

    Joined, these are the bytes json.dumps(..., indent=2) writes for that
    document, but each class row is formatted once, a page joins the rows
    of the classes still alive on it, and one page is held at a time."""
    rows = _json_class_rows((cl for cl, _ in result.classes), " " * 8)
    lasts = [last for _, last in result.classes]
    lo, hi = result.window
    # last_page >= 2, so the page list is never empty
    yield (f'{{\n  "prime": {result.prime},\n'
           f'  "precision": {result.precision},\n'
           f'  "window": [\n    {lo},\n    {hi}\n  ],\n'
           f'  "pages": [')
    for r in range(2, result.last_page + 1):
        alive = [row for row, last in zip(rows, lasts)
                 if last is None or r <= last]
        comma = "," if r < result.last_page else ""
        yield (f'    {{\n      "r": {r},\n      "classes": '
               f'{_json_list(alive, " " * 6)}\n    }}{comma}')
    diffs = [f'    {{\n      "r": {rec.r},\n'
             f'      "source": {_quote(rec.source.name)},\n'
             f'      "target": {_quote(rec.target.name)}\n    }}'
             for rec in result.differentials]
    e_inf = _json_class_rows(result.e_infinity, " " * 4)
    yield (f'  ],\n  "differentials": {_json_list(diffs, "  ")},\n'
           f'  "e_infinity": {_json_list(e_inf, "  ")}\n}}')


@_command("e2", "page-2 classes in a stem window", _P, _N, _STEM_MIN,
          _STEM_MAX, _FMAX, _TABLE, _OUTPUT, window=_STEMS)
def _cmd_e2(o) -> dict | list:
    classes = [cl for cl in e2_page(o.p, (o.stem_min, o.stem_max + 1),
                                    o.fmax)
               if o.stem_min <= cl.stem <= o.stem_max]
    if o.format == "json":
        rows = _json_class_rows(classes, " " * 4)
        return ["{", f'  "prime": {o.p},', '  "window": [',
                f"    {o.stem_min},", f"    {o.stem_max}", "  ],",
                f'  "fmax": {o.fmax},',
                f'  "classes": {_json_list(rows, "  ")}', "}"]
    lines = [f"E_2 p={o.p} stems {o.stem_min}..{o.stem_max} "
             f"fmax={o.fmax}"]
    for cl in classes:
        lines.append(f"{cl.name}  t={cl.t} f={cl.f} c={cl.c}  "
                     f"(stem {cl.stem}, s {cl.s})")
    return lines


@_command("run", "run the filtration spectral sequence", _P, _N,
          _STEM_MIN, _STEM_MAX, _TABLE, _OUTPUT, window=_STEMS)
def _cmd_run(o) -> list | Iterator[str]:
    result = run(o.p, (o.stem_min, o.stem_max + 1), o.N)
    if o.format == "json":
        return _run_json(result)
    lo, hi = result.window
    lines = [f"run p={o.p} N={o.N} t-window {lo}..{hi}"]
    # every class lives on page 2; a class with label r leaves after page r
    ends = Counter(last for _, last in result.classes)
    alive = len(result.classes)
    for r in range(2, result.last_page + 1):
        lines.append(f"page {r}: {alive} classes")
        alive -= ends[r]
    lines.append("differentials:")
    for rec in result.differentials:
        lines.append(f"d_{rec.r}: {rec.source.name} -> {rec.target.name}")
    names = ", ".join(cl.name for cl in result.e_infinity)
    lines.append("e_infinity: " + (names or "-"))
    return lines


def _chart_data(result, o):
    def shown(cl):
        return o.stem_min <= cl.stem <= o.stem_max and cl.s <= o.fmax

    classes = [cl for cl in result.page(2) if shown(cl)]
    arrows = [rec for rec in result.differentials
              if shown(rec.source) and shown(rec.target)]
    s_top = max([cl.s for cl in classes], default=0)
    return classes, arrows, s_top


def _render_ascii(result, o) -> list:
    classes, arrows, s_top = _chart_data(result, o)
    a, b = o.stem_min, o.stem_max
    ncols = b - a + 1
    cells = [[[" ", " "] for _ in range(ncols)] for _ in range(s_top + 1)]
    for cl in classes:
        cells[cl.s][cl.stem - a][0] = "z" if cl.c else "o"
    for rec in arrows:
        col, row = rec.source.stem - 1 - a, rec.source.s + 1
        if 0 <= col < ncols and row <= s_top:
            cells[row][col][1] = "\\"
    lines = [f"p={o.p} N={o.N} page 2 stems {a}..{b}"]
    for s in range(s_top, -1, -1):
        lines.append(f"{s:3d} |" + "".join(g + m + " " for g, m in cells[s]))
    lines.append("    +" + "-" * (3 * ncols))
    lines.append("     " + "".join(f"{x:<3d}" for x in range(a, b + 1)))
    return lines


def _render_svg(result, o) -> list:
    classes, arrows, s_top = _chart_data(result, o)
    a, b = o.stem_min, o.stem_max
    ncols = b - a + 1
    w = 2 * _SVG_MARGIN + ncols * _SVG_CELL
    h = 2 * _SVG_MARGIN + (s_top + 1) * _SVG_CELL

    def xpix(stem: int) -> int:
        return _SVG_MARGIN + (stem - a) * _SVG_CELL + _SVG_CELL // 2

    def ypix(s: int) -> int:
        return _SVG_MARGIN + (s_top - s) * _SVG_CELL + _SVG_CELL // 2

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
           f'height="{h}" viewBox="0 0 {w} {h}">']
    out.append(f'<rect width="{w}" height="{h}" fill="#ffffff"/>')
    out.append(f'<text x="{_SVG_MARGIN}" y="{_SVG_MARGIN - 16}" '
               f'font-family="monospace" font-size="12" fill="#000000">'
               f'p={o.p} N={o.N} page 2 stems '
               f'{a}..{b}</text>')
    x0, x1 = _SVG_MARGIN, _SVG_MARGIN + ncols * _SVG_CELL
    for s in range(s_top + 1):
        y = ypix(s)
        out.append(f'<line x1="{x0}" y1="{y}" x2="{x1}" y2="{y}" '
                   f'stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{x0 - 18}" y="{y + 4}" '
                   f'font-family="monospace" font-size="10" '
                   f'fill="#555555">{s}</text>')
    y0, y1 = _SVG_MARGIN, _SVG_MARGIN + (s_top + 1) * _SVG_CELL
    for st in range(a, b + 1):
        x = xpix(st)
        out.append(f'<line x1="{x}" y1="{y0}" x2="{x}" y2="{y1}" '
                   f'stroke="#eeeeee" stroke-width="1"/>')
        out.append(f'<text x="{x - 4}" y="{y1 + 18}" '
                   f'font-family="monospace" font-size="10" '
                   f'fill="#555555">{st}</text>')
    for rec in arrows:
        out.append(f'<line x1="{xpix(rec.source.stem)}" '
                   f'y1="{ypix(rec.source.s)}" '
                   f'x2="{xpix(rec.target.stem)}" '
                   f'y2="{ypix(rec.target.s)}" '
                   f'stroke="#bb2222" stroke-width="1">'
                   f'<title>d_{rec.r}: {rec.source.name} -&gt; '
                   f'{rec.target.name}</title></line>')
    for cl in classes:
        x, y = xpix(cl.stem), ypix(cl.s)
        if cl.c:
            half = _SVG_SQUARE // 2
            out.append(f'<rect x="{x - half}" y="{y - half}" '
                       f'width="{_SVG_SQUARE}" height="{_SVG_SQUARE}" '
                       f'fill="#000000"><title>{cl.name}</title></rect>')
        else:
            out.append(f'<circle cx="{x}" cy="{y}" r="{_SVG_RADIUS}" '
                       f'fill="#000000"><title>{cl.name}</title></circle>')
    out.append("</svg>")
    return out


@_command("chart", "render the page-2 chart with differentials", _P, _N,
          _STEM_MIN, _STEM_MAX, _FMAX, _formats("ascii-chart", "svg-chart"),
          _OUTPUT, window=_STEMS)
def _cmd_chart(o) -> dict | list:
    result = run(o.p, (o.stem_min, o.stem_max + 1), o.N)
    if o.format == "svg-chart":
        return _render_svg(result, o)
    return _render_ascii(result, o)


@_command("abutment", "graded cohomology of the abutment", _P, _N, _T_MIN,
          _T_MAX, _TABLE, _OUTPUT,
          window=(_T_MIN, _T_MAX, "degree", _MAX_T_SPAN))
def _cmd_abutment(o) -> dict | list:
    t_min, t_max = o.t_min, o.t_max
    report = abutment(o.p, (t_min, t_max), o.N)
    if o.format == "json":
        return {"prime": o.p, "precision": o.N, "window": [t_min, t_max],
                "groups": [{"s": s, "t": t, "group": m.describe()}
                           for s, t, m in report.nonzero()]}
    lines = [f"abutment p={o.p} N={o.N} t {t_min}..{t_max}"]
    lines.extend(report.table_lines())
    return lines


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
                            for k in sorted(profile.entries)
                            for h0, h1, tv in [profile.entries[k]]]}
    lines = [f"character cohomology p={o.p} N={o.N} "
             f"k {k_min}..{k_max}"]
    lines.extend(profile.lines())
    return lines


@_command("mahler", "invariant functions in the Mahler model", _P,
          _N._replace(help=f"working precision, 4 to {_MAHLER_MAX_N}",
                      check=_bounded("precision", _MAHLER_MAX_N, 4)),
          _Opt("-L", f"window length, at most {_MAHLER_MAX_L}", 16,
               check=_bounded("length", _MAHLER_MAX_L)),
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
    rep = lim_lim1(moore_example(o.p))
    if o.format == "json":
        return {"prime": o.p, "lim": rep.lim.describe(),
                "lim1_nonzero": rep.lim1_nonzero,
                "witness": rep.witness.describe() if rep.witness else None}
    return rep.lines()


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
                         for (s, t), d in sorted(table.dims.items())]}
    lines = [f"cobar Ext n={n} q={q} smax={smax}"]
    lines.extend(table.lines())
    return lines


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imj",
        description="height-one chromatic invariants at an odd prime")
    sub = parser.add_subparsers(dest="cmd", required=True,
                                metavar="SUBCOMMAND")
    for name, (_, summary, options, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        for opt in options:
            opt.add_to(sp)
        sp.add_argument("--config", default=None, metavar="PATH",
                        help="flat key=value config file; flags win")
    return parser


# a constant: built once per process, not on every call of main
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    handler, _, options, window = _COMMANDS[args.cmd]
    try:
        opts = _resolve(args, options, window)
        return _emit(handler(opts), opts.output)
    except PrecisionError as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return 2
    except WindowError as exc:
        print(f"window failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
