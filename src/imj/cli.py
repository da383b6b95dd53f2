"""Command-line entry points for the invariant calculators.

Subcommands: e2, run, chart, abutment, cohomology, mahler, limits, cobar.
Common flags: -p, -N, --stem-min/--stem-max, --fmax, --format, -o, --config.
The config file is flat key=value text (# starts a comment) whose keys are
the subcommand's options spelled like the long flags; an unknown key is a
configuration error.  Precedence is flags > config file > defaults.

Exit codes are stable: 0 on success, 1 when an engine self-check failed
(a bug; one `internal error:` line on stderr), 2 on precision failure (and
on usage or configuration errors, matching the argparse convention), 3 on
window failure.

Output formats. Tables are plain text, one record per line. JSON documents
use two-space indentation and round-trip through json.loads/json.dumps;
the `run` subcommand emits exactly the page/differential schema of
RunResult.to_json_dict. Charts place a class at (stem, s) = (t - c, f + c):
ascii-chart draws one glyph per class ('o' for c = 0, 'z' for c = 1) in
3-column cells with '\\' in the cell up-left of a differential source;
svg-chart is byte-deterministic with fixed layout constants (28 px cells,
40 px margins, radius-3 circles for c = 0, 6 px squares for c = 1).

Stem windows convert to internal-degree windows by t in [a, b + 1], which
always contains its even interior, so any nonempty stem window is
even-compatible.
"""

import argparse
import json
import sys
from collections import Counter

from .cobar import ExteriorHopf, cobar_ext
from .grpcoh import abutment
from .mahler import h1_rational_profile, invariants
from .padic import PrecisionError, is_prime
from .ssq import ChartClass, WindowError, e2_page, run
from .towers import lim_lim1, moore_example

_SVG_CELL = 28
_SVG_MARGIN = 40
_SVG_RADIUS = 3
_SVG_SQUARE = 6
# Largest accepted `mahler -L` and `mahler -N`: invariants(256, 3, 8)
# took 5.8 s and L = 320 took 10.5 s; invariants(256, 3, 64) took 8.3 s
# and N = 128 took 10.1 s (Python 3.11.7, 2 CPUs).
_MAHLER_MAX_L = 256
_MAHLER_MAX_N = 64


class RunConfig:
    """Resolved common options; every subcommand validates through here."""

    __slots__ = ("prime", "precision", "stem_min", "stem_max", "fmax",
                 "fmt", "output")

    def __init__(self, prime: int, precision: int, stem_min: int,
                 stem_max: int, fmax: int, fmt: str, output):
        if prime % 2 == 0 or not is_prime(prime):
            raise ValueError(f"p must be an odd prime, got {prime}")
        if precision < 4:
            raise ValueError(f"precision N must be at least 4, got "
                             f"{precision}")
        if stem_min > stem_max:
            raise WindowError(f"empty stem window {stem_min}..{stem_max}")
        if fmax < 0:
            raise ValueError("max filtration must be nonnegative")
        self.prime = prime
        self.precision = precision
        self.stem_min = stem_min
        self.stem_max = stem_max
        self.fmax = fmax
        self.fmt = fmt
        self.output = output

    @property
    def t_window(self) -> tuple:
        return (self.stem_min, self.stem_max + 1)


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


def _pick(args, cfg: dict, key: str, default, cast):
    val = getattr(args, key.replace("-", "_"), None)
    if val is None and key in cfg:
        raw = cfg[key]
        if cast is bool:
            val = raw.lower() in ("1", "true", "yes", "on")
        else:
            val = cast(raw)
    return default if val is None else val


def _emit(text: str, output) -> int:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="ascii") as fh:
            fh.write(text)
    return 0


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _cmd_e2(cfg: RunConfig, args, filecfg) -> int:
    classes = sorted(
        (cl for cl in e2_page(cfg.prime, cfg.t_window, cfg.fmax)
         if cfg.stem_min <= cl.stem <= cfg.stem_max),
        key=ChartClass.sort_key)
    if cfg.fmt == "json":
        doc = {
            "prime": cfg.prime,
            "window": [cfg.stem_min, cfg.stem_max],
            "fmax": cfg.fmax,
            "classes": [cl.to_json_dict() for cl in classes],
        }
        return _emit(_json_text(doc), cfg.output)
    lines = [f"E_2 p={cfg.prime} stems {cfg.stem_min}..{cfg.stem_max} "
             f"fmax={cfg.fmax}"]
    for cl in classes:
        lines.append(f"{cl.name}  t={cl.t} f={cl.f} c={cl.c}  "
                     f"(stem {cl.stem}, s {cl.s})")
    return _emit("\n".join(lines) + "\n", cfg.output)


def _cmd_run(cfg: RunConfig, args, filecfg) -> int:
    result = run(cfg.prime, cfg.t_window, cfg.precision)
    if cfg.fmt == "json":
        return _emit(_json_text(result.to_json_dict()), cfg.output)
    lo, hi = result.window
    lines = [f"run p={cfg.prime} N={cfg.precision} t-window {lo}..{hi}"]
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
    return _emit("\n".join(lines) + "\n", cfg.output)


def _chart_data(result, cfg: RunConfig):
    def shown(cl):
        return cfg.stem_min <= cl.stem <= cfg.stem_max and cl.s <= cfg.fmax

    classes = [cl for cl in result.page(2) if shown(cl)]
    arrows = [rec for rec in result.differentials
              if shown(rec.source) and shown(rec.target)]
    s_top = max([cl.s for cl in classes], default=0)
    return classes, arrows, s_top


def _render_ascii(result, cfg: RunConfig) -> str:
    classes, arrows, s_top = _chart_data(result, cfg)
    a, b = cfg.stem_min, cfg.stem_max
    ncols = b - a + 1
    cells = [[[" ", " "] for _ in range(ncols)] for _ in range(s_top + 1)]
    for cl in classes:
        cells[cl.s][cl.stem - a][0] = "z" if cl.c else "o"
    for rec in arrows:
        col, row = rec.source.stem - 1 - a, rec.source.s + 1
        if 0 <= col < ncols and row <= s_top:
            cells[row][col][1] = "\\"
    lines = [f"p={cfg.prime} N={cfg.precision} page 2 stems {a}..{b}"]
    for s in range(s_top, -1, -1):
        lines.append(f"{s:3d} |" + "".join(g + m + " " for g, m in cells[s]))
    lines.append("    +" + "-" * (3 * ncols))
    lines.append("     " + "".join(f"{x:<3d}" for x in range(a, b + 1)))
    return "\n".join(lines) + "\n"


def _render_svg(result, cfg: RunConfig) -> str:
    classes, arrows, s_top = _chart_data(result, cfg)
    a, b = cfg.stem_min, cfg.stem_max
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
               f'p={cfg.prime} N={cfg.precision} page 2 stems '
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
    return "\n".join(out) + "\n"


def _cmd_chart(cfg: RunConfig, args, filecfg) -> int:
    result = run(cfg.prime, cfg.t_window, cfg.precision)
    if cfg.fmt == "svg-chart":
        return _emit(_render_svg(result, cfg), cfg.output)
    return _emit(_render_ascii(result, cfg), cfg.output)


def _cmd_abutment(cfg: RunConfig, args, filecfg) -> int:
    t_min = _pick(args, filecfg, "t-min", 0, int)
    t_max = _pick(args, filecfg, "t-max", 40, int)
    if t_min > t_max:
        raise WindowError(f"empty degree window {t_min}..{t_max}")
    report = abutment(cfg.prime, (t_min, t_max), cfg.precision)
    if cfg.fmt == "json":
        doc = {
            "prime": cfg.prime,
            "precision": cfg.precision,
            "window": [t_min, t_max],
            "groups": [{"s": s, "t": t, "group": m.describe()}
                       for s, t, m in report.nonzero()],
        }
        return _emit(_json_text(doc), cfg.output)
    lines = [f"abutment p={cfg.prime} N={cfg.precision} t {t_min}..{t_max}"]
    lines.extend(report.table_lines())
    return _emit("\n".join(lines) + "\n", cfg.output)


def _cmd_cohomology(cfg: RunConfig, args, filecfg) -> int:
    k_min = _pick(args, filecfg, "k-min", -50, int)
    k_max = _pick(args, filecfg, "k-max", 50, int)
    if k_min > k_max:
        raise WindowError(f"empty character window {k_min}..{k_max}")
    profile = h1_rational_profile((k_min, k_max), cfg.prime, cfg.precision)
    if cfg.fmt == "json":
        doc = {
            "prime": cfg.prime,
            "precision": cfg.precision,
            "window": [k_min, k_max],
            "entries": [{"k": k, "h0": h0, "h1": h1,
                         "torsion_valuation": tv}
                        for k in sorted(profile.entries)
                        for h0, h1, tv in [profile.entries[k]]],
        }
        return _emit(_json_text(doc), cfg.output)
    lines = [f"character cohomology p={cfg.prime} N={cfg.precision} "
             f"k {k_min}..{k_max}"]
    lines.extend(profile.lines())
    return _emit("\n".join(lines) + "\n", cfg.output)


def _cmd_mahler(cfg: RunConfig, args, filecfg) -> int:
    L = _pick(args, filecfg, "L", 16, int)
    if L > _MAHLER_MAX_L:
        raise ValueError(f"mahler length L={L} is above the bound "
                         f"L <= {_MAHLER_MAX_L}")
    if cfg.precision > _MAHLER_MAX_N:
        raise ValueError(f"mahler precision N={cfg.precision} is above the "
                         f"bound N <= {_MAHLER_MAX_N}")
    rep = invariants(L, cfg.prime, cfg.precision)
    if cfg.fmt == "json":
        doc = {
            "prime": cfg.prime,
            "precision": cfg.precision,
            "length": rep.length,
            "rank": rep.rank,
            "kernel": rep.kernel.describe(),
            "generators": [[c.residue for c in g.coefficients]
                           for g in rep.generators],
        }
        return _emit(_json_text(doc), cfg.output)
    lines = [f"mahler p={cfg.prime} N={cfg.precision} L={L}",
             rep.describe()]
    for i, gen in enumerate(rep.generators):
        lines.append(f"generator {i}:")
        lines.extend(gen.to_csv().splitlines())
    return _emit("\n".join(lines) + "\n", cfg.output)


def _cmd_limits(cfg: RunConfig, args, filecfg) -> int:
    moore = _pick(args, filecfg, "moore", False, bool)
    if not moore:
        raise ValueError("limits needs --moore: the Moore tower is the "
                         "built-in example; other towers go through the "
                         "library API")
    rep = lim_lim1(moore_example(cfg.prime))
    if cfg.fmt == "json":
        doc = {
            "prime": cfg.prime,
            "lim": rep.lim.describe(),
            "lim1_nonzero": rep.lim1_nonzero,
            "witness": rep.witness.describe() if rep.witness else None,
        }
        return _emit(_json_text(doc), cfg.output)
    return _emit("\n".join(rep.lines()) + "\n", cfg.output)


def _cmd_cobar(cfg: RunConfig, args, filecfg) -> int:
    n = _pick(args, filecfg, "n", 2, int)
    smax = _pick(args, filecfg, "smax", 4, int)
    q = _pick(args, filecfg, "q", cfg.prime, int)
    table = cobar_ext(ExteriorHopf(n, q), smax)
    if cfg.fmt == "json":
        doc = {
            "n": n,
            "q": q,
            "s_max": smax,
            "dims": [{"s": s, "t": t, "dim": d}
                     for (s, t), d in sorted(table.dims.items())],
        }
        return _emit(_json_text(doc), cfg.output)
    lines = [f"cobar Ext n={n} q={q} smax={smax}"]
    lines.extend(table.lines())
    return _emit("\n".join(lines) + "\n", cfg.output)


_COMMANDS = {
    "e2": _cmd_e2,
    "run": _cmd_run,
    "chart": _cmd_chart,
    "abutment": _cmd_abutment,
    "cohomology": _cmd_cohomology,
    "mahler": _cmd_mahler,
    "limits": _cmd_limits,
    "cobar": _cmd_cobar,
}

_FORMATS = {
    "chart": ("ascii-chart", "svg-chart"),
}
_TABLE_FORMATS = ("table", "json")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-p", type=int, default=None, metavar="P",
                        help="odd prime (default 3)")
    common.add_argument("-N", type=int, default=None, metavar="N",
                        help="working precision, at least 4 (default 8)")
    common.add_argument("--stem-min", type=int, default=None, metavar="A",
                        help="left edge of the stem window (default -1)")
    common.add_argument("--stem-max", type=int, default=None, metavar="B",
                        help="right edge of the stem window (default 12)")
    common.add_argument("--fmax", type=int, default=None, metavar="F",
                        help="largest chart height s shown (default: N)")
    common.add_argument("--format", default=None,
                        help="table or json; ascii-chart or svg-chart "
                             "for chart")
    common.add_argument("-o", "--output", default=None, metavar="PATH",
                        help="write to PATH instead of stdout")
    common.add_argument("--config", default=None, metavar="PATH",
                        help="flat key=value config file; flags win")
    parser = argparse.ArgumentParser(
        prog="imj",
        description="height-one chromatic invariants at an odd prime")
    sub = parser.add_subparsers(dest="cmd", required=True,
                                metavar="SUBCOMMAND")
    sub.add_parser("e2", parents=[common],
                   help="page-2 classes in a stem window")
    sub.add_parser("run", parents=[common],
                   help="run the filtration spectral sequence")
    sub.add_parser("chart", parents=[common],
                   help="render the page-2 chart with differentials")
    ab = sub.add_parser("abutment", parents=[common],
                        help="graded cohomology of the abutment")
    ab.add_argument("--t-min", type=int, default=None, metavar="T0",
                    help="lowest internal degree (default 0)")
    ab.add_argument("--t-max", type=int, default=None, metavar="T1",
                    help="highest internal degree (default 40)")
    co = sub.add_parser("cohomology", parents=[common],
                        help="per-character cohomology over a k window")
    co.add_argument("--k-min", type=int, default=None, metavar="K0",
                    help="first character (default -50)")
    co.add_argument("--k-max", type=int, default=None, metavar="K1",
                    help="last character (default 50)")
    ma = sub.add_parser("mahler", parents=[common],
                        help="invariant functions in the Mahler model")
    ma.add_argument("-L", type=int, default=None, metavar="L",
                    help="window length (default 16)")
    li = sub.add_parser("limits", parents=[common],
                        help="derived limits of the Moore tower")
    li.add_argument("--moore", action="store_true", default=None,
                    help="use the built-in Moore tower")
    cb = sub.add_parser("cobar", parents=[common],
                        help="cobar Ext of an exterior Hopf algebra")
    cb.add_argument("-n", type=int, default=None, metavar="N",
                    help="number of generators (default 2)")
    cb.add_argument("--smax", type=int, default=None, metavar="S",
                    help="top cohomological degree (default 4)")
    cb.add_argument("--q", type=int, default=None, metavar="Q",
                    help="field order, an odd prime power (default: p)")
    return parser


def _dispatch(args) -> int:
    filecfg = _read_config(args.config) if args.config else {}
    # the subcommand's options are the namespace's attributes
    valid = sorted(key.replace("_", "-") for key in vars(args)
                   if key not in ("cmd", "config"))
    unknown = sorted(set(filecfg) - set(valid))
    if unknown:
        raise ValueError(f"unknown config key "
                         f"{', '.join(map(repr, unknown))} in {args.config}; "
                         f"valid keys for {args.cmd}: {', '.join(valid)}")
    fmt_default = "ascii-chart" if args.cmd == "chart" else "table"
    precision = _pick(args, filecfg, "N", 8, int)
    fmax = _pick(args, filecfg, "fmax", None, int)
    cfg = RunConfig(
        prime=_pick(args, filecfg, "p", 3, int),
        precision=precision,
        stem_min=_pick(args, filecfg, "stem-min", -1, int),
        stem_max=_pick(args, filecfg, "stem-max", 12, int),
        fmax=precision if fmax is None else fmax,
        fmt=_pick(args, filecfg, "format", fmt_default, str),
        output=_pick(args, filecfg, "output", None, str),
    )
    allowed = _FORMATS.get(args.cmd, _TABLE_FORMATS)
    if cfg.fmt not in allowed:
        raise ValueError(f"format {cfg.fmt!r} not available for "
                         f"{args.cmd}; choose from {', '.join(allowed)}")
    return _COMMANDS[args.cmd](cfg, args, filecfg)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
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
