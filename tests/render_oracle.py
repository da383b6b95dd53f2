"""The `run` and `e2` documents and tables and the chart renderers
written class by class: test oracles that read the `RunResult` views
(`page(r)`, `classes`, `differentials`, `e_infinity`) and `e2_page`,
against which the CLI's writers, which write degree by degree from the
records of `imj.ssq`, are compared byte for byte (a document through
json.dumps(doc, indent=2)).  Each takes the options `o` of the
subcommand (p, N, stem_min, stem_max, fmax) where it reads them."""

from collections import Counter

from imj.ssq import e2_page

_SVG_CELL = 28
_SVG_MARGIN = 40
_SVG_RADIUS = 3
_SVG_SQUARE = 6


def class_json_oracle(cl) -> dict:
    return {"name": cl.name, "t": cl.t, "f": cl.f, "c": cl.c}


def run_json_oracle(result) -> dict:
    """The `run` JSON document, built page by page from `page(r)`."""
    return {
        "prime": result.prime,
        "precision": result.precision,
        "window": [result.window[0], result.window[1]],
        "pages": [{"r": r,
                   "classes": [class_json_oracle(cl)
                               for cl in result.page(r)]}
                  for r in range(2, result.last_page + 1)],
        "differentials": [{"r": rec.r, "source": rec.source.name,
                           "target": rec.target.name}
                          for rec in result.differentials],
        "e_infinity": [class_json_oracle(cl) for cl in result.e_infinity],
    }


def e2_json_oracle(o) -> dict:
    """The `e2` JSON document, from `e2_page`."""
    a, b = o.stem_min, o.stem_max
    return {"prime": o.p, "window": [a, b], "fmax": o.fmax,
            "classes": [class_json_oracle(cl)
                        for cl in e2_page(o.p, (a, b + 1), o.fmax)
                        if a <= cl.stem <= b]}


def run_table(result, o) -> list:
    """`imj run` as a table."""
    lo, hi = result.window
    lines = [f"run p={o.p} N={o.N} t-window {lo}..{hi}"]
    # every class lives on page 2; a class with label r leaves after page r
    classes = result.classes
    ends = Counter(last for _, last in classes)
    alive = len(classes)
    for r in range(2, result.last_page + 1):
        lines.append(f"page {r}: {alive} classes")
        alive -= ends[r]
    lines.append("differentials:")
    for rec in result.differentials:
        lines.append(f"d_{rec.r}: {rec.source.name} -> {rec.target.name}")
    names = ", ".join(cl.name for cl in result.e_infinity)
    lines.append("e_infinity: " + (names or "-"))
    return lines


def e2_table(o) -> list:
    """`imj e2` as a table, from `e2_page`."""
    lines = [f"E_2 p={o.p} stems {o.stem_min}..{o.stem_max} fmax={o.fmax}"]
    for cl in e2_page(o.p, (o.stem_min, o.stem_max + 1), o.fmax):
        if o.stem_min <= cl.stem <= o.stem_max:
            lines.append(f"{cl.name}  t={cl.t} f={cl.f} c={cl.c}  "
                         f"(stem {cl.stem}, s {cl.s})")
    return lines


def chart_data(result, o):
    def shown(cl):
        return o.stem_min <= cl.stem <= o.stem_max and cl.s <= o.fmax

    classes = [cl for cl in result.page(2) if shown(cl)]
    arrows = [rec for rec in result.differentials
              if shown(rec.source) and shown(rec.target)]
    s_top = max([cl.s for cl in classes], default=0)
    return classes, arrows, s_top


def render_ascii(result, o) -> list:
    classes, arrows, s_top = chart_data(result, o)
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


def render_svg(result, o) -> list:
    classes, arrows, s_top = chart_data(result, o)
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
