"""Command-line surface: dispatch, config resolution, charts, JSON bytes,
exit codes."""

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imj import cli, cobar
from imj.cli import _class_rows, _run_json, _sep, main
from imj.cobar import ExteriorHopf, cobar_ext, symmetric_oracle
from imj.gmod import Smith
from imj.grpcoh import abutment
from imj.mahler import h1_rational_profile, invariants
from imj.ssq import ChartClass, run
from imj.towers import lim_lim1, moore_example
from render_oracle import (class_json_oracle, e2_json_oracle, e2_table,
                           render_ascii, render_svg, run_json_oracle,
                           run_table)


def run_cli(args, capsys):
    rc = main(args)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_e2_stem_zero_lists_only_the_b_tower(capsys):
    rc, out, _ = run_cli(["e2", "-p", "3", "-N", "6", "--stem-min", "0",
                          "--stem-max", "0", "--fmax", "2"], capsys)
    assert rc == 0
    assert "b^2" in out
    assert "zeta" not in out


def test_e2_json_roundtrip(capsys):
    rc, out, _ = run_cli(["e2", "-p", "3", "-N", "6", "--stem-min", "0",
                          "--stem-max", "0", "--fmax", "2",
                          "--format", "json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["prime"] == 3
    assert doc["window"] == [0, 0]
    assert doc["fmax"] == 2
    names = {cl["name"] for cl in doc["classes"]}
    assert names == {"1", "b", "b^2"}
    assert {"name": "b", "t": 0, "f": 1, "c": 0} in doc["classes"]
    assert out == json.dumps(doc, indent=2) + "\n"


def test_run_json_matches_documented_schema(capsys):
    rc, out, _ = run_cli(["run", "-p", "3", "-N", "6", "--stem-min", "0",
                          "--stem-max", "12", "--format", "json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert list(doc) == ["prime", "precision", "window", "pages",
                         "differentials", "e_infinity"]
    assert doc["prime"] == 3 and doc["precision"] == 6
    rs = [page["r"] for page in doc["pages"]]
    assert rs == sorted(rs) and rs[0] == 2
    assert {"r": 1, "source": "v1", "target": "zeta b v1"} \
        in doc["differentials"]
    assert out == json.dumps(doc, indent=2) + "\n"


def test_run_table_lists_pages_and_differentials(capsys):
    rc, out, _ = run_cli(["run", "-p", "3", "-N", "6", "--stem-min", "0",
                          "--stem-max", "12"], capsys)
    assert rc == 0
    assert "page 2:" in out
    assert "d_1: v1 -> zeta b v1" in out
    assert "e_infinity:" in out


@pytest.mark.parametrize("p,N,stems", [
    (3, 6, (0, 12)), (3, 8, (-20, 60)), (5, 5, (-3, 200)), (7, 4, (0, 0))])
def test_run_table_page_counts_are_page_sizes(p, N, stems, capsys):
    rc, out, _ = run_cli(["run", "-p", str(p), "-N", str(N),
                          "--stem-min", str(stems[0]),
                          "--stem-max", str(stems[1])], capsys)
    assert rc == 0
    result = run(p, (stems[0], stems[1] + 1), N)
    expected = [f"page {r}: {len(result.page(r))} classes"
                for r in range(2, result.last_page + 1)]
    assert [ln for ln in out.splitlines() if ln.startswith("page ")] \
        == expected


def test_chart_ascii_example_window(capsys):
    # stems -1..12 at p=3 show 1, zeta, b, v1, zeta v1, b v1 and the
    # d_1 arrow leaving the v1 column.
    rc, out, _ = run_cli(["chart", "-p", "3", "-N", "6", "--stem-min", "-1",
                          "--stem-max", "12"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "p=3 N=6 page 2 stems -1..12"
    row = {}
    for ln in lines[1:]:
        if "|" in ln and not ln.lstrip().startswith("+"):
            row[int(ln[:3])] = ln
    # cell for stem x sits at text column 5 + 3*(x + 1)
    assert row[0][5 + 3 * 1] == "o"          # 1 at (0, 0)
    assert row[0][5 + 3 * 5] == "o"          # v1 at (4, 0)
    assert row[1][5 + 3 * 0] == "z"          # zeta at (-1, 1)
    assert row[1][5 + 3 * 1] == "o"          # b at (0, 1)
    assert row[1][5 + 3 * 4] == "z"          # zeta v1 at (3, 1)
    assert row[1][5 + 3 * 5] == "o"          # b v1 at (4, 1)
    assert row[1][5 + 3 * 4 + 1] == "\\"     # d_1 arrow out of the v1 column


def test_chart_ascii_single_tower_at_stem_zero(capsys):
    rc, out, _ = run_cli(["chart", "-p", "3", "-N", "6", "--stem-min", "0",
                          "--stem-max", "0"], capsys)
    assert rc == 0
    grid = [ln for ln in out.splitlines() if "|" in ln]
    for ln in grid:
        body = ln.split("|", 1)[1]
        assert body.strip() in ("o", "")
    assert "z" not in out.split("stems", 1)[1]
    assert "\\" not in out


def test_chart_ascii_deterministic(capsys):
    args = ["chart", "-p", "3", "-N", "6", "--stem-min", "-1",
            "--stem-max", "12"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_chart_svg_golden_bytes(tmp_path, capsys):
    golden = os.path.join(os.path.dirname(__file__), "golden_chart_p5.svg")
    target = tmp_path / "chart.svg"
    rc = main(["chart", "-p", "5", "-N", "8", "--stem-min", "-1",
               "--stem-max", "8", "--format", "svg-chart",
               "-o", str(target)])
    capsys.readouterr()
    assert rc == 0
    with open(golden, "rb") as fh:
        frozen = fh.read()
    assert target.read_bytes() == frozen


def test_chart_svg_deterministic_and_well_formed(capsys):
    args = ["chart", "-p", "5", "-N", "8", "--stem-min", "-1",
            "--stem-max", "8", "--format", "svg-chart"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second
    assert first.startswith("<svg ")
    assert first.rstrip().endswith("</svg>")
    assert "<circle" in first and "<line" in first


def test_abutment_table_matches_library(capsys):
    rc, out, _ = run_cli(["abutment", "-p", "3", "-N", "8",
                          "--t-max", "40"], capsys)
    assert rc == 0
    for line in abutment(3, (0, 40), 8).table_lines():
        assert line in out


def test_cohomology_window_table(capsys):
    rc, out, _ = run_cli(["cohomology", "-p", "3", "-N", "6",
                          "--k-min", "-5", "--k-max", "5"], capsys)
    assert rc == 0
    assert "k=0: h0=1 h1=1 torsion_valuation=6" in out
    assert "k=2: h0=0 h1=0 torsion_valuation=1" in out


def test_mahler_invariant_line(capsys):
    rc, out, _ = run_cli(["mahler", "-p", "3", "-N", "6", "-L", "16"],
                         capsys)
    assert rc == 0
    assert "rank 1" in out
    assert "index,residue,valuation" in out


def test_mahler_json_generator_is_constant(capsys):
    rc, out, _ = run_cli(["mahler", "-p", "3", "-N", "6", "-L", "16",
                          "--format", "json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["rank"] == 1 and doc["length"] == 16
    gen = doc["generators"][0]
    assert gen[0] == 1 and not any(gen[1:])


def test_mahler_length_above_bound_exits_2(capsys):
    rc, out, err = run_cli(["mahler", "-L", "257"], capsys)
    assert rc == 2
    assert out == ""
    assert "L <= 256" in err


def test_limits_moore_report(capsys):
    for p in (3, 5):
        rc, out, _ = run_cli(["limits", "--moore", "-p", str(p)], capsys)
        assert rc == 0
        # the handler writes the tower's header above the report
        assert out.splitlines()[0] == moore_example(p).describe()
        assert "lim = 0" in out
        assert "lim1 nonzero: yes" in out


def test_limits_requires_moore(capsys):
    rc, _, err = run_cli(["limits", "-p", "3"], capsys)
    assert rc == 2
    assert "moore" in err.lower()


def test_cobar_dims_match_oracle(capsys):
    rc, out, _ = run_cli(["cobar", "-n", "2", "--smax", "4"], capsys)
    assert rc == 0
    for line in symmetric_oracle(2, 4).lines():
        assert line in out


def test_cobar_extension_field(capsys):
    # only the characteristic of F_q is read, so 3^12 and 3^19, the
    # largest power of 3 under the q bound, cost what 9 does
    for q in ("9", "531441", "1162261467"):
        rc, out, _ = run_cli(["cobar", "-n", "2", "--smax", "4", "--q", q],
                             capsys)
        assert rc == 0
        assert out.splitlines() == ([f"cobar Ext n=2 q={q} smax=4"]
                                    + symmetric_oracle(2, 4).lines())


def test_only_cold_cobar_eliminates_and_only_at_precision_one(monkeypatch,
                                                              capsys):
    """Production's `Smith` traffic: one argv of each subcommand, `cobar`
    cold, builds eliminations only in the cobar spot check, each at
    precision 1.  `Smith` is the plain elimination because nothing wider
    reaches it; a production path that eliminates above precision 1
    needs a benchmark pair on a workload that runs it (ROADMAP item 19)
    before `Smith` is tuned for it."""
    calls = []
    init = Smith.__init__

    def counted(self, A):
        calls.append((cmd, A.precision))
        init(self, A)

    monkeypatch.setattr(Smith, "__init__", counted)
    monkeypatch.setattr(cobar, "_BLOCKS", {})
    for argv in (["e2"], ["run"], ["chart"], ["abutment"], ["cohomology"],
                 ["mahler", "-L", "128"], ["limits", "--moore"],
                 ["cobar", "-n", "4", "--smax", "4", "--q", "5"]):
        cmd = argv[0]
        assert run_cli(argv, capsys)[::2] == (0, "")
    assert calls and calls == [("cobar", 1)] * len(calls)


def test_import_time_objects_are_frozen():
    # no collection in a long-lived caller walks what the import built, so
    # which job pays a generation-1 pass does not move with import size
    assert gc.get_freeze_count() > 0
    assert all(o is not cli.main for o in gc.get_objects())


def test_config_file_supplies_defaults_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# chart defaults\np = 5\nstem-min = 0\n"
                   "stem-max = 8\nformat = json\n")
    rc, out, _ = run_cli(["e2", "--config", str(cfg),
                          "--stem-max", "4"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["prime"] == 5
    assert doc["window"] == [0, 4]


def test_malformed_config_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("p 5\n")
    rc, _, err = run_cli(["e2", "--config", str(cfg)], capsys)
    assert rc == 2
    assert "config" in err


@pytest.mark.parametrize("argv", [["cobar", "--config", ""],
                                  ["cobar", "--config="]], ids=repr)
def test_empty_config_path_is_refused(argv, capsys):
    # a config path given empty is read like any other and refused, as
    # `-o ''` is, instead of running on the defaults
    assert run_cli(argv, capsys) == (
        2, "", "error: [Errno 2] No such file or directory: ''\n")


def test_output_file_instead_of_stdout(tmp_path, capsys):
    target = tmp_path / "out.json"
    rc = main(["e2", "-p", "3", "--stem-min", "0", "--stem-max", "0",
               "--format", "json", "-o", str(target)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == ""
    assert json.loads(target.read_text())["prime"] == 3


@pytest.mark.parametrize("to_file", [False, True])
def test_run_json_is_the_oracle_bytes(to_file, tmp_path, capsys):
    """stdout and -o PATH both carry json.dumps(oracle, indent=2)."""
    target = tmp_path / "run.json"
    rc = main(["run", "-p", "5", "-N", "5", "--stem-min", "-60",
               "--stem-max", "60", "--format", "json"]
              + (["-o", str(target)] if to_file else []))
    out = capsys.readouterr().out
    assert rc == 0
    if to_file:
        assert out == ""
        out = target.read_text(encoding="ascii")
    want = json.dumps(run_json_oracle(run(5, (-60, 61), 5)), indent=2)
    assert out == want + "\n"


@pytest.mark.parametrize("argv", [
    ["-p", "3", "-N", "6", "--stem-min", "-9", "--stem-max", "13"],
    ["-p", "5", "--stem-min", "1", "--stem-max", "6", "--fmax", "3"],
    ["-p", "3", "--stem-min", "0", "--stem-max", "0", "--fmax", "0"]])
def test_e2_json_is_the_oracle_bytes(argv, capsys):
    o = dict(zip(argv[::2], map(int, argv[1::2])))
    doc = e2_json_oracle(SimpleNamespace(
        p=o["-p"], stem_min=o["--stem-min"], stem_max=o["--stem-max"],
        fmax=o.get("--fmax", o.get("-N", 8))))
    rc, out, _ = run_cli(["e2", *argv, "--format", "json"], capsys)
    assert rc == 0 and out == json.dumps(doc, indent=2) + "\n"


def _checked_doc(p, window, N):
    """The oracle document of a run, after checking `_run_json` against
    it: one chunk per degree of each page, of the differentials and of
    E_infinity, plus one per list, each chunk holding one degree's rows."""
    out = run(p, window, N)
    doc = run_json_oracle(out)
    chunks = list(_run_json(out))
    assert "\n".join(chunks) == json.dumps(doc, indent=2)
    lists = [[cl["t"] for cl in page["classes"]] for page in doc["pages"]]
    lists += [[rec.source.t for rec in out.differentials],
              [cl["t"] for cl in doc["e_infinity"]]]
    assert len(chunks) == sum(1 + len(set(ts)) for ts in lists)
    assert all(len(set(re.findall(r'"t": (-?\d+)', chunk))) <= 1
               for chunk in chunks)
    return doc


def test_json_text_without_a_live_degree():
    doc = _checked_doc(7, (2, 5), 4)
    assert [page["classes"] for page in doc["pages"]] == [[]]
    assert doc["differentials"] == [] == doc["e_infinity"]


def test_json_text_one_page():
    doc = _checked_doc(3, (0, 0), 4)
    assert len(doc["pages"]) == 1 and doc["pages"][0]["classes"]
    assert doc["differentials"] == [] and doc["e_infinity"]


@pytest.mark.parametrize("p,window,N", [(3, (-40, 41), 6), (5, (-200, 9), 5)])
def test_json_text_many_pages_negative_t(p, window, N):
    doc = _checked_doc(p, window, N)
    assert len(doc["pages"]) > 2 and doc["differentials"]
    assert any(cl["t"] < 0 for cl in doc["pages"][0]["classes"])


def test_json_class_rows_escape_as_json_dumps():
    # the row of a class named by its tail alone, filled as the writers
    # fill it: joined by the degree's text, the tail quoted by
    # encode_basestring_ascii and t
    cl = ChartClass('q"\\\u00e9\n', -4, 2, 1)
    names = [[[None] * 3, [None, None, "%(n)s"]], None]
    row = _sep("  ", encode_basestring_ascii(cl.name)[1:-1], cl.t).join(
        _class_rows(names, False, [(cl.f, cl.c)], "  "))
    assert row == "  " + json.dumps(class_json_oracle(cl), indent=2).replace(
        "\n", "\n  ")


@st.composite
def run_argv(draw):
    """p, a stem window of at most 61 stems and an N from the least that
    `run` and the -N floor accept (3 + v_p(k) for each k = t/(2p-2) != 0
    of the degrees t in [a, b + 1], and 4) up to two more."""
    p = draw(st.sampled_from([3, 5, 7]))
    a = draw(st.integers(-60, 60))
    b = a + draw(st.integers(0, 60))
    need = 4
    for t in range(a, b + 2):
        k = t // (2 * p - 2) if t % (2 * p - 2) == 0 else 0
        v = 0
        while k and k % p == 0:
            k, v = k // p, v + 1
        need = max(need, 3 + v)
    return p, a, b, need + draw(st.integers(0, 2))


@settings(max_examples=200)
@given(run_argv())
def test_run_json_is_json_dumps_of_the_oracle(args):
    """`imj run --format json` prints json.dumps(oracle, indent=2) and a
    newline, on drawn primes, windows (negative stems included) and N."""
    p, a, b, N = args
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = main(["run", "-p", str(p), "-N", str(N), "--stem-min", str(a),
                   "--stem-max", str(b), "--format", "json"])
    want = json.dumps(run_json_oracle(run(p, (a, b + 1), N)), indent=2)
    assert rc == 0 and out.getvalue() == want + "\n"


@st.composite
def chart_argv(draw):
    """A `run_argv` and a chart height fmax in [0, N + 2]."""
    p, a, b, N = draw(run_argv())
    return p, a, b, N, draw(st.integers(0, N + 2))


def _stdout(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = main(argv)
    assert rc == 0
    return out.getvalue()


# per p, with d = 2p - 2: t = 0 among negative t and the degrees +-d p^2
# of v = 3 (pages 2 .. 4); the one degree t = d, by its c = 0 and by its
# c = 1 column; negative t alone, v = 3 among them; t = 0 and t = d p of
# v = 2 (pages 2 .. 3)
_JSON_GRID = [(p, a, b, N) for p, d in ((3, 4), (5, 8), (7, 12))
              for a, b, N in [(-d * p * p - 1, d * p * p, 5), (d, d, 4),
                              (d - 1, d - 1, 4), (-d * p * p - 3, -3, 6),
                              (-1, d * p, 4)]]


def test_json_grid_holds_its_cases():
    for p in (3, 5, 7):
        runs = [run(p, (a, b + 1), N) for q, a, b, N in _JSON_GRID if q == p]
        ts = [[t for t, _, _, _ in result.records] for result in runs]
        assert any(0 in x and min(x) < 0 for x in ts)
        assert any(x and max(x) < 0 for x in ts)
        assert sum(len(x) == 1 for x in ts) == 2
        assert any(result.last_page >= 4 for result in runs)


@pytest.mark.parametrize("p,a,b,N", _JSON_GRID)
def test_run_and_e2_json_on_a_fixed_grid(p, a, b, N):
    """The `run` and `e2` JSON, each degree's rows filled by one join, are
    json.dumps(doc, indent=2) of the oracle documents, at chart heights
    below, inside and above N for `e2`."""
    common = ["-p", str(p), "-N", str(N), "--stem-min", str(a),
              "--stem-max", str(b)]
    want = json.dumps(run_json_oracle(run(p, (a, b + 1), N)), indent=2)
    assert _stdout(["run", *common, "--format", "json"]) == want + "\n"
    for fmax in (0, 3, N + 1):
        o = SimpleNamespace(p=p, stem_min=a, stem_max=b, fmax=fmax)
        want = json.dumps(e2_json_oracle(o), indent=2)
        assert _stdout(["e2", *common, "--fmax", str(fmax), "--format",
                        "json"]) == want + "\n", fmax


@settings(max_examples=150)
@given(chart_argv())
@example((3, -1, 3, 4, 4))     # t = 0 and its zeta column; cuts t = 4
@example((5, 7, 7, 4, 2))      # t = 8: the c = 1 column alone
@example((7, -12, -11, 4, 0))  # t = -12: the c = 0 column alone
@example((3, -60, 0, 6, 8))    # negative stems, t = 0 on the edge
def test_writers_are_the_per_class_oracles(args):
    """The `run` table, both charts and the `e2` table and JSON, written
    degree by degree from the records, print what the per-class oracles
    (tests/render_oracle.py, test_ssq) print from the `RunResult` views
    and `e2_page`, over drawn primes, windows and chart heights."""
    p, a, b, N, fmax = args
    o = SimpleNamespace(p=p, N=N, stem_min=a, stem_max=b, fmax=fmax)
    result = run(p, (a, b + 1), N)
    common = ["-p", str(p), "-N", str(N), "--stem-min", str(a),
              "--stem-max", str(b)]
    chart = ["chart", *common, "--fmax", str(fmax), "--format"]
    e2 = ["e2", *common, "--fmax", str(fmax), "--format"]
    doc = e2_json_oracle(o)
    for argv, want in [(["run", *common], run_table(result, o)),
                       (chart + ["ascii-chart"], render_ascii(result, o)),
                       (chart + ["svg-chart"], render_svg(result, o)),
                       (e2 + ["table"], e2_table(o)),
                       (e2 + ["json"], [json.dumps(doc, indent=2)])]:
        assert _stdout(argv) == "".join(line + "\n" for line in want), argv


def _dict_doc(argv):
    """The dict document a subcommand prints as JSON, from the library
    and json.dumps(doc, indent=2)."""
    o = dict(zip(argv[1::2], argv[2::2]))
    p, N = int(o.get("-p", 3)), int(o.get("-N", 8))
    if argv[0] == "abutment":
        lo, hi = int(o["--t-min"]), int(o["--t-max"])
        entries = abutment(p, (lo, hi), N).entries
        return {"prime": p, "precision": N, "window": [lo, hi],
                "groups": [{"s": s, "t": t, "group": entries[s, t].describe()}
                           for t, s in sorted((t, s) for s, t in entries)]}
    if argv[0] == "cohomology":
        lo, hi = int(o["--k-min"]), int(o["--k-max"])
        entries = h1_rational_profile((lo, hi), p, N).entries
        return {"prime": p, "precision": N, "window": [lo, hi],
                "entries": [{"k": k, "h0": h0, "h1": h1,
                             "torsion_valuation": tv}
                            for k in sorted(entries)
                            for h0, h1, tv in [entries[k]]]}
    if argv[0] == "mahler":
        rep = invariants(int(o["-L"]), p, N)
        return {"prime": p, "precision": N, "length": rep.length,
                "rank": rep.rank, "kernel": rep.kernel.describe(),
                "generators": [[c.residue for c in g.coefficients]
                               for g in rep.generators]}
    if argv[0] == "cobar":
        n, smax, q = int(o["-n"]), int(o["--smax"]), int(o.get("--q", p))
        dims = cobar_ext(ExteriorHopf(n, q), smax).dims
        return {"n": n, "q": q, "s_max": smax,
                "dims": [{"s": s, "t": t, "dim": d}
                         for (s, t), d in sorted(dims.items())]}
    rep = lim_lim1(moore_example(p))
    return {"prime": p, "lim": rep.lim.describe(),
            "lim1_nonzero": rep.lim1_nonzero,
            "witness": rep.witness.describe() if rep.witness else None}


def _check_dict_doc(argv):
    out = _stdout([*argv, "--format", "json"])
    assert out == json.dumps(_dict_doc(argv), indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ["abutment", "-p", "3", "-N", "8", "--t-min", "0", "--t-max", "40"],
    ["abutment", "-p", "5", "-N", "12", "--t-min", "-300", "--t-max", "-2"],
    ["abutment", "-p", "3", "-N", "4", "--t-min", "2", "--t-max", "2"],
    ["abutment", "-p", "7", "-N", "5", "--t-min", "-60", "--t-max", "60"]])
def test_abutment_json_is_json_dumps(argv):
    # the third window has no nonzero group: "groups": []
    _check_dict_doc(argv)


@pytest.mark.parametrize("argv", [
    ["cohomology", "-p", "3", "-N", "6", "--k-min", "-9", "--k-max", "-1"],
    ["cohomology", "-p", "5", "-N", "8", "--k-min", "-30", "--k-max", "30"],
    ["cohomology", "-p", "7", "-N", "4", "--k-min", "0", "--k-max", "0"]])
def test_cohomology_json_is_json_dumps(argv):
    _check_dict_doc(argv)


@pytest.mark.parametrize("argv", [
    ["mahler", "-p", "3", "-N", "4", "-L", "2"],
    ["mahler", "-p", "5", "-N", "6", "-L", "16"],
    ["mahler", "-p", "3", "-N", "8", "-L", "33"]])
def test_mahler_json_is_json_dumps(argv):
    _check_dict_doc(argv)


@pytest.mark.parametrize("argv", [
    ["cobar", "-p", "3", "-n", "1", "--smax", "0"],
    ["cobar", "-p", "5", "-n", "2", "--smax", "4"],
    ["cobar", "-p", "3", "-n", "3", "--smax", "3", "--q", "9"]])
def test_cobar_json_is_json_dumps(argv):
    _check_dict_doc(argv)


@pytest.mark.parametrize("p", ["3", "7"])
def test_limits_json_is_json_dumps(p):
    _check_dict_doc(["limits", "-p", p, "--moore"])


def test_precision_failure_exits_2(capsys):
    rc, _, err = run_cli(["cohomology", "-p", "3", "-N", "4",
                          "--k-min", "1", "--k-max", "18"], capsys)
    assert rc == 2
    assert "precision" in err


def test_character_without_torsion_is_not_refused(capsys):
    # at p = 3 an odd k has no torsion, so N = 4 resolves k = 9
    rc, out, _ = run_cli(["cohomology", "-p", "3", "-N", "4", "--k-min", "1",
                          "--k-max", "9", "--format", "json"], capsys)
    assert rc == 0
    assert json.loads(out)["entries"][-1] == {
        "k": 9, "h0": 0, "h1": 0, "torsion_valuation": 0}


def test_run_precision_failure_exits_2(capsys):
    # t = 108 = 2(p-1) * 27 needs N >= 6 at p = 3
    rc, _, err = run_cli(["run", "-p", "3", "-N", "4", "--stem-min", "108",
                          "--stem-max", "108"], capsys)
    assert rc == 2


def test_window_failure_exits_3(capsys):
    rc, _, err = run_cli(["run", "-p", "3", "--stem-min", "5",
                          "--stem-max", "1"], capsys)
    assert rc == 3
    assert "window" in err


@pytest.mark.parametrize("argv", [
    ["abutment", "--t-min", "10", "--t-max", "0"],
    ["cohomology", "--k-min", "5", "--k-max", "1"],
])
def test_inverted_window_exits_3(argv, capsys):
    rc, out, err = run_cli(argv, capsys)
    assert rc == 3
    assert out == ""
    assert "window" in err


def test_bad_prime_rejected(capsys):
    for bad in ("4", "9", "2"):
        rc, _, err = run_cli(["e2", "-p", bad], capsys)
        assert rc == 2
        assert "prime" in err


def test_low_precision_rejected(capsys):
    rc, _, err = run_cli(["e2", "-N", "3"], capsys)
    assert rc == 2


def test_format_must_suit_subcommand(capsys):
    rc, _, err = run_cli(["e2", "--format", "ascii-chart"], capsys)
    assert rc == 2
    rc, _, err = run_cli(["chart", "--format", "table"], capsys)
    assert rc == 2


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    capsys.readouterr()
    assert exc.value.code == 2


# Every subcommand refuses bad input with exit 2 or 3 and one stderr line.
_REFUSALS = [
    # inverted windows
    (["e2", "--stem-min", "5", "--stem-max", "1"], 3,
     "window failure: empty stem window 5..1"),
    (["run", "--stem-min", "5", "--stem-max", "1"], 3,
     "window failure: empty stem window 5..1"),
    (["chart", "--stem-min", "5", "--stem-max", "1"], 3,
     "window failure: empty stem window 5..1"),
    (["abutment", "--t-min", "10", "--t-max", "0"], 3,
     "window failure: empty degree window 10..0"),
    (["cohomology", "--k-min", "5", "--k-max", "1"], 3,
     "window failure: empty character window 5..1"),
    # out-of-range flags
    (["e2", "--fmax", "-1"], 2, "error: max filtration must be nonnegative"),
    (["run", "-N", "3"], 2, "error: precision N must be at least 4, got 3"),
    (["chart", "-p", "9"], 2, "error: p must be an odd prime, got 9"),
    (["abutment", "-p", "2"], 2, "error: p must be an odd prime, got 2"),
    (["cohomology", "-N", "3"], 2,
     "error: precision N must be at least 4, got 3"),
    (["mahler", "-L", "1"], 2,
     "error: window too short to see the translation action"),
    (["mahler", "-L", "257"], 2,
     "error: mahler length L=257 is above the bound L <= 256"),
    (["mahler", "-N", "65"], 2,
     "error: mahler precision N=65 is above the bound N <= 64"),
    (["limits", "--moore", "-p", "4"], 2,
     "error: p must be an odd prime, got 4"),
    (["cobar", "--q", "0"], 2, "error: field order must be a prime power"),
    (["cobar", "--q", "1"], 2, "error: field order must be a prime power"),
    (["cobar", "--q", "4"], 2, "error: even characteristic out of scope"),
    (["cobar", "--q", "15"], 2, "error: 15 is not a prime power"),
    (["cobar", "-n", "5"], 2, "error: desk scale is n <= 4 and S_max <= 6"),
    (["cobar", "--smax", "-1"], 2, "error: S_max must be >= 0"),
    # a torsion factor at the precision ceiling would print as Z_p
    (["abutment", "-p", "3", "-N", "4", "--t-min", "0", "--t-max", "330"], 2,
     "precision failure: degree t=108 needs N >= 5, have 4"),
    # v_p(k) > N: the least N is named from the exact valuation, not the
    # one capped at N
    (["run", "-p", "3", "-N", "4", "--stem-min", "972", "--stem-max", "972"],
     2, "precision failure: degree t=972 needs N >= 8, have 4"),
    (["cohomology", "-p", "3", "-N", "4", "--k-min", "486", "--k-max", "486"],
     2, "precision failure: need N > 7 to resolve the torsion of "
     "character 486"),
    # the first failing degree inside the window, not at its first
    # divisible degree (the CI refusal loop runs the same two)
    (["abutment", "-p", "5", "-N", "4", "--t-min", "-992", "--t-max",
      "1000"], 2, "precision failure: degree t=1000 needs N >= 5, have 4"),
    (["cohomology", "-p", "5", "-N", "4", "--k-min", "-299", "--k-max",
      "300"], 2, "precision failure: need N > 4 to resolve the torsion of "
     "character -200"),
    # one row per bound on the unbounded inputs
    (["run", "-N", "65"], 2,
     "error: run precision N=65 is above the bound N <= 64"),
    (["abutment", "-N", "65"], 2,
     "error: abutment precision N=65 is above the bound N <= 64"),
    (["e2", "--fmax", "65"], 2,
     "error: e2 max filtration fmax=65 is above the bound fmax <= 64"),
    (["chart", "--stem-min", "-1", "--stem-max", "5000"], 2,
     "error: chart stem window -1..5000 is above the bound "
     "stem-max - stem-min <= 5000"),
    (["abutment", "--t-min", "-20000", "--t-max", "20002"], 2,
     "error: abutment degree window -20000..20002 is above the bound "
     "t-max - t-min <= 40000"),
    (["cohomology", "--k-min", "0", "--k-max", "10001"], 2,
     "error: cohomology character window 0..10001 is above the bound "
     "k-max - k-min <= 10000"),
    # p and q are bounded before trial division starts on them
    (["abutment", "-p", "2147483659"], 2,
     "error: abutment prime p=2147483659 is above the bound "
     "p <= 2147483647"),
    (["e2", "-p", "1000000000000000003"], 2,
     "error: e2 prime p=1000000000000000003 is above the bound "
     "p <= 2147483647"),
    (["cobar", "--q", "3486784401"], 2,
     "error: cobar field order q=3486784401 is above the bound "
     "q <= 2147483647"),
]


@pytest.mark.parametrize("argv,code,line", _REFUSALS,
                         ids=[" ".join(case[0]) for case in _REFUSALS])
def test_refusal_is_one_stderr_line(argv, code, line, capsys):
    rc, out, err = run_cli(argv, capsys)
    assert (rc, out, err) == (code, "", line + "\n")


@pytest.mark.parametrize("cmd", ["e2", "run", "chart", "abutment",
                                 "cohomology", "mahler", "limits", "cobar"])
def test_unknown_config_key_exits_2(cmd, tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("prime = 5\n")
    rc, out, err = run_cli([cmd, "--config", str(cfg)], capsys)
    assert rc == 2 and out == ""
    assert err.startswith(f"error: unknown config key 'prime' in {cfg}; "
                          f"valid keys for {cmd}: ")
    assert err.count("\n") == 1


def test_config_keys_come_from_the_subcommand_options(tmp_path, capsys):
    cfg = tmp_path / "len.cfg"
    cfg.write_text("L = 8\nN = 6\n")
    rc, _, err = run_cli(["e2", "--config", str(cfg)], capsys)
    assert rc == 2
    assert err.endswith("valid keys for e2: N, fmax, format, output, p, "
                        "stem-max, stem-min\n")
    rc, out, _ = run_cli(["mahler", "--config", str(cfg)], capsys)
    assert rc == 0
    assert out.startswith("mahler p=3 N=6 L=8\n")
    rc, _, err = run_cli(["cobar", "--config", str(cfg)], capsys)
    assert err.endswith("valid keys for cobar: format, n, output, p, q, "
                        "smax\n")


_KEYS = {
    "e2": "N, fmax, format, output, p, stem-max, stem-min",
    "run": "N, format, output, p, stem-max, stem-min",
    "chart": "N, fmax, format, output, p, stem-max, stem-min",
    "abutment": "N, format, output, p, t-max, t-min",
    "cohomology": "N, format, k-max, k-min, output, p",
    "mahler": "L, N, format, output, p",
    "limits": "format, moore, output, p",
    "cobar": "format, n, output, p, q, smax",
}


@pytest.mark.parametrize("cmd", sorted(_KEYS))
def test_each_subcommand_takes_only_the_options_it_reads(cmd, tmp_path,
                                                         capsys):
    # the config keys are the subcommand's options spelled like the long
    # flags; 47 settable values over the eight subcommands
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("prime = 5\n")
    _, _, err = run_cli([cmd, "--config", str(cfg)], capsys)
    assert err.endswith(f"valid keys for {cmd}: {_KEYS[cmd]}\n")
    with pytest.raises(SystemExit):
        main([cmd, "-h"])
    usage = capsys.readouterr().out
    for key in _KEYS[cmd].split(", "):
        assert ("-" if len(key) == 1 else "--") + key in usage
    assert sum(len(keys.split(", ")) for keys in _KEYS.values()) == 47


def test_main_reuses_one_parser(capsys):
    # a flag-table argv builds no parser; the first argv the table
    # declines builds it, and every later one reuses it
    from imj import cli
    cli._parser.cache_clear()
    rc, out, _ = run_cli(["cobar", "-n", "1", "--smax", "1"], capsys)
    assert rc == 0 and out and cli._parser.cache_info().misses == 0
    # FLAG=VALUE: the flag table declines it, so argparse reads it
    assert cli._read_flags("cobar", ["-n=1", "--smax", "1"]) is None
    for _ in range(2):
        rc, out, _ = run_cli(["cobar", "-n=1", "--smax", "1"], capsys)
        assert rc == 0 and out
    assert cli._parser.cache_info().misses == 1


def test_a_job_builds_one_options_namespace(monkeypatch, capsys):
    # the flag table's namespace is the one `_resolve` completes and the
    # handler reads; on the argparse path `_resolve` builds none either
    from imj import cli
    built = []

    class Counted(argparse.Namespace):
        def __init__(self, **kwargs):
            built.append(self)
            super().__init__(**kwargs)

    monkeypatch.setattr(cli.argparse, "Namespace", Counted)
    assert run_cli(["cobar", "-n", "1", "--smax", "1"], capsys)[0] == 0
    assert len(built) == 1
    joined = ["cobar", "-n=1", "--smax", "1"]
    built.clear()
    cli._parser().parse_args(joined)
    parsed = len(built)
    built.clear()
    assert run_cli(joined, capsys)[0] == 0
    assert len(built) == parsed


class _Parsed(Exception):
    """Raised in place of resolving, carrying what main parsed."""


def _given(namespace) -> dict:
    """A parse's values that are set: argparse sets None for each option
    not given, the flag table records only the flags given."""
    return {key: val for key, val in vars(namespace).items()
            if val is not None}


def _outcome(call, capsys):
    """(exit code or parsed values, stdout, stderr) of a parse."""
    try:
        got = _given(call())
    except SystemExit as exc:
        got = exc.code
    except _Parsed as exc:
        got = _given(exc.args[0])
    out = capsys.readouterr()
    return got, out.out, out.err


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["--he"], ["nope"], ["ru"], ["ru", "-p", "3"],
    ["run", "-h"], ["run", "--stem-m", "4"], ["run", "-N8"],
    ["run", "--stem-min=-4"], ["run", "--stem-min", "-4"], ["run", "-p"],
    ["run", "-N", "x"], ["run", "-p", "3", "-p", "5"],
    ["run", "--", "-p", "3"], ["run", "--fmax", "3"],
    ["run", "--stem-min", "0", "--stem-max", "10", "extra"],
    ["run", "extra", "-h"], ["e2", "--st", "3"], ["limits", "--moore"],
    ["cobar", "-n", "1", "--config"], ["-h", "run"], ["--", "run"],
], ids=repr)
def test_parser_dispatch_matches_argparse(argv, monkeypatch, capsys):
    # main reads a subcommand's argv from the flag table or hands it to
    # the parser built at import; every exit code, stdout and stderr byte
    # and every parsed value is what a freshly built parser gives
    from imj import cli

    def parsed(args, options, window):
        raise _Parsed(args)

    monkeypatch.setattr(cli, "_resolve", parsed)
    assert _outcome(lambda: main(list(argv)), capsys) == _outcome(
        lambda: cli._build_parser().parse_args(list(argv)), capsys)


# values a token may take: small numbers, negative ones, and the empty,
# flag-like, spaced, joined and unparsable strings argparse reads in its
# own ways
_NUMBERS = [str(i) for i in range(-12, 13)]
_VALUES = _NUMBERS + [
    "", "-", "--", "-x", "-h", "--format", "-1.5", "-.5", "1.5", "abc",
    "json", "table", "ascii-chart", " -4", "-4 ", "-4\n", "+3", "1_0", "٣",
    "-٣", "2147483647", "2147483659", "=", "a=1", "-=1", "- 1"]
_KINDS = ["whole"] * 4 + ["any", "abbreviated", "joined", "glued", "bare",
                          "help", "stray"]


def _drawn(rng, cmd, items):
    """(argv, whole): a subcommand and its items, each (kind, flag): a whole
    flag and its value (or a bare store_true flag), a flag with any value,
    an abbreviated, joined (FLAG=VALUE), glued (-N8) or value-less flag, a
    help flag or a stray token, with values drawn by `rng`; `whole` says
    every item was a whole flag with a value its cast takes."""
    opts = cli._FLAGS[cmd]
    argv = [cmd]
    for kind, flag in items:
        value, number = rng.choice(_VALUES), rng.choice(_NUMBERS)
        cast = opts[flag].cast
        if kind == "whole":
            argv += [flag] if cast is bool else [flag, number if cast is int
                                                 else value.strip("-")]
        elif kind == "any":
            argv += [flag, value]
        elif kind == "abbreviated":
            argv += [flag[:-1] if flag.startswith("--") else flag + "x",
                     value]
        elif kind in ("joined", "glued"):
            argv.append(flag + "=" * (kind == "joined") + value)
        else:
            argv.append({"bare": flag, "help": "-h", "stray": value}[kind])
    return argv, all(kind == "whole" for kind, _ in items)


def _argvs():
    """Per subcommand, 16 argvs: each kind of item once among up to four
    whole items, zero to four whole items, two argvs of up to five items
    of any kind, all on drawn flags that may repeat, and every flag once
    as a whole item.  The two grammar properties sample their examples
    from these 128, since drawing an argv item by item costs more than
    running it."""
    rng, out = random.Random(0), []
    for cmd in sorted(cli._FLAGS):
        flags = sorted(cli._FLAGS[cmd])
        mixes = [[kind] + ["whole"] * rng.randrange(5)
                 for kind in dict.fromkeys(_KINDS)]
        mixes += [["whole"] * n for n in range(5)]
        mixes += [rng.choices(_KINDS, k=rng.randrange(6)) for _ in range(2)]
        rows = [[(kind, rng.choice(flags)) for kind in kinds]
                for kinds in mixes] + [[("whole", flag) for flag in flags]]
        for row in rows:
            rng.shuffle(row)
            out.append(_drawn(rng, cmd, row))
    return out


_ARGVS = st.sampled_from(_argvs())


@settings(max_examples=120)
@given(_ARGVS)
@example((["run", "--stem-min", "-4\n", "-p", "5", "-p", "7"], True))
@example((["limits", "--moore", "--moore", "-o", "-5"], True))
@example((["abutment", "--format", "-x"], False))
@example((["cobar", "-n=2", "3"], False))
def test_flag_reader_is_argparse_or_declines(drawn):
    """`_read_flags` reads every argv of whole flags and values, and on any
    argv it reads it returns exactly the values the top parser sets, with
    nothing left over; every other argv it declines."""
    from imj import cli
    argv, whole = drawn
    got = cli._read_flags(argv[0], argv[1:])
    assert got is not None or not whole
    if got is not None:
        with contextlib.redirect_stderr(io.StringIO()):
            want, extra = cli._parser().parse_known_args(argv)
        assert (vars(got), extra) == (_given(want), [])


@settings(max_examples=75)
@given(_ARGVS)
@example((["run", "-p=--"], False))  # argparse reads the value as []
@example((["limits", "--moore", "--config=--"], False))
@example((["cohomology", "-4\n"], False))  # echoed escaped, as '-4\\n'
def test_cli_grammar_exits_0_2_or_3_without_traceback(drawn):
    """Every drawn argv, run in process, exits 0, 2 or 3 and raises
    nothing else: a refusal is one stderr line, a usage error (argparse's
    SystemExit) ends in one `error:` line after the usage, and a success
    writes nothing to stderr.  It runs in an empty directory, where any
    -o file lands."""
    argv, _ = drawn
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    rc, usage = main(list(argv)), False
                except SystemExit as exc:
                    rc, usage = exc.code, True
        finally:
            os.chdir(cwd)
    lines = err.getvalue().splitlines()
    assert rc in (0, 2, 3), (argv, rc, lines)
    if rc == 0:
        assert lines == []
    elif usage:
        assert lines[0].startswith("usage: imj") and re.match(
            r"imj( \w+)?: error: ", lines[-1]), (argv, lines)
    else:
        assert len(lines) == 1 and err.getvalue().endswith("\n"), lines


@pytest.mark.parametrize("argv", [
    ["run", "-p=--"], ["e2", "--stem-min=--"], ["cobar", "--q=--"],
    ["abutment", "--format=--"], ["mahler", "-o=--"],
    ["limits", "--config=--"]], ids=" ".join)
def test_flag_joined_to_a_double_dash_is_a_missing_value(argv, capsys):
    # argparse reads FLAG=-- as the value [], which reached the checks as a
    # TypeError traceback; it is refused as `FLAG --` is
    flag = argv[1].split("=")[0]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.splitlines()[-1].startswith(f"imj {argv[0]}: error: argument "
                                           f"{flag}")
    assert err.endswith(": expected one argument\n")


def test_well_formed_argv_skips_argparse(monkeypatch, capsys):
    # whole flags and their values are read from the option table; help,
    # abbreviations and FLAG=VALUE still go to argparse
    from imj import cli

    def refuse(*args, **kwargs):
        raise AssertionError("argparse read a well-formed argv")

    # parse_args reads through it, so this refuses either entry point
    monkeypatch.setattr(cli._parser(), "parse_known_args", refuse)
    for argv in (["run", "-p", "5", "-N", "6", "--stem-min", "-8",
                  "--stem-max", "30", "--format", "json"],
                 ["abutment", "-p", "7", "--t-min", "-60", "--t-max", "60",
                  "-N", "5", "-N", "6", "--format", "json"],
                 ["limits", "--moore", "-p", "5"],
                 ["cobar", "-n", "2", "--smax", "3", "--q", "9"]):
        assert run_cli(argv, capsys)[0] == 0
    for argv in (["run", "-h"], ["run", "--stem-m", "4"],
                 ["run", "--stem-min=4"]):
        with pytest.raises(AssertionError, match="argparse read"):
            main(argv)


def _perfbench_module(name):
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # it imports nothing from imj
    return module


def test_flag_table_reads_every_benchmark_argv():
    # the benchmark's jobs are the traffic the flag table is for: a change
    # that sent them through argparse would move every workload's timing
    from imj import cli
    workloads = _perfbench_module("workloads")
    argvs = [job.argv for w in ("spectral", "mahler", "cobar")
             for seed in range(1, 4)
             for batch in range(workloads.BATCHES_PER_24_S[w])
             for job in workloads.batch_jobs(w, seed, batch) if job.argv]
    assert len(argvs) > 800
    for argv in argvs:
        got = cli._read_flags(argv[0], argv[1:])
        assert got is not None, argv
        assert vars(got) == _given(cli._parser().parse_args(argv)), argv


def test_every_traced_name_resolves():
    # resolved as Tracer.install does: a module attribute, or a function
    # defined on the class itself; a renamed or removed one would leave the
    # benchmark's traced run without its span
    for mod, path in _perfbench_module("tracing").TRACED:
        owner = importlib.import_module(f"imj.{mod}")
        if "." in path:
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(owner, cls_name)), (mod, path)
        else:
            assert callable(getattr(owner, path, None)), (mod, path)


@pytest.mark.parametrize("argv,cfg,key", [
    (["run"], "p = abc\n", "p"),
    (["mahler"], "L = 1.5\n", "L"),
    (["limits"], "moore = maybe\n", "moore"),
    (["limits"], "moore =\n", "moore"),
])
def test_config_value_that_does_not_parse_names_key_and_file(
        argv, cfg, key, tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(cfg)
    rc, out, err = run_cli(argv + ["--config", str(path)], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: config key {key!r} in {path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("spelling,on", [
    (word, on) for words, on in (("1 true yes on True YES", True),
                                 ("0 false no off FALSE Off", False))
    for word in words.split()])
def test_config_booleans_accept_the_documented_spellings(spelling, on,
                                                         tmp_path, capsys):
    path = tmp_path / "moore.cfg"
    path.write_text(f"moore = {spelling}\n")
    rc, out, err = run_cli(["limits", "--config", str(path)], capsys)
    if on:
        assert (rc, err) == (0, "") and out
    else:
        assert (rc, out) == (2, "")
        assert err.startswith("error: limits needs --moore")


# Options a subcommand never reads are not options of it.
_DEAD_FLAGS = [["run", "--fmax", "3"]] + [
    [cmd, flag, "4"] for cmd in ("abutment", "cohomology", "mahler")
    for flag in ("--stem-min", "--stem-max", "--fmax")] + [
    [cmd, *extra, flag, "6"] for cmd, extra in (("limits", ["--moore"]),
                                               ("cobar", []))
    for flag in ("-N", "--stem-min", "--stem-max", "--fmax")]


@pytest.mark.parametrize("argv", _DEAD_FLAGS, ids=" ".join)
def test_unread_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" \
        in capsys.readouterr().err


def test_a_usage_error_stays_one_line(capsys):
    # argparse echoes a stray token as given; a character in it that does
    # not print is written escaped, as `invalid choice` quotes it
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "-4\n", "a\tb"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[1:] == [
        r"imj: error: unrecognized arguments: -4\n a\tb"]


@pytest.mark.parametrize("argv,old", [
    (["mahler", "-L", "8"], ["--stem-min", "5", "--stem-max", "1"]),
    (["cobar", "-n", "1", "--smax", "2"], ["-N", "3"]),
    (["limits", "--moore"], ["--fmax", "-1"]),
])
def test_no_refusal_over_an_unread_value(argv, old, tmp_path, capsys):
    # these once failed on a window, precision or height the command
    # never reads; now the command runs, and the stray values are a usage
    # error on the command line and an unknown key in a config file
    rc, out, err = run_cli(argv, capsys)
    assert (rc, err) == (0, "") and out
    with pytest.raises(SystemExit):
        main(argv + old)
    assert "unrecognized arguments" in capsys.readouterr().err
    cfg = tmp_path / "stray.cfg"
    cfg.write_text(f"{old[0].lstrip('-')} = {old[1]}\n")
    rc, out, err = run_cli(argv + ["--config", str(cfg)], capsys)
    assert rc == 2 and out == ""
    assert err.startswith("error: unknown config key")


@pytest.mark.parametrize("argv", [
    ["e2", "-N", "64", "--stem-min", "0", "--stem-max", "0"],
    ["e2", "--fmax", "64", "--stem-min", "0", "--stem-max", "0"],
    ["e2", "--fmax", "0", "--stem-min", "-2500", "--stem-max", "2500"],
    ["run", "-N", "64", "--stem-min", "0", "--stem-max", "8"],
    ["chart", "-N", "64", "--fmax", "64", "--stem-min", "0",
     "--stem-max", "4"],
    ["abutment", "-N", "64", "--t-min", "-8", "--t-max", "8"],
    ["cohomology", "-N", "64", "--k-min", "-3", "--k-max", "3"],
    ["cohomology", "-p", "5", "-N", "12", "--k-min", "-5000",
     "--k-max", "5000"],
])
def test_values_at_their_bound_are_accepted(argv, capsys):
    rc, out, err = run_cli(argv, capsys)
    assert (rc, err) == (0, "") and out


@pytest.mark.parametrize("engine,argv", [
    ("cobar_ext", ["cobar", "-n", "2", "--smax", "2"]),
    ("run", ["run", "-p", "3", "-N", "6"]),
    ("abutment", ["abutment", "-p", "3", "-N", "6"]),
])
def test_engine_self_check_exits_1_without_traceback(engine, argv,
                                                     monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("ranks overshot a block dimension")

    monkeypatch.setattr(f"imj.cli.{engine}", broken)
    rc, out, err = run_cli(argv, capsys)
    assert (rc, out) == (1, "")
    assert err == "internal error: ranks overshot a block dimension\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("q", ["3", "9"])
def test_wrong_matched_count_fails_the_spot_check(q, monkeypatch, capsys):
    # the first small cold block is re-ranked over F_q, prime or not
    from imj import cobar
    monkeypatch.setattr(cobar, "_BLOCKS", {})
    count = cobar._count
    monkeypatch.setattr(cobar, "_count",
                        lambda slots, prof, prev:
                        (count(slots, prof, prev)[0], 0))
    rc, out, err = run_cli(["cobar", "-n", "2", "--smax", "2", "--q", q],
                           capsys)
    assert (rc, out) == (1, "")
    assert err == ("internal error: F_q elimination disagrees with the "
                   "matched count of a cobar block\n")


def test_import_leaves_numpy_unloaded():
    # numpy serves only the dense cobar oracle, imported where it is called
    import imj
    src = os.path.dirname(os.path.dirname(os.path.abspath(imj.__file__)))
    code = "import sys, imj.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("argv", [
    ["abutment", "--t-min", "-20000", "--t-max", "20000"],
    ["cohomology", "--k-min", "-5000", "--k-max", "5000"]])
def test_large_prime_corner_finishes_under_the_ceiling(argv):
    # the full window at p = 1000003, N = 64, as a process: every degree
    # the window holds, a multiple of 2p - 2, costs one multiplication
    # mod p^N
    import imj
    src = os.path.dirname(os.path.dirname(os.path.abspath(imj.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "imj.cli", *argv, "-p",
                           "1000003", "-N", "64"], env=env,
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "p=1000003 N=64" in proc.stdout.splitlines()[0]
    assert elapsed < 10.0, f"{argv[0]} took {elapsed:.1f} s"


def test_slowest_mahler_corner_finishes_under_the_ceiling():
    # the largest accepted p, N and L as a process: every pivot of psi - id
    # is a unit at p = 2^31 - 1, and psi has 256 * 257 / 2 wide entries
    import imj
    src = os.path.dirname(os.path.dirname(os.path.abspath(imj.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "imj.cli", "mahler", "-p",
                           "2147483647", "-N", "64", "-L", "256", "--format",
                           "json"], env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stderr) == (0, "")
    assert elapsed < 10.0, f"mahler took {elapsed:.1f} s"


def test_wrong_complement_valuations_fail_the_check(monkeypatch, capsys):
    # torsion exponents of the complement C that do not sum to v_p(det C)
    # are a bug: here the law's exponents, padded with zeros to the L - 1
    # Smith valuations of C, each one too large
    from imj import mahler
    law = mahler._complement_valuations

    def shifted(J, p):
        vals = law(J, p)
        return [v + 1 for v in vals + [0] * (15 - len(vals))]

    monkeypatch.setattr(mahler, "_complement_valuations", shifted)
    rc, out, err = run_cli(["mahler", "-p", "3", "-L", "16"], capsys)
    assert (rc, out) == (1, "")
    assert err == ("internal error: Smith valuations of the length-16 "
                   "complement sum to 24, not to its determinant "
                   "valuation 9\n")


def test_one_primality_test_per_process(capsys, monkeypatch):
    # the -p check, the engine's odd-prime gate and cobar's field-order
    # check (q defaults to p) share one memoized prime_power, so p itself
    # is trial-divided once, on a first run and on every repeat
    import imj.padic as padic
    calls = []
    factor = padic.prime_factors

    def counting(n):
        calls.append(n)
        return factor(n)

    monkeypatch.setattr(padic, "prime_factors", counting)
    padic.prime_power.cache_clear()
    for argv, head in ((["abutment", "-p", "2147483647", "-N", "64"],
                        "p=2147483647 N=64"),
                       (["cobar", "-p", "2147483647", "-n", "2", "--smax",
                         "3"], "cobar Ext n=2 q=2147483647 smax=3"),
                       (["cobar", "-p", "2147483647", "-n", "2", "--smax",
                         "3"], "cobar Ext n=2 q=2147483647 smax=3")):
        rc = main(argv)
        out, err = capsys.readouterr()
        assert (rc, err) == (0, "")
        assert head in out.splitlines()[0]
        assert calls.count(2147483647) == 1


_P31 = "2147483647"


@pytest.mark.parametrize("argv,out", [
    (["e2", "-p", _P31, "--stem-max", "3", "--fmax", "2"],
     f"E_2 p={_P31} stems -1..3 fmax=2\n"
     "1  t=0 f=0 c=0  (stem 0, s 0)\nzeta  t=0 f=0 c=1  (stem -1, s 1)\n"
     "b  t=0 f=1 c=0  (stem 0, s 1)\nzeta b  t=0 f=1 c=1  (stem -1, s 2)\n"
     "b^2  t=0 f=2 c=0  (stem 0, s 2)\n"),
    (["run", "-p", _P31, "-N", "4"],
     f"run p={_P31} N=4 t-window 0..12\npage 2: 8 classes\n"
     "differentials:\n"
     "e_infinity: 1, zeta, b, zeta b, b^2, zeta b^2, b^3, zeta b^3\n"),
    (["abutment", "-p", _P31, "-N", "64", "--t-min", "-20000", "--t-max",
      "20000"],
     f"abutment p={_P31} N=64 t -20000..20000\n"
     f"H^(0,0) = Z_{_P31}\nH^(1,0) = Z_{_P31}\n"),
    (["cohomology", "-p", _P31, "-N", "64", "--k-min", "-2", "--k-max", "2"],
     f"character cohomology p={_P31} N=64 k -2..2\n"
     + "".join(f"k={k}: h0={int(k == 0)} h1={int(k == 0)} "
               f"torsion_valuation={64 if k == 0 else 0}\n"
               for k in range(-2, 3))),
], ids=["e2", "run", "abutment", "cohomology"])
def test_windows_build_no_teichmuller_lift(argv, out, monkeypatch, capsys):
    # a window reads the mu_{p-1}-invariant degrees, stepped from 1 + p,
    # so the largest p prints the same bytes with no primitive root and
    # no Teichmuller lift to be had
    import imj.padic as padic

    def refuse(*args):
        raise RuntimeError("a window built psi")

    monkeypatch.setattr(padic, "teichmuller", refuse)
    monkeypatch.setattr(padic, "smallest_primitive_root", refuse)
    assert run_cli(argv, capsys) == (0, out, "")


@pytest.mark.parametrize("argv", [
    ["e2", "-p", "3", "--stem-min", "-40", "--stem-max", "40"],
    ["cohomology", "-p", "5", "--k-min", "-30", "--k-max", "30"],
    ["abutment", "-p", "7", "--t-min", "-60", "--t-max", "60"],
    ["run", "-p", "3", "-N", "8", "--stem-min", "0", "--stem-max", "40"],
])
def test_one_boundary_pass_per_subcommand(argv, monkeypatch, capsys):
    # every Lubin-Tate degree these print is read by grpcoh.boundary_snf,
    # in one pass over one window
    from imj import grpcoh, ssq
    calls = []
    read = grpcoh.boundary_snf

    def counting(M):
        calls.append((M.prime, M.precision))
        return read(M)

    monkeypatch.setattr(grpcoh, "boundary_snf", counting)
    monkeypatch.setattr(ssq, "boundary_snf", counting)
    rc, out, err = run_cli(argv, capsys)
    assert (rc, err) == (0, "") and out
    assert len(calls) == 1


def test_rational_h1_self_check_can_fire(monkeypatch, capsys):
    # a valuation engine that reads 1 - psi^6 as 0 at p = 3, N = 6 puts
    # rational H^1 on the character 6, and cohomology reports the bug
    from imj import grpcoh
    read = grpcoh.boundary_snf

    def broken(M):
        for t, bd, vals in read(M):
            yield t, bd, [M.precision] if t == 12 else vals

    monkeypatch.setattr(grpcoh, "boundary_snf", broken)
    rc, out, err = run_cli(["cohomology", "-p", "3", "-N", "6", "--k-min",
                            "-10", "--k-max", "10"], capsys)
    assert (rc, out) == (1, "")
    assert err == ("internal error: rational H^1 carried by [0, 6], "
                   "expected [0]\n")


def test_a_reader_that_stops_early_is_not_an_error(tmp_path):
    # `imj run ... | head -c 10`: the writes after the reader closes the
    # pipe end the run with exit 0 and nothing on stderr, not even from
    # the interpreter's flush at exit; an unwritable -o PATH still fails
    import imj
    src = os.path.dirname(os.path.dirname(os.path.abspath(imj.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "imj.cli", "run", "-p", "3", "-N", "64",
            "--stem-min", "0", "--stem-max", "200", "--format", "json"]
    # a 1.4 MB document, far past what the pipe buffers
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err, head) == (0, b"", b'{\n  "prime')
    target = tmp_path / "missing" / "run.json"
    proc = subprocess.run(argv + ["-o", str(target)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and str(target) in proc.stderr
    assert proc.stdout == ""
