"""Command-line surface: dispatch, config resolution, charts, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from imj.cli import main
from imj.cobar import symmetric_oracle
from imj.grpcoh import abutment
from imj.ssq import ChartClass, e2_page, run
from test_ssq import class_json_oracle, run_json_oracle


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
    rc, out, _ = run_cli(["limits", "--moore", "-p", "3"], capsys)
    assert rc == 0
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
    # only the characteristic of F_q is read, so 3^12 and 3^20 cost what
    # 9 does
    for q in ("9", "531441", "3486784401"):
        rc, out, _ = run_cli(["cobar", "-n", "2", "--smax", "4", "--q", q],
                             capsys)
        assert rc == 0
        assert out.splitlines() == ([f"cobar Ext n=2 q={q} smax=4"]
                                    + symmetric_oracle(2, 4).lines())


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
    lo, hi = o["--stem-min"], o["--stem-max"]
    fmax = o.get("--fmax", o.get("-N", 8))
    classes = sorted((cl for cl in e2_page(o["-p"], (lo, hi + 1), fmax)
                      if lo <= cl.stem <= hi), key=ChartClass.sort_key)
    doc = {"prime": o["-p"], "window": [lo, hi], "fmax": fmax,
           "classes": [class_json_oracle(cl) for cl in classes]}
    rc, out, _ = run_cli(["e2", *argv, "--format", "json"], capsys)
    assert rc == 0 and out == json.dumps(doc, indent=2) + "\n"


def test_precision_failure_exits_2(capsys):
    rc, _, err = run_cli(["cohomology", "-p", "3", "-N", "4",
                          "--k-min", "1", "--k-max", "9"], capsys)
    assert rc == 2
    assert "precision" in err


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
    (["cohomology", "-p", "3", "-N", "4", "--k-min", "243", "--k-max", "243"],
     2, "precision failure: need N > 7 to resolve the torsion of "
     "character 243"),
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


def test_main_reuses_one_parser(monkeypatch, capsys):
    from imj import cli

    def rebuilt():
        raise AssertionError("parser rebuilt per call")

    monkeypatch.setattr(cli, "_build_parser", rebuilt)
    rc, out, _ = run_cli(["cobar", "-n", "1", "--smax", "1"], capsys)
    assert rc == 0 and out


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


def test_wrong_kernel_column_fails_the_check(monkeypatch, capsys):
    # a saturated column of V that 1 - psi does not annihilate is a bug
    from imj.gmod import Smith
    monkeypatch.setattr(Smith, "v_column",
                        lambda self, j: [0] * (self.A.cols - 1) + [1])
    rc, out, err = run_cli(["mahler", "-p", "3", "-L", "16"], capsys)
    assert (rc, out) == (1, "")
    assert err == ("internal error: Smith transcript: column 15 of V is not "
                   "a kernel vector\n")
