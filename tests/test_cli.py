"""Command-line surface: dispatch, config resolution, charts, exit codes."""

import json
import os

import pytest

from imj.cli import main
from imj.cobar import symmetric_oracle
from imj.grpcoh import abutment


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
    rc, out, _ = run_cli(["cobar", "-n", "1", "--smax", "3", "--q", "9"],
                         capsys)
    assert rc == 0
    assert "s=3 t=-3: dim 1" in out


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
    assert err.endswith("valid keys for cobar: N, fmax, format, n, output, "
                        "p, q, smax, stem-max, stem-min\n")


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
