"""Each demo, run in process, prints the bytes checked in under
tests/golden_demos/ (the CI Demos step checks the same bytes from a
fresh interpreter)."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
GOLDEN = Path(__file__).resolve().parent / "golden_demos"


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_prints_its_golden_output(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / f"{name}.txt").read_bytes()
