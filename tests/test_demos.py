"""Every demo script runs to completion and prints its walk-through, byte for
byte the output recorded in tests/golden/ (a change that moves a printed digit
on purpose re-records the file in the same commit)."""

import runpy
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_six_demos_are_collected():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05", "06"]


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{path.name} printed nothing"
    assert out == (GOLDEN / f"{path.stem}.txt").read_text()
