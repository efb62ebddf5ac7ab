"""`clif verify <suite> --trials 50 --seed 0` for all five suites, byte for byte
against the outputs in tests/golden/ (tests/test_demos.py holds each demo's
stdout to its file there).

The files were recorded before the products moved to the sign-folded gather
index and to Multivectors that carry their coefficient vectors; those changes
promise bit-identical results, and this test holds them to it.  A change that
moves a printed digit on purpose re-records the file in the same commit.
"""

from pathlib import Path

import pytest

from spinorlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
SUITES = ("fierz", "fpk", "groups", "truncated", "volume")


def test_every_output_has_a_golden_file():
    want = {f"{p.stem}.txt" for p in DEMOS} | {f"verify_{s}.txt" for s in SUITES}
    assert {p.name for p in GOLDEN.glob("*.txt")} == want


@pytest.mark.parametrize("suite", SUITES)
def test_verify_stdout_matches_golden(suite, capsys):
    assert main(["verify", suite, "--trials", "50", "--seed", "0"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"verify_{suite}.txt").read_text()
