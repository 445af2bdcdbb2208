"""Smoke runs of the experiment scripts, each in a fresh interpreter from
the repository root (the scripts put src/ on the path themselves)."""

import pathlib
import subprocess
import sys

from cyclochar.cli import _solve_report
from cyclochar.cyclopoints import g2_adjoint_poly, solve

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(*argv):
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_principal_survey():
    out = run_script("scripts/principal_survey.py", "1", "1")
    lines = out.splitlines()
    assert len(lines) == 34  # one line per type, a blank, the summary
    assert lines[0].startswith("A1 (")
    assert lines[-1].startswith("surveyed 32 types x 1 weights in ")
    assert lines[-1].endswith("tensor identity held throughout")


def test_g2_zero_table():
    out = run_script("scripts/g2_zero_table.py")
    assert out.startswith("type G2, adjoint weight (0,1), dimension 14\n")
    assert "factorization: u^-5 * Phi_7 Phi_8\n" in out
    assert "principal zeros: element orders [7, 8], t-orders [14, 16]\n" in out
    # the table is the CLI's, row 4 included
    _, table = _solve_report(solve(g2_adjoint_poly()))
    assert "\n".join(table) in out
    assert "element orders with a zero: 7, 8, 15, 42\n" in out
    assert "points on the verified orbits: 96, " in out


def test_psl27_classdata_regenerates_the_data_file():
    # the README's `scheck finite` example reads this file
    proc = subprocess.run(
        [sys.executable, "scripts/psl27_classdata.py"], cwd=ROOT, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tests" / "data" / "psl27.txt").read_bytes()
