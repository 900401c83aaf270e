"""The README's experiment scripts run end to end at toy sizes and report what the README claims."""

import re
from pathlib import Path

from tests.conftest import run_python

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *argv, cwd):
    """Stdout of ``scripts/name`` run with ``argv`` in a child process; it must exit 0."""
    proc = run_python([str(SCRIPTS / name), *argv], cwd=cwd, capture_output=True, text=True)
    assert proc.returncode == 0, (name, proc.stdout, proc.stderr)
    return proc.stdout


def table_rows(table):
    """The whitespace-split rows of a printed table, below its title and header lines."""
    return [line.split() for line in table.strip().splitlines()[2:]]


def test_experiment_scripts_run_and_report_their_findings(tmp_path):
    agreement = run_script("run_agreement.py", "--instances", "5", cwd=tmp_path)
    worst = re.search(r"worst relative Frobenius error: (\S+)", agreement)
    assert float(worst.group(1)) < 1e-10, agreement
    dual = re.search(r"worst dual-factors-vs-model error: (\S+) \((\d+) duals refused\)", agreement)
    assert float(dual.group(1)) < 1e-10 and dual.group(2) == "0", agreement

    tables = run_script("run_counterexamples.py", "--max-T", "5", cwd=tmp_path)
    softmax, corner = tables.split("\n\n")
    rows = table_rows(softmax)
    assert [row[0] for row in rows] == ["2", "3", "4", "5"]
    assert all(row[-1] == "True" for row in rows), softmax
    # Columns: T, applicable, has dual, new columns (a list), verdict.
    applicable = [row for row in table_rows(corner) if row[1] == "True"]
    assert [row[0] for row in applicable] == ["4", "5"], corner
    assert all(row[-1] == "True" for row in applicable), corner

    scaling = run_script("run_scaling.py", "--out-dir", str(tmp_path), cwd=tmp_path)
    recurrence = [line for line in scaling.splitlines() if line.startswith("recurrence")]
    assert len(recurrence) == 1 and recurrence[0].endswith("slopes T: 1.0000"), scaling
    csv = (tmp_path / "sweep_4_recurrence.csv").read_text().splitlines()
    assert csv[0] == "path,T,N,d,multiply_adds,additions,peak_live_elements"
    assert [line.split(",")[1] for line in csv[1:]] == ["64", "128", "256", "512"]
