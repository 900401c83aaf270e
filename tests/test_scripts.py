"""The README's experiment scripts run end to end at toy sizes and report what the README claims."""

import importlib.util
import re
from pathlib import Path

import numpy as np

from tests.conftest import SRC_DIR, run_python

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


def load_script(name):
    """The module of ``scripts/name``, imported under its own name."""
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCompareOutputs:
    """The verdicts ``compare_outputs.py`` prints for two dumps, and its exit status."""

    compare_outputs = load_script("compare_outputs.py")

    def verdicts(self, base, head, capsys):
        status = self.compare_outputs.compare(base, head)
        *lines, total = capsys.readouterr().out.splitlines()
        return status, dict(line.split(": ", 1) for line in lines), total

    def test_equal_dumps_are_the_same_and_exit_0(self, capsys):
        dump = {"y": np.array([1.0, -0.0]), "cli/forward/0": (0, "out", "", [], b"{}"), "rank": 3}
        copy = {"y": np.array([1.0, -0.0]), "cli/forward/0": (0, "out", "", [], b"{}"), "rank": 3}
        status, verdicts, total = self.verdicts(dump, copy, capsys)
        assert status == 0
        assert verdicts == {"cli/forward/0": "byte-identical", "rank": "byte-identical",
                            "y": "bitwise equal"}
        assert total == "0 of 3 outputs differ"

    def test_each_difference_is_named_and_counted(self, capsys):
        flipped = np.array([1.0, 2.0, 3.0])
        flipped.view(np.int64)[1] ^= 1  # one bit of one entry
        base = {
            "signs": np.array([0.0, 1.0]),
            "values": np.array([0.0, 10.0]),
            "bit": np.array([1.0, 2.0, 3.0]),
            "shape": np.zeros(2),
            "cli/file/0": (0, "", "", [], b'{"y": [0.0, 10.0], "path": "ssd", "T": 2}'),
            "cli/code/0": (0, "", "", [], None),
            "base-only": np.zeros(3),
            "same": np.ones(2),
        }
        head = {
            "signs": np.array([-0.0, 1.0]),
            "values": np.array([0.0, 9.0]),
            "bit": flipped,
            "shape": np.zeros(3),
            "cli/file/0": (0, "", "", [], b'{"y": [0.0, 9.0], "path": "all", "T": 2}'),
            "cli/code/0": (3, "", "", [], None),
            "head-only": 1,
            "same": np.ones(2),
        }
        status, verdicts, total = self.verdicts(base, head, capsys)
        assert status == 1
        assert verdicts == {
            "signs": "equal values, zero signs differ",
            "values": "DIFFERENT (relative Frobenius difference 1.0e-01)",
            "bit": "DIFFERENT (relative Frobenius difference 1.2e-16)",
            "shape": "DIFFERENT (shape (2,), then (3,))",
            "cli/file/0": "DIFFERENT (differing fields of the file, relative Frobenius: "
                          "y 1.0e-01, path differs)",
            "cli/code/0": "DIFFERENT",
            "base-only": "DIFFERENT (only in BASE)",
            "head-only": "DIFFERENT (only in HEAD)",
            "same": "bitwise equal",
        }
        assert total == "8 of 9 outputs differ"

    def test_a_failing_side_is_named_with_its_stderr_and_exits_2(self, tmp_path):
        broken = tmp_path / "broken"
        (broken / "ssdlab").mkdir(parents=True)
        (broken / "ssdlab" / "__init__.py").write_text('raise RuntimeError("this tree is broken")\n')
        proc = run_python([str(SCRIPTS / "compare_outputs.py"), str(broken), SRC_DIR],
                          cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 2, (proc.stdout, proc.stderr)
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"BASE_SRC {broken} failed (exit status 1):"), proc.stderr
        assert "RuntimeError: this tree is broken" in proc.stderr
