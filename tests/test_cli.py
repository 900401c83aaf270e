"""End-to-end tests of the command-line frontend."""

import json
import os
import resource
import shlex
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ssdlab import cli, ss_matrix
from ssdlab import ssm as ssm_mod
from ssdlab.limits import non_dualizable_matrix
from ssdlab.ss_matrix import LowerTriangularMatrix
from ssdlab.ssm import (
    DiagonalSsm,
    forward_ssd,
    random_instance,
    sequence_from_csv,
    sequence_from_json,
    sequence_to_csv,
    sequence_to_json,
)
from ssdlab.sss_extract import materialize_sss, random_representation
from tests.conftest import run_python, run_ssdlab, start_ssdlab


def run_cli(*argv, cwd=None):
    return run_ssdlab(argv, cwd=cwd, capture_output=True, text=True)


@pytest.fixture
def workdir(tmp_path):
    ssm, x = random_instance(7, 16, 4, 3)
    (tmp_path / "ssm.json").write_text(ssm.to_json())
    (tmp_path / "x.csv").write_text(sequence_to_csv(x))
    (tmp_path / "corner5.csv").write_text(non_dualizable_matrix(5).to_csv())
    return tmp_path


class TestForwardCommand:
    def test_all_paths_agree(self, workdir):
        proc = run_cli(
            "forward", "--ssm", "ssm.json", "--input", "x.csv", "--path", "all",
            "--out", "fw.json", cwd=workdir,
        )
        assert proc.returncode == 0
        payload = json.loads((workdir / "fw.json").read_text())
        assert payload["max_rel_error"] <= 1e-10
        assert len(payload["Y_recurrence"]) == 16

    @pytest.mark.parametrize("steps", [ssm_mod._CHUNK, 2 * ssm_mod._CHUNK + 3])
    def test_all_prints_the_linear_outputs_as_their_own_paths_do(
        self, tmp_path, monkeypatch, capsys, steps
    ):
        """The one pass's two outputs print byte for byte as each one-path command's "Y"."""
        model, x = random_instance(11, steps, 4, 3)
        (tmp_path / "ssm.json").write_text(model.to_json())
        (tmp_path / "x.csv").write_text(sequence_to_csv(x))
        monkeypatch.chdir(tmp_path)

        def printed(path):
            argv = ["forward", "--ssm", "ssm.json", "--input", "x.csv", "--path", path]
            assert cli.main([*argv, "--format", "json"]) == 0
            return capsys.readouterr().out

        def array_text(text, key):
            start = text.index(f'"{key}": ') + len(key) + 4
            return text[start:json.JSONDecoder().raw_decode(text, start)[1]]

        both = printed("all")
        for path in ("recurrence", "ssd"):
            assert array_text(both, f"Y_{path}") == array_text(printed(path), "Y"), path

    def test_single_path_csv_output(self, workdir):
        proc = run_cli(
            "forward", "--ssm", "ssm.json", "--input", "x.csv", "--path", "ssd",
            "--out", "y.csv", cwd=workdir,
        )
        assert proc.returncode == 0
        rows = (workdir / "y.csv").read_text().strip().splitlines()
        assert len(rows) == 16

    def test_malformed_json_is_an_input_error(self, workdir):
        (workdir / "bad.json").write_text('{"broken')
        proc = run_cli("forward", "--ssm", "bad.json", "--input", "x.csv", cwd=workdir)
        assert proc.returncode == 2
        assert proc.stderr == "input error: Unterminated string starting at: line 1 column 2 (char 1)\n"

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_a_non_finite_model_literal_is_refused_as_not_finite(self, workdir, literal):
        model = json.loads((workdir / "ssm.json").read_text())
        model["A_diag"][3][1] = "gain"
        (workdir / "bad.json").write_text(json.dumps(model).replace('"gain"', literal))
        proc = run_cli("forward", "--ssm", "bad.json", "--input", "x.csv", cwd=workdir)
        assert proc.returncode == 2
        assert proc.stderr == "input error: a_diag entries must be finite\n"

    def test_sequence_json_that_is_not_an_object_is_an_input_error(self, workdir):
        (workdir / "x.json").write_text("[1, 2]")
        proc = run_cli("forward", "--ssm", "ssm.json", "--input", "x.json", cwd=workdir)
        assert proc.returncode == 2
        assert "input error" in proc.stderr

    def test_a_model_missing_a_key_names_it(self, workdir):
        model = json.loads((workdir / "ssm.json").read_text())
        del model["b"]
        (workdir / "nob.json").write_text(json.dumps(model))
        proc = run_cli("forward", "--ssm", "nob.json", "--input", "x.csv", cwd=workdir)
        assert proc.returncode == 2
        assert proc.stderr == "input error: the DiagonalSsm JSON object lacks 'b'\n"

    def test_a_one_path_json_output_is_a_forward_input(self, workdir):
        argv = ("forward", "--ssm", "ssm.json", "--path", "ssd")
        assert run_cli(*argv, "--input", "x.csv", "--out", "y.json", cwd=workdir).returncode == 0
        assert run_cli(*argv, "--input", "y.json", "--out", "yy.csv", cwd=workdir).returncode == 0
        y = sequence_from_json((workdir / "y.json").read_text())
        expected = forward_ssd(DiagonalSsm.from_json((workdir / "ssm.json").read_text()), y)
        assert sequence_from_csv((workdir / "yy.csv").read_text()).tobytes() == expected.tobytes()

    def test_a_sequence_object_with_neither_key_names_x(self, workdir):
        (workdir / "z.json").write_text(json.dumps({"Z": [[1.0, 2.0, 3.0]] * 16}))
        proc = run_cli("forward", "--ssm", "ssm.json", "--input", "z.json", cwd=workdir)
        assert proc.returncode == 2
        assert proc.stderr == "input error: the sequence JSON object lacks 'X'\n"

    def test_shape_mismatch_is_an_input_error(self, workdir):
        (workdir / "short.csv").write_text("1.0,1.0,1.0\n2.0,2.0,2.0\n")
        proc = run_cli("forward", "--ssm", "ssm.json", "--input", "short.csv", cwd=workdir)
        assert proc.returncode == 2
        assert "input error" in proc.stderr

    def test_no_partial_output_on_error(self, workdir):
        (workdir / "short.csv").write_text("1.0\n")
        proc = run_cli(
            "forward", "--ssm", "ssm.json", "--input", "short.csv",
            "--out", "never.json", cwd=workdir,
        )
        assert proc.returncode == 2
        assert not (workdir / "never.json").exists()

    @pytest.mark.parametrize("path", ["recurrence", "materialized", "all"])
    @pytest.mark.parametrize("name", ["x.csv", "x.json"])
    def test_a_non_finite_input_entry_is_blamed_on_the_input(self, workdir, path, name):
        x = sequence_from_csv((workdir / "x.csv").read_text())
        x[3, 2] = np.nan
        text = sequence_to_csv(x) if name.endswith(".csv") else json.dumps({"X": x.tolist()})
        (workdir / name).write_text(text)
        proc = run_cli(
            "forward", "--ssm", "ssm.json", "--input", name, "--path", path,
            "--out", "y.json", cwd=workdir,
        )
        assert proc.returncode == 2
        assert proc.stderr == "input error: input sequence entries must be finite\n"
        assert not (workdir / "y.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            *(("forward", "--input", "x.csv", "--path", path)
              for path in ("recurrence", "ssd", "materialized", "all")),
            ("check-dual", "--mode", "full-rank"),
        ],
        ids=["recurrence", "ssd", "materialized", "all", "check-dual-full-rank"],
    )
    def test_overflowing_model_is_an_input_error(self, tmp_path, argv):
        ones = np.ones((64, 2))
        gains = np.full((64, 2), 1e12)
        gains[0] = 1.0
        (tmp_path / "ssm.json").write_text(DiagonalSsm(gains, ones, ones).to_json())
        (tmp_path / "x.csv").write_text(sequence_to_csv(np.ones((64, 1))))
        proc = run_cli(*argv, "--ssm", "ssm.json", "--out", "y.json", cwd=tmp_path)
        assert proc.returncode == 2
        # One line: the refusal, with no numpy overflow warning before it.
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("input error: ") and "finite" in lines[0]
        if argv[-1] == "all":
            # The recurrence is checked first, before the other outputs and any O(T^2) work.
            assert proc.stderr == "input error: the recurrence output has non-finite entries\n"
        assert not (tmp_path / "y.json").exists()


class TestArrayFieldHoldingAnObject:
    """A JSON array field that holds an object is an input error naming the field."""

    @pytest.mark.parametrize(
        "file, key, argv, name",
        [
            ("ssm.json", "A_diag", ("forward", "--ssm", "bad.json", "--input", "x.csv"), "a_diag"),
            ("x.json", "X", ("forward", "--ssm", "ssm.json", "--input", "bad.json"), "'X'"),
            ("m.json", "rows", ("extract", "--matrix", "bad.json", "--N", "2"), "values"),
        ],
        ids=["model", "sequence", "matrix"],
    )
    def test_exit_two_naming_the_field(self, workdir, file, key, argv, name):
        x = sequence_from_csv((workdir / "x.csv").read_text())
        (workdir / "x.json").write_text(sequence_to_json(x))
        (workdir / "m.json").write_text(non_dualizable_matrix(5).to_json())
        record = json.loads((workdir / file).read_text())
        record[key] = {"a": 1}
        (workdir / "bad.json").write_text(json.dumps(record))
        proc = run_cli(*argv, cwd=workdir)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"input error: {name} must be an array of numbers")


#: Nesting deeper than ``json.loads`` can read: unterminated, closed, and as a field's value.
DEEP = "[" * 100_000
DEEP_TEXTS = [DEEP, DEEP + "]" * 100_000, '{"N": %s, "T": %s, "rows": [[1.0]]}' % ((DEEP + "]" * 100_000,) * 2)]


class TestDeeplyNestedJson:
    """A deeply nested JSON file is an input error (exit 2), not a traceback."""

    @pytest.mark.parametrize("text", DEEP_TEXTS, ids=["unterminated", "closed", "field"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("extract", "--matrix", "deep.json", "--N", "1"),
            ("forward", "--ssm", "deep.json", "--input", "x.csv"),
            ("forward", "--ssm", "ssm.json", "--input", "deep.json"),
            ("gen", "ssm", "--seed", "1", "--config", "deep.json"),
        ],
        ids=["matrix", "model", "sequence", "config"],
    )
    def test_exit_two_with_one_input_error_line(self, workdir, argv, text):
        (workdir / "deep.json").write_text(text)
        proc = run_cli(*argv, cwd=workdir)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("input error: ") and proc.stderr.count("\n") == 1


#: A command of each kind that reads --eps, on the ``workdir`` files.
EPS_COMMANDS = {
    "forward": ("forward", "--ssm", "ssm.json", "--input", "x.csv"),
    "check-dual": ("check-dual", "--mode", "representability", "--matrix", "corner5.csv",
                   "--N", "4"),
    "extract": ("extract", "--matrix", "corner5.csv", "--N", "2"),
}


class TestEpsFlag:
    """--eps must be a finite float of at least 0, given as a flag or in --config."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-1e-9"])
    @pytest.mark.parametrize("command", list(EPS_COMMANDS))
    def test_flag_outside_zero_to_finite_is_refused(self, workdir, command, value):
        proc = run_cli(*EPS_COMMANDS[command], f"--eps={value}", cwd=workdir)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"argument --eps: invalid tolerance value: '{value}'" in proc.stderr

    @pytest.mark.parametrize("value", ["nan", "inf", "-1e-9"])
    @pytest.mark.parametrize("command", list(EPS_COMMANDS))
    def test_config_value_outside_zero_to_finite_is_refused(self, workdir, command, value):
        (workdir / "cfg.json").write_text(json.dumps({"eps": value}))
        proc = run_cli(*EPS_COMMANDS[command], "--config", "cfg.json", cwd=workdir)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"input error: config key 'eps': {value!r} is not a value of its flag\n"

    @pytest.mark.parametrize("command", list(EPS_COMMANDS))
    def test_zero_is_a_tolerance(self, workdir, command):
        proc = run_cli(*EPS_COMMANDS[command], "--eps=0", cwd=workdir)
        assert proc.returncode != 2
        assert "input error" not in proc.stderr and "invalid" not in proc.stderr


class TestCsvFormat:
    @pytest.mark.parametrize(
        "argv",
        [
            ("forward", "--ssm", "ssm.json", "--input", "x.csv", "--path", "all", "--out"),
            ("counterexample", "softmax", "--T", "3", "--out"),
            ("gen", "ssm", "--seed", "1", "--out"),
            ("extract", "--matrix", "corner5.csv", "--N", "2", "--out"),
            ("check-dual", "--mode", "representability", "--matrix", "corner5.csv", "--N", "2",
             "--out"),
            ("bench", "--seed", "1", "--T", "8", "--summary-out"),
        ],
        ids=["forward-all", "counterexample", "gen-ssm", "extract", "check-dual", "bench-summary"],
    )
    def test_asked_of_an_output_without_a_csv_form_is_refused(self, workdir, argv):
        proc = run_cli(*argv, "out.csv", cwd=workdir)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("input error: ") and "has no CSV form" in proc.stderr
        assert not (workdir / "out.csv").exists()

    @pytest.mark.parametrize("name", ["counts.json", "counts.txt"])
    def test_a_bench_table_not_named_csv_is_refused(self, workdir, name):
        proc = run_cli("bench", "--seed", "1", "--T", "8", "--out", name, cwd=workdir)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("input error: ") and "has no JSON form" in proc.stderr
        assert not (workdir / name).exists()


#: (writer argv, reader argv, names the writer refuses) of each file a command
#: writes. The reader is the command that takes the file, named {out} there; a
#: forward output, which no command takes, is read back by its form's parser.
ROUND_TRIPS = {
    "gen-matrix": (
        ("gen", "matrix", "--seed", "6", "--T", "6"),
        ("extract", "--matrix", "{out}", "--N", "6"),
        (),
    ),
    "gen-matrix-format-csv": (
        ("gen", "matrix", "--seed", "6", "--T", "6", "--format", "csv"),
        ("extract", "--matrix", "{out}", "--N", "6"),
        (".csv", ".json", ".txt"),
    ),
    "gen-sequence": (
        ("gen", "sequence", "--seed", "6", "--T", "16"),
        ("forward", "--ssm", "ssm.json", "--input", "{out}"),
        (),
    ),
    "gen-ssm": (
        ("gen", "ssm", "--seed", "6", "--T", "16"),
        ("forward", "--ssm", "{out}", "--input", "x.csv"),
        (".csv",),
    ),
    "forward-ssd": (
        ("forward", "--ssm", "ssm.json", "--input", "x.csv", "--path", "ssd"), None, ()
    ),
}


class TestFileNames:
    """A name ending in .csv is read and written as CSV, any other name as JSON."""

    @pytest.mark.parametrize("suffix", [".csv", ".json", ".txt"])
    @pytest.mark.parametrize("kind", ROUND_TRIPS)
    def test_every_written_file_reads_back_or_is_refused(self, workdir, kind, suffix):
        write, read, refused = ROUND_TRIPS[kind]
        out = "out" + suffix
        proc = run_cli(*write, "--out", out, cwd=workdir)
        if suffix in refused:
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert not (workdir / out).exists()
            return
        assert proc.returncode == 0, proc.stderr
        if read is not None:
            back = run_cli(*(arg.format(out=out) for arg in read), cwd=workdir)
            assert back.returncode == 0, back.stderr
            return
        text = (workdir / out).read_text()
        y = sequence_from_csv(text) if suffix == ".csv" else json.loads(text)["Y"]
        printed = run_cli(*write, "--format", "json", cwd=workdir)
        assert np.array_equal(y, json.loads(printed.stdout)["Y"])


class TestAtomicWrites:
    """``--out`` files are written through a temporary file renamed over the target."""

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_a_written_file_takes_its_mode_from_the_umask(self, tmp_path, umask, mode):
        out = tmp_path / "m.json"
        before = os.umask(umask)
        try:
            assert cli.main(["gen", "matrix", "--T", "3", "--seed", "1", "--out", str(out)]) == 0
        finally:
            os.umask(before)
        assert stat.S_IMODE(out.stat().st_mode) == mode
        assert [p.name for p in tmp_path.iterdir()] == ["m.json"]

    def test_an_overwritten_file_keeps_its_mode(self, tmp_path):
        out = tmp_path / "m.json"
        out.write_text("{}")
        out.chmod(0o640)
        before = os.umask(0o022)
        try:
            assert cli.main(["gen", "matrix", "--T", "3", "--seed", "1", "--out", str(out)]) == 0
        finally:
            os.umask(before)
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert json.loads(out.read_text())["T"] == 3

    def test_a_failed_rename_leaves_neither_file(self, tmp_path, monkeypatch):
        def failing(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", failing)
        with pytest.raises(OSError, match="rename refused"):
            cli._write_atomic(str(tmp_path / "m.json"), "{}")
        assert list(tmp_path.iterdir()) == []


def test_readme_quickstart_gen_and_check_dual_lines_pass(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    # The lines that write models and kernel.csv, check duals and extract, in README order.
    lines = [
        shlex.split(line) for line in block.splitlines()
        if line.startswith(("ssdlab gen ", "python -c ", "ssdlab check-dual ", "ssdlab extract "))
    ]
    modes = [argv[argv.index("--mode") + 1] for argv in lines if argv[1] == "check-dual"]
    assert modes == ["scalar-identity", "full-rank", "representability"]
    assert [argv[1] for argv in lines].count("-c") == 1 and lines[-1][1] == "extract"
    for program, *argv in lines:
        if program == "python":
            proc = run_python(argv, cwd=tmp_path, capture_output=True, text=True)
        else:
            proc = run_cli(*argv, cwd=tmp_path)
        assert proc.returncode == 0, (argv, proc.stdout, proc.stderr)


class TestCheckDualCommand:
    def test_representability_failure_exit_code(self, workdir):
        proc = run_cli(
            "check-dual", "--mode", "representability",
            "--matrix", "corner5.csv", "--N", "2", "--out", "rep.json", cwd=workdir,
        )
        assert proc.returncode == 1
        report = json.loads((workdir / "rep.json").read_text())
        assert report["representable"] is False
        assert report["blocks"] == [{"start": 0, "end": 5, "new_columns": 4}]

    def test_representability_success_includes_factors(self, workdir):
        proc = run_cli(
            "check-dual", "--mode", "representability",
            "--matrix", "corner5.csv", "--N", "4", "--out", "rep4.json", cwd=workdir,
        )
        assert proc.returncode == 0
        report = json.loads((workdir / "rep4.json").read_text())
        assert report["representable"] is True
        assert report["reconstruction_rel_residual"] <= 1e-9
        assert len(report["factors"]["p"]) == 5

    @pytest.mark.parametrize("matrix", ["zero", "corner"])
    def test_representability_rejects_zero_width(self, workdir, matrix):
        if matrix == "zero":
            (workdir / "zero.csv").write_text("0.0,0.0\n0.0,0.0\n")
        path = {"zero": "zero.csv", "corner": "corner5.csv"}[matrix]
        proc = run_cli(
            "check-dual", "--mode", "representability", "--matrix", path, "--N", "0",
            "--out", "rep0.json", cwd=workdir,
        )
        assert proc.returncode == 2
        assert "sizes must be at least 1, got width=0" in proc.stderr
        assert not (workdir / "rep0.json").exists()

    def test_representability_refuses_an_overflowing_fill(self, tmp_path):
        m = materialize_sss(random_representation(0, 512, 4))
        (tmp_path / "sss.csv").write_text(m.to_csv())
        proc = run_cli(
            "check-dual", "--mode", "representability", "--matrix", "sss.csv", "--N", "4",
            "--out", "rep.json", cwd=tmp_path,
        )
        assert proc.returncode == 3
        assert (
            "precondition: error budget term finiteness fails: "
            "the coefficients of block [0, 512) overflow first" in proc.stderr
        )
        assert not (tmp_path / "rep.json").exists()

    def test_representability_refuses_a_general_representation(self, tmp_path):
        m = materialize_sss(random_representation(0, 128, 4))
        (tmp_path / "sss.csv").write_text(m.to_csv())
        proc = run_cli(
            "check-dual", "--mode", "representability", "--matrix", "sss.csv", "--N", "4",
            "--out", "rep.json", cwd=tmp_path,
        )
        assert proc.returncode == 3
        assert "precondition: error budget term rounding dominates" in proc.stderr
        assert not (tmp_path / "rep.json").exists()

    def test_full_rank_mode(self, workdir, tmp_path):
        ssm, _ = random_instance(23, 12, 3, 1, a_abs=(0.5, 2.0))
        (tmp_path / "fr.json").write_text(ssm.to_json())
        proc = run_cli("check-dual", "--mode", "full-rank", "--ssm", "fr.json", cwd=tmp_path)
        assert proc.returncode == 0

    def test_zero_gain_blocks_full_rank_mode(self, workdir, tmp_path):
        gains = np.ones((4, 2))
        gains[2, 0] = 0.0
        model = DiagonalSsm(gains, np.ones((4, 2)), np.ones((4, 2)))
        (tmp_path / "zg.json").write_text(model.to_json())
        proc = run_cli("check-dual", "--mode", "full-rank", "--ssm", "zg.json", cwd=tmp_path)
        assert proc.returncode == 3

    def test_scalar_identity_mode(self, workdir, tmp_path):
        ssm, _ = random_instance(29, 10, 3, 1, scalar_identity=True)
        (tmp_path / "si.json").write_text(ssm.to_json())
        proc = run_cli(
            "check-dual", "--mode", "scalar-identity", "--ssm", "si.json", cwd=tmp_path
        )
        assert proc.returncode == 0

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("full-rank", "--ssm", "ssm.json", "--matrix", "corner5.csv", "--N", "3"), "--matrix"),
            (("full-rank", "--ssm", "ssm.json", "--N", "3"), "--N"),
            (("representability", "--matrix", "corner5.csv", "--N", "2", "--ssm", "ssm.json"),
             "--ssm"),
        ],
        ids=["full-rank-matrix", "full-rank-N", "representability-ssm"],
    )
    def test_an_option_the_mode_does_not_read_is_refused(self, workdir, argv, flag):
        proc = run_cli("check-dual", "--mode", *argv, "--out", "rep.json", cwd=workdir)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"input error: --mode {argv[0]} does not read {flag}\n"
        assert not (workdir / "rep.json").exists()

    def test_non_scalar_identity_blocks(self, workdir):
        proc = run_cli("check-dual", "--mode", "scalar-identity", "--ssm", "ssm.json", cwd=workdir)
        assert proc.returncode == 3


class TestExtractCommand:
    def test_round_trip_report(self, workdir):
        proc = run_cli(
            "extract", "--matrix", "corner5.csv", "--N", "2", "--out", "rep.json", cwd=workdir
        )
        assert proc.returncode == 0
        report = json.loads((workdir / "rep.json").read_text())
        assert report["roundtrip_rel_residual"] <= 1e-9
        assert report["representation"]["N"] == 2

    def test_insufficient_width_blocks(self, workdir):
        proc = run_cli("extract", "--matrix", "corner5.csv", "--N", "1", cwd=workdir)
        assert proc.returncode == 3

    # An integer beyond the 64-bit range reads as a float, so it is no integer either.
    @pytest.mark.parametrize(
        "size, got", [("true", "True"), ("18446744073709551616", "1.8446744073709552e+19")],
        ids=["bool", "beyond-64-bits"],
    )
    def test_declared_size_that_is_not_an_integer_is_an_input_error(self, workdir, size, got):
        (workdir / "t.json").write_text('{"T": %s, "rows": [[2.0]]}' % size)
        proc = run_cli("extract", "--matrix", "t.json", "--N", "1", cwd=workdir)
        assert proc.returncode == 2
        assert proc.stderr == f"input error: declared T must be an integer, got {got}\n"


class TestOverflowingNorm:
    """Entries whose squares sum past the largest double make every norm-based gate inf."""

    COMMANDS = {
        "check-dual": ["check-dual", "--mode", "representability"],
        "extract": ["extract"],
    }

    def run(self, tmp_path, command, scale):
        matrix = LowerTriangularMatrix(scale * np.tril(np.ones((3, 3))))
        (tmp_path / "m.csv").write_text(matrix.to_csv())
        argv = [*self.COMMANDS[command], "--matrix", "m.csv", "--N", "2", "--out", "out.json"]
        return run_cli(*argv, cwd=tmp_path)

    @pytest.mark.parametrize("scale", [1e200, 1e308])
    @pytest.mark.parametrize("command", ["check-dual", "extract"])
    def test_is_refused_up_front(self, tmp_path, command, scale):
        proc = self.run(tmp_path, command, scale)
        assert proc.returncode == 3
        assert proc.stderr == (
            f"precondition: the matrix's Frobenius norm is inf (largest entry magnitude "
            f"{scale:.3e}): its squared entries sum past the largest double\n"
        )
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command", ["check-dual", "extract"])
    def test_squares_that_stay_finite_are_decided_as_before(self, tmp_path, command):
        proc = self.run(tmp_path, command, 1e150)
        assert proc.returncode == 0
        assert "Warning" not in proc.stderr
        if command == "check-dual":
            assert (tmp_path / "out.json").read_text() == (
                '{"blocks": [{"start": 0, "end": 3, "new_columns": 1}], "representable": true, '
                '"reconstruction_rel_residual": 0.0, "factors": {"p": [0.0, 1.0, 1.0], '
                '"Q": [[1e+150, 0.0], [1e+150, 0.0], [1e+150, 0.0]], '
                '"K": [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]}}'
            )
        else:
            report = json.loads((tmp_path / "out.json").read_text())
            assert report["block_ranks"] == [1, 1, 1]
            assert report["roundtrip_rel_residual"] <= 1e-15


class TestCounterexampleCommand:
    def test_softmax_passes(self, workdir):
        proc = run_cli("counterexample", "softmax", "--T", "4", "--format", "json", cwd=workdir)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["verdict"] is True

    def test_softmax_size_guard(self, workdir):
        proc = run_cli("counterexample", "softmax", "--T", "9", cwd=workdir)
        assert proc.returncode == 2

    def test_non_dualizable_passes(self, workdir):
        proc = run_cli("counterexample", "non-dualizable", "--T", "5", "--N", "2", cwd=workdir)
        assert proc.returncode == 0

    def test_inapplicable_pair_reports_precondition(self, workdir):
        proc = run_cli("counterexample", "non-dualizable", "--T", "3", "--N", "2", cwd=workdir)
        assert proc.returncode == 3


class TestBenchCommand:
    def test_grid_writes_csv_and_summary(self, workdir):
        proc = run_cli(
            "bench", "--path", "ssd", "--T", "64,128,256", "--seed", "3",
            "--out", "bench.csv", "--summary-out", "bench.json", cwd=workdir,
        )
        assert proc.returncode == 0
        summary = json.loads((workdir / "bench.json").read_text())
        assert abs(summary["slopes"]["T"] - 1.0) <= 0.05
        lines = (workdir / "bench.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        assert "wall" not in lines[0]

    def test_seed_is_mandatory(self, workdir):
        proc = run_cli("bench", "--path", "ssd", cwd=workdir)
        assert proc.returncode == 2

    def test_empty_grid_is_an_input_error(self, workdir):
        proc = run_cli("bench", "--seed", "1", "--T", ",", cwd=workdir)
        assert proc.returncode == 2
        assert proc.stderr.startswith("input error")

    @pytest.mark.parametrize("grid", [("--T", "0,1,2"), ("--d", "0"), ("--d", "0,1,2")], ids=str)
    def test_size_below_one_is_an_input_error(self, workdir, grid):
        proc = run_cli("bench", "--path", "ssd", "--seed", "1", *grid, cwd=workdir)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"input error: sizes must be at least 1, got {grid[0][2:]}=0\n"


class TestGenCommand:
    def test_seeded_model_is_reproducible(self, workdir):
        first = run_cli("gen", "ssm", "--seed", "5", "--T", "8", "--N", "2", cwd=workdir)
        second = run_cli("gen", "ssm", "--seed", "5", "--T", "8", "--N", "2", cwd=workdir)
        assert first.returncode == 0
        assert first.stdout == second.stdout

    def test_seed_is_mandatory(self, workdir):
        proc = run_cli("gen", "ssm", "--T", "8", cwd=workdir)
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "argv", [("ssm", "--T", "0"), ("sequence", "--T", "0"), ("sequence", "--d", "0")], ids=str
    )
    def test_size_below_one_is_an_input_error(self, workdir, argv):
        proc = run_cli("gen", *argv, "--seed", "1", "--out", "out.json", cwd=workdir)
        assert proc.returncode == 2
        assert proc.stderr == f"input error: sizes must be at least 1, got {argv[1][2:]}=0\n"
        assert not (workdir / "out.json").exists()

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_matrix_size_below_one_is_named(self, workdir, size):
        proc = run_cli("gen", "matrix", "--seed", "1", "--T", size, cwd=workdir)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"input error: sizes must be at least 1, got T={size}\n"

    @pytest.mark.parametrize("argv", [("--a-max", "inf"), ("--a-min", "inf", "--a-max", "inf")],
                             ids=["a-max", "a-min-and-a-max"])
    def test_infinite_gain_bound_is_an_input_error(self, workdir, argv):
        proc = run_cli("gen", "ssm", "--seed", "1", *argv, cwd=workdir)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("input error: need 0 <= lo <= hi")

    def test_generated_matrix_loads_back(self, workdir):
        proc = run_cli(
            "gen", "matrix", "--seed", "6", "--T", "6", "--out", "m.json", cwd=workdir
        )
        assert proc.returncode == 0
        extract = run_cli("extract", "--matrix", "m.json", "--N", "6", cwd=workdir)
        assert extract.returncode == 0

    def test_generated_csv_matrix_loads_back(self, workdir):
        proc = run_cli(
            "gen", "matrix", "--seed", "6", "--T", "6", "--out", "m.csv", cwd=workdir
        )
        assert proc.returncode == 0
        extract = run_cli("extract", "--matrix", "m.csv", "--N", "6", cwd=workdir)
        assert extract.returncode == 0


#: Every flag of each ``gen`` kind but --seed and --out, at its default.
GEN_DEFAULTS = {
    "ssm": ("--T", "16", "--N", "4", "--a-min", "0.0", "--a-max", "2.0"),
    "sequence": ("--T", "16", "--d", "2"),
    "matrix": ("--T", "16"),
}

#: Each leaf, and each check-dual mode, with every option it needs and a value for each.
NEEDED = {
    "forward": (("forward",), {"ssm": "ssm.json", "input": "x.csv"}),
    "check-dual-scalar-identity": (("check-dual",), {"mode": "scalar-identity", "ssm": "si.json"}),
    "check-dual-full-rank": (("check-dual",), {"mode": "full-rank", "ssm": "ssm.json"}),
    "check-dual-representability": (
        ("check-dual",), {"mode": "representability", "matrix": "corner5.csv", "N": 4}
    ),
    "extract": (("extract",), {"matrix": "corner5.csv", "N": 4}),
    "counterexample-softmax": (("counterexample", "softmax"), {"T": 4}),
    "counterexample-non-dualizable": (("counterexample", "non-dualizable"), {"T": 5}),
    "bench": (("bench",), {"seed": 1}),
    **{f"gen-{kind}": (("gen", kind), {"seed": 1}) for kind in GEN_DEFAULTS},
}


class TestDefaults:
    """Each command gives the same result bare and with every default spelled out."""

    @pytest.mark.parametrize(
        "argv, defaults",
        [
            (("bench", "--seed", "1"), ("--path", "ssd", "--T", "64", "--N", "4", "--d", "2")),
            *[(("gen", kind, "--seed", "1"), defaults) for kind, defaults in GEN_DEFAULTS.items()],
            (("counterexample", "non-dualizable", "--T", "5"), ("--N", "2", "--format", "pretty")),
            (
                ("forward", "--ssm", "ssm.json", "--input", "x.csv"),
                ("--path", "all", "--eps", "1e-9", "--format", "pretty"),
            ),
        ],
        ids=["bench", "gen-ssm", "gen-sequence", "gen-matrix", "counterexample", "forward"],
    )
    def test_spelled_out_defaults_change_nothing(self, workdir, argv, defaults):
        # The bench table has only a CSV form, so only a .csv name holds it.
        suffix = ".csv" if argv[0] == "bench" else ".out"
        bare = run_cli(*argv, "--out", "bare" + suffix, cwd=workdir)
        spelled = run_cli(*argv, *defaults, "--out", "spelled" + suffix, cwd=workdir)
        assert bare.returncode == 0
        assert (bare.returncode, bare.stdout) == (spelled.returncode, spelled.stdout)
        written = [(workdir / (name + suffix)).read_bytes() for name in ("bare", "spelled")]
        assert written[0] == written[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ("extract", "--matrix", "corner5.csv", "--N", "2", "--format", "json"),
            ("check-dual", "--mode", "representability", "--matrix", "corner5.csv", "--N", "2",
             "--seed", "1"),
            ("bench", "--seed", "1", "--T", "8", "--eps", "1e-9"),
            ("gen", "matrix", "--seed", "1", "--N", "5"),
            ("gen", "matrix", "--seed", "1", "--d", "7"),
            ("gen", "matrix", "--seed", "1", "--a-min", "0.3"),
            ("gen", "sequence", "--seed", "1", "--N", "5"),
            ("gen", "sequence", "--seed", "1", "--a-max", "3.0"),
            ("gen", "ssm", "--seed", "1", "--d", "2"),
            ("gen", "matrix", "--seed", "1", "--format", "json"),
        ],
        ids=[
            "extract-format", "check-dual-seed", "bench-eps", "gen-matrix-N", "gen-matrix-d",
            "gen-matrix-a-min", "gen-sequence-N", "gen-sequence-a-max", "gen-ssm-d",
            "gen-matrix-format",
        ],
    )
    def test_shared_flag_the_command_does_not_read_is_refused(self, workdir, argv):
        proc = run_cli(*argv, cwd=workdir)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "unrecognized arguments: " + argv[-2] in proc.stderr


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, workdir):
        (workdir / "cfg.json").write_text(json.dumps({"path": "ssd", "seed": 11, "T": "64"}))
        proc = run_cli("bench", "--config", "cfg.json", cwd=workdir)
        assert proc.returncode == 0
        summary = json.loads(proc.stdout)
        assert summary["points"][0]["T"] == 64
        override = run_cli("bench", "--config", "cfg.json", "--T", "32", cwd=workdir)
        assert json.loads(override.stdout)["points"][0]["T"] == 32

    def test_unknown_key_is_an_input_error(self, workdir):
        (workdir / "cfg.json").write_text(json.dumps({"probe_workers": 2, "sed": 3}))
        proc = run_cli("bench", "--seed", "1", "--config", "cfg.json", cwd=workdir)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "input error" in proc.stderr
        assert "'probe_workers'" in proc.stderr and "'bench'" in proc.stderr

    @pytest.mark.parametrize(
        "argv, config, flag",
        [
            (("check-dual", "--mode", "representability", "--matrix", "corner5.csv"),
             {"N": "2"}, ("--N", "2")),
            (("extract", "--matrix", "corner5.csv", "--N", "2"),
             {"eps": "1e-9"}, ("--eps", "1e-9")),
            (("gen", "ssm", "--seed", "1"),
             {"N": "3", "a-min": 0.5}, ("--N", "3", "--a-min", "0.5")),
        ],
        ids=["check-dual-N", "extract-eps", "gen-ssm-N-a-min"],
    )
    def test_string_values_convert_like_their_flags(self, workdir, argv, config, flag):
        (workdir / "cfg.json").write_text(json.dumps(config))
        via_file = run_cli(*argv, "--config", "cfg.json", cwd=workdir)
        via_flag = run_cli(*argv, *flag, cwd=workdir)
        assert "Traceback" not in via_file.stderr
        assert (via_file.returncode, via_file.stdout) == (via_flag.returncode, via_flag.stdout)

    @pytest.mark.parametrize(
        "argv, config",
        [
            (("check-dual", "--mode", "representability", "--matrix", "corner5.csv"),
             {"N": "two"}),
            (("extract", "--matrix", "corner5.csv", "--N", "2"), {"eps": [1e-9]}),
            (("bench", "--seed", "1"), {"path": "softmax"}),
            (("gen", "ssm", "--seed", "1"), {"scalar_identity": "no"}),
            # An integer beyond the 64-bit range reads as a float, which --seed refuses.
            (("gen", "ssm"), {"seed": 2**64}),
        ],
        ids=["check-dual-N", "extract-eps", "bench-path", "gen-switch", "gen-seed-beyond-64-bits"],
    )
    def test_values_their_flags_reject_are_input_errors(self, workdir, argv, config):
        (workdir / "cfg.json").write_text(json.dumps(config))
        proc = run_cli(*argv, "--config", "cfg.json", cwd=workdir)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("input error") and "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "kind, key", [("matrix", "N"), ("matrix", "d"), ("sequence", "a_min"), ("ssm", "d")]
    )
    def test_gen_keys_follow_the_kind(self, workdir, kind, key):
        (workdir / "cfg.json").write_text(json.dumps({key: 2}))
        proc = run_cli("gen", kind, "--seed", "1", "--config", "cfg.json", cwd=workdir)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"input error: config key {key!r} names no option of 'gen {kind}'\n"

    def test_command_key_does_not_redirect_dispatch(self, workdir):
        self.assert_key_refused(workdir, "command")

    def test_config_key_is_refused(self, workdir):
        self.assert_key_refused(workdir, "config")

    @staticmethod
    def assert_key_refused(workdir, key):
        (workdir / "cfg.json").write_text(json.dumps({key: "gen"}))
        proc = run_cli("bench", "--seed", "1", "--T", "8", "--config", "cfg.json", cwd=workdir)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("input error") and repr(key) in proc.stderr

    @pytest.mark.parametrize("case", list(NEEDED))
    def test_every_needed_option_may_come_from_the_file(self, workdir, case):
        leaf, needed = NEEDED[case]
        scalar_identity, _ = random_instance(29, 10, 3, 1, scalar_identity=True)
        (workdir / "si.json").write_text(scalar_identity.to_json())
        (workdir / "cfg.json").write_text(json.dumps(needed))
        flags = [word for key, value in needed.items() for word in (f"--{key}", str(value))]
        # The bench table has only a CSV form, so only a .csv name holds it.
        suffix = ".csv" if leaf[0] == "bench" else ".out"
        via_file = run_cli(*leaf, "--config", "cfg.json", "--out", "file" + suffix, cwd=workdir)
        via_flag = run_cli(*leaf, *flags, "--out", "flag" + suffix, cwd=workdir)
        assert via_flag.returncode == 0
        assert (via_file.returncode, via_file.stdout, via_file.stderr) == (
            via_flag.returncode, via_flag.stdout, via_flag.stderr
        )
        written = [(workdir / (name + suffix)).read_bytes() for name in ("file", "flag")]
        assert written[0] == written[1]

    @pytest.mark.parametrize(
        "case, missing",
        [(case, key) for case, (_, needed) in NEEDED.items() for key in needed],
        ids=str,
    )
    def test_a_missing_needed_option_is_named(self, workdir, monkeypatch, capsys, case, missing):
        leaf, needed = NEEDED[case]
        rest = {key: value for key, value in needed.items() if key != missing}
        (workdir / "cfg.json").write_text(json.dumps(rest))
        monkeypatch.chdir(workdir)
        assert cli.main([*leaf, "--config", "cfg.json", "--out", "out.json"]) == 2
        who = f"--mode {needed['mode']}" if "mode" in rest else " ".join(leaf)
        assert capsys.readouterr() == ("", f"input error: {who} needs --{missing}\n")
        assert not (workdir / "out.json").exists()


class TestOversizedRequests:
    """A size too large to allocate is an input error, with no traceback and no output."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "matrix", "--seed", "1", "--T", "100000"),
            ("extract", "--matrix", "m.csv", "--N", "200000"),
            ("check-dual", "--mode", "representability", "--matrix", "m.csv", "--N", "300000000"),
        ],
        ids=["gen-matrix", "extract", "check-dual"],
    )
    def test_exit_two_under_an_address_space_limit(self, workdir, argv):
        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        (workdir / "m.csv").write_text(non_dualizable_matrix(6).to_csv())
        proc = run_ssdlab(
            [*argv, "--out", "out.json"], cwd=workdir, capture_output=True, text=True,
            preexec_fn=limit_address_space,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("input error: Unable to allocate ")
        assert "Traceback" not in proc.stderr
        assert not (workdir / "out.json").exists()


class TestParserTree:
    """In one process the CLI builds its parser tree once, and no call changes it."""

    def test_repeated_calls_build_the_tree_once(self, workdir, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        monkeypatch.chdir(workdir)
        for argv in (
            ["bench", "--seed", "1", "--T", "8"],
            ["gen", "matrix", "--seed", "1", "--T", "2"],
            ["counterexample", "softmax", "--T", "3"],
        ):
            assert cli.main(argv) == 0
        assert len(built) == 1

    def test_one_calls_config_never_reaches_the_next(self, workdir, monkeypatch, capsys):
        monkeypatch.chdir(workdir)
        (workdir / "cfg.json").write_text(json.dumps({"T": "32", "path": "recurrence"}))
        printed = []
        for argv in (("--config", "cfg.json"), (), ("--config", "cfg.json", "--T", "16")):
            assert cli.main(["bench", "--seed", "1", *argv]) == 0
            point = json.loads(capsys.readouterr().out)["points"][0]
            printed.append((point["path"], point["T"]))
        assert printed == [("recurrence", 32), ("ssd", 64), ("recurrence", 16)]

    def test_each_counterexample_kind_takes_only_its_flags(self, workdir, monkeypatch, capsys):
        monkeypatch.chdir(workdir)
        softmax = ["counterexample", "softmax", "--T", "3"]
        with pytest.raises(SystemExit) as exc:
            cli.main([*softmax, "--N", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --N 3" in capsys.readouterr().err
        (workdir / "cfg.json").write_text(json.dumps({"N": 3}))
        assert cli.main([*softmax, "--config", "cfg.json"]) == 2
        assert capsys.readouterr() == (
            "", "input error: config key 'N' names no option of 'counterexample softmax'\n"
        )
        non_dualizable = ["counterexample", "non-dualizable", "--T", "5"]
        assert cli.main([*non_dualizable, "--N", "2"]) == 0
        assert "verdict: True" in capsys.readouterr().out
        assert cli.main([*non_dualizable, "--N", "3"]) == 0
        via_flag = capsys.readouterr()
        assert cli.main([*non_dualizable, "--config", "cfg.json"]) == 0
        assert capsys.readouterr() == via_flag


class TestPrintedOutput:
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["forward", "--ssm", "ssm.json", "--input", "x.csv", "--format", "json"], "fw.json"),
            (["forward", "--ssm", "ssm.json", "--input", "x.csv", "--path", "ssd",
              "--format", "json"], "y.json"),
            (["counterexample", "softmax", "--T", "4", "--format", "json"], "report.json"),
            (["bench", "--seed", "1", "--T", "8", "--summary-out", "summary.json"], None),
        ],
    )
    def test_a_value_printed_in_its_files_form_is_encoded_once(
        self, workdir, monkeypatch, capsys, argv, name
    ):
        monkeypatch.chdir(workdir)
        if name is not None:
            argv = [*argv, "--out", name]
        encodes = []
        encode = ss_matrix.json_dumps

        def counted(value):
            encodes.append(1)
            return encode(value)

        # Every module that writes JSON calls the one encoder under its own name.
        for module in list(sys.modules.values()):
            if module.__name__.startswith("ssdlab") and vars(module).get("json_dumps") is encode:
                monkeypatch.setattr(module, "json_dumps", counted)
        assert cli.main(argv) == 0
        assert len(encodes) == 1
        written = workdir / (name or "summary.json")
        assert capsys.readouterr().out == written.read_text() + "\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "matrix", "--seed", "1", "--T", "200"],
            ["forward", "--ssm", "ssm600.json", "--input", "x600.csv", "--format", "json"],
        ],
    )
    def test_a_reader_closing_stdout_cuts_only_the_output(self, tmp_path, argv):
        # Both outputs outgrow a pipe's buffer, so the writer meets the closed reader.
        model, x = random_instance(3, 600, 4, 4)
        (tmp_path / "ssm600.json").write_text(model.to_json())
        (tmp_path / "x600.csv").write_text(sequence_to_csv(x))
        whole = run_cli(*argv, cwd=tmp_path)
        assert whole.returncode == 0 and len(whole.stdout) > 2**17
        proc = start_ssdlab(argv, tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(10)
        proc.stdout.close()
        errors = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == whole.returncode
        assert head == whole.stdout[:10].encode()
        assert errors == b""


#: Runs the CLI on its arguments with every scipy import made to raise ImportError.
BLOCK_SCIPY_THEN_RUN = """
import sys
sys.modules["scipy"] = None
from ssdlab import cli
sys.exit(cli.main(sys.argv[1:]))
"""


class TestImportCost:
    def test_import_path_loads_no_orjson(self, tmp_path):
        # orjson loads uuid and zoneinfo; only the commands that decode JSON import it.
        listing = "import sys, ssdlab.cli; print('orjson' in sys.modules)"
        proc = run_python(["-c", listing], cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_path_loads_no_hashlib(self, tmp_path):
        # The atomic writer names its temp file from os.urandom, not secrets, which loads
        # hmac, hashlib and OpenSSL's _hashlib.
        listing = (
            "import sys, ssdlab.cli; "
            "print([m for m in ('hmac', 'hashlib', '_hashlib') if m in sys.modules])"
        )
        proc = run_python(["-c", listing], cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestWithoutScipy:
    def test_import_path_loads_no_scipy(self, tmp_path):
        listing = (
            "import sys, ssdlab, ssdlab.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
        )
        proc = run_python(["-c", listing], cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_commands_run_with_scipy_blocked(self, tmp_path):
        def run_blocked(*argv):
            return run_python(
                ["-c", BLOCK_SCIPY_THEN_RUN, *argv], cwd=tmp_path, capture_output=True, text=True
            )

        softmax = run_blocked("counterexample", "softmax", "--T", "5", "--format", "json")
        assert softmax.returncode == 0, softmax.stderr
        assert '"verdict": true' in softmax.stdout
        generated = run_blocked("gen", "matrix", "--seed", "6", "--T", "6", "--out", "m.csv")
        assert generated.returncode == 0, generated.stderr
        check = run_blocked(
            "check-dual", "--mode", "representability", "--matrix", "m.csv", "--N", "6"
        )
        assert check.returncode == 0, check.stderr
        extract = run_blocked("extract", "--matrix", "m.csv", "--N", "6")
        assert extract.returncode == 0, extract.stderr
