"""End-to-end tests of the command-line frontend."""

import json

import numpy as np
import pytest

from ssdlab.limits import non_dualizable_matrix
from ssdlab.ssm import DiagonalSsm, random_instance, sequence_to_csv
from ssdlab.sss_extract import materialize_sss, random_representation
from tests.conftest import run_ssdlab


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

    def test_single_path_csv_output(self, workdir):
        proc = run_cli(
            "forward", "--ssm", "ssm.json", "--input", "x.csv", "--path", "ssd",
            "--out", "y.csv", "--format", "csv", cwd=workdir,
        )
        assert proc.returncode == 0
        rows = (workdir / "y.csv").read_text().strip().splitlines()
        assert len(rows) == 16

    def test_malformed_json_is_an_input_error(self, workdir):
        (workdir / "bad.json").write_text('{"broken')
        proc = run_cli("forward", "--ssm", "bad.json", "--input", "x.csv", cwd=workdir)
        assert proc.returncode == 2

    def test_sequence_json_that_is_not_an_object_is_an_input_error(self, workdir):
        (workdir / "x.json").write_text("[1, 2]")
        proc = run_cli("forward", "--ssm", "ssm.json", "--input", "x.json", cwd=workdir)
        assert proc.returncode == 2
        assert "input error" in proc.stderr

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

    @pytest.mark.parametrize("path", ["recurrence", "ssd", "materialized", "all"])
    def test_overflowing_model_is_an_input_error(self, tmp_path, path):
        ones = np.ones((64, 2))
        gains = np.full((64, 2), 1e12)
        gains[0] = 1.0
        (tmp_path / "ssm.json").write_text(DiagonalSsm(gains, ones, ones).to_json())
        (tmp_path / "x.csv").write_text(sequence_to_csv(np.ones((64, 1))))
        proc = run_cli(
            "forward", "--ssm", "ssm.json", "--input", "x.csv", "--path", path,
            "--out", "y.json", cwd=tmp_path,
        )
        assert proc.returncode == 2
        assert "input error" in proc.stderr and "finite" in proc.stderr
        assert not (tmp_path / "y.json").exists()


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
        assert "width must be at least 1" in proc.stderr
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


class TestGenCommand:
    def test_seeded_model_is_reproducible(self, workdir):
        first = run_cli("gen", "ssm", "--seed", "5", "--T", "8", "--N", "2", cwd=workdir)
        second = run_cli("gen", "ssm", "--seed", "5", "--T", "8", "--N", "2", cwd=workdir)
        assert first.returncode == 0
        assert first.stdout == second.stdout

    def test_seed_is_mandatory(self, workdir):
        proc = run_cli("gen", "ssm", "--T", "8", cwd=workdir)
        assert proc.returncode == 2

    def test_generated_matrix_loads_back(self, workdir):
        proc = run_cli(
            "gen", "matrix", "--seed", "6", "--T", "6", "--out", "m.json", cwd=workdir
        )
        assert proc.returncode == 0
        extract = run_cli("extract", "--matrix", "m.json", "--N", "6", cwd=workdir)
        assert extract.returncode == 0


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
        ],
        ids=["check-dual-N", "extract-eps"],
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
            (("bench", "--seed", "1"), {"format": "xml"}),
            (("gen", "ssm", "--seed", "1"), {"scalar_identity": "no"}),
        ],
        ids=["check-dual-N", "extract-eps", "bench-format", "gen-switch"],
    )
    def test_values_their_flags_reject_are_input_errors(self, workdir, argv, config):
        (workdir / "cfg.json").write_text(json.dumps(config))
        proc = run_cli(*argv, "--config", "cfg.json", cwd=workdir)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("input error") and "Traceback" not in proc.stderr
