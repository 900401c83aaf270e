"""What ``ssdlab`` exports, and which of its modules each command loads.

The package resolves its names on first use, and the CLI imports ``duality``,
``limits`` and ``bench`` inside the commands that run them. The module sets
are read in a fresh interpreter, since this one has loaded every module.
"""

import importlib
import json

import pytest

import ssdlab
from ssdlab import bench, cli
from tests.conftest import run_python

#: Module -> the names ``from ssdlab import *`` binds from it.
EXPORTS = {
    "errors": "DegenerateGridError InconsistentTransitionError NotRepresentableError "
              "NotScalarIdentityError PreconditionError RankExceedsWidthError ReconstructionError "
              "ShapeMismatchError SizeExceededError SsdError UnstableScalingError ZeroGainError",
    "ss_matrix": "DEFAULT_EPS LowerTriangularMatrix diagonal_block_partition new_columns "
                 "semiseparable_rank",
    "ssm": "DiagonalSsm forward_linear forward_materialized forward_recurrence forward_ssd "
           "materialize_kernel random_instance scan",
    "duality": "MaskedAttentionFactors attention_like_decomposition construct_one_ss_dual "
               "count_block_new_columns full_rank_one_ss_dual one_ss scalar_identity_dual",
    "sss_extract": "GeneralSssRepresentation extract_sss materialize_sss random_representation "
                   "rank_factor_step solve_transition",
    "limits": "CounterexampleReport non_dualizable_matrix softmax_counterexample "
              "verify_non_dualizable",
    "bench": "FlopReport count_flops scaling_experiment",
}
NAMES = {name: module for module, names in EXPORTS.items() for name in names.split()}

#: What ``import ssdlab.cli`` loads of the package.
CLI_MODULES = ["ssdlab", "ssdlab.cli", "ssdlab.errors", "ssdlab.ss_matrix", "ssdlab.ssm",
               "ssdlab.sss_extract"]

#: Runs the CLI's commands (a JSON list of argv lists) in turn, then prints their exit codes and
#: the package's modules loaded before the first and after the last.
RUN_THEN_LIST = """
import json, sys
from ssdlab import cli
listed = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "ssdlab")
before = listed()
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, before, listed()]))
"""


def _modules_around(tmp_path, *commands: str) -> tuple[list[int], list[str], list[str]]:
    argvs = json.dumps([command.split() for command in commands])
    proc = run_python(["-c", RUN_THEN_LIST, argvs], cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


GEN = {
    "model": "gen ssm --seed 1 --T 8 --N 2 --out ssm.json",
    "input": "gen sequence --seed 2 --T 8 --d 2 --out x.csv",
    "matrix": "gen matrix --seed 3 --T 8 --out m.csv",
}


class TestCommandsLoadWhatTheyRun:
    def test_cli_import_loads_the_forward_and_extraction_modules_only(self, tmp_path):
        codes, before, after = _modules_around(tmp_path)
        assert codes == [] and before == after == CLI_MODULES

    @pytest.mark.parametrize("commands, added", [
        ((GEN["model"], GEN["input"], "forward --ssm ssm.json --input x.csv --path all"), []),
        ((GEN["matrix"], "check-dual --mode representability --matrix m.csv --N 8"), ["duality"]),
        ((GEN["model"], "check-dual --mode full-rank --ssm ssm.json"), ["duality"]),
        ((GEN["matrix"], "extract --matrix m.csv --N 8"), ["duality"]),
        (("bench --T 8,16,32 --N 2 --d 1 --seed 1 --out b.csv",), ["bench"]),
        (("counterexample softmax --T 5",), ["duality", "limits"]),
    ])
    def test_a_command_adds_only_the_modules_it_runs(self, tmp_path, commands, added):
        codes, before, after = _modules_around(tmp_path, *commands)
        assert codes == [0] * len(commands)
        assert before == CLI_MODULES
        assert sorted(set(after) - set(before)) == [f"ssdlab.{module}" for module in added]

    def test_a_bare_package_import_loads_a_module_on_first_use(self, tmp_path):
        listing = (
            "import sys, ssdlab; loaded = lambda: 'ssdlab.limits' in sys.modules; "
            "print(loaded(), ssdlab.limits.softmax_counterexample.__module__, loaded())"
        )
        proc = run_python(["-c", listing], cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "ssdlab.limits", "True"]

    def test_bench_path_choices_are_the_counted_paths(self):
        leaf = cli._parse_args(cli.build_parser(), ["bench", "--seed", "1"]).leaf
        (path,) = [action for action in leaf._actions if action.dest == "path"]
        assert path.choices == bench.PATHS


class TestPackageNames:
    @pytest.mark.parametrize("name", sorted(NAMES))
    def test_each_name_is_the_object_its_module_defines(self, name):
        module = importlib.import_module(f"ssdlab.{NAMES[name]}")
        assert getattr(ssdlab, name) is getattr(module, name)

    def test_star_import_binds_every_export_and_module(self):
        namespace = {}
        exec("from ssdlab import *", namespace)
        namespace.pop("__builtins__")
        assert namespace.keys() == {*NAMES, *EXPORTS}
        assert all(namespace[module] is importlib.import_module(f"ssdlab.{module}")
                   for module in EXPORTS)
        assert sorted(ssdlab.__all__) == sorted(namespace)

    def test_dir_lists_every_export_and_module(self):
        assert {*NAMES, *EXPORTS} <= set(dir(ssdlab))

    def test_an_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            ssdlab.no_such_name  # noqa: B018
        assert ssdlab.__version__ == "0.1.0"
