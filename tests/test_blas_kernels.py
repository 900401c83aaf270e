"""One small CLI corpus under two OpenBLAS kernels: the default one and Prescott.

Each kernel may sum a matrix product in its own order, so output bytes may
differ between them. Exit codes, diagonal blocks and ranks may not, and
values must stay within the acceptance tolerances. ``OPENBLAS_CORETYPE``
picks the kernel of a ``DYNAMIC_ARCH`` OpenBLAS, and is set in each
child's environment only.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from ssdlab.duality import MaskedAttentionFactors
from ssdlab.limits import non_dualizable_matrix
from ssdlab.ssm import random_instance, sequence_to_csv
from ssdlab.sss_extract import GeneralSssRepresentation, materialize_sss, random_representation
from tests.conftest import _child_env, random_lower_triangular, rel_fro, representable_matrix


def _openblas_configuration() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy without mode="dicts", or no BLAS entry
        return ""
    return str(blas.get("openblas configuration", ""))


pytestmark = pytest.mark.skipif(
    "DYNAMIC_ARCH" not in _openblas_configuration(),
    reason="numpy.show_config reports no DYNAMIC_ARCH in its OpenBLAS configuration, "
    "so OPENBLAS_CORETYPE cannot pick another kernel",
)

#: OpenBLAS' own pick for this CPU (None), and the oldest x86-64 kernel.
KERNELS = (None, "Prescott")

#: (matrix, width) of each theory family, all at T <= 64.
MATRICES = {
    "representable": (lambda: representable_matrix(7, 48, 2, blocks=2), 2),
    "non-dualizable": (lambda: non_dualizable_matrix(12), 2),
    "sss": (lambda: materialize_sss(random_representation(3, 40, 3)), 3),
    "dense": (lambda: random_lower_triangular(5, 24), 3),
}


def run_under(kernel, argv, cwd):
    """(exit code, parsed ``out.json`` or None) of ``python -m ssdlab argv --out out.json``,
    its OpenBLAS running ``kernel`` (None: its own pick)."""
    env = {key: value for key, value in _child_env().items() if key != "OPENBLAS_CORETYPE"}
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    out = cwd / "out.json"
    out.unlink(missing_ok=True)
    argv = [sys.executable, "-m", "ssdlab", *argv, "--out", "out.json"]
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    return proc.returncode, json.loads(out.read_text()) if out.exists() else None


def test_forward_all_paths_agree_across_kernels(tmp_path):
    model, x = random_instance(31, 64, 8, 3)
    (tmp_path / "ssm.json").write_text(model.to_json())
    (tmp_path / "x.csv").write_text(sequence_to_csv(x))
    argv = ["forward", "--ssm", "ssm.json", "--input", "x.csv", "--path", "all"]
    (code, ref), (other_code, other) = (run_under(kernel, argv, tmp_path) for kernel in KERNELS)
    assert code == other_code == 0
    for path in ("recurrence", "ssd", "materialized"):
        key = f"Y_{path}"
        assert rel_fro(np.array(ref[key]), np.array(other[key])) <= 1e-10, path


@pytest.mark.parametrize("command", ["check-dual", "extract"])
@pytest.mark.parametrize("family", list(MATRICES))
def test_theory_decisions_hold_across_kernels(tmp_path, family, command):
    build, width = MATRICES[family]
    m = build()
    (tmp_path / "m.csv").write_text(m.to_csv())
    mode = ["--mode", "representability"] if command == "check-dual" else []
    argv = [command, *mode, "--matrix", "m.csv", "--N", str(width)]
    (code, ref), (other_code, other) = (run_under(kernel, argv, tmp_path) for kernel in KERNELS)
    assert code == other_code
    assert (ref is None) == (other is None)
    if ref is None:
        return
    if command == "check-dual":
        assert ref["blocks"] == other["blocks"]
        assert ref["representable"] == other["representable"]
        if ref["representable"]:
            for report in (ref, other):
                factors = MaskedAttentionFactors.from_json(json.dumps(report["factors"]))
                assert rel_fro(factors.materialize().values, m.values) <= 1e-8
    else:
        assert ref["block_ranks"] == other["block_ranks"]
        for report in (ref, other):
            rep = GeneralSssRepresentation.from_json(json.dumps(report["representation"]))
            assert rel_fro(materialize_sss(rep).values, m.values) <= 1e-6
