"""Shared helpers for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import ssdlab
from ssdlab.duality import one_ss
from ssdlab.ss_matrix import LowerTriangularMatrix

#: Directory holding the ssdlab package under test, as an absolute path.
SRC_DIR = str(Path(ssdlab.__file__).resolve().parent.parent)


def _child_env() -> dict[str, str]:
    """This environment with ``SRC_DIR`` first on an absolute ``PYTHONPATH``.

    A relative entry inherited from the parent then cannot break the
    child's import when its working directory differs.
    """
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC_DIR, inherited]))}


def run_python(args, cwd, **kwargs) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with ``args`` in a child process that imports this same package."""
    return subprocess.run([sys.executable, *args], cwd=cwd, env=_child_env(), **kwargs)


def start_ssdlab(argv, cwd, **kwargs) -> subprocess.Popen:
    """Start ``python -m ssdlab`` in a child process that imports this same package."""
    argv = [sys.executable, "-m", "ssdlab", *argv]
    return subprocess.Popen(argv, cwd=cwd, env=_child_env(), **kwargs)


def run_ssdlab(argv, cwd, **kwargs) -> subprocess.CompletedProcess:
    """Run ``python -m ssdlab`` in a child process that imports this same package."""
    return run_python(["-m", "ssdlab", *argv], cwd, **kwargs)


def rel_fro(a: np.ndarray, b: np.ndarray) -> float:
    """Relative Frobenius distance with a zero-safe denominator."""
    denom = max(np.linalg.norm(a), np.linalg.norm(b))
    if denom == 0.0:
        return float(np.linalg.norm(a - b))
    return float(np.linalg.norm(a - b) / denom)


def random_lower_triangular(seed: int, size: int) -> LowerTriangularMatrix:
    rng = np.random.default_rng(seed)
    return LowerTriangularMatrix(np.tril(rng.standard_normal((size, size))))


def representable_matrix(seed: int, size: int, width: int, blocks: int = 1) -> LowerTriangularMatrix:
    """Random kernel of the form mask * (Q K^T) with ``blocks`` diagonal blocks.

    The mask gains are nonzero inside blocks (magnitude in [0.5, 2]) and
    zero at interior block starts, so the construction is representable at
    width ``width`` by design.
    """
    rng = np.random.default_rng(seed)
    gains = rng.uniform(0.5, 2.0, size) * rng.choice([-1.0, 1.0], size)
    if blocks > 1:
        starts = rng.choice(np.arange(1, size), size=blocks - 1, replace=False)
        gains[starts] = 0.0
    mask = one_ss(gains).values
    q = rng.standard_normal((size, width))
    k = rng.standard_normal((size, width))
    return LowerTriangularMatrix(mask * (q @ k.T))
