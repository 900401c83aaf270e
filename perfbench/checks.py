"""Output checks that never call the library code they check.

Each check reads what a command wrote and re-derives it with numpy alone:
forward outputs against a reference scan, dual factors and extracted
representations by re-materializing them, bench counts against their
closed forms and the acceptance gates. A check returns None when the
output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json

import numpy as np

FORWARD_RTOL = 1e-10
DUAL_RTOL = 1e-8
EXTRACT_RTOL = 1e-6
#: Slope gates of the acceptance suite: |slope - 1| for linear paths, |slope - 2| for materialized.
SLOPE_GATES = {"ssd": (1.0, 0.05), "recurrence": (1.0, 0.05), "materialized": (2.0, 0.1)}


def rel_fro(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    diff = float(np.linalg.norm(a - b))
    return diff if denom == 0.0 else diff / denom


def one_ss_mask(p: np.ndarray) -> np.ndarray:
    """mask[t, s] = p[s+1] * ... * p[t] for t >= s, zero above the diagonal."""
    size = p.shape[0]
    mask = np.zeros((size, size))
    row = np.zeros(size)
    for t in range(size):
        row[:t] *= p[t]
        row[t] = 1.0
        mask[t, : t + 1] = row[: t + 1]
    return mask


def masked_kernel(p: np.ndarray, q: np.ndarray, k: np.ndarray) -> np.ndarray:
    return one_ss_mask(p) * (q @ k.T)


def diagonal_kernel(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Kernel of a diagonal model: entry (j, s) = sum_n c[j,n] a[s+1,n]...a[j,n] b[s,n]."""
    size, modes = a.shape
    m = np.zeros((size, size))
    prods = np.zeros((size, modes))
    for j in range(size):
        prods[:j] *= a[j]
        prods[j] = 1.0
        m[j, : j + 1] = (prods[: j + 1] * b[: j + 1]) @ c[j]
    return m


def sss_kernel(trans: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Dense value of a general representation: entry (j, s) = c_j' A_j ... A_{s+1} b_s."""
    size = b.shape[0]
    m = np.zeros((size, size))
    states = np.zeros((b.shape[1], size))  # column s holds A_j ... A_{s+1} b_s
    for j in range(size):
        states[:, :j] = trans[j] @ states[:, :j]
        states[:, j] = b[j]
        m[j, : j + 1] = c[j] @ states[:, : j + 1]
    return m


def _load(path: str):
    with open(path) as handle:
        return json.load(handle)


def forward(spec: dict) -> str | None:
    got = _load(spec["out"])
    ref = np.load(spec["ref"])
    for key in spec["keys"]:
        err = rel_fro(np.asarray(got[key], dtype=float), ref)
        if not err <= FORWARD_RTOL:
            return f"{key} differs from the reference scan by {err:.3e}"
    return None


def check_dual(spec: dict) -> str | None:
    report = _load(spec["out"])
    if spec["masked"] and report.get("representable") is not True:
        return "a masked kernel was decided not representable"
    if "factors" not in report:
        return None
    f = report["factors"]
    back = masked_kernel(np.asarray(f["p"], float), np.asarray(f["Q"], float), np.asarray(f["K"], float))
    err = rel_fro(back, np.load(spec["ref"]))
    return None if err <= DUAL_RTOL else f"dual factors reconstruct to {err:.3e}"


def extract(spec: dict) -> str | None:
    rep = _load(spec["out"])["representation"]
    back = sss_kernel(
        np.asarray(rep["A"], float), np.asarray(rep["b"], float), np.asarray(rep["c"], float)
    )
    err = rel_fro(back, np.load(spec["ref"]))
    return None if err <= EXTRACT_RTOL else f"representation reconstructs to {err:.3e}"


def count_forms(path: str, T: int, N: int, d: int) -> tuple[int, int]:
    """Closed-form (multiply_adds, additions) of the counting kernels."""
    if path in ("ssd", "recurrence"):
        return 3 * N * T * d, 2 * N * T * d
    # Kernel: N products per entry plus N gain updates per strictly-lower entry;
    # product with the input: one multiply-add per lower entry and channel.
    lower = T * (T + 1) // 2
    return N * T * T + d * lower, (N + d) * lower


def bench(spec: dict) -> str | None:
    summary = _load(spec["out"])
    path, N, d = spec["path"], spec["N"], spec["d"]
    points = summary["points"]
    if summary["path"] != path or [p["T"] for p in points] != spec["T"]:
        return "summary does not cover the requested grid"
    with open(spec["table"]) as handle:
        rows = handle.read().splitlines()[1:]
    for point, row in zip(points, rows, strict=True):
        if (point["N"], point["d"]) != (N, d):
            return f"point at T={point['T']} has the wrong N or d"
        want = count_forms(path, point["T"], N, d)
        if (point["multiply_adds"], point["additions"]) != want:
            return f"{path} counts at T={point['T']} are not the closed form {want}"
        if path != "materialized" and not 3 * N * point["T"] * d <= point["multiply_adds"] <= 5 * N * point["T"] * d:
            return f"{path} multiply-adds at T={point['T']} outside [3NTd, 5NTd]"
        fields = row.split(",")
        if fields[0] != path or [int(v) for v in fields[1:6]] != [
            point["T"], N, d, point["multiply_adds"], point["additions"]
        ]:
            return f"count table row {row!r} disagrees with the summary"
    target, tolerance = SLOPE_GATES[path]
    if not abs(summary["slopes"]["T"] - target) <= tolerance:
        return f"T slope {summary['slopes']['T']:.4f} outside {target} +- {tolerance}"
    return None


CHECKS = {"forward": forward, "check-dual": check_dual, "extract": extract, "bench": bench}


def run(spec: dict) -> str | None:
    """Apply the check named by ``spec['kind']``; unreadable output is a failure too."""
    try:
        return CHECKS[spec["kind"]](spec)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
