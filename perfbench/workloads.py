"""Seeded inputs, reference outputs and command cycles for each workload.

Nothing here imports ssdlab: the inputs and the reference values the
output checks compare against are built with numpy alone, so a change to
the library can never change what it is measured on or checked against.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import checks
import speed

#: Gain families of the forward-all workload: (name, min |a|, max |a|, share of exact zeros).
GAIN_FAMILIES = (
    ("wide", 0.0, 2.0, 0.0),
    # Long products of gains in [0.5, 1] underflow into subnormal numbers.
    ("decaying", 0.5, 1.0, 0.0),
    ("near-one", 0.95, 1.05, 0.0),
    # Exact zeros catch any fast path that divides by cumulative products.
    ("wide-zeros", 0.0, 2.0, 0.01),
)

#: Matrix families of the theory workload, in cycle order.
THEORY_FAMILIES = ("diag-ssm", "general-sss", "single-block", "block-diagonal")

#: (family, command) pairs that fail at the seed commit, with the exit they give:
#: check-dual exits 1 (ReconstructionError) on diagonal-SSM and general-SSS kernels,
#: extract exits 3 (InconsistentTransitionError) on block-diagonal masked kernels.
KNOWN_FAILURES = {
    ("diag-ssm", "check-dual"): "property",
    ("general-sss", "check-dual"): "property",
    ("block-diagonal", "extract"): "refusal",
}

#: Matrix sets of the theory workload; cycle i runs set i mod THEORY_SETS. Whether
#: extract refuses a block-diagonal kernel depends on rounding noise in its
#: factors, so rotating several sets keeps the failure mix of a run near its mean.
THEORY_SETS = 8

#: Mask gain magnitudes of the two masked theory families. Wider ranges such as
#: [0.5, 1] make check-dual fail on masked kernels too (the fill-growth defect
#: that already shows on the diag-ssm family), so the masked families stay the
#: representable controls the decision check needs.
MASK_GAINS = (0.95, 1.05)

#: ``cycle_s`` is the wall time of one measured cycle on the build host (2 shared
#: vCPUs) at the seed commit; it only sizes a run (see ``cycle_count``).
#: ``probe_mix`` weighs the parts of the host-speed probe (see speed.py). About
#: half of a forward-all command's time follows the interpreter-loop and LAPACK
#: parts of the probe and the rest keeps its speed when they slow down; of the
#: mixes tried on 22 seeds, this one tracked its times best.
WORKLOADS = {
    "forward-all": {
        "kind": "forward", "T": 4096, "N": 16, "d": 4, "cycle_s": 6.4,
        "probe_mix": {"loop": 1.0, "lapack": 1.0, speed.STEADY: 2.0},
    },
    "theory": {"kind": "theory", "T": 256, "N": 4, "cycle_s": 4.2},
    "bench-counts": {
        "kind": "bench",
        "cycle_s": 0.95,
        "N": 8,
        "d": 2,
        "grids": (
            ("ssd", (256, 512, 1024)),
            ("materialized", (64, 128, 256)),
            ("recurrence", (256, 512, 1024)),
        ),
    },
}

#: Sizes of the untimed warm-up cycle, which runs the same commands on tiny inputs.
WARMUP = {
    "forward": {"T": 32, "N": 4, "d": 2},
    "theory": {"T": 16, "N": 4, "sets": 1},
    "bench": {"grids": (("ssd", (8, 16, 32)), ("materialized", (8, 16, 32)), ("recurrence", (8, 16, 32)))},
}

#: Rows of the kernel sampled for the subnormal share of a forward family.
SUBNORMAL_ROWS = 64


def cycle_count(name: str, seconds: float) -> int:
    """Cycles a run of ``seconds`` measures: a fixed count, so that the same seed and
    length always run the same commands, whatever the speed of the host or the code."""
    return max(1, round(seconds / WORKLOADS[name]["cycle_s"]))


def _rng(seed: int, workload: str, part: str) -> np.random.Generator:
    names = list(WORKLOADS)
    return np.random.default_rng([seed, names.index(workload), ["main", "warmup"].index(part)])


def _signed(rng: np.random.Generator, shape, lo: float, hi: float, zero_share: float = 0.0) -> np.ndarray:
    gains = rng.uniform(lo, hi, shape) * rng.choice([-1.0, 1.0], shape)
    if zero_share:
        gains[rng.random(shape) < zero_share] = 0.0
    gains[0] = 1.0
    return gains


def _csv(rows: np.ndarray) -> str:
    # repr() is the shortest text that reads back to the same double.
    return "\n".join(",".join(map(repr, row)) for row in rows.tolist()) + "\n"


def reference_scan(a: np.ndarray, b: np.ndarray, c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y_t = c_t . h_t with h_t = a_t * h_{t-1} + b_t x_t, all modes and channels at once."""
    h = np.zeros((a.shape[1], x.shape[1]))
    y = np.empty_like(x)
    for t in range(x.shape[0]):
        h = a[t][:, None] * h + b[t][:, None] * x[t][None, :]
        y[t] = c[t] @ h
    return y


def subnormal_share(values: np.ndarray) -> tuple[int, int]:
    """(entries below the smallest normal double, nonzero entries)."""
    mags = np.abs(values)
    nonzero = int(np.count_nonzero(mags))
    return int(np.count_nonzero((mags > 0.0) & (mags < np.finfo(float).tiny))), nonzero


def _kernel_row_subnormals(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[int, int]:
    """Subnormal count over evenly spaced kernel rows; the full kernel can be GiBs."""
    tiny = nonzero = 0
    for j in np.linspace(0, a.shape[0] - 1, SUBNORMAL_ROWS).astype(int):
        prods = np.ones((j + 1, a.shape[1]))
        if j:
            # prods[s] = a[s+1] * ... * a[j], multiplied from the row end.
            prods[:j] = np.cumprod(a[j:0:-1], axis=0)[::-1]
        row = (prods * b[: j + 1] * c[j]).sum(axis=1)
        got = subnormal_share(row)
        tiny += got[0]
        nonzero += got[1]
    return tiny, nonzero


def _forward(spec: dict, rng: np.random.Generator, work: Path, tag: str, properties: bool) -> dict:
    T, N, d = spec["T"], spec["N"], spec["d"]
    b = rng.standard_normal((T, N))
    c = rng.standard_normal((T, N))
    x = rng.standard_normal((T, d))
    x_path = work / f"{tag}x.csv"
    x_path.write_text(_csv(x))
    # The families differ only in their gains, so b and c are serialized once.
    b_text, c_text = json.dumps(b.tolist()), json.dumps(c.tolist())
    cycle, props = [], {}
    for family, lo, hi, zero_share in GAIN_FAMILIES:
        a = _signed(rng, (T, N), lo, hi, zero_share)
        model = work / f"{tag}{family}.json"
        model.write_text(
            f'{{"T": {T}, "N": {N}, "A_diag": {json.dumps(a.tolist())}, "b": {b_text}, "c": {c_text}}}'
        )
        ref = work / f"{tag}{family}.ref.npy"
        np.save(ref, reference_scan(a, b, c, x))
        out = work / f"{tag}{family}.out.json"
        argv = ["forward", "--ssm", str(model), "--input", str(x_path), "--path", "all", "--out", str(out)]
        keys = ["Y_recurrence", "Y_ssd", "Y_materialized"]
        cycle.append({
            "family": family,
            "command": "forward",
            "argv": argv,
            "check": {"kind": "forward", "out": str(out), "ref": str(ref), "keys": keys},
        })
        if properties:
            props[family] = _kernel_row_subnormals(a, b, c)
    return {"cycles": [cycle], "subnormals": props}


def _theory_matrices(rng: np.random.Generator, T: int, N: int) -> dict:
    a = _signed(rng, (T, N), 0.5, 1.0)
    diag = checks.diagonal_kernel(a, rng.standard_normal((T, N)), rng.standard_normal((T, N)))

    ranks = [min(N, T - t, t + 1) for t in range(T)]
    trans = np.zeros((T, N, N))
    trans[0] = np.eye(N)
    for t in range(1, T):
        g = rng.standard_normal((N, N))
        g *= rng.uniform(0.3, 1.1) / np.linalg.norm(g, 2)
        g[ranks[t]:, :] = 0.0
        g[:, ranks[t - 1]:] = 0.0
        trans[t] = g
    sss = checks.sss_kernel(trans, rng.standard_normal((T, N)), rng.standard_normal((T, N)))

    def masked(blocks: int) -> np.ndarray:
        p = _signed(rng, T, *MASK_GAINS)
        if blocks > 1:
            p[rng.choice(np.arange(1, T), size=blocks - 1, replace=False)] = 0.0
        q, k = rng.standard_normal((T, N)), rng.standard_normal((T, N))
        return checks.masked_kernel(p, q, k)

    return dict(zip(THEORY_FAMILIES, (diag, sss, masked(1), masked(4))))


def _theory(spec: dict, rng: np.random.Generator, work: Path, tag: str, properties: bool) -> dict:
    width = str(spec["N"])
    cycles, props = [], {}
    for index in range(spec.get("sets", THEORY_SETS)):
        cycle = []
        for family, m in _theory_matrices(rng, spec["T"], spec["N"]).items():
            m = np.tril(m)
            name = f"{tag}{family}-{index}"
            csv_path = work / f"{name}.csv"
            csv_path.write_text(_csv(m))
            ref = work / f"{name}.npy"
            np.save(ref, m)
            masked = family in ("single-block", "block-diagonal")
            for command in ("check-dual", "extract"):
                out = work / f"{name}.{command}.json"
                argv = [command, "--matrix", str(csv_path), "--N", width, "--out", str(out)]
                if command == "check-dual":
                    argv[1:1] = ["--mode", "representability"]
                cycle.append({
                    "family": family,
                    "command": command,
                    "argv": argv,
                    "check": {"kind": command, "out": str(out), "ref": str(ref), "masked": masked},
                })
            if properties:
                tiny, nonzero = props.get(family, (0, 0))
                got = subnormal_share(m)
                props[family] = (tiny + got[0], nonzero + got[1])
        cycles.append(cycle)
    return {"cycles": cycles, "subnormals": props}


def _bench(spec: dict, seed: int, work: Path, tag: str) -> dict:
    cycle = []
    for path, grid in spec["grids"]:
        table, summary = work / f"{tag}{path}.csv", work / f"{tag}{path}.json"
        argv = [
            "bench", "--path", path, "--T", ",".join(map(str, grid)),
            "--N", str(spec["N"]), "--d", str(spec["d"]), "--seed", str(seed),
            "--out", str(table), "--summary-out", str(summary),
        ]
        cycle.append({
            "family": path,
            "command": "bench",
            "argv": argv,
            "check": {
                "kind": "bench", "out": str(summary), "table": str(table), "path": path,
                "T": list(grid), "N": spec["N"], "d": spec["d"],
            },
        })
    # The counting kernels draw their own instances, so there is no input file to inspect.
    return {"cycles": [cycle], "subnormals": {}}


def _build(name: str, spec: dict, seed: int, work: Path, tag: str, part: str, properties: bool) -> dict:
    kind = spec["kind"]
    if kind == "bench":
        return _bench(spec, seed, work, tag)
    make = _forward if kind == "forward" else _theory
    return make(spec, _rng(seed, name, part), work, tag, properties)


def working_set(name: str) -> dict:
    """Computed sizes (bytes) of the largest arrays one command of the workload touches."""
    spec = WORKLOADS[name]
    if spec["kind"] == "forward":
        T, N, d = spec["T"], spec["N"], spec["d"]
        return {"model": 3 * T * N * 8, "input": T * d * 8, "kernel": 8 * T * T}
    if spec["kind"] == "theory":
        return {"matrix": 8 * spec["T"] ** 2, "extract_transitions": 8 * spec["T"] * spec["N"] ** 2}
    largest = max(max(grid) for path, grid in spec["grids"] if path == "materialized")
    return {"materialized_kernel": 8 * largest**2}


def prepare(name: str, seed: int, work: Path, properties: bool) -> dict:
    """Write the inputs of one run into ``work`` and return its plan."""
    spec = WORKLOADS[name]
    main = _build(name, spec, seed, work, "", "main", properties)
    warm_spec = {**spec, **WARMUP[spec["kind"]]}
    warm = _build(name, warm_spec, seed, work, "warmup-", "warmup", False)
    return {
        "workload": name,
        "seed": seed,
        "cycles": main["cycles"],
        "warmup": warm["cycles"][0],
        "subnormals": main["subnormals"],
        "working_set": working_set(name),
        "probe_mix": spec.get("probe_mix", speed.DEFAULT_MIX),
    }
