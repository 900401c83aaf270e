"""Operation-count instrumentation and scaling experiments.

Counts come from running dedicated counting kernels whose scalars are
wrapped so every multiplication and addition tallies on a shared counter;
nothing is estimated from closed-form formulas. Counting kernels use
uniform loops with zero-initialized accumulators (the first scan step
multiplies the zero carry, reductions start from zeros), so the three
paths charge the same operation slots they would in a branch-free
implementation and the linear path counts scale exactly with T, N and d.
Nothing here is timed: the tallies are the machine-independent measure.

Counting convention: ``multiply_adds`` tallies multiplications (each is
one multiply-accumulate slot); ``additions`` tallies scalar additions.
Peak live elements charge the model parameters plus every intermediate
the algorithm materializes, with all per-mode intermediates of the linear
path held simultaneously; the caller-owned input sequence is not charged.
Nothing is freed during a run, so under this all-live model the peak is
the sum of every element charged.
A streaming implementation that drops each mode's intermediates after its
reduction step would need only O(Td) extra, which the all-live model here
deliberately does not assume. Likewise the counted materialized path
charges the whole T x T kernel as live (peak T^2), while the production
path streams it one row panel at a time; the counts and budgets keep the
all-live model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGridError
from .ss_matrix import json_record
from .ssm import FORWARD_PATHS, DiagonalSsm, random_instance

PATHS = tuple(FORWARD_PATHS)


class FlopCounter:
    """Mutable tally of scalar operations and of elements charged live.

    Each run gets a fresh counter and frees nothing before it ends, so under
    the all-live model ``peak_live`` is the sum of every ``alloc``.
    """

    __slots__ = ("madds", "adds", "peak_live")

    def __init__(self) -> None:
        self.madds = 0
        self.adds = 0
        self.peak_live = 0

    def alloc(self, count: int) -> None:
        self.peak_live += count


class CountedValue:
    """Float wrapper that reports each multiply and add to a FlopCounter."""

    __slots__ = ("value", "counter")

    def __init__(self, value: float, counter: FlopCounter) -> None:
        self.value = value
        self.counter = counter

    def __mul__(self, other: "CountedValue") -> "CountedValue":
        self.counter.madds += 1
        return CountedValue(self.value * other.value, self.counter)

    def __add__(self, other: "CountedValue") -> "CountedValue":
        self.counter.adds += 1
        return CountedValue(self.value + other.value, self.counter)


#: Row-major scalars of a counted array: model parameters, input, output.
_Grid = list[list[CountedValue]]


@json_record(
    {
        "path": "path",
        "T": "T",
        "N": "N",
        "d": "d",
        "multiply_adds": "multiply_adds",
        "additions": "additions",
        "peak_live_elements": "peak_live_elements",
    }
)
@dataclass(frozen=True)
class FlopReport:
    """Exact operation tallies and peak live elements for one run."""

    path: str
    T: int
    N: int
    d: int
    multiply_adds: int
    additions: int
    peak_live_elements: int


def _counted_ssd(a: _Grid, b: _Grid, c: _Grid, x: _Grid, counter: FlopCounter) -> _Grid:
    steps, modes, d = len(a), len(a[0]), len(x[0])
    scaled = []
    for n in range(modes):
        z = [[b[t][n] * x[t][s] for s in range(d)] for t in range(steps)]
        counter.alloc(steps * d)
        scaled.append(z)
    carried = []
    for n in range(modes):
        h: _Grid = [[None] * d for _ in range(steps)]  # type: ignore[list-item]
        for s in range(d):
            carry = CountedValue(0.0, counter)
            for t in range(steps):
                carry = a[t][n] * carry + scaled[n][t][s]
                h[t][s] = carry
        counter.alloc(steps * d)
        carried.append(h)
    weighted = []
    for n in range(modes):
        y_n = [[c[t][n] * carried[n][t][s] for s in range(d)] for t in range(steps)]
        counter.alloc(steps * d)
        weighted.append(y_n)
    acc = [[CountedValue(0.0, counter) for _ in range(d)] for _ in range(steps)]
    counter.alloc(steps * d)
    for n in range(modes):
        for t in range(steps):
            for s in range(d):
                acc[t][s] = acc[t][s] + weighted[n][t][s]
    return acc


def _counted_recurrence(a: _Grid, b: _Grid, c: _Grid, x: _Grid, counter: FlopCounter) -> _Grid:
    steps, modes, d = len(a), len(a[0]), len(x[0])
    h = [[CountedValue(0.0, counter) for _ in range(d)] for _ in range(modes)]
    counter.alloc(modes * d)
    y: _Grid = [[None] * d for _ in range(steps)]  # type: ignore[list-item]
    counter.alloc(steps * d)
    for t in range(steps):
        for n in range(modes):
            for s in range(d):
                h[n][s] = a[t][n] * h[n][s] + b[t][n] * x[t][s]
        for s in range(d):
            out = CountedValue(0.0, counter)
            for n in range(modes):
                out = out + c[t][n] * h[n][s]
            y[t][s] = out
    return y


def _counted_materialized(a: _Grid, b: _Grid, c: _Grid, x: _Grid, counter: FlopCounter) -> _Grid:
    steps, modes, d = len(a), len(a[0]), len(x[0])
    zero = CountedValue(0.0, counter)
    kernel: _Grid = [[zero] * steps for _ in range(steps)]
    counter.alloc(steps * steps)
    counter.alloc(modes)  # running product vector
    for i in range(steps):
        v = [b[i][n] for n in range(modes)]
        for j in range(i, steps):
            if j > i:
                v = [a[j][n] * v[n] for n in range(modes)]
            entry = CountedValue(0.0, counter)
            for n in range(modes):
                entry = entry + c[j][n] * v[n]
            kernel[j][i] = entry
    y: _Grid = [[None] * d for _ in range(steps)]  # type: ignore[list-item]
    counter.alloc(steps * d)
    for t in range(steps):
        for s in range(d):
            out = CountedValue(0.0, counter)
            for i in range(t + 1):
                out = out + kernel[t][i] * x[i][s]
            y[t][s] = out
    return y


_COUNTED = {
    "recurrence": _counted_recurrence,
    "ssd": _counted_ssd,
    "materialized": _counted_materialized,
}

#: The production forward paths; perfbench's traced run wraps them under this name.
_PRODUCTION = FORWARD_PATHS


def count_flops(path: str, T: int, N: int, d: int, seed: int) -> FlopReport:
    """Run one path on a seeded instance in counting mode.

    The tallies depend only on (path, T, N, d); the seed fixes the values
    they are counted on.
    """
    _, counter = counted_forward(path, *random_instance(seed, T, N, d))
    return FlopReport(path, T, N, d, counter.madds, counter.adds, counter.peak_live)


def counted_forward(path: str, ssm: DiagonalSsm, x: np.ndarray) -> tuple[np.ndarray, FlopCounter]:
    """Counting-mode output and counter for an explicit instance.

    The model and the input are wrapped, and the 3TN parameters charged,
    here once; the kernel charges only what it materializes.
    """
    if path not in _COUNTED:
        raise ValueError(f"unknown path {path!r}, expected one of {PATHS}")
    counter = FlopCounter()
    grids = [
        [[CountedValue(float(v), counter) for v in row] for row in np.atleast_2d(arr)]
        for arr in (ssm.a_diag, ssm.b, ssm.c, x)
    ]
    counter.alloc(3 * ssm.T * ssm.N)
    out = _COUNTED[path](*grids, counter)
    return np.array([[v.value for v in row] for row in out]), counter


@dataclass(frozen=True)
class ScalingResult:
    """Grid of count reports plus fitted log-log exponents per varied axis."""

    path: str
    reports: list[FlopReport]
    slopes: dict[str, float]

    def to_csv(self) -> str:
        """One row per report, its columns the keys of ``FlopReport.to_dict``."""
        rows = [rep.to_dict() for rep in self.reports]
        lines = [",".join(rows[0]), *(",".join(map(str, row.values())) for row in rows)]
        return "\n".join(lines) + "\n"

    def summary_json(self) -> str:
        return json.dumps(
            {
                "path": self.path,
                "slopes": self.slopes,
                "points": [rep.to_dict() for rep in self.reports],
            }
        )


def scaling_experiment(
    path: str,
    t_values: list[int],
    n_values: list[int],
    d_values: list[int],
    seed: int,
) -> ScalingResult:
    """Fit count-vs-size exponents along each varied axis.

    An axis is varied when it lists two or more distinct values; varied
    axes need at least three points for the fit. Unvaried axes are pinned
    to their first value while another axis sweeps.
    """
    axes = {"T": list(t_values), "N": list(n_values), "d": list(d_values)}
    varied = [name for name, vals in axes.items() if len(set(vals)) >= 2]
    for name in varied:
        if len(set(axes[name])) < 3:
            raise DegenerateGridError(f"axis {name} is varied but has fewer than 3 distinct points")
    base = [vals[0] for vals in axes.values()]
    # Each varied axis's line of (T, N, d) points; the base point alone when none varies.
    lines = {
        name: [tuple(value if axis == name else pin for axis, pin in zip(axes, base))
               for value in axes[name]]
        for name in varied
    }
    points = sorted({key for line in lines.values() for key in line} or {tuple(base)})
    reports = {key: count_flops(path, *key, seed) for key in points}
    slopes = {}
    for name, line in lines.items():
        counts = [reports[key].multiply_adds for key in line]
        slopes[name] = float(np.polyfit(np.log(axes[name]), np.log(counts), 1)[0])
    return ScalingResult(path=path, reports=list(reports.values()), slopes=slopes)
