"""Operation-count instrumentation and scaling experiments.

Counts come from running dedicated counting kernels over wrapped arrays:
the model, the input and every intermediate are ``CountedArray``s, and
each elementwise multiplication or addition charges the shared counter
one operation per element of its result (a broadcast (T, 1) x (1, d)
product charges T*d); nothing is estimated from closed-form formulas.
The kernels loop in Python only along the axis that is really
sequential (the step t of the scan, the kernel column i of the
materialized path) and keep each output element's scalar arithmetic
order, so the outputs are bitwise those of a scalar loop. They share the
production paths' one step loop and one ordered reduction:
``CountedArray.scan`` runs ``ssm.scan`` and ``CountedArray.ascending_sum``
runs ``ssm.ascending_sum``, and each only adds the charges. The counted ssd
and recurrence are one chunked loop, ``ssm._chunks``'s, each chunk summed
over modes in ascending order; they differ only in their ``alloc``
charges. Accumulators start at zero (the first scan step multiplies the
zero carry, reductions start from zeros), so the three paths charge the
same operation slots they would in a branch-free implementation and the
linear path counts scale exactly with T, N and d. Nothing here is timed:
the tallies are the machine-independent measure.

Counting convention: ``multiply_adds`` tallies multiplications (each is
one multiply-accumulate slot); ``additions`` tallies scalar additions.
Peak live elements charge the model parameters plus every intermediate
the algorithm materializes, with all per-mode intermediates of the ssd
path held simultaneously; the caller-owned input sequence is not charged.
The ``alloc`` charges are those of the scalar algorithm (one running
product vector of N entries in the materialized path, for instance), not
of the working arrays a vectorized step holds for a moment. Nothing is
freed during a run, so under this all-live model the peak is the sum of
every element charged. The counted ssd path thus charges its 3NTd
per-mode intermediates and the materialized path the whole T x T kernel,
though the code holds one chunk of states or one column at a time; the
counts and budgets keep the all-live model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ssm as ssm_mod
from .errors import DegenerateGridError
from .ss_matrix import json_dumps, json_record
from .ssm import FORWARD_PATHS, DiagonalSsm, _check_sequence, random_instance

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


class CountedArray:
    """Array wrapper that reports each elementwise multiply and add to a FlopCounter.

    A product or sum charges one operation per element of its (broadcast)
    result. Indexing and storing are free: a view shares the counter, and
    ``counted[key] = other`` copies values without charging.
    """

    __slots__ = ("value", "counter")

    def __init__(self, value: np.ndarray, counter: FlopCounter) -> None:
        self.value = value
        self.counter = counter

    def __mul__(self, other: "CountedArray") -> "CountedArray":
        product = self.value * other.value
        self.counter.madds += product.size
        return CountedArray(product, self.counter)

    def __add__(self, other: "CountedArray") -> "CountedArray":
        total = self.value + other.value
        self.counter.adds += total.size
        return CountedArray(total, self.counter)

    def __getitem__(self, key) -> "CountedArray":
        return CountedArray(self.value[key], self.counter)

    def __setitem__(self, key, other: "CountedArray") -> None:
        self.value[key] = other.value

    @property
    def T(self) -> "CountedArray":
        """The transposed view, free like any other view."""
        return CountedArray(self.value.T, self.counter)

    def running_product(self) -> "CountedArray":
        """Row j is the product of rows 0..j, multiplied left to right.

        Every row after the first costs one multiply per element.
        """
        products = np.multiply.accumulate(self.value, axis=0)
        self.counter.madds += products.size - products[:1].size
        return CountedArray(products, self.counter)

    def ascending_sum(self, axis: int = 0) -> "CountedArray":
        """``ssm.ascending_sum`` along ``axis``; each summed entry costs one addition."""
        self.counter.adds += self.value.size
        return CountedArray(ssm_mod.ascending_sum(self.value, axis), self.counter)

    def scan(self, gains: "CountedArray", start: "CountedArray | None" = None) -> "CountedArray":
        """``ssm.scan`` along rows from ``start``, or from zeros when it is None.

        Row 0 is thus always gains[0] * start + self[0]. ``gains`` has no
        channel axis: ``ssm.scan`` broadcasts it over the last axis of the
        rows, and every row costs one multiply and one add per element.
        """
        carry = np.zeros(self.value.shape[1:]) if start is None else start.value
        out = ssm_mod.scan(gains.value, self.value, carry)
        self.counter.madds += out.size
        self.counter.adds += out.size
        return CountedArray(out, self.counter)


def _zeros(counter: FlopCounter, *shape: int) -> CountedArray:
    return CountedArray(np.zeros(shape), counter)


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


def _counted_chunks(a, b, c, x, counter: FlopCounter) -> CountedArray:
    """The linear paths' one counted loop: ``ssm._chunks``, each chunk summed over modes."""
    steps, d = a.value.shape[0], x.value.shape[1]
    y = _zeros(counter, steps, d)
    counter.alloc(steps * d)
    h = None  # the zero state
    for lo in range(0, steps, ssm_mod._CHUNK):
        chunk = slice(lo, lo + ssm_mod._CHUNK)
        states = (b[chunk, :, None] * x[chunk, None, :]).scan(a[chunk], h)
        y[chunk] = (c[chunk, :, None] * states).ascending_sum(axis=1)
        h = states[-1]
    return y


def _counted_ssd(a, b, c, x, counter: FlopCounter) -> CountedArray:
    counter.alloc(3 * a.value.size * x.value.shape[1])  # all live: every b x, h and c h
    return _counted_chunks(a, b, c, x, counter)


def _counted_recurrence(a, b, c, x, counter: FlopCounter) -> CountedArray:
    counter.alloc(a.value.shape[1] * x.value.shape[1])  # the state h
    return _counted_chunks(a, b, c, x, counter)


def _counted_materialized(
    a: CountedArray, b: CountedArray, c: CountedArray, x: CountedArray, counter: FlopCounter
) -> CountedArray:
    steps, modes, d = *a.value.shape, x.value.shape[1]
    # The all-live model holds the whole kernel; each column is applied as it is built.
    counter.alloc(steps * steps)
    counter.alloc(modes)  # running product vector
    y = _zeros(counter, steps, d)
    counter.alloc(steps * d)
    # At column i, row i holds b_i and every later row j still holds a_j, so
    # the running products of rows i.. are b_i a_{i+1} ... a_j for every j >= i.
    factors = _zeros(counter, steps, modes)
    factors[:] = a
    for i in range(steps):
        factors[i] = b[i]
        column = (c[i:] * factors[i:].running_product()).T.ascending_sum()
        y[i:] = y[i:] + column[:, None] * x[i, None, :]
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
    x = _check_sequence(ssm, x)
    counter = FlopCounter()
    arrays = [CountedArray(arr, counter) for arr in (ssm.a_diag, ssm.b, ssm.c, x)]
    counter.alloc(3 * ssm.T * ssm.N)
    return _COUNTED[path](*arrays, counter).value, counter


@dataclass(frozen=True)
class ScalingResult:
    """Grid of count reports plus fitted log-log exponents per varied axis."""

    path: str
    reports: list[FlopReport]
    slopes: dict[str, float]

    def to_csv(self) -> str:
        """One row per report, its columns the keys of ``FlopReport.json_fields``."""
        rows = [rep.json_fields() for rep in self.reports]
        lines = [",".join(rows[0]), *(",".join(map(str, row.values())) for row in rows)]
        return "\n".join(lines) + "\n"

    def summary_json(self) -> str:
        return json_dumps(
            {
                "path": self.path,
                "slopes": self.slopes,
                "points": [rep.json_fields() for rep in self.reports],
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
