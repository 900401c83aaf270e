"""Operation-count instrumentation and scaling experiments.

Counts come from running dedicated counting kernels over wrapped arrays:
the model, the input and every intermediate are ``CountedArray``s, and
each elementwise multiplication or addition charges the shared counter
one operation per element of its result (a broadcast (T, 1) x (1, d)
product charges T*d); nothing is estimated from closed-form formulas.
The kernels keep each output element's scalar arithmetic order, so the
outputs are bitwise those of a scalar loop (``tests/oracles.py``). The linear paths
loop in Python over the steps of the scan. The materialized path walks
the kernel a block of ``_BLOCK`` columns at a time: the block's triangle
a row at a time, each row of running products one multiply of the row
above, then the rows below it ``_ROWS`` at a time, their running
products going on from the row above and each output row adding the
block's columns in ascending order. The kernels share the production
paths' one step loop and one ordered reduction:
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
though the code holds one chunk of states or of a block's rows at a time;
the counts and budgets keep the all-live model.
"""

from __future__ import annotations

import functools
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
        # Row by row, to np.multiply.accumulate's bits: on the materialized kernel's
        # (33, 8, 64) chains this took 1.7 ns an element, accumulate 4.7 (numpy 2.4, one
        # core of a shared AVX-512 machine).
        products = self.value.copy()
        for prev, row in zip(products, products[1:]):
            np.multiply(prev, row, out=row)
        self.counter.madds += products.size - products[:1].size
        return CountedArray(products, self.counter)

    def running_sum(self) -> "CountedArray":
        """Row j is the sum of rows 0..j, added top to bottom.

        Every row after the first costs one addition per element.
        """
        sums = np.add.accumulate(self.value, axis=0)
        self.counter.adds += sums.size - sums[:1].size
        return CountedArray(sums, self.counter)

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


#: Kernel columns the counted materialized kernel walks at a time.
_BLOCK = 64
#: Rows of a block whose running products the kernel holds at once.
_ROWS = 32


@functools.cache
def _packed_triangle(width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns, row starts and column order of the entries of a triangle packed by rows.

    Every caller gets the same arrays, so they are read-only.
    """
    rows, cols = np.tril_indices(width)
    starts = np.arange(width + 1) * np.arange(1, width + 2) // 2
    indices = rows, cols, starts, np.argsort(cols, kind="stable")
    for arr in indices:
        arr.flags.writeable = False
    return indices


def _counted_triangle(a, b, c, x, y, i0: int, i1: int, counter: FlopCounter) -> CountedArray:
    """Apply the kernel's columns i0..i1-1 to rows i0..i1-1 of ``y``; return row i1-1's products.

    Row u of the block's triangle holds the running products b_{i0+v}
    a_{i0+v+1} ... a_{i0+u} of columns v <= u, entries starts[u]..starts[u+1]-1
    of the packed triangle: one multiply extends row u-1 by a_{i0+u}, and
    b_{i0+u} starts column u. The kernel entries are kept for the whole
    triangle, the products for ``_ROWS`` rows at a time.
    """
    width, modes = i1 - i0, a.value.shape[1]
    rows, cols, starts, by_column = _packed_triangle(width)
    entries = _zeros(counter, len(rows))
    for u0 in range(0, width, _ROWS):
        u1 = min(u0 + _ROWS, width)
        s0, s1 = starts[u0], starts[u1]
        products = _zeros(counter, s1 - s0, modes)
        products[starts[u0 + 1:u1 + 1] - 1 - s0] = b[i0 + u0:i0 + u1]
        for u in range(u0, u1):
            at = starts[u] - s0
            if u:
                products[at:at + u] = row * a[i0 + u]
            row = products[at:at + u + 1]
        entries[s0:s1] = (c[i0 + rows[s0:s1]] * products).ascending_sum(axis=1)
    terms = entries[by_column][:, None] * x[i0 + cols[by_column]]
    lo = 0
    for i in range(i0, i1):  # column i's terms, rows i..i1-1, in ascending i
        hi = lo + i1 - i
        y[i:i1] = y[i:i1] + terms[lo:hi]
        lo = hi
    last = _zeros(counter, modes, width)
    last[:] = row.T
    return last


def _counted_rectangle(a, c, x, y, last, i0: int, i1: int, counter: FlopCounter) -> None:
    """Apply the kernel's columns i0..i1-1 to the rows of ``y`` from i1 on, ``_ROWS`` at a time.

    The running products of the columns go on from ``last``, those of the
    row above, which is overwritten as they go. Each row of y adds the
    block's columns in ascending order to its value.
    """
    steps, modes, d = *a.value.shape, x.value.shape[1]
    for lo in range(i1, steps, _ROWS):
        hi = min(lo + _ROWS, steps)
        chain = _zeros(counter, 1 + hi - lo, modes, i1 - i0)
        chain[0] = last
        chain[1:] = a[lo:hi, :, None]
        chain = chain.running_product()[1:]
        last[:] = chain[-1]
        kernel = (c[lo:hi, :, None] * chain).ascending_sum(axis=1)
        sums = _zeros(counter, 1 + i1 - i0, d, hi - lo)
        sums[0] = y[lo:hi].T
        sums[1:] = kernel.T[:, None, :] * x[i0:i1, :, None]
        y[lo:hi] = sums.running_sum()[-1].T


def _counted_materialized(
    a: CountedArray, b: CountedArray, c: CountedArray, x: CountedArray, counter: FlopCounter
) -> CountedArray:
    steps, modes, d = *a.value.shape, x.value.shape[1]
    # The all-live model holds the whole kernel; it is built and applied a block of
    # columns at a time, each block's products held for at most _ROWS rows.
    counter.alloc(steps * steps)
    counter.alloc(modes)  # running product vector
    y = _zeros(counter, steps, d)
    counter.alloc(steps * d)
    for i0 in range(0, steps, _BLOCK):
        i1 = min(i0 + _BLOCK, steps)
        last = _counted_triangle(a, b, c, x, y, i0, i1, counter)
        _counted_rectangle(a, c, x, y, last, i0, i1, counter)
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
