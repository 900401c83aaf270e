"""Diagonal state-space model execution.

Three routes from inputs to outputs: the materialized T x T kernel and two
O(NTd) routes, the recurrence and the ssd path. Those two are one chunked
loop, ``_chunks`` (one ``scan`` per chunk of steps), and differ only in how
they sum over modes (``_MODE_SUMS``): a batched matrix product, or
``ascending_sum``, the one ordered reduction. ``forward_linear`` runs the loop
once for every linear path asked for, each summing the same chunk of states,
so ``forward --path all`` scans once for both. The loop reads a record's
(gains, in, out) triple, so all three routes take a ``DiagonalSsm`` or
``MaskedAttentionFactors`` (and the materialized one a
``GeneralSssRepresentation``). ``FORWARD_PATHS`` names them; ``bench``'s
counted kernels run on ``scan`` and ``ascending_sum`` too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError
from .ss_matrix import (
    LowerTriangularMatrix,
    _apply,
    _assemble,
    _check_finite,
    _float_array,
    _freeze_fields,
    _read_json_record,
    _segment_product_panels,
    array_from_csv,
    array_to_csv,
    check_sizes,
    json_dumps,
    json_record,
)


@json_record({"T": "T", "N": "N", "A_diag": "a_diag", "b": "b", "c": "c"}, declared=("T", "N"))
@dataclass(frozen=True)
class DiagonalSsm:
    """Time-varying diagonal state-space parameters over T steps.

    ``a_diag[t, n]`` is the n-th diagonal entry of the step-t state matrix,
    ``b[t]`` and ``c[t]`` are the input and output weight rows. Row 0 of
    ``a_diag`` multiplies the all-zero initial state, so it carries no
    information; by convention it must be all ones (identity transition).
    """

    a_diag: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        _freeze_fields(self, a_diag=2, b=2, c=2)
        if not (self.a_diag.shape == self.b.shape == self.c.shape):
            raise ShapeMismatchError(
                "a_diag, b, c must share one (T, N) shape, got "
                f"{self.a_diag.shape}, {self.b.shape}, {self.c.shape}"
            )
        if np.any(self.a_diag[0] != 1.0):
            raise ValueError("a_diag[0] must be all ones (identity first transition)")

    @property
    def T(self) -> int:
        return self.a_diag.shape[0]

    @property
    def N(self) -> int:
        return self.a_diag.shape[1]

    def is_scalar_identity(self) -> bool:
        """True when every step's diagonal entries are all equal (exactly)."""
        return bool(np.all(self.a_diag == self.a_diag[:, :1]))

    def _diagonal(self):
        """The (gains, in, out) triple that ``_chunks`` runs: a, b and c."""
        return self.a_diag, self.b, self.c

    def _panels(self):
        """The kernel's row panels: the panel walk with gains a, c on the left and b on the right."""
        return _segment_product_panels(self.a_diag, self.c, self.b)


def _check_sequence(model, x: np.ndarray) -> np.ndarray:
    """The one input-sequence rule: ``x`` as a (T, d) float array, T being ``model.T``, d >= 1.

    Its entries must be finite. ``model`` is any record with a step count ``T``.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ShapeMismatchError(f"input sequence must be 2-D (T, d), got shape {x.shape}")
    if x.shape[0] != model.T:
        raise ShapeMismatchError(f"sequence has {x.shape[0]} steps, model has {model.T}")
    check_sizes(d=x.shape[1])
    _check_finite(x, "input sequence")
    return x


#: Steps per chunk of the linear paths: each holds this many (N, d) states at once.
_CHUNK = 256


def _chunks(record, x: np.ndarray):
    """(lo, hi, out[lo:hi], states) per ``_CHUNK`` steps of h_t = g_t * h_{t-1} + in_t x_t.

    (g, in, out) is ``record._diagonal()``. A chunk's in_t x_t are one product and
    its states one ``scan`` on from the last chunk's final state (zeros first):
    the plain step loop's operations, in its order. One chunk is held at a time.
    """
    gains, inw, outw = record._diagonal()
    h = np.zeros((inw.shape[1], x.shape[1]))
    for lo in range(0, record.T, _CHUNK):
        hi = min(lo + _CHUNK, record.T)
        states = scan(gains[lo:hi], inw[lo:hi, :, None] * x[lo:hi, None, :], h)
        yield lo, hi, outw[lo:hi], states
        h = states[-1]


def _matmul_sum(out: np.ndarray, states: np.ndarray, rows: np.ndarray) -> None:
    """The recurrence's mode sum: each step's c_t h_t as one batched matrix product."""
    np.matmul(out[:, None, :], states, out=rows[:, None, :])


def _ordered_sum(out: np.ndarray, states: np.ndarray, rows: np.ndarray) -> None:
    """The ssd path's mode sum: each mode's c_t h_t, added in ascending mode order."""
    rows[:] = ascending_sum(out[:, :, None] * states, axis=1)


#: Each linear path's sum over modes: it writes a chunk's output rows from its out weights and states.
_MODE_SUMS = {"recurrence": _matmul_sum, "ssd": _ordered_sum}


def forward_linear(record, x: np.ndarray, paths=("recurrence", "ssd")) -> dict[str, np.ndarray]:
    """The outputs of the named linear paths of a diagonal record, from one pass of ``_chunks``.

    One pass serves every path asked for: each chunk of states is scanned once
    and summed over modes by each path in turn, so each output is bitwise that
    path's own, and one chunk of states is held, however many paths are named.
    """
    for path in paths:
        if path not in _MODE_SUMS:
            raise ValueError(f"unknown linear path {path!r}, expected one of {tuple(_MODE_SUMS)}")
    x = _check_sequence(record, x)
    ys = {path: np.empty(x.shape) for path in paths}
    for lo, hi, out, states in _chunks(record, x):
        for path, y in ys.items():
            _MODE_SUMS[path](out, states, y[lo:hi])
    return ys


def forward_recurrence(record, x: np.ndarray) -> np.ndarray:
    """Reference O(TNd) scan of a diagonal record: h_t = a_t h_{t-1} + b_t x_t, y_t = c_t h_t.

    Each chunk's c_t h_t is one batched matrix product: the step loop's output, bit for bit.
    """
    return forward_linear(record, x, ("recurrence",))["recurrence"]


def materialize_kernel(ssm: DiagonalSsm) -> LowerTriangularMatrix:
    """Dense kernel with entries sum_n c[j,n] * (a[i+1,n]...a[j,n]) * b[i,n]."""
    return _assemble(ssm.T, ssm._panels())


def forward_materialized(realization, x: np.ndarray) -> np.ndarray:
    """Quadratic path: each row panel of the record's kernel is applied to x as it is built.

    Only one panel is held at a time, never the whole T x T kernel.
    """
    return _apply(realization._panels(), _check_sequence(realization, x))


def scan(gains: np.ndarray, y: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Linear recurrence along rows: out_t = gains[t] * out_{t-1} + y_t.

    Row -1 is ``start`` (one row's shape), so row 0 is gains[0] * start + y[0].
    Gains have one axis fewer than ``y``: (T,) against (T, d), or (T, N) or (T, 1)
    against (T, N, d), each mode running its own recurrence (a (T, 1) column
    serves them all). Each row is written in place, a multiply and then an add.
    """
    gains, y = np.asarray(gains, dtype=float), np.asarray(y, dtype=float)
    if y.ndim not in (2, 3) or gains.shape not in (y.shape[:-1], (len(y),) + (1,) * (y.ndim - 2)):
        raise ShapeMismatchError(f"need (T,) gains for (T, d) rows, or (T, N) or (T, 1) gains "
                                 f"for (T, N, d) rows, got {gains.shape} and {y.shape}")
    check_sizes(T=y.shape[0])
    prev = np.asarray(start, dtype=float)
    if prev.shape != y.shape[1:]:
        raise ShapeMismatchError(f"start must have shape {y.shape[1:]}, got {prev.shape}")
    out = np.empty_like(y)
    # Gains spread to the rows' shape once: a step's multiply then runs over whole contiguous
    # rows, which took a third less time than broadcasting each mode's gain over its row.
    spread = np.broadcast_to(gains[..., None], y.shape).copy()
    for gain, row, cur in zip(spread, y, out):
        np.multiply(gain, prev, out=cur)
        cur += row
        prev = cur
    return out


def ascending_sum(terms: np.ndarray, axis: int = 0) -> np.ndarray:
    """Sum along ``axis``, its entries added one by one in ascending order to zeros.

    The order is fixed, so the sum is reproducible; ``np.sum`` adds pairwise
    and would change the bits. This is the package's one ordered reduction.
    """
    terms = np.asarray(terms)
    if axis:  # a transposed view: np.moveaxis makes the same one at about five times the cost
        axis %= terms.ndim
        terms = terms.transpose(axis, *range(axis), *range(axis + 1, terms.ndim))
    total = np.zeros(terms.shape[1:])
    for term in terms:
        total += term
    return total


def forward_ssd(record, x: np.ndarray) -> np.ndarray:
    """O(NTd) path of a diagonal record: scale, scan and scale each mode, then an ordered sum.

    Each chunk sums its modes in ascending order, so the result is reproducible
    and equals the counted kernel bit for bit.
    """
    return forward_linear(record, x, ("ssd",))["ssd"]


#: Forward paths by name, in the order ``forward --path all`` runs and reports them.
FORWARD_PATHS = {
    "recurrence": forward_recurrence,
    "ssd": forward_ssd,
    "materialized": forward_materialized,
}


def random_instance(
    seed: int,
    T: int,
    N: int,
    d: int,
    a_abs: tuple[float, float] = (0.0, 2.0),
    scalar_identity: bool = False,
) -> tuple[DiagonalSsm, np.ndarray]:
    """Deterministic random model and input for a given seed.

    Gains have magnitude drawn uniformly from ``a_abs`` with random signs;
    weights are standard normal. Row 0 of the gains is forced to ones.
    """
    check_sizes(T=T, N=N, d=d)
    rng = np.random.default_rng(seed)
    lo, hi = a_abs
    if not (0.0 <= lo <= hi < np.inf):
        raise ValueError(f"need 0 <= lo <= hi < inf in a_abs, got {a_abs}")
    shape = (T, 1) if scalar_identity else (T, N)
    mags = rng.uniform(lo, hi, size=shape)
    signs = rng.choice([-1.0, 1.0], size=shape)
    a_diag = np.broadcast_to(mags * signs, (T, N)).copy()
    a_diag[0] = 1.0
    b = rng.standard_normal((T, N))
    c = rng.standard_normal((T, N))
    x = rng.standard_normal((T, d))
    return DiagonalSsm(a_diag, b, c), x


sequence_to_csv = array_to_csv
sequence_from_csv = array_from_csv


def sequence_to_json(x: np.ndarray) -> str:
    return json_dumps({"X": np.asarray(x, dtype=float)})


def sequence_from_json(text: str) -> np.ndarray:
    obj = _read_json_record(text)
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object for a sequence")
    for key in ("X", "Y"):  # a one-path ``forward`` writes its output as "Y"
        if key in obj:
            return _float_array(obj[key], repr(key))
    raise ValueError("the sequence JSON object lacks 'X'")
