"""Diagonal state-space model execution.

Three routes from inputs to outputs: the reference left-to-right
recurrence, the materialized T x T kernel, and the scale/scan/scale
pipeline that costs O(NTd). The last runs over all (mode, channel) pairs
at once and then reduces over modes in ascending order. ``FORWARD_PATHS``
names the three routes. The recurrence and the ssd path's scan each keep
their own step loop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError
from .ss_matrix import (
    LowerTriangularMatrix,
    _check_finite,
    _freeze_fields,
    _segment_product_apply,
    _segment_product_kernel,
    array_from_csv,
    array_to_csv,
    check_sizes,
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


def _check_sequence(model, x: np.ndarray) -> np.ndarray:
    """The one input-sequence rule: ``x`` as a (T, d) float array, T being ``model.T``, d >= 1.

    Its entries must be finite. ``model`` is anything with a step count
    ``T``: a model or its factors.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ShapeMismatchError(f"input sequence must be 2-D (T, d), got shape {x.shape}")
    if x.shape[0] != model.T:
        raise ShapeMismatchError(f"sequence has {x.shape[0]} steps, model has {model.T}")
    check_sizes(d=x.shape[1])
    _check_finite(x, "input sequence")
    return x


#: Steps per chunk of ``forward_recurrence``: it holds this many (N, d) states at once.
_CHUNK = 256


def forward_recurrence(ssm: DiagonalSsm, x: np.ndarray) -> np.ndarray:
    """Reference O(TNd) scan: h_t = a_t * h_{t-1} + b_t x_t, y_t = c_t h_t.

    The steps run in chunks of ``_CHUNK``. A chunk's inputs b_t x_t are one
    product, its states are stepped one at a time in place, and its outputs
    c_t h_t are one batched matrix product; each step's operations, and their
    order, are those of the plain step loop, so the output is too, bit for
    bit. It holds O(_CHUNK N d) states, never O(T N d).
    """
    x = _check_sequence(ssm, x)
    n_steps, d = x.shape
    gains, weights = ssm.a_diag[:, :, None], ssm.b[:, :, None]
    y = np.empty((n_steps, d))
    states = np.empty((min(_CHUNK, n_steps), ssm.N, d))
    h = np.zeros((ssm.N, d))
    for lo in range(0, n_steps, _CHUNK):
        hi = min(lo + _CHUNK, n_steps)
        inputs = weights[lo:hi] * x[lo:hi, None, :]
        # h still holds the previous chunk's last state when the first step reads it.
        for gain, row, state in zip(gains[lo:hi], inputs, states):
            np.multiply(gain, h, out=state)
            state += row
            h = state
        np.matmul(ssm.c[lo:hi, None, :], states[: hi - lo], out=y[lo:hi, None, :])
    return y


def materialize_kernel(ssm: DiagonalSsm) -> LowerTriangularMatrix:
    """Dense kernel with entries sum_n c[j,n] * (a[i+1,n]...a[j,n]) * b[i,n]."""
    return _segment_product_kernel(ssm.a_diag, ssm.c, ssm.b)


def forward_materialized(ssm: DiagonalSsm, x: np.ndarray) -> np.ndarray:
    """Quadratic path: each row panel of the kernel is applied to x as it is built.

    Only one panel is held at a time, never the whole T x T kernel.
    """
    return _segment_product_apply(ssm.a_diag, ssm.c, ssm.b, _check_sequence(ssm, x))


def _check_rows(vec: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate a per-row vector against rows of ``y``; return it ready to broadcast.

    Either a (T,) vector against a (T, d) matrix, or a (T, N) matrix
    against a (T, N, d) array with a trailing mode axis.
    """
    vec = np.asarray(vec, dtype=float)
    y = np.asarray(y, dtype=float)
    if vec.ndim not in (1, 2) or y.ndim != vec.ndim + 1 or y.shape[: vec.ndim] != vec.shape:
        if vec.ndim == 2:
            want = "a (T, N) matrix and a (T, N, d) array"
        else:
            want = "a length-T vector and a (T, d) matrix"
        raise ShapeMismatchError(f"need {want}, got {vec.shape} and {y.shape}")
    return vec[..., None], y


def scale_rows(scale: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Multiply row t of ``y`` by ``scale[t]``.

    With a (T, N) ``scale`` and a (T, N, d) ``y``, entry (t, n) scales
    ``y[t, n]``.
    """
    scale, y = _check_rows(scale, y)
    return scale * y


def scan(gains: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Linear recurrence along rows: out_t = gains[t] * out_{t-1} + y_t.

    Row 0 is copied through; gains[0] is never read. With (T, N) gains and
    a (T, N, d) ``y``, every mode runs its own recurrence. Each row is
    written in place, a multiply and then an add.
    """
    gains, y = _check_rows(gains, y)
    out = np.empty_like(y)
    out[0] = y[0]
    prev = out[0]
    for gain, row, cur in zip(gains[1:], y[1:], out[1:]):
        np.multiply(gain, prev, out=cur)
        cur += row
        prev = cur
    return out


def forward_ssd(ssm: DiagonalSsm, x: np.ndarray) -> np.ndarray:
    """O(NTd) path: scale, scan and scale every mode, then an ordered reduction.

    Modes are accumulated in ascending order so the result is reproducible
    and equals the counted kernel bit for bit.
    """
    x = _check_sequence(ssm, x)
    z = scale_rows(ssm.b, np.broadcast_to(x[:, None, :], (ssm.T, ssm.N, x.shape[1])))
    h = scale_rows(ssm.c, scan(ssm.a_diag, z))
    y = np.zeros_like(x)
    for n in range(ssm.N):
        y = y + h[:, n]
    return y


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
    if not (0.0 <= lo <= hi):
        raise ValueError(f"need 0 <= lo <= hi in a_abs, got {a_abs}")
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
    return json.dumps({"X": np.asarray(x, dtype=float).tolist()})


def sequence_from_json(text: str) -> np.ndarray:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object for a sequence")
    for key in ("X", "Y"):  # a one-path ``forward`` writes its output as "Y"
        if key in obj:
            return np.array(obj[key], dtype=float)
    raise ValueError("the sequence JSON object lacks 'X'")
