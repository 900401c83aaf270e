"""Diagonal state-space model execution.

Three routes from inputs to outputs: the reference left-to-right
recurrence, the materialized T x T kernel, and the scale/scan/scale
pipeline that costs O(NTd). The last runs over all (mode, channel) pairs
at once and then reduces over modes in ascending order. ``FORWARD_PATHS``
names the three routes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError
from .ss_matrix import (
    LowerTriangularMatrix,
    _segment_product_apply,
    _segment_product_kernel,
    array_from_csv,
    array_to_csv,
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
        arrays = []
        for name in ("a_diag", "b", "c"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 2:
                raise ShapeMismatchError(f"{name} must be 2-D, got shape {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} entries must be finite")
            arrays.append(arr)
        if not (arrays[0].shape == arrays[1].shape == arrays[2].shape):
            raise ShapeMismatchError(
                "a_diag, b, c must share one (T, N) shape, got "
                f"{arrays[0].shape}, {arrays[1].shape}, {arrays[2].shape}"
            )
        if arrays[0].shape[0] < 1 or arrays[0].shape[1] < 1:
            raise ShapeMismatchError("T and N must both be at least 1")
        if np.any(arrays[0][0] != 1.0):
            raise ValueError("a_diag[0] must be all ones (identity first transition)")
        for name, arr in zip(("a_diag", "b", "c"), arrays):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def T(self) -> int:
        return self.a_diag.shape[0]

    @property
    def N(self) -> int:
        return self.a_diag.shape[1]

    def is_scalar_identity(self) -> bool:
        """True when every step's diagonal entries are all equal (exactly)."""
        return bool(np.all(self.a_diag == self.a_diag[:, :1]))


def _check_sequence(ssm: DiagonalSsm, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ShapeMismatchError(f"input sequence must be 2-D (T, d), got shape {x.shape}")
    if x.shape[0] != ssm.T:
        raise ShapeMismatchError(f"sequence has {x.shape[0]} steps, model has {ssm.T}")
    if x.shape[1] < 1:
        raise ShapeMismatchError("channel count d must be at least 1")
    return x


def forward_recurrence(ssm: DiagonalSsm, x: np.ndarray) -> np.ndarray:
    """Reference O(TNd) scan: h_t = a_t * h_{t-1} + b_t x_t, y_t = c_t h_t."""
    x = _check_sequence(ssm, x)
    n_steps, d = x.shape
    h = np.zeros((ssm.N, d))
    y = np.empty((n_steps, d))
    for t in range(n_steps):
        h = ssm.a_diag[t][:, None] * h + np.outer(ssm.b[t], x[t])
        y[t] = ssm.c[t] @ h
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
    a (T, N, d) ``y``, every mode runs its own recurrence.
    """
    gains, y = _check_rows(gains, y)
    out = np.empty_like(y)
    out[0] = y[0]
    for t in range(1, y.shape[0]):
        out[t] = gains[t] * out[t - 1] + y[t]
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
    return np.array(obj["X"], dtype=float)
