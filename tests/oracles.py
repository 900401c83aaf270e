"""Brute-force and definitional oracles that the tests check the library against."""

from __future__ import annotations

import numpy as np

from ssdlab.bench import FlopCounter
from ssdlab.duality import _within_width, count_block_new_columns
from ssdlab.errors import InconsistentTransitionError, SizeExceededError
from ssdlab.ss_matrix import (
    DEFAULT_EPS,
    LowerTriangularMatrix,
    _block_sweep,
    check_sizes,
    rank_of_singular_values,
)
from ssdlab.ssm import DiagonalSsm, _check_sequence
from ssdlab.sss_extract import (
    GeneralSssRepresentation,
    _check_rank,
    balanced_factors,
    solve_transition,
    vector_signs,
)

#: Largest T the combinatorial rank oracle will accept.
ORACLE_MAX_T = 12


def numerical_rank(block: np.ndarray, eps: float = DEFAULT_EPS) -> int:
    """Count singular values above ``eps`` times the largest one."""
    block = np.atleast_2d(np.asarray(block, dtype=float))
    if block.size == 0:
        return 0
    return rank_of_singular_values(np.linalg.svd(block, compute_uv=False), eps)


def submatrix_rank_oracle(m: LowerTriangularMatrix, eps: float = DEFAULT_EPS) -> int:
    """Brute-force semiseparable rank.

    Enumerates every contiguous on-or-below-diagonal block (all row ranges
    r0..r1 and column ranges c0..c1 with c1 <= r0) and maximizes the
    numerical rank. Arbitrary row/column subsets are covered because
    deleting rows or columns never increases rank, so each subset's rank is
    bounded by the contiguous block spanned by its extremes.
    """
    if m.T > ORACLE_MAX_T:
        raise SizeExceededError(f"oracle limited to T <= {ORACLE_MAX_T}, got T={m.T}")
    vals = m.values
    n = m.T
    best = 0
    for r0 in range(n):
        for r1 in range(r0 + 1, n + 1):
            for c1 in range(1, r0 + 2):
                for c0 in range(c1):
                    best = max(best, numerical_rank(vals[r0:r1, c0:c1], eps))
    return best


def has_one_ss_dual(m: LowerTriangularMatrix, width: int, eps: float = DEFAULT_EPS) -> bool:
    """Whether a width-``width`` masked-attention representation exists.

    True exactly when every diagonal block of the finest partition has at
    most ``width`` new columns.
    """
    return _within_width(count_block_new_columns(m, eps), width)


def has_exact_padding(rep: GeneralSssRepresentation) -> bool:
    """Whether every A[t] (t >= 1) is zero outside its leading r[t] x r[t-1] corner."""
    for t in range(1, rep.T):
        rows, cols = rep.r[t], rep.r[t - 1]
        if np.any(rep.A[t][rows:, :] != 0.0) or np.any(rep.A[t][:, cols:] != 0.0):
            return False
    return True


def reference_materialize_sss(rep: GeneralSssRepresentation) -> np.ndarray:
    """Dense c_j' A^j ... A^{i+1} b_i, one row at a time over the whole matrix.

    Column i of ``states`` carries A^j ... A^{i+1} b_i for the current row j.
    ``materialize_sss`` runs the same loop a panel of rows at a time, and
    must match this bit for bit.
    """
    steps = rep.T
    m = np.zeros((steps, steps))
    states = np.zeros((rep.N, steps))
    for j in range(steps):
        states[:, :j] = rep.A[j] @ states[:, :j]
        states[:, j] = rep.b[j]
        m[j, : j + 1] = rep.c[j] @ states[:, : j + 1]
    return m


def is_fine_mask(gains) -> bool:
    """True when every gain that the 1SS operator reads is nonzero.

    Entry 0 never appears in any mask entry, so fineness is decided on
    gains[1:] only.
    """
    return bool(np.all(np.asarray(gains)[1:] != 0.0))


def reference_diagonal_block_partition(
    m: LowerTriangularMatrix, eps: float = DEFAULT_EPS
) -> list[int]:
    """Cuts of the finest diagonal-block partition from two dense prefix-maximum passes (test
    oracle).

    covered[r, c] = max |M[r:, :c+1]|, so the region left of cut i peaks at
    covered[i, i-1], and covered[0, -1] is the largest magnitude in M.
    """
    covered = np.maximum.accumulate(np.abs(m.values), axis=1)
    covered = np.maximum.accumulate(covered[::-1], axis=0)[::-1]
    steps = np.arange(1, m.T)
    scale = float(covered[0, -1])
    return steps[covered[steps, steps - 1] <= eps * scale].tolist()


def reference_diagonal_tiles(gains: np.ndarray, left: np.ndarray, right: np.ndarray, tile: int):
    """(lo, hi, diagonal tile) of the kernel panel walk, one cumulative product each (test oracle).

    Rows u > v of column v take gains[lo+u], the rest 1, so the products
    cumulate to gains[lo+v+1..lo+u]; each tile is its own ``einsum`` with the
    upper triangle cut off.
    """
    for lo in range(0, gains.shape[0], tile):
        hi = min(lo + tile, gains.shape[0])
        u = np.arange(hi - lo)
        factors = np.where((u[:, None] > u)[..., None], gains[lo:hi, None], 1.0)
        prods = np.cumprod(factors, axis=0)
        yield lo, hi, np.tril(np.einsum("tsk,tk->ts", prods * right[lo:hi], left[lo:hi]))


def _reference_states(ssm: DiagonalSsm, x: np.ndarray):
    """(t, h_t) of the plain step loop from the zero state, a fresh state each step."""
    h = np.zeros((ssm.N, x.shape[1]))
    for t in range(ssm.T):
        h = ssm.a_diag[t][:, None] * h + ssm.b[t][:, None] * x[t]
        yield t, h


def reference_recurrence(ssm: DiagonalSsm, x: np.ndarray) -> np.ndarray:
    """``forward_recurrence`` one step at a time, each output one product c_t h_t (test oracle)."""
    x = _check_sequence(ssm, x)
    y = np.empty(x.shape)
    for t, h in _reference_states(ssm, x):
        y[t] = ssm.c[t] @ h
    return y


def recurrence_rounding_bound(ssm: DiagonalSsm, x: np.ndarray) -> np.ndarray:
    """How far two evaluations of each c_t h_t may differ, entry by entry: 2 gamma_N |c_t| |h_t|.

    gamma_N = N u / (1 - N u), u the unit roundoff, bounds the error of an
    N-term dot product in any summation order, so two BLAS kernels that add
    the modes in different orders agree within twice that (test oracle).
    """
    x = _check_sequence(ssm, x)
    unit = np.finfo(float).eps / 2
    gamma = ssm.N * unit / (1 - ssm.N * unit)
    bound = np.empty(x.shape)
    for t, h in _reference_states(ssm, x):
        bound[t] = 2 * gamma * (np.abs(ssm.c[t]) @ np.abs(h))
    return bound


def reference_ssd(ssm: DiagonalSsm, x: np.ndarray) -> np.ndarray:
    """``forward_ssd`` one step at a time, its modes added in turn to zeros (test oracle)."""
    x = _check_sequence(ssm, x)
    y = np.zeros(x.shape)
    for t, h in _reference_states(ssm, x):
        for n in range(ssm.N):
            y[t] = y[t] + ssm.c[t, n] * h[n]
    return y


def reference_scan(gains: np.ndarray, y: np.ndarray, start: np.ndarray) -> np.ndarray:
    """``scan`` one row at a time, a fresh row each step (test oracle)."""
    gains = np.asarray(gains, dtype=float)[..., None]
    out = np.empty(y.shape)
    out[0] = gains[0] * start + y[0]
    for t in range(1, len(y)):
        out[t] = gains[t] * out[t - 1] + y[t]
    return out


def signed_block_sweep(vals: np.ndarray, eps: float):
    """``_block_sweep`` with each step's singular vectors signed by ``vector_signs``."""
    for step in _block_sweep(vals, eps):
        signs = vector_signs(step.u)
        yield step._replace(
            u=step.u * signs, vh=signs[:, None] * step.vh, right=signs[:, None] * step.right
        )


def reference_extract_sss(
    m: LowerTriangularMatrix, width: int, eps: float = DEFAULT_EPS
) -> GeneralSssRepresentation:
    """Step-by-step ``extract_sss`` over a signed sweep (test oracle).

    Each step splits its factors, solves its transition and gates its row
    factor, then its column factor, on its own: the chain ``extract_sss``
    runs a tile at a time, one step at a time.
    """
    check_sizes(width=width)
    steps = m.T
    kept = []
    b_rows = np.zeros((steps, width))
    c_rows = np.zeros((steps, width))
    trans = np.zeros((steps, width, width))
    trans[0] = np.eye(width)
    for t, step in enumerate(signed_block_sweep(m.values, eps)):
        _check_rank(t, step.rank, width)
        r = min(width, step.keep)
        w_fac, u_fac = balanced_factors(step.u, step.s, step.right, r, width)
        c_rows[t] = w_fac[0, :]
        b_rows[t] = u_fac[:, -1]
        if t > 0:
            w_pinv = np.zeros((width, len(step.u)))
            w_pinv[:r] = step.u[:, :r].T / np.sqrt(step.s[:r])[:, None]
            a_t = solve_transition(w_fac, w_prev[1:, :], r, kept[-1], w_pinv)
            u_trim = u_fac[:, :t]
            for side, miss, first, second, names in (
                ("row-factor", w_fac @ a_t - w_prev[1:, :], w_fac, w_prev[1:, :], "|W|, |W'|"),
                ("column-factor", a_t @ u_prev - u_trim, u_prev, u_trim, "|U|, |U'|"),
            ):
                scale = max(float(np.linalg.norm(first)), float(np.linalg.norm(second)))
                residual = float(np.linalg.norm(miss))
                if residual > eps * scale:
                    raise InconsistentTransitionError(
                        f"{side} residual {residual:.3e} at step {t} exceeds "
                        f"{eps:.1e} * max({names}) = {eps * scale:.3e}"
                    )
            trans[t] = a_t
        kept.append(r)
        w_prev, u_prev = w_fac, u_fac
    return GeneralSssRepresentation(trans, b_rows, c_rows, tuple(kept))


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


def _scalar_ssd(a, b, c, x, counter: FlopCounter):
    steps, modes, d = len(a), len(a[0]), len(x[0])
    scaled = []
    for n in range(modes):
        z = [[b[t][n] * x[t][s] for s in range(d)] for t in range(steps)]
        counter.alloc(steps * d)
        scaled.append(z)
    carried = []
    for n in range(modes):
        h = [[None] * d for _ in range(steps)]
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


def _scalar_recurrence(a, b, c, x, counter: FlopCounter):
    steps, modes, d = len(a), len(a[0]), len(x[0])
    h = [[CountedValue(0.0, counter) for _ in range(d)] for _ in range(modes)]
    counter.alloc(modes * d)
    y = [[None] * d for _ in range(steps)]
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


def _scalar_materialized(a, b, c, x, counter: FlopCounter):
    steps, modes, d = len(a), len(a[0]), len(x[0])
    zero = CountedValue(0.0, counter)
    kernel = [[zero] * steps for _ in range(steps)]
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
    y = [[None] * d for _ in range(steps)]
    counter.alloc(steps * d)
    for t in range(steps):
        for s in range(d):
            out = CountedValue(0.0, counter)
            for i in range(t + 1):
                out = out + kernel[t][i] * x[i][s]
            y[t][s] = out
    return y


_SCALAR_KERNELS = {
    "recurrence": _scalar_recurrence,
    "ssd": _scalar_ssd,
    "materialized": _scalar_materialized,
}


def reference_counted_forward(
    path: str, ssm: DiagonalSsm, x: np.ndarray
) -> tuple[np.ndarray, FlopCounter]:
    """``counted_forward`` one scalar at a time (test oracle).

    Every model entry and input entry is its own ``CountedValue``, so each
    multiply and add is one Python call that charges one operation; the
    loops run over every step, mode and channel.
    """
    x = _check_sequence(ssm, x)
    counter = FlopCounter()
    grids = [
        [[CountedValue(float(v), counter) for v in row] for row in arr]
        for arr in (ssm.a_diag, ssm.b, ssm.c, x)
    ]
    counter.alloc(3 * ssm.T * ssm.N)
    out = _SCALAR_KERNELS[path](*grids, counter)
    return np.array([[v.value for v in row] for row in out]), counter
