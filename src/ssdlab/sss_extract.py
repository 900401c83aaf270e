"""Constructive extraction of general state-space representations.

Any lower triangular matrix whose lower-left blocks have rank at most N
factors as c_j' A^j ... A^{i+1} b_i with full (not necessarily diagonal)
transition matrices. This module recovers such a representation from the
dense matrix in one sweep over its lower-left blocks (each step factors a
thin matrix, see ``ss_matrix._block_sweep``) whose consecutive factorizations
are chained by transition solves, one stacked solve per ``_TILE`` steps, and
materializes representations back to dense form. Each step's SVD is its only
factorization: the transition solve pseudo-inverts the balanced row factor
through that SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lowrank import balanced_factors, svd_with_rank, vector_signs
from .errors import (
    InconsistentTransitionError,
    RankExceedsWidthError,
    ShapeMismatchError,
)
from .ss_matrix import (
    _TILE,
    DEFAULT_EPS,
    LowerTriangularMatrix,
    _block_sweep,
    _check_width,
    json_record,
)


@json_record({"T": "T", "N": "N", "A": "A", "b": "b", "c": "c", "r": "r"}, declared=("T", "N"))
@dataclass(frozen=True)
class GeneralSssRepresentation:
    """Full transition matrices plus weight rows, with per-step block ranks.

    ``A[t]`` is the transition applied when advancing to step t; ``A[0]``
    multiplies the zero initial state and is the identity by convention.
    ``r[t]`` counts the directions of the lower-left block anchored at step
    t that a representation keeps and bounds the live corner of the
    neighbouring transitions. ``extract_sss`` keeps every direction above
    rounding, up to the width, so ``r[t]`` can exceed the block's eps-rank.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    r: tuple[int, ...]

    def __post_init__(self) -> None:
        a = np.array(self.A, dtype=float)
        b = np.array(self.b, dtype=float)
        c = np.array(self.c, dtype=float)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise ShapeMismatchError(f"A must be (T, N, N), got shape {a.shape}")
        steps, width = a.shape[0], a.shape[1]
        if b.shape != (steps, width) or c.shape != (steps, width):
            raise ShapeMismatchError(
                f"b and c must be ({steps}, {width}), got {b.shape} and {c.shape}"
            )
        if steps < 1 or width < 1:
            raise ShapeMismatchError("T and N must both be at least 1")
        if np.any(a[0] != np.eye(width)):
            raise ValueError("A[0] must be the identity (it multiplies the zero state)")
        ranks = tuple(int(v) for v in self.r)
        if len(ranks) != steps:
            raise ShapeMismatchError(f"r must have length {steps}, got {len(ranks)}")
        for t, rank in enumerate(ranks):
            if not 0 <= rank <= min(width, steps - t, t + 1):
                raise ValueError(
                    f"r[{t}]={rank} outside [0, min(N, T-t, t+1)] for T={steps}, N={width}"
                )
        for name, arr in (("A", a), ("b", b), ("c", c)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "r", ranks)

    @property
    def T(self) -> int:
        return self.A.shape[0]

    @property
    def N(self) -> int:
        return self.A.shape[1]

    def has_exact_padding(self) -> bool:
        """Whether every A[t] (t >= 1) is zero outside its leading r[t] x r[t-1] corner."""
        for t in range(1, self.T):
            rows, cols = self.r[t], self.r[t - 1]
            if np.any(self.A[t][rows:, :] != 0.0) or np.any(self.A[t][:, cols:] != 0.0):
                return False
        return True


def materialize_sss(rep: GeneralSssRepresentation) -> LowerTriangularMatrix:
    """Dense matrix with entries c_j' A^j ... A^{i+1} b_i, row by row.

    Column i of ``states`` carries A^j ... A^{i+1} b_i for the current row j,
    so each row costs one (N, N) by (N, j) product: O(T^2 N^2) in all.
    """
    steps = rep.T
    m = np.zeros((steps, steps))
    states = np.zeros((rep.N, steps))
    for j in range(steps):
        states[:, :j] = rep.A[j] @ states[:, :j]
        states[:, j] = rep.b[j]
        m[j, : j + 1] = rep.c[j] @ states[:, : j + 1]
    return LowerTriangularMatrix._adopt(m)


def _check_rank(t: int, rank: int, width: int) -> None:
    """Refuse a block at step t whose rank exceeds the representation width."""
    if rank > width:
        raise RankExceedsWidthError(
            f"block at step {t} has rank {rank}, above the requested width {width}"
        )


def rank_factor_step(
    m: LowerTriangularMatrix, t: int, width: int, eps: float = DEFAULT_EPS
) -> tuple[np.ndarray, np.ndarray, int]:
    """Balanced rank factorization of the lower-left block anchored at step t.

    Returns (W, U, r) with W of shape (T-t, width), U of shape
    (width, t+1) and W @ U reproducing ``M[t:, :t+1]``. Exactly the
    leading r columns of W and rows of U are nonzero. Raises when the
    block's numerical rank exceeds ``width``.

    This is the dense per-block oracle: it factors the whole block with
    one SVD. ``extract_sss`` gets the same rank from its sweep, and factors
    that also keep the directions between eps and rounding.
    """
    if not 0 <= t < m.T:
        raise ValueError(f"step index {t} outside [0, {m.T})")
    block = m.values[t:, : t + 1]
    u, s, vh, rank = svd_with_rank(block, eps)
    _check_rank(t, rank, width)
    left, right = balanced_factors(u, s, vh, rank, width)
    return left, right, rank


def solve_transition(
    w_next: np.ndarray,
    w_trunc: np.ndarray,
    r_next: int | np.ndarray,
    r_cur: int | np.ndarray,
    eps: float = DEFAULT_EPS,
    w_pinv: np.ndarray | None = None,
    step: int = 1,
) -> np.ndarray:
    """Transition matrix A with w_next @ A = w_trunc, zero-padded exactly.

    ``w_trunc`` is the previous step's row factor with its first row
    dropped; its columns live in the span of ``w_next`` whenever the source
    matrix is semiseparable, so the least-squares solution through the
    pseudo-inverse reproduces it. Entries outside the leading
    r_next x r_cur corner are forced to exact zeros. ``w_pinv`` is the
    pseudo-inverse of ``w_next`` when the caller has it from the
    factorization that made ``w_next``; without it, ``np.linalg.pinv``
    computes it at relative cutoff eps.

    The factors may also be stacks of cases along a leading axis, with
    ``r_next`` and ``r_cur`` one entry per case; the transitions come back
    stacked the same way. Case i is the transition into step ``step`` + i,
    which a refusal names.

    The residual is gated relative to the larger of |w_next| and |w_trunc|.
    A balanced factor carries rounding error of about machine epsilon times
    its norm, which is at least sqrt(sigma_1) of its block, and dropping a
    row keeps that error while the slice's own norm can shrink to it: right
    after a diagonal-block cut ``w_trunc`` is pure rounding noise. The whole
    factor ``w_next`` keeps the gate at the scale of the factors. The first
    case over its gate is refused.
    """
    w_next = np.asarray(w_next, dtype=float)
    w_trunc = np.asarray(w_trunc, dtype=float)
    if w_next.shape != w_trunc.shape:
        raise ShapeMismatchError(
            f"factor shapes {w_next.shape} and {w_trunc.shape} must match"
        )
    if w_pinv is None:
        w_pinv = np.linalg.pinv(w_next, rcond=eps)
    elif w_pinv.shape != w_next.swapaxes(-2, -1).shape:
        raise ShapeMismatchError(
            f"pseudo-inverse shape {w_pinv.shape} does not fit factor shape {w_next.shape}"
        )
    trans = w_pinv @ w_trunc
    rows = np.arange(trans.shape[-2])[:, None] >= np.asarray(r_next)[..., None, None]
    trans[rows | (np.arange(trans.shape[-1]) >= np.asarray(r_cur)[..., None, None])] = 0.0
    # The miss is formed transposed, A' W' - W'': a stack of factors stored as rows
    # is then walked along its long axis.
    miss = trans.swapaxes(-2, -1) @ w_next.swapaxes(-2, -1) - w_trunc.swapaxes(-2, -1)
    _gate("row-factor", miss, w_next, w_trunc, eps, step, "|W|, |W'|")
    return trans


def _gate(side: str, miss, first, second, eps: float, step: int, names: str) -> None:
    """Refuse the first case whose ``miss`` exceeds eps times the larger of |first| and |second|.

    All three are one matrix or stacks of them; case i is step ``step`` + i.
    """
    scale = np.maximum(_frobenius(first), _frobenius(second))
    residual = _frobenius(miss)
    over = np.flatnonzero(residual > eps * scale)
    if over.size:
        i = over[0]
        raise InconsistentTransitionError(
            f"{side} residual {residual.flat[i]:.3e} at step {step + i} exceeds "
            f"{eps:.1e} * max({names}) = {eps * scale.flat[i]:.3e}"
        )


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix in a stack (over the last two axes), in one pass."""
    return np.sqrt(np.einsum("...ij,...ij->...", x, x))


def extract_sss(
    m: LowerTriangularMatrix, width: int, eps: float = DEFAULT_EPS
) -> GeneralSssRepresentation:
    """Recover a width-``width`` representation of a semiseparable matrix.

    One ``_block_sweep`` factors every lower-left block balanced as W U;
    the weights are read off the factor edges (c from W's first row, b
    from U's last column), and consecutive factorizations are chained by
    transition solves. A block whose eps-rank exceeds ``width`` is refused
    with ``RankExceedsWidthError``. The factors, and ``r[t]``, keep every
    direction above the rounding level at which the sweep cuts its carry
    (the step's ``keep``), up to ``width`` directions: a direction dropped
    just below the eps threshold would leave a residual of order sqrt(s_i)
    in W, far above the transition gates. W = u_r sqrt(S_r) has orthogonal
    columns, so its pseudo-inverse is exactly S_r^(-1/2) u_r' (zero rows
    past r), which ``solve_transition`` gets instead of a second
    factorization. The sweep leaves singular-vector signs free; the
    factors take them from ``vector_signs``, so the output does not depend
    on the signs the SVD happened to return.

    Each transition is verified on both sides: w-side by construction
    inside ``solve_transition``, u-side against the next step's column
    factor. The u-side gate refuses a block that keeps a direction the
    previous block did not: one past the width, or one that the carry cut
    below rounding, which happens when the previous block is much larger.
    Like the w-side gate, it is relative to the larger of the trimmed slice
    (of step t+1) and the whole factor (U of step t).

    The sweep is read ``_TILE`` steps at a time: each step only copies its
    kept u, s and right vectors into the tile's zero-padded stacks, and
    ``_chain_tile`` then signs, scales, solves and gates the whole tile at
    once. Refusals come in the order of a step-by-step chain: rank, then
    row factor, then column factor, step by step.
    """
    _check_width(width)
    steps = m.T
    kept = np.zeros(steps, dtype=np.intp)
    b_rows = np.zeros((steps, width))
    c_rows = np.zeros((steps, width))
    trans = np.zeros((steps, width, width))
    trans[0] = np.eye(width)
    out = (kept, b_rows, c_rows, trans)
    sweep = _block_sweep(m.values, eps)
    # Slot 0 of a tile holds step lo-1, the previous tile's last (zeros before step 0),
    # and slot i step lo-1+i. Left vectors are stored as rows, each factor from its
    # first row and column on, so every pass over a tile runs along its long axis.
    left, s, right = np.zeros((1, width, steps + 1)), np.ones((1, width)), np.zeros((1, width, 0))
    for lo in range(0, steps, _TILE):
        hi = min(lo + _TILE, steps)
        last = left[-1, :, : steps - lo + 1], s[-1], right[-1]
        left = np.zeros((hi - lo + 1, width, steps - lo + 1))
        s = np.ones((hi - lo + 1, width))  # past r, roots of 1 scale and divide only zeros
        right = np.zeros((hi - lo + 1, width, hi))
        left[0], s[0], right[0, :, :lo] = last
        for t in range(lo, hi):
            step = next(sweep)
            i = t - lo + 1
            if step.rank > width:
                _chain_tile((left[:i], s[:i], right[:i]), lo, out, eps)
                _check_rank(t, step.rank, width)
            r = kept[t] = min(width, step.keep)
            left[i, :r, : steps - t] = step.u[:, :r].T
            s[i, :r] = step.s[:r]
            right[i, :r, : t + 1] = step.right[:r]
        _chain_tile((left, s, right), lo, out, eps)
    # Adding 0.0 makes every zero +0.0, whatever signs the sweep's SVDs returned.
    return GeneralSssRepresentation(trans + 0.0, b_rows + 0.0, c_rows + 0.0, tuple(kept.tolist()))


def _chain_tile(tile: tuple, lo: int, out: tuple, eps: float) -> None:
    """Sign, balance, solve and gate steps lo, lo+1, ... held in slots 1, 2, ... of a tile.

    ``tile`` is ``extract_sss``'s (left, s, right) stacks, left holding u'
    (left vectors as rows), slot 0 step lo-1, all as the sweep gave them:
    the sign rule picks the same signs for a slot in either tile holding it. Writes each step's c and b rows and
    transition into ``out`` = (r, b, c, A), and raises the first refusal a
    step-by-step chain would raise.
    """
    left, s, right = tile
    kept, b_rows, c_rows, trans = out
    # Each direction's sign times its root scale: scaling by -1 or 1 is exact.
    scale = np.sqrt(s)[:, :, None] * vector_signs(left.swapaxes(-2, -1))[:, :, None]
    w_rows = left * scale  # W', with W = u_r sqrt(S_r)
    u_fac = right * scale
    hi = lo + len(left) - 1
    slots = np.arange(1, len(left))
    c_rows[lo:hi] = w_rows[1:, :, 0]
    b_rows[lo:hi] = u_fac[slots, :, slots + lo - 1]
    first = max(lo, 1)  # step 0 has no transition
    if first >= hi:
        return
    cur, prev = slice(first - lo + 1, None), slice(first - lo, -1)
    w_next, w_trunc = w_rows[cur, :, :-1].swapaxes(-2, -1), w_rows[prev, :, 1:].swapaxes(-2, -1)
    w_pinv = left[cur, :, :-1] / scale[cur]
    try:
        a_t = solve_transition(
            w_next, w_trunc, kept[first:hi], kept[first - 1 : hi - 1], eps, w_pinv, first
        )
    except InconsistentTransitionError:
        if hi - first == 1:
            raise
        a_t = None  # replayed after the handler, so its refusal is not chained to this one
    if a_t is None:
        # A column factor that misses before the refused row factor is refused first.
        for t in range(first, hi):
            _chain_tile(tuple(x[t - lo : t - lo + 2] for x in tile), t, out, eps)
        return
    # U of step t without its last column (b's) is what A_t carries U of step t-1 to.
    u_trim = u_fac[cur].copy()
    u_trim[np.arange(hi - first), :, np.arange(first, hi)] = 0.0
    u_prev = u_fac[prev]
    _gate("column-factor", a_t @ u_prev - u_trim, u_prev, u_trim, eps, first, "|U|, |U'|")
    trans[first:hi] = a_t


def random_representation(seed: int, T: int, N: int) -> GeneralSssRepresentation:
    """Deterministic random representation with the exact padding pattern.

    Block ranks are set to their maximum min(N, T-t, t+1); transitions are
    normalized to spectral norms in [0.3, 1.1] so long products neither
    explode nor vanish.
    """
    rng = np.random.default_rng(seed)
    ranks = tuple(min(N, T - t, t + 1) for t in range(T))
    trans = np.zeros((T, N, N))
    trans[0] = np.eye(N)
    for t in range(1, T):
        g = rng.standard_normal((N, N))
        g *= rng.uniform(0.3, 1.1) / np.linalg.norm(g, 2)
        g[ranks[t] :, :] = 0.0
        g[:, ranks[t - 1] :] = 0.0
        trans[t] = g
    b = rng.standard_normal((T, N))
    c = rng.standard_normal((T, N))
    return GeneralSssRepresentation(trans, b, c, ranks)
