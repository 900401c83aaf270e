"""Constructive extraction of general state-space representations.

Any lower triangular matrix whose lower-left blocks have rank at most N
factors as c_j' A^j ... A^{i+1} b_i with full (not necessarily diagonal)
transition matrices. This module recovers such a representation from the
dense matrix in one sweep over its lower-left blocks (each step factors a
thin matrix, see ``ss_matrix._block_sweep``) whose consecutive factorizations
are chained by transition solves, one stacked solve and one gate of both
factor sides per ``_TILE`` steps, and materializes representations back to
dense form. Each step's SVD is its only factorization: the transition solve
pseudo-inverts the balanced row factor through that SVD.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    InconsistentTransitionError,
    RankExceedsWidthError,
    ShapeMismatchError,
)
from .ss_matrix import (
    _TILE,
    DEFAULT_EPS,
    LowerTriangularMatrix,
    _assemble,
    _block_sweep,
    _check_finite,
    _check_norm_finite,
    _freeze_fields,
    check_sizes,
    json_record,
    rank_of_singular_values,
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
        _freeze_fields(self, A=3, b=2, c=2)
        steps, width, cols = self.A.shape
        if width != cols:
            raise ShapeMismatchError(f"A must be (T, N, N), got shape {self.A.shape}")
        if self.b.shape != (steps, width) or self.c.shape != (steps, width):
            raise ShapeMismatchError(
                f"b and c must be ({steps}, {width}), got {self.b.shape} and {self.c.shape}"
            )
        if np.any(self.A[0] != np.eye(width)):
            raise ValueError("A[0] must be the identity (it multiplies the zero state)")
        ranks = self.r.tolist() if isinstance(self.r, np.ndarray) else self.r
        if not isinstance(ranks, (list, tuple)) or not all(
            isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in ranks
        ):
            # reprlib: a deeply nested list has no full repr.
            raise ValueError(f"r must be an array of integers, got {reprlib.repr(self.r)}")
        ranks = tuple(int(v) for v in ranks)
        if len(ranks) != steps:
            raise ShapeMismatchError(f"r must have length {steps}, got {len(ranks)}")
        for t, rank in enumerate(ranks):
            if not 0 <= rank <= min(width, steps - t, t + 1):
                raise ValueError(
                    f"r[{t}]={rank} outside [0, min(N, T-t, t+1)] for T={steps}, N={width}"
                )
        object.__setattr__(self, "r", ranks)

    @property
    def T(self) -> int:
        return self.A.shape[0]

    @property
    def N(self) -> int:
        return self.A.shape[1]

    def _panels(self):
        """Row panels (lo, hi, panel) of the kernel c_j' A^j ... A^{i+1} b_i, ``_TILE`` rows each.

        Column i of ``states`` carries A^j ... A^{i+1} b_i for the current row j,
        so each row costs one (N, N) by (N, j) product: O(T^2 N^2) in all. No
        panel has an entry above the diagonal, but products of transitions can
        overflow: a panel with a non-finite entry raises ``ValueError``.
        """
        states = np.zeros((self.N, self.T))
        for lo in range(0, self.T, _TILE):
            hi = min(lo + _TILE, self.T)
            panel = np.zeros((hi - lo, hi))
            for j in range(lo, hi):
                states[:, :j] = self.A[j] @ states[:, :j]
                states[:, j] = self.b[j]
                panel[j - lo, : j + 1] = self.c[j] @ states[:, : j + 1]
            _check_finite(panel, "kernel")
            yield lo, hi, panel



def materialize_sss(rep: GeneralSssRepresentation) -> LowerTriangularMatrix:
    """Dense matrix with entries c_j' A^j ... A^{i+1} b_i, assembled from ``rep._panels``."""
    return _assemble(rep.T, rep._panels())


def _check_rank(t: int, rank: int, width: int) -> None:
    """Refuse a block at step t whose rank exceeds the representation width."""
    if rank > width:
        raise RankExceedsWidthError(
            f"block at step {t} has rank {rank}, above the requested width {width}"
        )


def vector_signs(u: np.ndarray) -> np.ndarray:
    """The sign rule: +-1 per column of ``u`` that makes its largest-magnitude entry positive.

    ``u`` is one matrix of left singular vectors or a stack of them; the
    signs have shape ``u.shape[:-2] + u.shape[-1:]``. Scaling a column and
    its right vector by the sign keeps the factorization, and is exact.
    """
    # argmax takes the first of tied maxima; a zero column gets +1.
    peaks = np.take_along_axis(u, np.abs(u).argmax(axis=-2)[..., None, :], axis=-2)
    return np.where(peaks[..., 0, :] < 0.0, -1.0, 1.0)


def svd_with_rank(block: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Full SVD plus the numerical rank at relative tolerance ``eps``.

    Singular-vector signs are normalized by ``vector_signs``, which pins
    down an otherwise arbitrary sign and keeps outputs reproducible.
    """
    u, s, vh = np.linalg.svd(np.atleast_2d(np.asarray(block, dtype=float)), full_matrices=False)
    signs = vector_signs(u)
    u *= signs
    vh *= signs[:, None]
    return u, s, vh, rank_of_singular_values(s, eps)


def balanced_factors(
    u: np.ndarray, s: np.ndarray, vh: np.ndarray, rank: int, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split an SVD as (U sqrt(S), sqrt(S) Vh) truncated to ``rank``.

    Both factors are zero-padded to ``width`` columns/rows, so exactly the
    leading ``rank`` columns of the left factor and rows of the right
    factor are nonzero.
    """
    roots = np.sqrt(s[:rank])
    left = np.zeros((u.shape[0], width))
    right = np.zeros((width, vh.shape[1]))
    left[:, :rank] = u[:, :rank] * roots
    right[:rank, :] = roots[:, None] * vh[:rank, :]
    return left, right


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
    w_pinv: np.ndarray,
) -> np.ndarray:
    """Transition matrix A with w_next @ A = w_trunc, zero-padded exactly.

    ``w_trunc`` is the previous step's row factor with its first row
    dropped; its columns live in the span of ``w_next`` whenever the source
    matrix is semiseparable, so the least-squares solution through the
    pseudo-inverse reproduces it. Entries outside the leading
    r_next x r_cur corner are forced to exact zeros. ``w_pinv`` is the
    pseudo-inverse of ``w_next``, which the caller has from the
    factorization that made ``w_next``.

    The factors may also be stacks of cases along a leading axis, with
    ``r_next`` and ``r_cur`` one entry per case; the transitions come back
    stacked the same way. This only solves: ``extract_sss`` gates the
    residual.
    """
    w_next = np.asarray(w_next, dtype=float)
    w_trunc = np.asarray(w_trunc, dtype=float)
    if w_next.shape != w_trunc.shape:
        raise ShapeMismatchError(
            f"factor shapes {w_next.shape} and {w_trunc.shape} must match"
        )
    if w_pinv.shape != w_next.swapaxes(-2, -1).shape:
        raise ShapeMismatchError(
            f"pseudo-inverse shape {w_pinv.shape} does not fit factor shape {w_next.shape}"
        )
    trans = w_pinv @ w_trunc
    rows = np.arange(trans.shape[-2])[:, None] >= np.asarray(r_next)[..., None, None]
    trans[rows | (np.arange(trans.shape[-1]) >= np.asarray(r_cur)[..., None, None])] = 0.0
    return trans


def _gate(step: int, eps: float, *sides) -> None:
    """Refuse the first case over its gate, in step order; at one step the first side listed.

    Each side is (name, miss, first, second, norm names), its three arrays
    one matrix or stacks of them, case i being step ``step`` + i. A case is
    over its gate when |miss| exceeds eps times the larger of |first| and
    |second| (Frobenius norms).
    """
    checked = [
        (name, _frobenius(miss), eps * np.maximum(_frobenius(first), _frobenius(second)), names)
        for name, miss, first, second, names in sides
    ]
    # Row i is step ``step`` + i and column k side k, so the first hit in row order wins.
    over = np.flatnonzero(np.stack([np.ravel(res > bound) for _, res, bound, _ in checked], -1))
    if over.size:
        i, k = divmod(int(over[0]), len(sides))
        name, residual, bound, names = checked[k]
        raise InconsistentTransitionError(
            f"{name} residual {residual.flat[i]:.3e} at step {step + i} exceeds "
            f"{eps:.1e} * max({names}) = {bound.flat[i]:.3e}"
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

    Each transition is verified on both sides by one ``_gate``: the w-side
    miss W_{t+1} A - W_t[1:] and the u-side miss A U_t - U_{t+1}[:, :t+1],
    each relative to the larger of the trimmed slice and the whole factor
    on the other side. The whole factor keeps the gate at the factors'
    scale where the slice is pure rounding noise, right after a
    diagonal-block cut. The u-side gate refuses a block that keeps a
    direction the previous block did not: one past the width, or one that
    the carry cut below rounding, which happens when the previous block is
    much larger.

    The sweep is read ``_TILE`` steps at a time: each step only copies its
    kept u, s and right vectors into the tile's zero-padded stacks, and
    ``_chain_tile`` then signs, scales and solves the whole tile at once
    and gates it in one call. Refusals come in the order of a step-by-step
    chain: rank, then row factor, then column factor, step by step. A
    matrix whose Frobenius norm overflows is refused before any of them
    (``_check_norm_finite``).
    """
    check_sizes(width=width)
    _check_norm_finite(m)
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
    the sign rule picks the same signs for a slot in either tile holding
    it. Writes each step's c and b rows and transition into ``out`` =
    (r, b, c, A). One solve and one ``_gate`` over both factor sides cover
    the whole tile; the gate raises the first refusal a step-by-step chain
    would raise, before any transition is written.
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
    a_t = solve_transition(w_next, w_trunc, kept[first:hi], kept[first - 1 : hi - 1], w_pinv)
    # U of step t without its last column (b's) is what A_t carries U of step t-1 to.
    u_trim = u_fac[cur].copy()
    u_trim[np.arange(hi - first), :, np.arange(first, hi)] = 0.0
    u_prev = u_fac[prev]
    # The row miss is formed transposed, A' W' - W'': each factor is walked along its long axis.
    row_miss = a_t.swapaxes(-2, -1) @ w_rows[cur, :, :-1] - w_rows[prev, :, 1:]
    _gate(
        first,
        eps,
        ("row-factor", row_miss, w_next, w_trunc, "|W|, |W'|"),
        ("column-factor", a_t @ u_prev - u_trim, u_prev, u_trim, "|U|, |U'|"),
    )
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
