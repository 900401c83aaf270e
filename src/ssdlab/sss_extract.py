"""Constructive extraction of general state-space representations.

Any lower triangular matrix whose lower-left blocks have rank at most N
factors as c_j' A^j ... A^{i+1} b_i with full (not necessarily diagonal)
transition matrices. This module recovers such a representation from the
dense matrix in one sweep over its lower-left blocks (each step factors a
thin matrix, see ``ss_matrix._block_sweep``) whose consecutive factorizations
are chained by transition solves, and materializes representations back
to dense form. Each step's SVD is its only factorization: the transition
solve pseudo-inverts the balanced row factor through that SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lowrank import balanced_factors, svd_with_rank
from .errors import (
    InconsistentTransitionError,
    RankExceedsWidthError,
    ShapeMismatchError,
)
from .ss_matrix import (
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
    ``r[t]`` is the rank of the lower-left block anchored at step t and
    bounds the live corner of the neighbouring transitions.
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
    one SVD. ``extract_sss`` gets the same rank and factors from its sweep.
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
    r_next: int,
    r_cur: int,
    eps: float = DEFAULT_EPS,
    w_pinv: np.ndarray | None = None,
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

    The residual is gated relative to the larger of |w_next| and |w_trunc|.
    A balanced factor carries rounding error of about machine epsilon times
    its norm, which is at least sqrt(sigma_1) of its block, and dropping a
    row keeps that error while the slice's own norm can shrink to it: right
    after a diagonal-block cut ``w_trunc`` is pure rounding noise. The whole
    factor ``w_next`` keeps the gate at the scale of the factors.
    """
    w_next = np.asarray(w_next, dtype=float)
    w_trunc = np.asarray(w_trunc, dtype=float)
    if w_next.shape != w_trunc.shape:
        raise ShapeMismatchError(
            f"factor shapes {w_next.shape} and {w_trunc.shape} must match"
        )
    if w_pinv is None:
        w_pinv = np.linalg.pinv(w_next, rcond=eps)
    elif w_pinv.shape != w_next.shape[::-1]:
        raise ShapeMismatchError(
            f"pseudo-inverse shape {w_pinv.shape} does not fit factor shape {w_next.shape}"
        )
    trans = w_pinv @ w_trunc
    trans[r_next:, :] = 0.0
    trans[:, r_cur:] = 0.0
    scale = max(float(np.linalg.norm(w_next)), float(np.linalg.norm(w_trunc)))
    residual = float(np.linalg.norm(w_next @ trans - w_trunc))
    if residual > eps * scale:
        raise InconsistentTransitionError(
            f"row-factor residual {residual:.3e} exceeds "
            f"{eps:.1e} * max(|W|, |W'|) = {eps * scale:.3e}"
        )
    return trans


def extract_sss(
    m: LowerTriangularMatrix, width: int, eps: float = DEFAULT_EPS
) -> GeneralSssRepresentation:
    """Recover a width-``width`` representation of a semiseparable matrix.

    One ``_block_sweep`` factors every lower-left block balanced as W U;
    the weights are read off the factor edges (c from W's first row, b
    from U's last column), and consecutive factorizations are chained by
    transition solves. W = u_r sqrt(S_r) has orthogonal columns, so its
    pseudo-inverse is exactly S_r^(-1/2) u_r' (zero rows past the rank),
    which ``solve_transition`` gets instead of a second factorization: the
    rank rule keeps only sqrt(s_i) above sqrt(eps) * sqrt(s_1), far above
    the eps cutoff ``np.linalg.pinv`` would apply.

    Each transition is verified on both sides: w-side by construction
    inside ``solve_transition``, u-side against the next step's column
    factor. The u-side gate refuses a block that keeps a direction the
    previous block's rank threshold dropped, which happens when the
    previous block is much larger. Like the w-side gate, it is relative to
    the larger of the trimmed slice (of step t+1) and the whole factor (U
    of step t).
    """
    _check_width(width)
    steps = m.T
    ranks = []
    b_rows = np.zeros((steps, width))
    c_rows = np.zeros((steps, width))
    trans = np.zeros((steps, width, width))
    trans[0] = np.eye(width)
    for t, (*_, u, s, vh, rank) in enumerate(_block_sweep(m.values, eps)):
        _check_rank(t, rank, width)
        w_fac, u_fac = balanced_factors(u, s, vh, rank, width)
        c_rows[t] = w_fac[0, :]
        b_rows[t] = u_fac[:, -1]
        if t > 0:
            w_pinv = np.zeros((width, len(u)))
            w_pinv[:rank] = u[:, :rank].T / np.sqrt(s[:rank])[:, None]
            a_t = solve_transition(w_fac, w_prev[1:, :], rank, ranks[-1], eps, w_pinv)
            u_trim = u_fac[:, :t]
            scale = max(float(np.linalg.norm(u_prev)), float(np.linalg.norm(u_trim)))
            residual = float(np.linalg.norm(a_t @ u_prev - u_trim))
            if residual > eps * scale:
                raise InconsistentTransitionError(
                    f"column-factor residual {residual:.3e} at step {t} exceeds "
                    f"{eps:.1e} * max(|U|, |U'|) = {eps * scale:.3e}"
                )
            trans[t] = a_t
        ranks.append(rank)
        w_prev, u_prev = w_fac, u_fac
    return GeneralSssRepresentation(trans, b_rows, c_rows, tuple(ranks))


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
