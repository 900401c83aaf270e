"""Brute-force and definitional oracles that the tests check the library against."""

from __future__ import annotations

import numpy as np

from ssdlab._lowrank import balanced_factors, rank_of_singular_values, vector_signs
from ssdlab.errors import InconsistentTransitionError, SizeExceededError
from ssdlab.ss_matrix import (
    DEFAULT_EPS,
    LowerTriangularMatrix,
    MaskVector,
    _block_sweep,
    _check_width,
)
from ssdlab.sss_extract import GeneralSssRepresentation, _check_rank, solve_transition

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


def is_fine_mask(mask: MaskVector) -> bool:
    """True when every gain that the 1SS operator reads is nonzero.

    Entry 0 never appears in any mask entry, so fineness is decided on
    a[1:] only.
    """
    return bool(np.all(mask.a[1:] != 0.0))


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

    Each step splits its factors, solves its transition and gates its
    column factor on its own: the chain ``extract_sss`` runs a tile at a
    time, one step at a time.
    """
    _check_width(width)
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
            a_t = solve_transition(w_fac, w_prev[1:, :], r, kept[-1], eps, w_pinv, t)
            u_trim = u_fac[:, :t]
            scale = max(float(np.linalg.norm(u_prev)), float(np.linalg.norm(u_trim)))
            residual = float(np.linalg.norm(a_t @ u_prev - u_trim))
            if residual > eps * scale:
                raise InconsistentTransitionError(
                    f"column-factor residual {residual:.3e} at step {t} exceeds "
                    f"{eps:.1e} * max(|U|, |U'|) = {eps * scale:.3e}"
                )
            trans[t] = a_t
        kept.append(r)
        w_prev, u_prev = w_fac, u_fac
    return GeneralSssRepresentation(trans, b_rows, c_rows, tuple(kept))
