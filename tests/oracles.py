"""Brute-force and definitional oracles that the tests check the library against."""

from __future__ import annotations

import numpy as np

from ssdlab._lowrank import rank_of_singular_values
from ssdlab.errors import SizeExceededError
from ssdlab.ss_matrix import DEFAULT_EPS, LowerTriangularMatrix, MaskVector

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
