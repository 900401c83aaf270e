"""Deterministic truncated singular-value factorizations (internal)."""

from __future__ import annotations

import numpy as np


def svd_with_rank(block: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Full SVD plus the numerical rank at relative tolerance ``eps``.

    Singular-vector signs are normalized so each left vector's
    largest-magnitude entry is positive, which pins down an otherwise
    arbitrary sign and keeps outputs reproducible.
    """
    u, s, vh = signed_svd(np.atleast_2d(np.asarray(block, dtype=float)))
    return u, s, vh, rank_of_singular_values(s, eps)


def signed_svd(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD of a 2-D float array, signs normalized as in ``svd_with_rank``."""
    u, s, vh = np.linalg.svd(block, full_matrices=False)
    # argmax takes the first of tied maxima, and multiplying by -1 or 1 is exact.
    peaks = u[np.abs(u.T).argmax(axis=1), np.arange(u.shape[1])]
    signs = np.where(peaks < 0.0, -1.0, 1.0)
    u *= signs
    vh *= signs[:, None]
    return u, s, vh


def rank_of_singular_values(s: np.ndarray, eps: float) -> int:
    """Count singular values (descending) above ``eps`` times the largest one.

    The rank is 0 when there are none or the largest is not positive.
    """
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > eps * s[0]))


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
