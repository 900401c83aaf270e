"""Deterministic truncated singular-value factorizations (internal)."""

from __future__ import annotations

import numpy as np


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


def vector_signs(u: np.ndarray) -> np.ndarray:
    """The sign rule: +-1 per column of ``u`` that makes its largest-magnitude entry positive.

    ``u`` is one matrix of left singular vectors or a stack of them; the
    signs have shape ``u.shape[:-2] + u.shape[-1:]``. Scaling a column and
    its right vector by the sign keeps the factorization, and is exact.
    """
    # argmax takes the first of tied maxima; a zero column gets +1.
    peaks = np.take_along_axis(u, np.abs(u).argmax(axis=-2)[..., None, :], axis=-2)
    return np.where(peaks[..., 0, :] < 0.0, -1.0, 1.0)


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
