"""Executable impossibility demonstrations.

Two effects kill the recurrence/attention duality: row-wise softmax blows
a rank-1 score matrix up to full rank, and a two-mode recurrence kernel
can fail to admit any width-limited masked-attention factorization.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SizeExceededError
from .duality import _within_width, count_block_new_columns, kernel_residual
from .sss_extract import extract_sss
from .ss_matrix import LowerTriangularMatrix, json_record, semiseparable_rank

#: Softmax rank checks become meaningless in double precision beyond this size.
SOFTMAX_MAX_T = 8

#: Agreement demanded between direct and log-space determinant magnitudes.
LOG_AGREEMENT_RTOL = 1e-6

#: Round-trip fidelity demanded from the width-2 extraction witness.
EXTRACT_ROUNDTRIP_RTOL = 1e-8


@json_record(
    {
        "name": "name",
        "T": "T",
        "claim": "claim",
        "measurements": "measurements",
        "verdict": "verdict",
        "applicable": "applicable",
    }
)
@dataclass(frozen=True)
class CounterexampleReport:
    """Measured quantities and verdict for one demonstration.

    ``verdict`` is True exactly when every measured quantity satisfies its
    stated threshold; ``applicable`` is False when the requested sizes sit
    outside the regime the argument covers.
    """

    name: str
    T: int
    claim: str
    measurements: dict = field(default_factory=dict)
    verdict: bool = False
    applicable: bool = True


def _integer_rank_one(v: np.ndarray) -> bool:
    """Exact rank-1 test for an integer matrix: nonzero with all 2x2 minors zero."""
    ints = v.astype(np.int64)
    if not np.any(ints):
        return False
    n_rows, n_cols = ints.shape
    for i1, i2 in itertools.combinations(range(n_rows), 2):
        for j1, j2 in itertools.combinations(range(n_cols), 2):
            if ints[i1, j1] * ints[i2, j2] - ints[i1, j2] * ints[i2, j1] != 0:
                return False
    return True


def _logsumexp(values: np.ndarray) -> float:
    """log(sum(exp(values))), shifted by the maximum so that no term overflows."""
    top = float(np.max(values))
    return top + math.log(float(np.sum(np.exp(values - top))))


def _log_vandermonde_det(size: int) -> float:
    """log |det softmax(V)| via the scaled node-product identity, in log space.

    With nodes x_i = e^i the score matrix has entries x_i^j, whose
    determinant is (prod_i x_i) * prod_{i<j} (x_j - x_i); dividing by the
    row normalizers Z_i gives

        log|det| = sum_i i + sum_{i<j} (j + log1p(-e^{i-j})) - sum_i log Z_i.

    Every term stays O(size^2), so the value is immune to the underflow
    that defeats the dense determinant at larger sizes.
    """
    idx = np.arange(1, size + 1)
    node_product = float(idx.sum())
    pair_sum = sum(
        j + math.log1p(-math.exp(i - j))
        for i, j in itertools.combinations(range(1, size + 1), 2)
    )
    log_normalizers = sum(_logsumexp(i * idx) for i in idx)
    return node_product + pair_sum - log_normalizers


def _all_square_submatrices_full_rank(s: np.ndarray) -> bool:
    """Every contiguous square submatrix is numerically full rank."""
    n = s.shape[0]
    for k in range(1, n + 1):
        for r in range(n - k + 1):
            for c in range(n - k + 1):
                if np.linalg.matrix_rank(s[r : r + k, c : c + k]) < k:
                    return False
    return True


def softmax_counterexample(size: int) -> CounterexampleReport:
    """Rank explosion of row-wise softmax on the products matrix V[i, j] = i*j.

    V is exactly rank 1 (checked with integer minors); softmax(V) is full
    rank, checked two ways: the numerical rank at the machine-level
    threshold, and the analytic log-determinant, which must agree with the
    dense evaluation to LOG_AGREEMENT_RTOL in relative log-magnitude. The
    contiguous-submatrix sweep is only run up to size 5; beyond that the
    claim is exact-arithmetic and left unasserted.
    """
    if not 2 <= size <= SOFTMAX_MAX_T:
        raise SizeExceededError(f"softmax demonstration limited to 2 <= T <= {SOFTMAX_MAX_T}")
    idx = np.arange(1, size + 1, dtype=float)
    v = np.outer(idx, idx)
    rank_one = _integer_rank_one(v)

    shifted = v - v.max(axis=1, keepdims=True)
    weights = np.exp(shifted)
    soft = weights / weights.sum(axis=1, keepdims=True)
    row_sum_err = float(np.max(np.abs(soft.sum(axis=1) - 1.0)))

    numeric_rank = int(np.linalg.matrix_rank(soft))
    sign, logdet_direct = np.linalg.slogdet(soft)
    logdet_analytic = _log_vandermonde_det(size)
    log_rel_err = abs(logdet_direct - logdet_analytic) / max(abs(logdet_analytic), 1e-300)

    measurements = {
        "rank_V_exact_one": rank_one,
        "softmax_numeric_rank": numeric_rank,
        "row_sum_max_abs_err": row_sum_err,
        "logdet_direct": float(logdet_direct),
        "logdet_direct_sign": float(sign),
        "logdet_analytic": logdet_analytic,
        "logdet_rel_err": float(log_rel_err),
    }
    checks = [
        rank_one,
        numeric_rank == size,
        sign != 0.0,
        math.isfinite(logdet_direct) and math.isfinite(logdet_analytic),
        log_rel_err <= LOG_AGREEMENT_RTOL,
    ]
    if size <= 5:
        sub_full = _all_square_submatrices_full_rank(soft)
        measurements["all_square_submatrices_full_rank"] = sub_full
        checks.append(sub_full)
    return CounterexampleReport(
        name="softmax-rank-explosion",
        T=size,
        claim="rank-1 scores become full rank under row-wise softmax",
        measurements=measurements,
        verdict=all(checks),
    )


def non_dualizable_matrix(size: int) -> LowerTriangularMatrix:
    """Identity plus a unit entry in the lower-left corner."""
    if size < 3:
        raise ValueError(f"need T >= 3, got {size}")
    vals = np.eye(size)
    vals[size - 1, 0] = 1.0
    return LowerTriangularMatrix(vals)


def verify_non_dualizable(size: int, width: int) -> CounterexampleReport:
    """A width-2 recurrence kernel with no width-``width`` attention dual.

    The corner entry welds all rows into a single diagonal block with T-1
    new columns, so no factorization of width < T-1 exists, even though
    the matrix is 2-semiseparable (``semiseparable_rank``) and a width-2
    recurrence realizes it (witnessed by a successful extraction round
    trip). Applicable only for T >= width + 2; smaller T leaves enough
    new-column room for a dual.
    """
    m = non_dualizable_matrix(size)
    applicable = size >= width + 2
    rep = extract_sss(m, 2)
    ss_rank = semiseparable_rank(m)
    blocks = count_block_new_columns(m)
    dual_exists = _within_width(blocks, width)
    roundtrip = kernel_residual(m, rep)
    measurements = {
        "semiseparable_rank": ss_rank,
        "width": width,
        "has_attention_dual": dual_exists,
        "block_new_column_counts": [b.new_columns for b in blocks],
        "extraction_roundtrip_rel_err": roundtrip,
    }
    verdict = (
        applicable
        and not dual_exists
        and ss_rank == 2
        and roundtrip <= EXTRACT_ROUNDTRIP_RTOL
    )
    return CounterexampleReport(
        name="low-width-recurrence-without-dual",
        T=size,
        claim=f"kernel of a width-2 recurrence admits no width-{width} masked-attention dual",
        measurements=measurements,
        verdict=verdict,
        applicable=applicable,
    )
