"""Duality constructions and decision procedures.

Turns diagonal state-space models into masked-attention factors (and
back), and decides when an arbitrary lower triangular kernel admits a
1-semiseparable masked-attention representation at a given width.

Orientation convention used everywhere: the kernel entry at (t, s) is
``c_t . (gain products) . b_s``, so output weights sit on the query side
(Q) and input weights on the key side (K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NotRepresentableError,
    NotScalarIdentityError,
    ReconstructionError,
    ShapeMismatchError,
    UnstableScalingError,
    ZeroGainError,
)
from .ss_matrix import (
    DEFAULT_EPS,
    BlockNewColumns,
    LowerTriangularMatrix,
    _assemble,
    _float_array,
    _freeze_fields,
    _new_column_sweep,
    _segment_product_panels,
    check_sizes,
    diagonal_block_partition,
    json_record,
)
from .ssm import DiagonalSsm, materialize_kernel  # noqa: F401 -- perfbench/spans.py times it


@json_record({"p": "p", "Q": "Q", "K": "K"})
@dataclass(frozen=True)
class MaskedAttentionFactors:
    """A 1SS mask vector plus query/key factors realizing mask * (Q K^T).

    It is also the scalar-identity SSM h_t = p_t h_{t-1} + K_t^T x_t, y_t = Q_t h_t, run by
    the O(T) paths; p[0] multiplies only the zero start state. A model's dual has the model's
    state over the ratio products, which can overflow where ``forward_materialized`` is accurate.
    """

    p: np.ndarray
    Q: np.ndarray
    K: np.ndarray

    def __post_init__(self) -> None:
        _freeze_fields(self, p=1, Q=2, K=2)
        if self.Q.shape != self.K.shape or self.Q.shape[0] != self.p.shape[0]:
            raise ShapeMismatchError(
                f"inconsistent factor shapes: p {self.p.shape}, Q {self.Q.shape}, K {self.K.shape}"
            )

    @property
    def T(self) -> int:
        return self.p.shape[0]

    @property
    def N(self) -> int:
        return self.Q.shape[1]

    def _diagonal(self):
        """The (gains, in, out) triple that ``ssm._chunks`` runs: p as a (T, 1) column, K and Q."""
        return self.p[:, None], self.K, self.Q

    def _panels(self):
        """Row panels of mask * (Q K^T); the upper triangle of Q K^T is never formed."""
        return _segment_product_panels(self.p[:, None], self.Q, self.K)

    def materialize(self) -> LowerTriangularMatrix:
        """Dense value of mask * (Q K^T), assembled from ``_panels``."""
        return _assemble(self.T, self._panels())


def one_ss(gains) -> LowerTriangularMatrix:
    """Cumulative-product lower triangle of a gain vector: the width-1 factors with unit Q and K.

    Entry (t, s) for t >= s is the product p[s+1] * ... * p[t], the empty
    product on the diagonal being 1. p[0] is never read.
    """
    p = _float_array(gains, "p")
    ones = np.ones((p.size, 1))
    return MaskedAttentionFactors(p, ones, ones).materialize()


def scalar_identity_dual(ssm: DiagonalSsm) -> MaskedAttentionFactors:
    """Masked-attention factors of a scalar-identity model.

    Requires every step's diagonal entries to be exactly equal across modes.
    ``full_rank_one_ss_dual``'s ratio products are then exactly 1, so the
    shared scalars are the mask gains, Q is c and K is b, bit for bit.
    """
    if not ssm.is_scalar_identity():
        bad = int(np.argmax(np.any(ssm.a_diag != ssm.a_diag[:, :1], axis=1)))
        raise NotScalarIdentityError(f"diagonal entries differ across modes at step {bad}")
    return full_rank_one_ss_dual(ssm)


def attention_like_decomposition(ssm: DiagonalSsm) -> list[MaskedAttentionFactors]:
    """Per-mode width-1 masked-attention factors; their materializations sum to the kernel.

    Term n is 1SS(a[:, n]) * (c[:, n] b[:, n]^T). For a scalar-identity model the
    terms stacked side by side are ``scalar_identity_dual``.
    """
    return [
        MaskedAttentionFactors(ssm.a_diag[:, n], ssm.c[:, n : n + 1], ssm.b[:, n : n + 1])
        for n in range(ssm.N)
    ]


def full_rank_one_ss_dual(ssm: DiagonalSsm) -> MaskedAttentionFactors:
    """Masked-attention factors of any diagonal model: mode 0's gains mask the ratio products.

    The mask is p = a[:, 0], Q = c * R and K = b / R, where R[t] is the product
    of a[u] / p[u] over the steps u of t's run after its first. A run starts at
    step 0 and at each step whose gains are all zero (p is 0 there and cuts the
    mask). Refused with ``ZeroGainError`` at a step where only some gains are
    zero, and with ``UnstableScalingError`` where R, 1/R, Q or K is not finite.
    """
    a = ssm.a_diag
    zero = a == 0.0
    partial = zero.any(axis=1) & ~zero.all(axis=1)
    if partial.any():
        step = int(np.argmax(partial))
        raise ZeroGainError(f"gain is zero at step {step}, mode {int(np.argmax(zero[step]))}")
    starts = [0, *np.flatnonzero(zero[:, 0]), ssm.T]
    r = np.ones(a.shape)
    with np.errstate(all="ignore"):  # non-finite entries are refused below
        for lo, hi in zip(starts, starts[1:]):
            np.cumprod(a[lo + 1 : hi] / a[lo + 1 : hi, :1], axis=0, out=r[lo + 1 : hi])
        q, k = ssm.c * r, ssm.b / r
        finite = (np.isfinite(q) & np.isfinite(k) & np.isfinite(1.0 / r)).all(axis=1)
    if not finite.all():
        step = int(np.argmin(finite))
        raise UnstableScalingError(f"ratio products leave the finite range at step {step}")
    return MaskedAttentionFactors(a[:, 0], q, k)


def count_block_new_columns(
    m: LowerTriangularMatrix, eps: float = DEFAULT_EPS
) -> list[BlockNewColumns]:
    """Partition into diagonal blocks and count new columns inside each."""
    return _new_column_sweep(m, diagonal_block_partition(m, eps), eps)


def _within_width(blocks, width: int) -> bool:
    """Whether every block has at most ``width`` new columns; ``width`` must be positive."""
    check_sizes(width=width)
    return all(b.new_columns <= width for b in blocks)


def representability_report(
    m: LowerTriangularMatrix, width: int, eps: float = DEFAULT_EPS
) -> dict:
    """Block/new-column report used by the CLI, ready for ``ss_matrix.json_dumps``.

    When representable, it also carries the ``construct_one_ss_dual`` factors (their
    ``json_fields``, arrays as arrays), built from the same sweep, and their relative
    residual ``kernel_residual(m, factors)``, summed a panel at a time; it may raise
    ``ReconstructionError`` or ``UnstableScalingError``.
    """
    check_sizes(width=width)
    blocks = count_block_new_columns(m, eps)
    report = {
        "blocks": [
            {"start": b.start, "end": b.end, "new_columns": b.new_columns} for b in blocks
        ],
        "representable": _within_width(blocks, width),
    }
    if report["representable"]:
        factors, report["reconstruction_rel_residual"] = _construct(m, blocks, width, eps)
        report["factors"] = factors.json_fields()
    return report


def construct_one_ss_dual(
    m: LowerTriangularMatrix, width: int, eps: float = DEFAULT_EPS
) -> MaskedAttentionFactors:
    """Build masked-attention factors for a representable kernel.

    The mask carries a zero at every block start and ones elsewhere. Within
    a diagonal block B, Q holds the new columns of B themselves, exactly zero
    above their diagonals, and K the coefficients C of every column of B in
    that basis, so that tril(Q C^T) = B. A new column's row of C is a unit
    vector and a zero column's row is zero. A spanned column t composes its
    sweep coefficients through the rows of the earlier columns, then refines
    the result once by a thin least-squares fit of its miss on B[t:, t]
    against the at most ``width`` new columns before t. Nothing fills the
    upper triangle and nothing factors the block, so the cost is O(T^2 width).

    Before comparing the factors with M, the construction sums its error
    budget against eps times |M|: the mass of M outside the diagonal blocks,
    the refined fits' residuals in quadrature, and a rounding bound of
    width * unit roundoff * |tril(|Q| |K|^T)|. When the budget exceeds the
    gate, or a coefficient is not finite, it raises ``UnstableScalingError``
    naming the largest term. ``ReconstructionError`` is the last check:
    ``kernel_residual(m, factors)``, over both panel streams with no T x T
    rebuild, must not exceed eps.
    """
    return _construct(m, count_block_new_columns(m, eps), width, eps)[0]


def _block_factors(block: np.ndarray, b: BlockNewColumns) -> tuple[np.ndarray, np.ndarray, float]:
    """Q and K of one block, and the norm of its refined fits' residuals."""
    q = block[:, list(b.new)]
    k = np.zeros(q.shape)
    misses = []
    live = 0  # new columns before t
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows are refused below
        for t, (is_new, coeffs) in enumerate(zip(b.new, b.coeffs)):
            if is_new:
                k[t, live] = 1.0
                live += 1
                continue
            if coeffs is None:  # a zero column
                continue
            basis, col = q[t:, :live], block[t:, t]
            row = coeffs @ k[:t, :live]
            miss = col - basis @ row
            if not (np.isfinite(row).all() and np.isfinite(miss).all()):
                raise UnstableScalingError(
                    f"error budget term finiteness fails: the coefficients of block "
                    f"[{b.start}, {b.end}) overflow first at column {b.start + t}"
                )
            if live:
                row += np.linalg.lstsq(basis, miss, rcond=None)[0]
                miss = col - basis @ row
            k[t, :live] = row
            misses.append(float(np.linalg.norm(miss)))
    return q, k, math.hypot(*misses)


def _rounding_bound(p: np.ndarray, q: np.ndarray, k: np.ndarray) -> float:
    """width * unit roundoff * |mask * tril(|Q| |K|^T)|, the walk's rounding bound.

    The walk runs on |Q| and |K| scaled to unit maxima, so it cannot overflow.
    """
    q_max, k_max = float(np.abs(q).max()), float(np.abs(k).max())
    if q_max == 0.0 or k_max == 0.0:
        return 0.0
    square = 0.0
    for _, _, panel in _segment_product_panels(p[:, None], np.abs(q) / q_max, np.abs(k) / k_max):
        square += float(np.vdot(panel, panel))
    return q.shape[1] * np.finfo(float).eps / 2 * q_max * k_max * np.sqrt(square)


def _construct(m: LowerTriangularMatrix, blocks, width: int, eps: float) -> tuple:
    """``construct_one_ss_dual`` from the sweep ``blocks`` of ``m``, and its ``kernel_residual``."""
    if not _within_width(blocks, width):
        raise NotRepresentableError(
            f"matrix has a diagonal block with more than {width} new columns"
        )
    vals = m.values
    p = np.ones(m.T)
    q = np.zeros((m.T, width))
    k = np.zeros((m.T, width))
    dropped = misses = 0.0
    for b in blocks:
        block = vals[b.start : b.end, b.start : b.end]
        q_block, k_block, block_misses = _block_factors(block, b)
        p[b.start] = 0.0
        q[b.start : b.end, : q_block.shape[1]] = q_block
        k[b.start : b.end, : k_block.shape[1]] = k_block
        dropped = np.hypot(dropped, np.linalg.norm(vals[b.start : b.end, : b.start]))
        misses = np.hypot(misses, block_misses)
    norm = float(np.linalg.norm(vals))
    gate = eps * norm
    budget = {
        "dropped mass": float(dropped),
        "fit residuals": float(misses),
        "rounding": _rounding_bound(p, q, k),
    }
    if np.hypot(budget["dropped mass"], budget["fit residuals"]) + budget["rounding"] > gate:
        name = max(budget, key=budget.get)
        terms = ", ".join(f"{key} {value:.3e}" for key, value in budget.items())
        raise UnstableScalingError(
            f"error budget term {name} dominates: {terms} sum past "
            f"{eps:.1e} * |M| = {gate:.3e}"
        )
    factors = MaskedAttentionFactors(p, q, k)
    residual = kernel_residual(m, factors)
    if residual > eps:
        raise ReconstructionError(
            f"re-materialization residual {residual * norm:.3e} exceeds "
            f"{eps:.1e} * |M| = {gate:.3e}"
        )
    return factors, residual


def kernel_residual(kernel, other) -> float:
    """Relative Frobenius distance |other - kernel| / |kernel|; |other| for a zero ``kernel``.

    The one comparison of two kernels: each is a realization record or a
    ``LowerTriangularMatrix``, and ``kernel``, the input, is the reference.
    The two ``_panels()`` streams are walked side by side and their squared
    differences summed a panel at a time, so no T x T array is held. Another
    step count raises ``ShapeMismatchError``, a panel that overflows ``ValueError``.
    """
    if other.T != kernel.T:
        raise ShapeMismatchError(f"the other kernel has {other.T} steps, the reference {kernel.T}")
    square = miss = 0.0
    for (_, _, reference), (_, _, value) in zip(kernel._panels(), other._panels()):
        square += float(np.vdot(reference, reference))
        value = value - reference
        miss += float(np.vdot(value, value))
    return math.sqrt(miss) / math.sqrt(square) if square else math.sqrt(miss)
