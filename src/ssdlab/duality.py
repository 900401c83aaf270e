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
    _check_width,
    _new_column_sweep,
    _segment_product_apply,
    _segment_product_kernel,
    _segment_product_panels,
    diagonal_block_partition,
    json_record,
    one_ss,  # noqa: F401 -- perfbench/spans.py times duality.one_ss
    rel_err,
)
from .ssm import DiagonalSsm, materialize_kernel

#: Largest allowed max/min magnitude ratio of cumulative gain products
#: before the full-rank rescaling is refused as numerically unstable.
STABILITY_RATIO = 1e12


@dataclass(frozen=True)
class RankOneMaskedTerm:
    """One mode's slice of a diagonal model: gains plus weight vectors."""

    mode: int
    a: np.ndarray
    c: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        arrays = {}
        for name in ("a", "c", "b"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ShapeMismatchError(f"{name} must be 1-D, got shape {arr.shape}")
            arrays[name] = arr
        if not (arrays["a"].shape == arrays["c"].shape == arrays["b"].shape):
            raise ShapeMismatchError("a, c, b must share one length")
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def T(self) -> int:
        return self.a.shape[0]


@json_record({"p": "p", "Q": "Q", "K": "K"})
@dataclass(frozen=True)
class MaskedAttentionFactors:
    """A 1SS mask vector plus query/key factors realizing mask * (Q K^T)."""

    p: np.ndarray
    Q: np.ndarray
    K: np.ndarray

    def __post_init__(self) -> None:
        p = np.array(self.p, dtype=float)
        q = np.array(self.Q, dtype=float)
        k = np.array(self.K, dtype=float)
        if p.ndim != 1 or q.ndim != 2 or k.ndim != 2:
            raise ShapeMismatchError("p must be 1-D; Q and K must be 2-D")
        if q.shape != k.shape or q.shape[0] != p.shape[0]:
            raise ShapeMismatchError(
                f"inconsistent factor shapes: p {p.shape}, Q {q.shape}, K {k.shape}"
            )
        for name, arr in (("p", p), ("Q", q), ("K", k)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def T(self) -> int:
        return self.p.shape[0]

    @property
    def N(self) -> int:
        return self.Q.shape[1]

    def materialize(self) -> LowerTriangularMatrix:
        """Dense value of mask * (Q K^T); the upper triangle of Q K^T is never formed."""
        return _segment_product_kernel(self.p[:, None], self.Q, self.K)


def scalar_identity_dual(ssm: DiagonalSsm) -> MaskedAttentionFactors:
    """Masked-attention factors of a scalar-identity model.

    Requires every step's diagonal entries to be exactly equal across
    modes. The shared scalars become the mask gains, the output weights
    become Q and the input weights become K; the materialized factors
    equal the kernel exactly in exact arithmetic.
    """
    if not ssm.is_scalar_identity():
        bad = int(np.argmax(np.any(ssm.a_diag != ssm.a_diag[:, :1], axis=1)))
        raise NotScalarIdentityError(
            f"diagonal entries differ across modes at step {bad}"
        )
    return MaskedAttentionFactors(ssm.a_diag[:, 0], ssm.c, ssm.b)


def attention_like_decomposition(ssm: DiagonalSsm) -> list[RankOneMaskedTerm]:
    """Per-mode rank-one masked terms; their materializations sum to the kernel."""
    return [RankOneMaskedTerm(n, ssm.a_diag[:, n], ssm.c[:, n], ssm.b[:, n]) for n in range(ssm.N)]


def materialize_term(term: RankOneMaskedTerm) -> LowerTriangularMatrix:
    """Dense value of one mode, 1SS(a) * (c b^T): a width-1 masked-attention product."""
    return MaskedAttentionFactors(term.a, term.c[:, None], term.b[:, None]).materialize()


def full_rank_one_ss_dual(ssm: DiagonalSsm) -> MaskedAttentionFactors:
    """All-ones-mask factors for a model whose gains are all nonzero.

    Rescales by cumulative gain products P: Q[t, n] = c[t, n] * P[t, n] and
    K[s, n] = b[s, n] / P[s, n], so Q K^T reproduces the kernel under the
    trivial causal mask. Refused when a gain is zero or when the products
    span more than STABILITY_RATIO in magnitude, since the rescaling then
    loses too much precision in floating point.
    """
    if np.any(ssm.a_diag[1:] == 0.0):
        step, mode = np.argwhere(ssm.a_diag[1:] == 0.0)[0] + np.array([1, 0])
        raise ZeroGainError(f"gain is zero at step {step}, mode {mode}")
    prods = np.cumprod(ssm.a_diag, axis=0)
    mags = np.abs(prods)
    if mags.max() > STABILITY_RATIO * mags.min():
        raise UnstableScalingError(
            f"cumulative products span a magnitude ratio of {mags.max() / mags.min():.3e}, "
            f"above the {STABILITY_RATIO:.0e} guard"
        )
    return MaskedAttentionFactors(np.ones(ssm.T), ssm.c * prods, ssm.b / prods)


def masked_attention_forward(factors: MaskedAttentionFactors, x: np.ndarray) -> np.ndarray:
    """Apply mask * (Q K^T) to an input sequence, one row panel at a time; O(T^2 (N+d))."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != factors.T:
        raise ShapeMismatchError(
            f"input of shape {x.shape} does not match factors with T={factors.T}"
        )
    return _segment_product_apply(factors.p[:, None], factors.Q, factors.K, x)


def count_block_new_columns(
    m: LowerTriangularMatrix, eps: float = DEFAULT_EPS
) -> list[BlockNewColumns]:
    """Partition into diagonal blocks and count new columns inside each."""
    return _new_column_sweep(m, diagonal_block_partition(m, eps), eps)


def _within_width(blocks, width: int) -> bool:
    """Whether every block has at most ``width`` new columns; ``width`` must be positive."""
    _check_width(width)
    return all(b.new_columns <= width for b in blocks)


def has_one_ss_dual(m: LowerTriangularMatrix, width: int, eps: float = DEFAULT_EPS) -> bool:
    """Whether a width-``width`` masked-attention representation exists.

    True exactly when every diagonal block of the finest partition has at
    most ``width`` new columns.
    """
    return _within_width(count_block_new_columns(m, eps), width)


def representability_report(
    m: LowerTriangularMatrix, width: int, eps: float = DEFAULT_EPS
) -> dict:
    """JSON-ready block/new-column report used by the CLI.

    When representable, it also carries the ``construct_one_ss_dual`` factors, built from
    the same sweep, and their relative residual; it may raise ``ReconstructionError`` or
    ``UnstableScalingError``.
    """
    _check_width(width)
    blocks = count_block_new_columns(m, eps)
    report = {
        "blocks": [
            {"start": b.start, "end": b.end, "new_columns": b.new_columns} for b in blocks
        ],
        "representable": _within_width(blocks, width),
    }
    if report["representable"]:
        factors, back = _construct(m, blocks, width, eps)
        report["reconstruction_rel_residual"] = rel_err(back, m.values)
        report["factors"] = factors.to_dict()
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

    Before re-materializing, the construction sums its error budget against
    eps times |M|: the mass of M outside the diagonal blocks, the refined
    fits' residuals in quadrature, and a rounding bound of
    width * unit roundoff * |tril(|Q| |K|^T)|. When the budget exceeds the
    gate, or a coefficient is not finite, it raises ``UnstableScalingError``
    naming the largest term. ``ReconstructionError`` is the last check.
    """
    return _construct(m, count_block_new_columns(m, eps), width, eps)[0]


def _block_factors(block: np.ndarray, b: BlockNewColumns) -> tuple[np.ndarray, np.ndarray, float]:
    """Q and K of one block, and the norm of its refined fits' residuals."""
    q = block[:, list(b.new)]
    k = np.zeros(q.shape)
    cols = block.T.copy()  # cols[t, t:] is column t on and below the diagonal
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
            basis, col = q[t:, :live], cols[t, t:]
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
    """``construct_one_ss_dual`` from the sweep ``blocks`` of ``m``, plus its materialization."""
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
    gate = eps * float(np.linalg.norm(vals))
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
    back = factors.materialize().values
    residual = float(np.linalg.norm(back - vals))
    if residual > gate:
        raise ReconstructionError(
            f"re-materialization residual {residual:.3e} exceeds "
            f"{eps:.1e} * |M| = {gate:.3e}"
        )
    return factors, back


def kernel_residual(ssm: DiagonalSsm, factors: MaskedAttentionFactors) -> float:
    """Relative Frobenius distance between the kernel and the factors' value."""
    kernel = materialize_kernel(ssm).values
    value = factors.materialize().values
    denom = float(np.linalg.norm(kernel))
    if denom == 0.0:
        return float(np.linalg.norm(value))
    return float(np.linalg.norm(value - kernel) / denom)
