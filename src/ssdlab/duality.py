"""Duality constructions and decision procedures.

Turns diagonal state-space models into masked-attention factors (and
back), and decides when an arbitrary lower triangular kernel admits a
1-semiseparable masked-attention representation at a given width.

Orientation convention used everywhere: the kernel entry at (t, s) is
``c_t . (gain products) . b_s``, so output weights sit on the query side
(Q) and input weights on the key side (K).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lowrank import balanced_factors, svd_with_rank
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
    MaskVector,
    _check_width,
    _new_column_sweep,
    diagonal_block_partition,
    json_record,
    one_ss,
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
        """Dense value of mask * (Q K^T); exact zeros above the diagonal."""
        mask = one_ss(MaskVector(self.p)).values
        return LowerTriangularMatrix._adopt(mask * (self.Q @ self.K.T))


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
    """Apply mask * (Q K^T) to an input sequence; dense O(T^2 (N+d)) path."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != factors.T:
        raise ShapeMismatchError(
            f"input of shape {x.shape} does not match factors with T={factors.T}"
        )
    return factors.materialize().values @ x


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
    the same sweep, and their relative residual; it may raise ``ReconstructionError``.
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

    Within each diagonal block, the strictly-upper entries are filled in
    column by column: a column that is not new gets the combination of the
    already-filled earlier columns given by its least-squares coefficients
    on the rows below the diagonal, while new columns keep zeros above.
    The filled block then has rank at most ``width`` and is factored by a
    truncated singular-value split, padded with zero columns when fewer
    directions are needed. The mask carries a zero at every block start
    and ones elsewhere.
    """
    return _construct(m, count_block_new_columns(m, eps), width, eps)[0]


def _construct(m: LowerTriangularMatrix, blocks, width: int, eps: float) -> tuple:
    """``construct_one_ss_dual`` from the sweep ``blocks`` of ``m``, plus its materialization."""
    if not _within_width(blocks, width):
        raise NotRepresentableError(
            f"matrix has a diagonal block with more than {width} new columns"
        )
    vals = m.values
    size = m.T
    p = np.ones(size)
    q_rows = np.zeros((size, width))
    k_rows = np.zeros((size, width))
    for b in blocks:
        p[b.start] = 0.0
        filled = vals[b.start : b.end, b.start : b.end].copy()
        for t, (is_new, coeffs) in enumerate(zip(b.new, b.coeffs)):
            if not is_new and coeffs is not None:
                filled[:t, t] = filled[:t, :t] @ coeffs
        u, s, vh, rank = svd_with_rank(filled, eps)
        left, right = balanced_factors(u, s, vh, min(rank, width), width)
        q_rows[b.start : b.end] = left
        k_rows[b.start : b.end] = right.T
    factors = MaskedAttentionFactors(p, q_rows, k_rows)
    back = factors.materialize().values
    scale = float(np.linalg.norm(vals))
    residual = float(np.linalg.norm(back - vals))
    if residual > eps * scale:
        raise ReconstructionError(
            f"re-materialization residual {residual:.3e} exceeds "
            f"{eps:.1e} * |M| = {eps * scale:.3e}"
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
