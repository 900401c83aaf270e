"""Semiseparable-matrix primitives.

The 1SS operator, semiseparable rank, new-column detection, and
diagonal-block partitioning of dense lower triangular matrices.
All indices in this package are 0-based.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._lowrank import rank_of_singular_values, svd_with_rank
from .errors import ShapeMismatchError, SizeExceededError

#: Relative tolerance shared by every rank / span decision in the package.
DEFAULT_EPS = 1e-9

#: Share of a rank or span threshold that content dropped by ``_block_sweep`` may
#: reach before the sweep refactors its carry whole.
_SWEEP_DROP_SHARE = 1e-2

#: Largest T the combinatorial rank oracle will accept.
ORACLE_MAX_T = 12

#: Rows of the kernel builder's panels and of the upper-triangle check's bands.
_TILE = 32


def array_to_csv(x: np.ndarray) -> str:
    """One comma-separated line per row of a 2-D float array."""
    # repr() is shortest round-trip formatting for Python floats.
    rows = np.atleast_2d(np.asarray(x, dtype=float))
    return "\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n"


def array_from_csv(text: str) -> np.ndarray:
    """Inverse of ``array_to_csv``; blank lines are skipped."""
    rows = [
        [float(field) for field in line.split(",")]
        for line in text.strip().splitlines()
        if line.strip()
    ]
    return np.array(rows, dtype=float)


def _json_value(value):
    """``value`` as ``json.loads`` would give it back: arrays and tuples become lists."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    return list(value) if isinstance(value, tuple) else value


def json_record(keys: dict[str, str], declared: tuple[str, ...] = ()):
    """Class decorator: a JSON codec declared as one table of file keys.

    ``keys`` maps each JSON key, in file order, to the attribute it holds.
    The class gains ``to_dict``, ``to_json`` and a ``from_json`` classmethod
    in its own namespace. ``from_json`` passes the keys not in ``declared``
    to the constructor, so every construction check still runs, and raises
    ``ShapeMismatchError`` when a ``declared`` key (a size the file states)
    disagrees with the rebuilt record.
    """

    def to_dict(self) -> dict:
        return {key: _json_value(getattr(self, attr)) for key, attr in keys.items()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def from_json(cls, text: str):
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError(f"expected a JSON object for {cls.__name__}")
        record = cls(**{attr: obj[key] for key, attr in keys.items() if key not in declared})
        for key in declared:
            got = getattr(record, keys[key])
            if got != obj[key]:
                raise ShapeMismatchError(
                    f"declared {key}={obj[key]!r} does not match the data's {got}"
                )
        return record

    def decorate(cls):
        cls.to_dict, cls.to_json, cls.from_json = to_dict, to_json, classmethod(from_json)
        return cls

    return decorate


def _check_finite(arr: np.ndarray) -> None:
    """The one finiteness rule for matrix entries, built or read."""
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")


@json_record({"T": "T", "rows": "values"}, declared=("T",))
@dataclass(frozen=True)
class LowerTriangularMatrix:
    """Dense T x T matrix whose strictly-upper entries are exactly zero.

    The zero pattern is validated on construction and the storage is
    frozen, so instances are safe to share across threads.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        self._own(np.array(self.values, dtype=float))

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "LowerTriangularMatrix":
        """Same checks, no copy: for a fresh float array its builder shares with no one."""
        matrix = object.__new__(cls)
        matrix._own(np.asarray(arr, dtype=float))
        return matrix

    def _own(self, arr: np.ndarray) -> None:
        """Check ``arr`` and freeze it as this matrix's storage."""
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeMismatchError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ShapeMismatchError("matrix size must be at least 1")
        _check_finite(arr)
        for r in range(0, arr.shape[0], _TILE):
            end = r + _TILE
            if np.triu(arr[r:end, r:end], 1).any() or arr[r:end, end:].any():
                raise ValueError("entries above the main diagonal must be exactly zero")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def T(self) -> int:
        return self.values.shape[0]

    def to_csv(self) -> str:
        return array_to_csv(self.values)

    @classmethod
    def from_csv(cls, text: str) -> "LowerTriangularMatrix":
        return cls(array_from_csv(text))


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of a - b over the larger of the two norms; zero-safe."""
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    diff = float(np.linalg.norm(a - b))
    return diff / denom if denom else diff


@json_record({"a": "a"})
@dataclass(frozen=True)
class MaskVector:
    """Gain vector feeding the 1SS operator; entry 0 is never read."""

    a: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.a, dtype=float)
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise ShapeMismatchError(f"mask vector must be 1-D and nonempty, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("mask entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "a", arr)

    @property
    def T(self) -> int:
        return self.a.shape[0]


def _segment_product_panels(gains: np.ndarray, left: np.ndarray, right: np.ndarray):
    """Row panels of the lower triangle sum_k left[t,k] * (gains[s+1,k]...gains[t,k]) * right[s,k].

    All three inputs are (T, K); gains[0] is never read. Yields (lo, hi,
    panel) for every ``_TILE`` rows in order, the panel holding rows [lo, hi)
    and columns [0, hi) of the kernel. The diagonal tile takes its segment
    products from one cumulative product. Left of it the product is
    gains[s+1..lo-1] (tail) times gains[lo..t] (head), one rank-K product.
    The next panel's tail is this tail times gains[lo..hi-1], followed by
    the tile's last row of products: multiplication only, so nothing is
    divided and zero gains stay exact. A panel with a non-finite entry
    raises ``ValueError``.
    """
    tail = np.ones((0, gains.shape[1]))
    for lo in range(0, gains.shape[0], _TILE):
        hi = min(lo + _TILE, gains.shape[0])
        # Row u of column s contributes gains[u] once u > s: rows cumprod to gains[s+1..t].
        u = np.arange(hi - lo)
        factors = np.where((u[:, None] > u)[..., None], gains[lo:hi, None], 1.0)
        prods = np.cumprod(factors, axis=0)
        panel = np.empty((hi - lo, hi))
        panel[:, lo:] = np.tril(np.einsum("tsk,tk->ts", prods * right[lo:hi], left[lo:hi]))
        head = prods[:, 0] * gains[lo] if lo else prods[:, 0]  # gains[0] is never read
        np.matmul(left[lo:hi] * head, (right[:lo] * tail).T, out=panel[:, :lo])
        _check_finite(panel)
        yield lo, hi, panel
        tail = np.concatenate([tail * head[-1], prods[-1]])


def _segment_product_kernel(
    gains: np.ndarray, left: np.ndarray, right: np.ndarray
) -> LowerTriangularMatrix:
    """The whole lower triangle of ``_segment_product_panels``, as one matrix."""
    m = np.zeros((gains.shape[0],) * 2)
    for lo, hi, panel in _segment_product_panels(gains, left, right):
        m[lo:hi, :hi] = panel
    return LowerTriangularMatrix._adopt(m)


def one_ss(mask: MaskVector) -> LowerTriangularMatrix:
    """Cumulative-product lower triangle of a gain vector.

    Entry (t, s) for t >= s is the product a[s+1] * ... * a[t], the empty
    product on the diagonal being 1. a[0] is never read.
    """
    ones = np.ones((mask.T, 1))
    return _segment_product_kernel(mask.a[:, None], ones, ones)


def numerical_rank(block: np.ndarray, eps: float = DEFAULT_EPS) -> int:
    """Count singular values above ``eps`` times the largest one."""
    block = np.atleast_2d(np.asarray(block, dtype=float))
    if block.size == 0:
        return 0
    return rank_of_singular_values(np.linalg.svd(block, compute_uv=False), eps)


def _block_sweep(vals: np.ndarray, eps: float):
    """SVD of every lower-left block ``vals[t:, :t+1]``, most of them from a thin matrix.

    Block t is block t-1 without its first row and with column t appended.
    Block t-1 = L Vh, where L = U S and Vh has orthonormal rows. So block
    t = G_t blockdiag(Vh, 1) for G_t = [L[1:], M[t:, t]], and as the second
    factor has orthonormal rows, G_t has block t's singular values and
    (sign-normalized) left vectors, and its right vectors times that factor
    are block t's. G_t stays thin because L only carries the singular
    values above the rounding level of block t-1, max(shape) * machine
    epsilon * s[0] (where ``lstsq``'s default cutoff lies too), not just
    those above its rank threshold: a later, smaller block can need them.

    What the carry drops is gone for good, and a later block may be far
    smaller than the one it was dropped from. So the sweep sums the largest
    dropped singular value of every step: by Weyl's inequality G_t's
    singular values are within that sum of block t's, rounding aside. Once
    the sum exceeds ``_SWEEP_DROP_SHARE`` of eps times the norm of column t
    (at most block t's s[0], which stands in for a zero column), L[1:] and
    Vh are refactored from ``vals[t:, :t]`` and the sum restarts at zero.
    Yields (L[1:], Vh), whose product is ``vals[t:, :t]`` up to the drops,
    and ``svd_with_rank`` of block t, right vectors in column coordinates.
    """
    carried = vals[:, :0]
    basis = np.zeros((0, 0))
    dropped = 0.0
    for t in range(len(vals)):
        col = vals[t:, t]
        u, s, vh, rank = svd_with_rank(np.column_stack([carried, col]), eps)
        if dropped > _SWEEP_DROP_SHARE * eps * (float(np.linalg.norm(col)) or s[0]):
            u, s, basis = np.linalg.svd(vals[t:, :t], full_matrices=False)
            carried, dropped = u * s, 0.0
            u, s, vh, rank = svd_with_rank(np.column_stack([carried, col]), eps)
        vh = np.column_stack([vh[:, :-1] @ basis, vh[:, -1]])
        yield carried, basis, u, s, vh, rank
        keep = rank_of_singular_values(s, np.finfo(float).eps * max(len(vals) - t, t + 1))
        dropped += s[keep] if keep < s.size else 0.0
        carried = u[1:, :keep] * s[:keep]
        basis = vh[:keep]


def semiseparable_rank(m: LowerTriangularMatrix, eps: float = DEFAULT_EPS) -> int:
    """Semiseparable rank: the largest rank over on-or-below-diagonal submatrices.

    Only the T maximal blocks ``M[t:, :t+1]`` need to be inspected: any
    submatrix with row set R and column set C on or below the diagonal has
    max(C) <= min(R), so it sits inside ``M[min(R):, :max(C)+1]`` and its
    rank is bounded by that block's rank. One ``_block_sweep`` yields them.
    """
    return max(rank for *_, rank in _block_sweep(m.values, eps))


def submatrix_rank_oracle(m: LowerTriangularMatrix, eps: float = DEFAULT_EPS) -> int:
    """Brute-force semiseparable rank, used only as a test oracle.

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


def _column_membership(
    below: np.ndarray, col: np.ndarray, eps: float, thin: np.ndarray, basis: np.ndarray
) -> tuple[bool, float, float, np.ndarray | None]:
    """Least-squares span test for one column against the columns of ``below``.

    ``thin @ basis`` is the sweep's factor of ``below``. The fit against
    ``thin`` (cut where ``lstsq``'s default cutoff lies) is mapped to columns
    by ``basis`` and refined once on its miss on ``below``. Returns (is_new,
    residual, threshold, coeffs): new when the residual of ``coeffs`` on
    ``below`` exceeds eps times the column norm; ``coeffs`` is None for a zero
    column or an empty span, where any nonzero column is new.
    """
    col_norm = float(np.linalg.norm(col))
    threshold = eps * col_norm
    if col_norm == 0.0:
        return False, 0.0, threshold, None
    if below.shape[1] == 0:
        return True, col_norm, threshold, None
    solve = np.linalg.pinv(thin, rcond=np.finfo(float).eps * max(thin.shape))
    coeffs = basis.T @ (solve @ col)
    coeffs += basis.T @ (solve @ (col - below @ coeffs))
    residual = float(np.linalg.norm(below @ coeffs - col))
    return residual > threshold, residual, threshold, coeffs


def new_columns(m: LowerTriangularMatrix, eps: float = DEFAULT_EPS) -> list[int]:
    """Indices t whose below-diagonal part M[t:, t] leaves the span of M[t:, :t].

    A borderline decision (residual within a factor 10 of the threshold)
    emits a warning but still follows the threshold verdict.
    """
    (whole,) = _new_column_sweep(m, [], eps)
    return [t for t, is_new in enumerate(whole.new) if is_new]


@dataclass(frozen=True)
class BlockNewColumns:
    """New-column count of one diagonal block, rows [start, end), and the verdicts behind it.

    ``new[i]`` and ``coeffs[i]`` are what ``_column_membership`` returned
    for block column i against block columns 0..i-1 on block rows i onward.
    """

    start: int
    end: int
    new: tuple[bool, ...]
    coeffs: tuple[np.ndarray | None, ...] = field(compare=False, repr=False)

    @property
    def new_columns(self) -> int:
        return sum(self.new)


def _new_column_sweep(m: LowerTriangularMatrix, cuts: list, eps: float) -> list[BlockNewColumns]:
    """One membership test per column, each inside its block between ``cuts``.

    Each block runs one ``_block_sweep``, whose thin factors the fits use.
    Borderline decisions warn as in ``new_columns``, by global index.
    """
    out = []
    for start, end in blocks_from_cuts(m.T, cuts):
        block = m.values[start:end, start:end]
        verdicts = []
        for t, (thin, basis, *_) in enumerate(_block_sweep(block, eps)):
            is_new, residual, threshold, coeffs = _column_membership(
                block[t:, :t], block[t:, t], eps, thin, basis
            )
            if threshold > 0.0 and threshold / 10.0 <= residual <= threshold * 10.0:
                warnings.warn(
                    f"borderline new-column decision at column {start + t}: "
                    f"residual {residual:.3e} vs threshold {threshold:.3e}",
                    stacklevel=3,
                )
            verdicts.append((is_new, coeffs))
        new, coeffs = zip(*verdicts)
        out.append(BlockNewColumns(start, end, new, coeffs))
    return out


def diagonal_block_partition(m: LowerTriangularMatrix, eps: float = DEFAULT_EPS) -> list[int]:
    """Cut positions of the finest diagonal-block partition.

    A cut before row i is valid when every entry of M[i:, :i] has magnitude
    at most eps times the largest magnitude in M, i.e. the below-left region
    is (numerically) zero. The finest partition is returned; merging valid
    blocks only sums their new-column counts, so finer is never wrong.
    """
    # covered[r, c] = max |M[r:, :c+1]|, so the region left of cut i peaks at covered[i, i-1].
    covered = np.maximum.accumulate(np.abs(m.values), axis=1)
    covered = np.maximum.accumulate(covered[::-1], axis=0)[::-1]
    steps = np.arange(1, m.T)
    scale = float(covered[0, -1])
    return steps[covered[steps, steps - 1] <= eps * scale].tolist()


def _check_width(width: int) -> None:
    """The one rule for a factor or representation width: at least 1."""
    if width < 1:
        raise ValueError(f"width must be at least 1, got {width}")


def blocks_from_cuts(size: int, cuts: list[int]) -> list[tuple[int, int]]:
    """Half-open (start, end) intervals between consecutive cuts."""
    bounds = [0, *cuts, size]
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


def is_fine_mask(mask: MaskVector) -> bool:
    """True when every gain that the 1SS operator reads is nonzero.

    Entry 0 never appears in any mask entry, so fineness is decided on
    a[1:] only.
    """
    return bool(np.all(mask.a[1:] != 0.0))
