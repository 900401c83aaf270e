"""Semiseparable-matrix primitives.

The 1SS operator, semiseparable rank, new-column detection, and
diagonal-block partitioning of dense lower triangular matrices.
All indices in this package are 0-based.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ShapeMismatchError

#: Relative tolerance shared by every rank / span decision in the package.
DEFAULT_EPS = 1e-9

#: Share of a rank or span threshold that content dropped by ``_block_sweep`` may
#: reach before the sweep refactors its carry whole.
_SWEEP_DROP_SHARE = 1e-2

#: Machine epsilon of float64, the unit of every rounding-level cut.
_MACHINE_EPS = np.finfo(float).eps

#: Rows of the kernel builder's panels and of the upper-triangle check's bands, and
#: sweep steps per stacked span-fit solve.
_TILE = 32


def array_to_csv(x: np.ndarray) -> str:
    """One comma-separated line per row of a 2-D float array."""
    # repr() is shortest round-trip formatting for Python floats.
    rows = np.atleast_2d(np.asarray(x, dtype=float))
    return "\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n"


def array_from_csv(text: str) -> np.ndarray:
    """Inverse of ``array_to_csv``, parsed in one C-level pass; whitespace-only lines are skipped.

    A ragged row, an empty field, a comment, a quote or an underscore in a
    number raises ``ValueError``. Text with no lines gives a (0, 0) array.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return np.zeros((0, 0))
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)


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

    @classmethod
    def _trusted(cls, arr: np.ndarray) -> "LowerTriangularMatrix":
        """No checks, no copy: only for ``_segment_product_kernel``'s fresh float array.

        The panel walk has checked every panel for finiteness and writes
        nothing above the diagonal, so ``_own``'s two scans would re-prove both.
        """
        arr.flags.writeable = False
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "values", arr)
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
    return LowerTriangularMatrix._trusted(m)


def _segment_product_apply(
    gains: np.ndarray, left: np.ndarray, right: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """The lower triangle of ``_segment_product_panels`` times ``x``, one panel at a time.

    Only one panel is held at a time, never the whole T x T matrix.
    """
    y = np.empty((gains.shape[0], x.shape[1]))
    for lo, hi, panel in _segment_product_panels(gains, left, right):
        np.matmul(panel, x[:hi], out=y[lo:hi])
    return y


def one_ss(mask: MaskVector) -> LowerTriangularMatrix:
    """Cumulative-product lower triangle of a gain vector.

    Entry (t, s) for t >= s is the product a[s+1] * ... * a[t], the empty
    product on the diagonal being 1. a[0] is never read.
    """
    ones = np.ones((mask.T, 1))
    return _segment_product_kernel(mask.a[:, None], ones, ones)


class SweepStep(NamedTuple):
    """One step of ``_block_sweep``: block t = ``vals[t:, :t+1]``, factored through G_t.

    ``carry`` @ ``basis`` is ``vals[t:, :t]`` up to the carry's drops, whose
    sum ``dropped`` bounds the spectral norm of the difference. G_t =
    [carry, column t] = u S ``vh``, and ``u``, ``s`` and ``right`` (``vh``
    mapped to column coordinates) are an SVD of block t, with the signs
    ``np.linalg.svd`` returned: ranks, span fits and the dual do not depend
    on them, and extraction fixes them with ``_lowrank.vector_signs``.
    ``rank`` counts the singular values above eps * s[0], and ``keep`` those
    above ``rounding``, block t's rounding level: they make the next carry.
    ``widened`` is set when a refactor left the carry over one column wider
    than the step before's.
    """

    carry: np.ndarray
    basis: np.ndarray
    dropped: float
    vh: np.ndarray
    u: np.ndarray
    s: np.ndarray
    right: np.ndarray
    rank: int
    rounding: float
    keep: int
    widened: bool


def _block_sweep(vals: np.ndarray, eps: float):
    """SVD of every lower-left block ``vals[t:, :t+1]``, most of them from a thin matrix.

    Block t is block t-1 without its first row and with column t appended.
    Block t-1 = L Vh, where L = U S and Vh has orthonormal rows. So block
    t = G_t blockdiag(Vh, 1) for G_t = [L[1:], M[t:, t]], and as the second
    factor has orthonormal rows, G_t has block t's singular values and
    left vectors, and its right vectors times that factor are block t's.
    G_t stays thin because L only carries the singular values above the
    rounding level of block t-1, max(shape) * machine epsilon * s[0] (where
    ``lstsq``'s default cutoff lies too), not just those above its rank
    threshold: a later, smaller block can need them. No step normalizes
    signs; that was about a fifth of a step's time, and only extraction
    needs fixed signs.

    What the carry drops is gone for good, and a later block may be far
    smaller than the one it was dropped from. So the sweep sums the largest
    dropped singular value of every step: by Weyl's inequality G_t's
    singular values are within that sum of block t's, rounding aside. Once
    the sum exceeds ``_SWEEP_DROP_SHARE`` of eps times the norm of column t
    (at most block t's s[0], which stands in for a zero column), L[1:] and
    Vh are refactored from ``vals[t:, :t]`` and the sum restarts at zero.

    Each step writes G_t into one fresh array: the next carry as the
    product of the step's u[1:] and s, and column t in its last column.
    Yields one ``SweepStep`` per block.
    """
    size = len(vals)
    pair = np.empty((size, 1))
    basis = np.zeros((0, 0))
    dropped = 0.0
    width = 0  # carry width of the step before
    for t in range(size):
        col = vals[t:, t]
        pair[:, -1] = col
        u, s, vh = np.linalg.svd(pair, full_matrices=False)
        if dropped and dropped > _SWEEP_DROP_SHARE * eps * (float(np.linalg.norm(col)) or s[0]):
            u, s, basis = np.linalg.svd(vals[t:, :t], full_matrices=False)
            pair = np.empty((size - t, s.size + 1))
            np.multiply(u, s, out=pair[:, :-1])
            pair[:, -1] = col
            dropped = 0.0
            u, s, vh = np.linalg.svd(pair, full_matrices=False)
        top = s[0]  # with a top of 0 no singular value counts, as in rank_of_singular_values
        rounding = _MACHINE_EPS * max(size - t, t + 1) * top
        keep = int(np.count_nonzero(s > rounding))
        mapped = np.empty((len(vh), t + 1))
        np.matmul(vh[:, :-1], basis, out=mapped[:, :-1])
        mapped[:, -1] = vh[:, -1]
        rank = int(np.count_nonzero(s > eps * top))
        widened = len(basis) > width + 1
        carry = pair[:, :-1]
        yield SweepStep(carry, basis, dropped, vh, u, s, mapped, rank, rounding, keep, widened)
        width = len(basis)
        if keep < s.size:
            dropped += s[keep]
        pair = np.empty((size - t - 1, keep + 1))
        np.multiply(u[1:, :keep], s[:keep], out=pair[:, :-1])
        basis = mapped[:keep]


def semiseparable_rank(m: LowerTriangularMatrix, eps: float = DEFAULT_EPS) -> int:
    """Semiseparable rank: the largest rank over on-or-below-diagonal submatrices.

    Only the T maximal blocks ``M[t:, :t+1]`` need to be inspected: any
    submatrix with row set R and column set C on or below the diagonal has
    max(C) <= min(R), so it sits inside ``M[min(R):, :max(C)+1]`` and its
    rank is bounded by that block's rank. One ``_block_sweep`` yields them.
    """
    return max(step.rank for step in _block_sweep(m.values, eps))


def _thin_fits(steps: list[SweepStep]) -> list[tuple]:
    """(pseudo-inverse, fit, thin residual, fit norm) of each step's S V_k, from one ``pinv`` call.

    The factors are zero-padded to one (k+1) x k shape and each is cut
    where ``lstsq``'s default cutoff lies for its L.
    """
    width = max(1, max(len(step.basis) for step in steps))
    factors = np.zeros((len(steps), width + 1, width))
    targets = np.zeros((len(steps), width + 1, 1))
    cutoffs = np.empty(len(steps))
    for i, step in enumerate(steps):
        k, s = len(step.basis), step.s
        np.multiply(s[:, None], step.vh[:, :-1], out=factors[i, : len(s), :k])
        np.multiply(s, step.vh[:, -1], out=targets[i, : len(s), 0])
        cutoffs[i] = _MACHINE_EPS * max(len(step.u), k)
    inverses = np.linalg.pinv(factors, rcond=cutoffs)
    fits = inverses @ targets
    thin = np.linalg.norm(factors @ fits - targets, axis=(1, 2))
    return list(zip(inverses, fits[..., 0], thin, np.linalg.norm(fits, axis=(1, 2))))


def _span_fits(block: np.ndarray, lo: int, steps: list[SweepStep], eps: float) -> list[tuple]:
    """Span tests of block columns lo, lo+1, ... against the block columns before each.

    ``steps`` are the ``_block_sweep`` steps of those columns. A step's G_t
    = [L, col] = u S V, so as u has orthonormal columns the fit of col
    against L is the fit of S v (v being V's last column) against the small
    S V_k (V_k the rest of V), whose singular values are L's. ``_thin_fits``
    pseudo-inverts all of them in one call, except a ``widened`` step: only
    a refactor widens the carry by more than one column, to every singular
    value left of the step, and that one is pseudo-inverted alone rather
    than widening the others' padding. The fit is mapped to columns by the
    step's basis, whose rows are orthonormal.

    The thin residual |S V_k y - S v| is the residual on ``block[t:, :t]``
    up to the carry's drops and rounding: that block is L Vh plus a
    difference of spectral norm at most the sweep's drop sum, which moves
    the residual by at most the drop sum times |y|, and the factorizations
    move it by a few times the step's rounding level (where the sweep cuts
    its carry) times |y| + 1; ten times is the margin taken. A column whose
    thin residual lies within a factor 10 of the threshold, or nearer to it
    than that bound, has its fit refined once on its miss on
    ``block[t:, :t]`` and its residual taken there, with two dense
    products; every other verdict is the thin one.

    Returns (is_new, coeffs, residual, threshold) per column: new when the
    residual exceeds eps times the column norm; ``coeffs`` is None for a
    zero column or an empty span, where any nonzero column is new.
    """
    alone = [i for i, step in enumerate(steps) if step.widened]
    stacked = [i for i, step in enumerate(steps) if not step.widened]
    thin_fits = {}
    for group in (stacked, *([i] for i in alone)):
        if group:
            thin_fits.update(zip(group, _thin_fits([steps[i] for i in group])))
    col_norms = np.linalg.norm(block[:, lo : lo + len(steps)], axis=0)
    out = []
    for i, step in enumerate(steps):
        t, col_norm = lo + i, float(col_norms[i])
        threshold = eps * col_norm
        if col_norm == 0.0:
            out.append((False, None, 0.0, threshold))
            continue
        if t == 0:
            out.append((True, None, col_norm, threshold))
            continue
        inverse, fit, residual, fit_norm = thin_fits[i]
        k = len(step.basis)
        coeffs = step.basis.T @ fit[:k]
        residual = float(residual)
        margin = step.dropped * fit_norm + 10.0 * step.rounding * (fit_norm + 1.0)
        if threshold / 10.0 <= residual <= threshold * 10.0 or abs(residual - threshold) < margin:
            below, col = block[t:, :t], block[t:, t]
            solve = step.basis.T @ inverse[:k, : len(step.s)]
            coeffs += solve @ (step.u.T @ (col - below @ coeffs))
            residual = float(np.linalg.norm(below @ coeffs - col))
        out.append((residual > threshold, coeffs, residual, threshold))
    return out


def new_columns(m: LowerTriangularMatrix, eps: float = DEFAULT_EPS) -> list[int]:
    """Indices t whose below-diagonal part M[t:, t] leaves the span of M[t:, :t].

    Residual and threshold are those of ``_span_fits``: the residual on
    M[t:, :t] itself wherever the thin one could fall on either side. A
    borderline decision (residual within a factor 10 of the threshold)
    emits a warning but still follows the threshold verdict.
    """
    (whole,) = _new_column_sweep(m, [], eps)
    return [t for t, is_new in enumerate(whole.new) if is_new]


@dataclass(frozen=True)
class BlockNewColumns:
    """New-column count of one diagonal block, rows [start, end), and the verdicts behind it.

    ``new[i]`` and ``coeffs[i]`` are what ``_span_fits`` returned for block
    column i against block columns 0..i-1 on block rows i onward.
    """

    start: int
    end: int
    new: tuple[bool, ...]
    coeffs: tuple[np.ndarray | None, ...] = field(compare=False, repr=False)

    @property
    def new_columns(self) -> int:
        return sum(self.new)


def _new_column_sweep(m: LowerTriangularMatrix, cuts: list, eps: float) -> list[BlockNewColumns]:
    """One span test per column, each inside its block between ``cuts``.

    Each block runs one ``_block_sweep``, whose steps ``_span_fits`` takes
    ``_TILE`` at a time, so what is held at once does not grow with the
    block. Borderline decisions warn as in ``new_columns``, by global index.
    """
    out = []
    for start, end in blocks_from_cuts(m.T, cuts):
        block = m.values[start:end, start:end]
        sweep = _block_sweep(block, eps)
        verdicts = []
        for lo in range(0, end - start, _TILE):
            fits = _span_fits(block, lo, list(itertools.islice(sweep, _TILE)), eps)
            for t, (is_new, coeffs, residual, threshold) in enumerate(fits, start + lo):
                if threshold > 0.0 and threshold / 10.0 <= residual <= threshold * 10.0:
                    warnings.warn(
                        f"borderline new-column decision at column {t}: "
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
