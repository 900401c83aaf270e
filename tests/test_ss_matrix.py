"""Tests for the semiseparable-matrix primitives."""

import decimal
import itertools
import json
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdlab import ss_matrix
from ssdlab.bench import FlopReport
from ssdlab.duality import MaskedAttentionFactors, one_ss
from ssdlab.errors import ShapeMismatchError, SizeExceededError, UnstableScalingError
from ssdlab.limits import CounterexampleReport
from ssdlab.ss_matrix import (
    LowerTriangularMatrix,
    blocks_from_cuts,
    diagonal_block_partition,
    new_columns,
    rel_err,
    semiseparable_rank,
)
from ssdlab.ssm import DiagonalSsm, sequence_from_json
from ssdlab.sss_extract import GeneralSssRepresentation, materialize_sss, random_representation
from tests.conftest import random_lower_triangular, run_ssdlab
from tests.oracles import (
    is_fine_mask,
    numerical_rank,
    reference_diagonal_block_partition,
    reference_diagonal_tiles,
    submatrix_rank_oracle,
)

#: Finite doubles, subnormals included, plus the edge values a CSV reader must keep exactly.
CSV_DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
)


def ref_one_ss(gains):
    """Direct evaluation of the cumulative-product formula (test oracle)."""
    size = len(gains)
    out = np.zeros((size, size))
    for t in range(size):
        for s in range(t + 1):
            prod = 1.0
            for r in range(s + 1, t + 1):
                prod *= gains[r]
            out[t, s] = prod
    return out


def corner_matrix(size):
    vals = np.eye(size)
    vals[size - 1, 0] = 1.0
    return LowerTriangularMatrix(vals)


class TestOneSs:
    def test_unit_gains_give_all_ones_triangle(self):
        got = one_ss([5.0, 1.0, 1.0])
        assert np.array_equal(got.values, np.tril(np.ones((3, 3))))

    def test_direct_product_example(self):
        got = one_ss([7.0, 2.0, 3.0])
        expected = np.array([[1, 0, 0], [2, 1, 0], [6, 3, 1]], dtype=float)
        assert np.array_equal(got.values, expected)
        # first gain is ignored
        other = one_ss([-4.0, 2.0, 3.0])
        assert np.array_equal(got.values, other.values)

    def test_zero_gain_annihilates_earlier_columns(self):
        got = one_ss([9.0, 0.0, 5.0])
        expected = np.array([[1, 0, 0], [0, 1, 0], [0, 5, 1]], dtype=float)
        assert np.array_equal(got.values, expected)

    @given(
        st.lists(
            st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    @settings(deadline=None, max_examples=100)
    def test_matches_direct_product_oracle(self, gains):
        got = one_ss(gains).values
        assert np.allclose(got, ref_one_ss(gains), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("tile", [1, 2, 3, 5])
    def test_tiled_build_matches_cumulative_products(self, monkeypatch, tile):
        monkeypatch.setattr(ss_matrix, "_TILE", tile)
        rng = np.random.default_rng(tile)
        for size in sorted({1, max(tile - 1, 1), tile, tile + 1, 3 * tile + 2}):
            gains = rng.uniform(0.5, 2.0, size) * rng.choice([-1.0, 1.0], size)
            gains[rng.random(size) < 0.2] = 0.0
            expected = np.zeros((size, size))
            for t in range(size):
                for s in range(t + 1):
                    expected[t, s] = np.prod(gains[s + 1 : t + 1])
            got = one_ss(gains).values
            assert np.allclose(got, expected, rtol=1e-12, atol=0.0)

    @given(
        st.lists(
            st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=10,
        )
    )
    @settings(deadline=None, max_examples=100)
    def test_diagonal_is_always_one(self, gains):
        got = one_ss(gains).values
        assert np.array_equal(np.diag(got), np.ones(len(gains)))

    @pytest.mark.parametrize(
        "gains, error, message",
        [
            ([], ShapeMismatchError, r"^sizes must be at least 1, got p\.shape\[0\]=0$"),
            (np.ones((3, 2)), ShapeMismatchError, r"^p must be 1-D, got shape \(3, 2\)$"),
            ([1.0, np.nan, 2.0], ValueError, r"^p entries must be finite$"),
            ([[1.0], [1.0, 2.0]], ValueError, r"^p must be an array of numbers"),
        ],
        ids=["empty", "2-D", "nan", "ragged"],
    )
    def test_refuses_gains_that_are_not_a_finite_vector(self, gains, error, message):
        with pytest.raises(error, match=message):
            one_ss(gains)

    @pytest.mark.parametrize("kind", ["signed", "decaying", "zeros"])
    @pytest.mark.parametrize("size", [1, 33, 257])
    def test_is_the_width_1_factors_kernel_with_unit_q_and_k(self, kind, size):
        rng = np.random.default_rng(size)
        gains = {
            "signed": rng.uniform(0.5, 1.5, size) * rng.choice([-1.0, 1.0], size),
            "decaying": rng.uniform(0.9, 1.0, size),
            "zeros": rng.uniform(0.5, 1.5, size) * (rng.random(size) >= 0.1),
        }[kind]
        ones = np.ones((size, 1))
        expected = MaskedAttentionFactors(gains, ones, ones).materialize()
        assert one_ss(gains).values.tobytes() == expected.values.tobytes()

    def test_width_1_record_round_trips_the_mask(self):
        gains = np.array([0.1, -2.5, 1e-12])
        ones = np.ones((3, 1))
        again = MaskedAttentionFactors.from_json(MaskedAttentionFactors(gains, ones, ones).to_json())
        assert np.array_equal(again.p, gains)
        assert np.array_equal(again.materialize().values, one_ss(gains).values)


#: Ragged step counts of the panel walk: below one tile, one tile -1, 0 and +1, and one
#: batch of tiles -1 tile, 0 and +1 tile.
_TILE_BATCH_ROWS = ss_matrix._TILE * ss_matrix._TILE_BATCH
RAGGED_STEPS = (
    7, 31, 32, 33, _TILE_BATCH_ROWS - ss_matrix._TILE, _TILE_BATCH_ROWS,
    _TILE_BATCH_ROWS + ss_matrix._TILE,
)


def mask_products(gains):
    """mask[t, s] = gains[s+1] * ... * gains[t], one column at a time (test oracle)."""
    size = len(gains)
    mask = np.zeros((size, size))
    for s in range(size):
        mask[s:, s] = np.cumprod(np.concatenate([[1.0], gains[s + 1 :]]))
    return mask


class TestKernelPanelWalk:
    @pytest.mark.parametrize("steps", RAGGED_STEPS)
    @pytest.mark.parametrize("widths", [(16, 16, 16), (1, 4, 4), (1, 1, 1)])
    def test_batched_diagonal_tiles_equal_per_tile_cumulative_products(self, steps, widths):
        rng = np.random.default_rng(steps)
        shape = (steps, widths[0])
        gains = rng.uniform(0.5, 1.5, shape) * rng.choice([-1.0, 1.0], shape)
        gains[rng.random(gains.shape) < 0.05] = 0.0
        left, right = (rng.standard_normal((steps, width)) for width in widths[1:])
        panels = ss_matrix._segment_product_panels(gains, left, right)
        oracle = reference_diagonal_tiles(gains, left, right, ss_matrix._TILE)
        count = 0
        for (lo, hi, panel), (want_lo, want_hi, tile) in zip(panels, oracle, strict=True):
            assert (lo, hi) == (want_lo, want_hi)
            assert panel[:, lo:].tobytes() == tile.tobytes(), lo
            count += 1
        assert count == -(-steps // ss_matrix._TILE)

    def test_width_one_gains_broadcast_against_wider_factors(self):
        steps = _TILE_BATCH_ROWS + ss_matrix._TILE + 5
        rng = np.random.default_rng(24)
        p = rng.uniform(0.5, 1.5, steps) * rng.choice([-1.0, 1.0], steps)
        p[[40, 41, 200]] = 0.0
        q, k = rng.standard_normal((2, steps, 4))
        got = MaskedAttentionFactors(p, q, k).materialize().values
        want = mask_products(p) * np.tril(q @ k.T)
        assert got.shape == (steps, steps)
        assert rel_err(got, want) <= 1e-13
        assert np.all(got[200:, :200] == 0.0)


class TestSemiseparableRank:
    def test_identity_has_rank_one(self):
        for size in (1, 3, 7):
            assert semiseparable_rank(LowerTriangularMatrix(np.eye(size))) == 1

    def test_corner_perturbed_identity_has_rank_two(self):
        assert semiseparable_rank(corner_matrix(5)) == 2

    def test_fine_one_ss_has_rank_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            gains = rng.uniform(0.2, 2.0, 7) * rng.choice([-1.0, 1.0], 7)
            assert semiseparable_rank(one_ss(gains)) == 1

    def test_zero_matrix_has_rank_zero(self):
        assert semiseparable_rank(LowerTriangularMatrix(np.zeros((4, 4)))) == 0

    def test_a_matrix_whose_norm_overflows_is_refused(self):
        m = LowerTriangularMatrix(np.tril(np.full((6, 6), 1e200)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnstableScalingError, match="Frobenius norm is inf"):
                semiseparable_rank(m)


class TestSubmatrixRankOracle:
    def test_identity(self):
        assert submatrix_rank_oracle(LowerTriangularMatrix(np.eye(4))) == 1

    def test_corner_perturbed_identity(self):
        assert submatrix_rank_oracle(corner_matrix(5)) == 2

    def test_agrees_with_fast_path_on_random_matrices(self):
        for seed in range(100):
            m = random_lower_triangular(seed, 6)
            assert submatrix_rank_oracle(m) == semiseparable_rank(m)

    def test_agrees_with_exhaustive_subset_enumeration(self):
        # Validates the contiguous-block reduction against literal subsets.
        for seed in range(8):
            m = random_lower_triangular(1000 + seed, 5)
            vals = m.values
            best = 0
            rows = range(5)
            for r_count in range(1, 6):
                for row_set in itertools.combinations(rows, r_count):
                    max_col = min(row_set) + 1
                    for c_count in range(1, max_col + 1):
                        for col_set in itertools.combinations(range(max_col), c_count):
                            sub = vals[np.ix_(row_set, col_set)]
                            best = max(best, numerical_rank(sub))
            assert best == submatrix_rank_oracle(m)

    def test_rejects_large_inputs(self):
        with pytest.raises(SizeExceededError):
            submatrix_rank_oracle(LowerTriangularMatrix(np.eye(13)))


class TestNewColumns:
    def test_all_ones_triangle_has_single_new_column(self):
        m = LowerTriangularMatrix(np.tril(np.ones((5, 5))))
        assert new_columns(m) == [0]

    def test_corner_perturbed_identity(self):
        assert new_columns(corner_matrix(5)) == [0, 1, 2, 3]

    def test_zero_matrix_has_none(self):
        assert new_columns(LowerTriangularMatrix(np.zeros((4, 4)))) == []

    def test_invariant_under_nonzero_column_scaling(self):
        rng = np.random.default_rng(7)
        for seed in range(20):
            m = random_lower_triangular(seed, 6)
            scales = rng.uniform(0.5, 2.0, 6) * rng.choice([-1.0, 1.0], 6)
            scaled = LowerTriangularMatrix(m.values * scales[None, :])
            assert new_columns(m) == new_columns(scaled)

    def test_borderline_decision_warns_but_follows_threshold(self):
        vals = np.tril(np.ones((4, 4)))
        vals[3, 0] = 1 + 3e-9  # residual lands near eps * column norm
        with pytest.warns(UserWarning, match="borderline"):
            cols = new_columns(LowerTriangularMatrix(vals))
        assert cols == [0, 1]

    @pytest.mark.parametrize("eps", [0.5, 2.0])
    def test_a_block_first_column_is_never_borderline(self, eps):
        # Column 0 of a block is new whatever the threshold: no fit decides it.
        block = np.zeros((6, 6))
        block[:3, :3] = block[3:, 3:] = np.tril(np.ones((3, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert new_columns(LowerTriangularMatrix([[2.0]]), eps) == [0]
            sweep = ss_matrix._new_column_sweep(LowerTriangularMatrix(block), [3], eps)
        assert [verdicts.new for verdicts in sweep] == [(True, False, False)] * 2


class TestDiagonalBlockPartition:
    def test_identity_splits_fully(self):
        m = LowerTriangularMatrix(np.eye(3))
        assert diagonal_block_partition(m) == [1, 2]
        assert blocks_from_cuts(3, [1, 2]) == [(0, 1), (1, 2), (2, 3)]

    def test_corner_entry_blocks_all_cuts(self):
        assert diagonal_block_partition(corner_matrix(5)) == []

    def test_zero_gain_cuts_the_mask(self):
        m = one_ss([1.0, 1.0, 0.0, 1.0])
        assert diagonal_block_partition(m) == [2]

    def test_zero_matrix_splits_fully(self):
        m = LowerTriangularMatrix(np.zeros((4, 4)))
        assert diagonal_block_partition(m) == [1, 2, 3]

    def test_matches_region_definition_on_planted_cuts(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            size = int(rng.integers(1, 65))
            vals = np.tril(rng.standard_normal((size, size)))
            for i in rng.choice(np.arange(1, size), size=min(3, size - 1), replace=False):
                # Scales straddle the eps * max|M| threshold at the default eps = 1e-9.
                vals[i:, :i] *= rng.choice([0.0, 1e-10, 1e-9, 1e-8])
            scale = np.max(np.abs(vals))
            expected = [
                i for i in range(1, size) if np.max(np.abs(vals[i:, :i])) <= 1e-9 * scale
            ]
            cuts = diagonal_block_partition(LowerTriangularMatrix(vals))
            assert cuts == expected
            assert all(type(c) is int for c in cuts)

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(
        size=st.sampled_from([1, 2, 31, 32, 33, 65, 100]),
        eps=st.sampled_from([0.0, 1e-12, 1e-9]),
        edges=st.sets(st.sampled_from([31, 32, 33, 63, 64]), max_size=3),
        kind=st.sampled_from(["row", "column", "region"]),
        factor=st.sampled_from([0.0, 1e-13, 1e-10, 1e-9, 1e-8]),
        near_overflow=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_matches_the_dense_oracle_around_panel_edges(
        self, size, eps, edges, kind, factor, near_overflow, seed
    ):
        vals = np.tril(np.random.default_rng(seed).standard_normal((size, size)))
        for edge in (e for e in edges if e < size):
            if kind == "row":
                vals[edge] *= factor
            elif kind == "column":
                vals[:, edge] *= factor
            else:  # the region left of the cut before row ``edge``
                vals[edge:, :edge] *= factor
        if near_overflow:
            # The squares' sum just below the largest double (norm 1.34e154), where the theory
            # layer's norm check still lets the matrix through.
            vals *= 1.3e154 / np.linalg.norm(vals)
        m = LowerTriangularMatrix(vals)
        assert np.isfinite(np.linalg.norm(m.values))
        assert diagonal_block_partition(m, eps) == reference_diagonal_block_partition(m, eps)

    def test_holds_no_copy_of_the_matrix(self):
        m = random_lower_triangular(5, 1024)
        tracemalloc.start()
        try:
            diagonal_block_partition(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * m.values.nbytes  # the dense prefix maxima held 2.0


class TestColumnNorms:
    @pytest.mark.parametrize(
        "start,end", [(0, 1), (0, 2), (3, 34), (5, 70), (31, 96), (1, 100), (32, 65), (64, 100)]
    )
    @pytest.mark.parametrize("scale", [1.0, 1e140, 1e-160], ids=["unit", "huge", "tiny"])
    def test_panel_sums_are_numpy_s_norms_bit_for_bit(self, start, end, scale):
        rng = np.random.default_rng(end)
        graded = rng.standard_normal((100, 100)) * 10.0 ** rng.uniform(-5, 5, (100, 1))
        vals = np.tril(graded) * scale
        block = vals[start:end, start:end]  # a strided view, as the sweep gets a diagonal block
        got = ss_matrix._column_norms(block)
        assert got.tobytes() == np.linalg.norm(block, axis=0).tobytes()

    def test_a_sweep_holds_no_squared_copy_of_the_matrix(self):
        vals = np.tril(np.random.default_rng(3).standard_normal((1024, 1024)))
        tracemalloc.start()
        try:
            ss_matrix._column_norms(vals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * vals.nbytes  # np.linalg.norm squares the whole matrix: 1.0


class TestIsFineMask:
    def test_first_entry_is_ignored(self):
        assert is_fine_mask([0.0, 1.0, 1.0])

    def test_zero_gain_is_not_fine(self):
        assert not is_fine_mask([1.0, 0.0, 1.0])

    def test_all_nonzero_is_fine(self):
        assert is_fine_mask([2.0, 3.0, 4.0])


#: A valid instance's fields for each of the four records.
RECORD_FIELDS = {
    LowerTriangularMatrix: {"values": np.tril(np.ones((3, 3)))},
    DiagonalSsm: {"a_diag": np.ones((3, 2)), "b": np.ones((3, 2)), "c": np.ones((3, 2))},
    MaskedAttentionFactors: {"p": np.ones(3), "Q": np.ones((3, 2)), "K": np.ones((3, 2))},
    GeneralSssRepresentation: {
        "A": np.stack([np.eye(2)] * 3), "b": np.ones((3, 2)), "c": np.ones((3, 2)), "r": (1, 2, 1)
    },
}
RECORD_ARRAYS = [
    (cls, field)
    for cls, fields in RECORD_FIELDS.items()
    for field, value in fields.items()
    if isinstance(value, np.ndarray)
]
RECORD_ARRAY_IDS = [f"{cls.__name__}-{field}" for cls, field in RECORD_ARRAYS]


class TestConstruction:
    def test_rejects_nonzero_above_diagonal(self):
        bad = np.zeros((3, 3))
        bad[0, 2] = 1e-30
        with pytest.raises(ValueError):
            LowerTriangularMatrix(bad)

    @pytest.mark.parametrize("row, col", [(0, 599), (256, 257), (255, 256), (598, 599)])
    def test_rejects_single_nonzero_in_any_row_block(self, row, col):
        bad = np.tril(np.random.default_rng(1).standard_normal((600, 600)))
        bad[row, col] = 1.0
        with pytest.raises(ValueError, match="above the main diagonal"):
            LowerTriangularMatrix(bad)

    def test_accepts_lower_triangle_spanning_row_blocks(self):
        vals = np.tril(np.random.default_rng(2).standard_normal((600, 600)))
        assert np.array_equal(LowerTriangularMatrix(vals).values, vals)

    def test_rejects_non_square(self):
        with pytest.raises(ShapeMismatchError):
            LowerTriangularMatrix(np.zeros((3, 4)))

    def test_rejects_empty(self):
        with pytest.raises(ShapeMismatchError):
            LowerTriangularMatrix(np.zeros((0, 0)))

    def test_storage_is_read_only(self):
        m = LowerTriangularMatrix(np.eye(3))
        with pytest.raises(ValueError):
            m.values[0, 0] = 2.0

    def test_source_array_changes_do_not_reach_the_matrix(self):
        source = np.tril(np.ones((4, 4)))
        m = LowerTriangularMatrix(source)
        source[3, 0] = 7.0
        assert np.array_equal(m.values, np.tril(np.ones((4, 4))))

    def test_materialize_sss_refuses_an_overflowing_kernel(self):
        # Products of transitions 10 overflow past step 308; the handover checks finiteness.
        trans = np.full((400, 1, 1), 10.0)
        trans[0] = 1.0
        rep = GeneralSssRepresentation(trans, np.ones((400, 1)), np.ones((400, 1)), (1,) * 400)
        with np.errstate(over="ignore"), pytest.raises(ValueError) as exc:
            materialize_sss(rep)
        assert str(exc.value) == "kernel entries must be finite"

    @pytest.mark.parametrize("cls, field", RECORD_ARRAYS, ids=RECORD_ARRAY_IDS)
    def test_every_record_array_follows_one_rule(self, cls, field):
        def build(arr):
            return cls(**{**RECORD_FIELDS[cls], field: arr})

        good = RECORD_FIELDS[cls][field]
        for bad in (good[None], good[:0], good[..., :0]):
            with pytest.raises(ShapeMismatchError, match=rf"\b{field}( must be|\.shape\[)"):
                build(bad)
        infinite = good.copy()
        infinite.flat[-1] = np.inf
        with pytest.raises(ValueError, match=rf"^{field} entries must be finite"):
            build(infinite)
        given = good.copy()
        stored = getattr(build(given), field)
        assert np.array_equal(stored, good)
        assert not stored.flags.writeable and not np.shares_memory(stored, given)

    def test_built_kernels_are_not_rescanned(self, monkeypatch):
        rep = random_representation(3, 40, 2)
        expected = LowerTriangularMatrix(materialize_sss(rep).values)

        def rescan(self):
            raise AssertionError("a built kernel went through the constructor's checks")

        monkeypatch.setattr(LowerTriangularMatrix, "__post_init__", rescan)
        m = one_ss(np.full(70, 0.5))
        assert m.values[69, 0] == 0.5**69
        back = materialize_sss(rep)
        assert np.array_equal(back.values, expected.values)
        for built in (m, back):
            with pytest.raises(ValueError):
                built.values[0, 0] = 2.0


class TestRelErr:
    def test_divides_by_the_larger_norm(self):
        a, b = np.array([3.0, 0.0]), np.array([0.0, 4.0])
        assert rel_err(a, b) == rel_err(b, a) == 5.0 / 4.0

    def test_zero_arrays_have_zero_error(self):
        assert rel_err(np.zeros(3), np.zeros(3)) == 0.0


class TestSerialization:
    def test_csv_round_trip_is_exact(self):
        rng = np.random.default_rng(5)
        m = LowerTriangularMatrix(np.tril(rng.standard_normal((6, 6)) * 1e-7))
        again = LowerTriangularMatrix.from_csv(m.to_csv())
        assert np.array_equal(m.values, again.values)

    def test_json_round_trip_is_exact(self):
        vals = np.tril(np.array([[0.1 + 0.2, 0, 0], [1 / 3, 1e-300, 0], [-7.5, 2.0, 3.3]]))
        m = LowerTriangularMatrix(vals)
        again = LowerTriangularMatrix.from_json(m.to_json())
        assert np.array_equal(m.values, again.values)

    def test_json_rejects_inconsistent_size(self):
        with pytest.raises(ShapeMismatchError):
            LowerTriangularMatrix.from_json('{"T": 2, "rows": [[1.0]]}')


#: Finite float64 values drawn as bit patterns, so every exponent and subnormal is reached.
FINITE_BIT_PATTERNS = (
    st.integers(0, 2**64 - 1)
    .filter(lambda bits: (bits >> 52) & 0x7FF != 0x7FF)
    .map(lambda bits: float(np.array(bits, dtype=np.uint64).view(float)))
)


def _halfway(value: float) -> str:
    """The exact decimal midpoint between ``value`` and the next double away from zero."""
    with decimal.localcontext(decimal.Context(prec=1200)):
        above = np.nextafter(value, np.copysign(np.inf, value))
        return str((decimal.Decimal(value) + decimal.Decimal(float(above))) / 2)


def loadtxt_read(text: str) -> np.ndarray:
    """The reader ``array_from_csv`` had before orjson: ``np.loadtxt`` on the non-blank lines."""
    lines = [line for line in text.splitlines() if line.strip()]
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)


def orjson_read(text: str) -> np.ndarray:
    """``array_from_csv`` with ``np.loadtxt`` made to fail, so only orjson can read the text."""
    with mock.patch.object(np, "loadtxt", side_effect=AssertionError("np.loadtxt ran")):
        return ss_matrix.array_from_csv(text)


def assert_reads_as_loadtxt(text: str) -> None:
    got, want = ss_matrix.array_from_csv(text), loadtxt_read(text)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes(), text


class TestCsvReader:
    """``array_from_csv`` reads every text to the bits ``np.loadtxt`` gives, or refuses it alike."""

    @settings(deadline=None, max_examples=150)
    @given(
        st.integers(1, 5).flatmap(
            lambda cols: st.lists(
                st.lists(CSV_DOUBLES, min_size=cols, max_size=cols), min_size=1, max_size=6
            )
        )
    )
    def test_round_trip_keeps_every_bit(self, rows):
        x = np.array(rows, dtype=float)
        again = ss_matrix.array_from_csv(ss_matrix.array_to_csv(x))
        assert again.shape == x.shape
        assert again.tobytes() == x.tobytes()

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(
        st.integers(1, 4).flatmap(
            lambda cols: st.lists(
                st.lists(FINITE_BIT_PATTERNS, min_size=cols, max_size=cols), min_size=1, max_size=40
            )
        )
    )
    def test_random_bit_patterns_read_as_loadtxt_in_every_spelling(self, rows):
        spellings = [repr, "{:.17e}".format, "{:.25E}".format, "{:.40g}".format, _halfway]
        for spell in spellings:
            assert_reads_as_loadtxt("\n".join(",".join(spell(v) for v in row) for row in rows))

    @pytest.mark.parametrize(
        "text",
        ["-0", "1,-0", "-0.0", "-0e0", "1e-0", "-1e-400", "5e-324", "18446744073709551616",
         "9007199254740993", "18446744073709551615,-1", "-9223372036854775809", " -0 ,\t-0\t"],
        ids=["integer-negative-zero", "integer-negative-zero-last", "negative-zero",
             "negative-zero-exponent", "exponent-minus-zero", "negative-underflow",
             "smallest-subnormal", "two-to-64", "two-to-53-plus-1", "largest-uint64",
             "below-int64", "padded-integer-negative-zero"],
    )
    def test_hard_spellings_read_as_loadtxt(self, text):
        assert_reads_as_loadtxt(text)

    @pytest.mark.parametrize("text", ["+1", "1.", ".5", "01", "nan", "-inf", "1e400", "1,NaN"])
    def test_text_orjson_refuses_reads_as_loadtxt(self, text):
        assert_reads_as_loadtxt(text)

    @pytest.mark.parametrize("piece_chars", [1, 97, 1 << 16], ids=["row", "few-rows", "default"])
    @pytest.mark.parametrize("rows", [1, 31, 32, 33, 64, 65])
    def test_every_row_lands_in_place_across_panels(self, monkeypatch, rows, piece_chars):
        values = np.random.default_rng(rows).standard_normal((rows, 3)) * 1e-3
        lines = [",".join(spell(v) for v in row) for spell, row in
                 zip(itertools.cycle([repr, "{:.17e}".format]), values.tolist())]
        monkeypatch.setattr(ss_matrix, "_PIECE_CHARS", piece_chars)
        # Trailing blank lines hold no row, so orjson reads the text alone.
        text = "\n".join(lines) + "\n\n \t\n"
        got = orjson_read(text)
        assert got.tobytes() == values.tobytes()
        assert got.tobytes() == loadtxt_read(text).tobytes()
        # Blank lines between rows, and Windows line ends, send the text to np.loadtxt.
        for at in (33, 32, 31, 1):
            lines[at:at] = ["", " \t "]
        text = "\r\n".join(lines) + "\r\n\r\n"
        assert ss_matrix.array_from_csv(text).tobytes() == values.tobytes()
        assert_reads_as_loadtxt(text)

    def test_blank_and_whitespace_only_lines_are_skipped(self):
        got = ss_matrix.array_from_csv("\n1.5,-2.0\n   \n\t\n3.0,4e-310\r\n\n")
        assert got.tobytes() == np.array([[1.5, -2.0], [3.0, 4e-310]]).tobytes()

    def test_one_column_and_one_row_stay_two_dimensional(self):
        assert ss_matrix.array_from_csv("1.0\n2.0\n").shape == (2, 1)
        assert ss_matrix.array_from_csv("1.0,2.0").shape == (1, 2)

    @pytest.mark.parametrize(
        "text",
        ["1.0,2.0\n3.0\n", "1.0,2.0,\n3.0,4.0,\n", "# T=2\n1.0\n", "1.0,#2.0\n", '"1.0",2.0\n',
         "1_0\n", "1.0,2.0\n" * 32 + "3.0\n" * 32, "1.0,2.0\n" * 64 + "3.0\n",
         "1.0\n" * 32 + "2.0,3.0\n" * 5, "true,1\n", "[1.0]\n", "1.0],[2.0\n", "1,,2\n"],
        ids=["ragged", "trailing-comma", "comment-line", "comment-field", "quoted", "underscore",
             "narrow-second-panel", "narrow-last-row", "wide-second-panel", "literal", "bracketed",
             "one-line-two-rows", "empty-field"],
    )
    def test_malformed_text_raises_value_error(self, text):
        with pytest.raises(ValueError) as want:
            loadtxt_read(text)
        with pytest.raises(ValueError) as got:
            ss_matrix.array_from_csv(text)
        assert str(got.value) == str(want.value)

    def test_a_large_matrix_is_read_in_panels(self):
        # A parse of the whole text at once holds every row's Python floats: a peak of about
        # 2.8 times text plus output.
        values = np.tril(np.random.default_rng(7).standard_normal((1024, 1024)))
        text = ss_matrix.array_to_csv(values)
        tracemalloc.start()
        try:
            got = ss_matrix.array_from_csv(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == values.tobytes()
        assert peak < 1.5 * (len(text) + got.nbytes)

    @pytest.mark.parametrize("text", ["", "\n", " \n\t\n"], ids=["empty", "newline", "blank"])
    @pytest.mark.parametrize("command", ["extract", "check-dual"])
    def test_cli_refuses_a_matrix_file_without_rows(self, tmp_path, text, command):
        (tmp_path / "m.csv").write_text(text)
        argv = [command, "--matrix", "m.csv", "--N", "2", "--out", "out.json"]
        if command == "check-dual":
            argv[1:1] = ["--mode", "representability"]
        proc = run_ssdlab(argv, cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("input error")
        assert "Warning" not in proc.stderr
        assert not (tmp_path / "out.json").exists()


#: The fields of ``test_hard_spellings_read_as_loadtxt``, padded and bare.
HARD_FIELDS = ["-0", "-0.0", "-0e0", "1e-0", "-1e-400", "5e-324", "18446744073709551616",
               "9007199254740993", "18446744073709551615", "-1", "-9223372036854775809", " -0 ",
               "\t-0\t"]

#: Matrix sizes with one row, a panel less one, one panel, a panel and one, and a ragged third.
READER_SIZES = [1, 31, 32, 33, 65]


def lower_csv(fields: list[list[str]], upper: str = "0.0", newline: str = "\n") -> str:
    """CSV text of a square matrix whose row i holds ``fields[i][: i + 1]`` and then ``upper``."""
    size = len(fields)
    return newline.join(
        ",".join([*fields[i][: i + 1], *[upper] * (size - 1 - i)]) for i in range(size)
    ) + newline


def random_fields(size: int, seed: int) -> list[list[str]]:
    """``repr`` of a random size x size matrix with no zero, as lists of fields."""
    values = np.random.default_rng(seed).standard_normal((size, size)) + 5.0
    return [[repr(v) for v in row] for row in values.tolist()]


def upper_nonzero(size: int, row: int) -> str:
    """``lower_csv`` text of a random matrix whose row ``row`` ends in 2.0, not 0.0."""
    lines = lower_csv(random_fields(size, row)).splitlines()
    lines[row] = lines[row][: -len("0.0")] + "2.0"
    return "\n".join(lines) + "\n"


def assert_matrix_reads_as_loadtxt(text: str) -> LowerTriangularMatrix:
    got = LowerTriangularMatrix.from_csv(text)
    want = LowerTriangularMatrix(loadtxt_read(text))
    assert got.values.tobytes() == want.values.tobytes(), text
    return got


class TestMatrixReader:
    """``LowerTriangularMatrix.from_csv`` reads every text to the bits of ``np.loadtxt`` and the
    constructor, and refuses it alike; no list of all the text's lines is held."""

    @pytest.mark.parametrize("size", READER_SIZES)
    @pytest.mark.parametrize("field", HARD_FIELDS)
    def test_hard_spellings_below_the_diagonal(self, size, field):
        fields = random_fields(size, size)
        fields[-1][0] = field  # the last panel's first column
        assert_matrix_reads_as_loadtxt(lower_csv(fields))

    @pytest.mark.parametrize("size", READER_SIZES)
    def test_every_hard_spelling_at_once(self, size):
        spellings = itertools.cycle(HARD_FIELDS)
        fields = [[next(spellings) for _ in range(size)] for _ in range(size)]
        assert_matrix_reads_as_loadtxt(lower_csv(fields))

    @pytest.mark.parametrize("size", READER_SIZES)
    @pytest.mark.parametrize("other_zeros", [False, True], ids=["alone", "with-zeros"])
    def test_an_integer_negative_zero_keeps_its_sign(self, size, other_zeros):
        fields = random_fields(size, size)
        fields[-1][-1] = "-0"  # the last panel's diagonal
        if other_zeros and size > 1:
            fields[-1][0] = "0.0"
        got = assert_matrix_reads_as_loadtxt(lower_csv(fields))
        assert np.signbit(got.values[-1, -1])

    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(
        size=st.sampled_from(READER_SIZES),
        values=st.lists(FINITE_BIT_PATTERNS, min_size=1, max_size=40),
        spell=st.sampled_from(
            [repr, "{:.17e}".format, "{:.25E}".format, "{:.40g}".format, _halfway]
        ),
    )
    def test_random_bit_patterns_below_the_diagonal(self, size, values, spell):
        tiled = np.resize(np.array(values), (size, size)).tolist()
        assert_matrix_reads_as_loadtxt(lower_csv([[spell(v) for v in row] for row in tiled]))

    @pytest.mark.parametrize("size", READER_SIZES[1:])
    @pytest.mark.parametrize("upper", ["-0.0", "0", "0e0", " 0.0"])
    def test_other_spellings_of_the_upper_zeros_take_the_general_route(self, size, upper):
        text = lower_csv(random_fields(size, size), upper=upper)
        assert ss_matrix._lower_triangle_by_orjson(text) is None
        got = assert_matrix_reads_as_loadtxt(text)
        assert np.signbit(got.values[np.triu_indices(size, 1)]).all() == (upper == "-0.0")

    @pytest.mark.parametrize("piece_chars", [1, 97, 1 << 16], ids=["row", "few-rows", "default"])
    @pytest.mark.parametrize("ending", ["", "\n \t\n\n"], ids=["canonical", "blank-lines"])
    @pytest.mark.parametrize("size", READER_SIZES)
    def test_canonical_text_is_read_by_orjson_alone(self, monkeypatch, size, ending, piece_chars):
        values = np.tril(np.random.default_rng(size).standard_normal((size, size)))
        values[-1, 0] = 0.0  # a zero below the diagonal sends its piece to the -0 search
        text = ss_matrix.array_to_csv(values) + ending
        monkeypatch.setattr(ss_matrix, "_PIECE_CHARS", piece_chars)
        with mock.patch.object(np, "loadtxt", side_effect=AssertionError("np.loadtxt ran")):
            got = LowerTriangularMatrix.from_csv(text)
        assert got.values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("size", READER_SIZES)
    def test_blank_lines_at_panel_edges(self, size):
        lines = lower_csv(random_fields(size, size)).splitlines()
        for at in (33, 32, 31, 1):
            lines[at:at] = ["", " \t "]
        text = "\n".join(lines) + "\n\n"
        # Blank lines between rows send the text to the general route; a one-row matrix's
        # blank lines all trail its row, and no row is read from them.
        assert (ss_matrix._lower_triangle_by_orjson(text) is None) == (size > 1)
        assert_matrix_reads_as_loadtxt(text)

    @pytest.mark.parametrize("size", READER_SIZES)
    @pytest.mark.parametrize("newline", ["\r\n", "\v", "\u2028"], ids=["crlf", "vt", "u2028"])
    def test_other_line_breaks(self, size, newline):
        assert_matrix_reads_as_loadtxt(lower_csv(random_fields(size, size), newline=newline))

    @pytest.mark.parametrize(
        "text",
        ["1.0,2.0\n3.0,4.0\n", upper_nonzero(40, 38), upper_nonzero(40, 0),
         "1.0,0.0\n2.0,3.0\n4.0,5.0\n", "1.0,0.0,0.0\n2.0,3.0,0.0\n",
         "1.0\n2.0,3.0\n", "1.0,0.0\n2.0\n", "1.0,0.0\n2.0,3.0,0.0\n", "1.0,0.0\n\n\n",
         "1.0,0.0,0.0\n" + "2.0,3.0,0.0\n" * 32],
        ids=["nonzero-in-tile", "nonzero-in-last-tile", "nonzero-beyond-tile", "tall", "wide",
             "ragged-short-first", "ragged-short-last", "ragged-long-last", "too-few-rows",
             "too-many-rows"],
    )
    def test_refusals_keep_their_messages(self, text):
        with pytest.raises(ValueError) as want:
            LowerTriangularMatrix(loadtxt_read(text))
        with pytest.raises(ValueError) as got:
            LowerTriangularMatrix.from_csv(text)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    def test_a_large_matrix_holds_no_list_of_its_lines(self):
        # The read holds the matrix and one panel's parse, about 1.45 times the matrix; a list
        # of the text's lines would add the text's size again, about 1.5 times the matrix.
        values = np.tril(np.random.default_rng(11).standard_normal((1024, 1024)))
        text = ss_matrix.array_to_csv(values)
        tracemalloc.start()
        try:
            got = LowerTriangularMatrix.from_csv(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.values.tobytes() == values.tobytes()
        assert peak < 2.0 * values.nbytes


#: One tiny instance of every JSON record type and its file text, key order included.
TINY_RECORDS = [
    (
        LowerTriangularMatrix([[1.0, 0.0], [0.5, -2.0]]),
        '{"T": 2, "rows": [[1.0, 0.0], [0.5, -2.0]]}',
    ),
    (
        DiagonalSsm([[1.0], [0.5]], [[2.0], [-1.0]], [[3.0], [0.25]]),
        '{"T": 2, "N": 1, "A_diag": [[1.0], [0.5]], "b": [[2.0], [-1.0]], "c": [[3.0], [0.25]]}',
    ),
    (
        MaskedAttentionFactors([0.0, 1.0], [[1.0], [2.0]], [[3.0], [-4.0]]),
        '{"p": [0.0, 1.0], "Q": [[1.0], [2.0]], "K": [[3.0], [-4.0]]}',
    ),
    (
        GeneralSssRepresentation([[[1.0]], [[0.5]]], [[1.0], [2.0]], [[3.0], [4.0]], (1, 1)),
        '{"T": 2, "N": 1, "A": [[[1.0]], [[0.5]]], "b": [[1.0], [2.0]], "c": [[3.0], [4.0]], '
        '"r": [1, 1]}',
    ),
    (
        CounterexampleReport("demo", 3, "a claim", {"rank": 2, "err": 1.5e-17}, True, False),
        '{"name": "demo", "T": 3, "claim": "a claim", "measurements": {"rank": 2, '
        '"err": 1.5e-17}, "verdict": true, "applicable": false}',
    ),
    (
        FlopReport("ssd", 4, 2, 1, 24, 16, 40),
        '{"path": "ssd", "T": 4, "N": 2, "d": 1, "multiply_adds": 24, "additions": 16, '
        '"peak_live_elements": 40}',
    ),
]
RECORD_IDS = [type(record).__name__ for record, _ in TINY_RECORDS]


class TestJsonRecords:
    @pytest.mark.parametrize("record, text", TINY_RECORDS, ids=RECORD_IDS)
    def test_file_text_is_pinned(self, record, text):
        assert record.to_json() == text

    @pytest.mark.parametrize("record, text", TINY_RECORDS, ids=RECORD_IDS)
    def test_round_trip_gives_the_same_file(self, record, text):
        again = type(record).from_json(text)
        assert again.to_json() == text

    @pytest.mark.parametrize("record, text", TINY_RECORDS, ids=RECORD_IDS)
    def test_codec_lives_in_each_class(self, record, text):
        # Span wrappers look the loader up in the class's own namespace.
        cls = type(record)
        assert isinstance(cls.__dict__["from_json"], classmethod)
        assert "to_json" in cls.__dict__

    def test_diagonal_ssm_rejects_inconsistent_declared_sizes(self):
        arrays = '"A_diag": [[1.0], [0.5]], "b": [[2.0], [-1.0]], "c": [[3.0], [0.25]]'
        for declared in ('"T": 3, "N": 1', '"T": 2, "N": 2'):
            with pytest.raises(ShapeMismatchError):
                DiagonalSsm.from_json("{" + declared + ", " + arrays + "}")

    def test_general_representation_rejects_inconsistent_declared_sizes(self):
        arrays = '"A": [[[1.0]], [[0.5]]], "b": [[1.0], [2.0]], "c": [[3.0], [4.0]], "r": [1, 1]'
        for declared in ('"T": 1, "N": 1', '"T": 2, "N": 3'):
            with pytest.raises(ShapeMismatchError):
                GeneralSssRepresentation.from_json("{" + declared + ", " + arrays + "}")

    @pytest.mark.parametrize("value", [True, 2.0, "2"], ids=["bool", "float", "string"])
    @pytest.mark.parametrize(
        "record, key",
        [(TINY_RECORDS[0][0], "T"), (TINY_RECORDS[1][0], "T"), (TINY_RECORDS[1][0], "N"),
         (TINY_RECORDS[3][0], "T"), (TINY_RECORDS[3][0], "N")],
        ids=["LowerTriangularMatrix-T", "DiagonalSsm-T", "DiagonalSsm-N",
             "GeneralSssRepresentation-T", "GeneralSssRepresentation-N"],
    )
    def test_a_declared_size_that_is_not_an_integer_is_refused(self, record, key, value):
        obj = {**json.loads(record.to_json()), key: value}
        with pytest.raises(ValueError) as exc:
            type(record).from_json(json.dumps(obj))
        assert str(exc.value) == f"declared {key} must be an integer, got {value!r}"

    @pytest.mark.parametrize(
        "cls, text, name",
        [
            (LowerTriangularMatrix, '{"T": 1, "rows": {"a": 1}}', "values"),
            (DiagonalSsm, '{"T": 1, "N": 1, "A_diag": {"a": 1}, "b": [[1.0]], "c": [[1.0]]}',
             "a_diag"),
            (MaskedAttentionFactors, '{"p": [1.0], "Q": [[{"a": 1}]], "K": [[1.0]]}', "Q"),
        ],
        ids=["LowerTriangularMatrix", "DiagonalSsm", "MaskedAttentionFactors"],
    )
    def test_an_array_field_holding_an_object_is_a_value_error_naming_it(self, cls, text, name):
        with pytest.raises(ValueError, match=f"^{name} must be an array of numbers"):
            cls.from_json(text)

    def test_constructor_checks_still_run(self):
        with pytest.raises(ValueError, match="above the main diagonal"):
            LowerTriangularMatrix.from_json('{"T": 2, "rows": [[1.0, 1.0], [0.0, 1.0]]}')

    @pytest.mark.parametrize("record, text", TINY_RECORDS, ids=RECORD_IDS)
    def test_missing_keys_are_named(self, record, text):
        obj = json.loads(text)
        gone = list(obj)[-2:]
        for key in gone:
            del obj[key]
        named = ", ".join(repr(key) for key in gone)
        with pytest.raises(ValueError) as exc:
            type(record).from_json(json.dumps(obj))
        assert str(exc.value) == f"the {type(record).__name__} JSON object lacks {named}"

    def test_rejects_a_file_that_is_not_an_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            MaskedAttentionFactors.from_json("[1.0, 2.0]")


class TestJsonDecoder:
    """``json_loads`` reads every number to the bits ``json.loads`` gives, or refuses it alike."""

    @staticmethod
    def assert_same_floats(text):
        got = np.array(ss_matrix.json_loads(text), dtype=float)
        want = np.array(json.loads(text), dtype=float)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), text

    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(st.lists(FINITE_BIT_PATTERNS, min_size=1, max_size=20))
    def test_random_bit_patterns_read_bit_exact_in_every_spelling(self, values):
        spellings = [repr, "{:.17e}".format, "{:.25E}".format, "{:.40g}".format, _halfway]
        for spell in spellings:
            self.assert_same_floats("[" + ", ".join(spell(v) for v in values) + "]")

    @pytest.mark.parametrize(
        "text",
        ["5e-324", "2.4703282292062328e-324", "2.2250738585072011e-308", "1.7976931348623157e308",
         "-0.0", "1E5", "0.1e1", "0." + "123456789" * 6 + "7", "9007199254740993",
         "[18446744073709551616, 18446744073709553664, 18446744073709553665]"],
        ids=["smallest-subnormal", "below-half-subnormal", "below-smallest-normal", "largest",
             "negative-zero", "upper-exponent", "fraction-exponent", "60-digit-mantissa",
             "two-to-53-plus-1", "beyond-2-to-64"],
    )
    def test_hard_spellings_read_bit_exact(self, text):
        self.assert_same_floats(text)

    @pytest.mark.parametrize("text", ["[NaN]", "[Infinity]", "[-Infinity]", "[1e400]", "[-1e400]"])
    def test_literals_orjson_refuses_read_as_json_reads_them(self, text):
        got, want = ss_matrix.json_loads(text), json.loads(text)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("text", ['{"broken', "[1.0,]", "", "\ufeff{}", "{'a': 1}"],
                             ids=["unterminated", "trailing-comma", "empty", "bom", "single-quotes"])
    def test_malformed_text_keeps_json_s_own_error(self, text):
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(text)
        with pytest.raises(json.JSONDecodeError) as got:
            ss_matrix.json_loads(text)
        assert str(got.value) == str(want.value)

    def test_an_integer_beyond_64_bits_reads_as_a_float(self):
        # The one reading that moves: json.loads would give the int 2**64.
        value = ss_matrix.json_loads("18446744073709551616")
        assert type(value) is float and value == 2.0**64
        assert type(ss_matrix.json_loads("18446744073709551615")) is int

    def test_deep_valid_nesting_is_read(self):
        value, depth = ss_matrix.json_loads("[" * 100_000 + "]" * 100_000), 1
        while value:
            value, depth = value[0], depth + 1
        assert depth == 100_000

    @pytest.mark.parametrize(
        "read, text",
        [
            (LowerTriangularMatrix.from_json, '{"T": %s, "rows": [[1.0]]}'),
            (DiagonalSsm.from_json, '{"T": 1, "N": 1, "A_diag": %s, "b": [[1.0]], "c": [[1.0]]}'),
            (GeneralSssRepresentation.from_json,
             '{"T": 1, "N": 1, "A": [[[1.0]]], "b": [[1.0]], "c": [[1.0]], "r": %s}'),
            (sequence_from_json, '{"X": %s}'),
        ],
        ids=["matrix-T", "model-A_diag", "representation-r", "sequence-X"],
    )
    def test_a_deeply_nested_field_is_a_value_error(self, read, text):
        with pytest.raises(ValueError):
            read(text % ("[" * 100_000 + "]" * 100_000))

    def test_nesting_too_deep_for_json_is_a_value_error(self):
        # orjson refuses the unterminated text, and json.loads runs out of recursion on it.
        with pytest.raises(ValueError, match="^the JSON text is nested too deeply to read$"):
            ss_matrix.json_loads("[" * 100_000)


#: Doubles whose JSON spelling is hard: signed zeros, subnormals, the largest double, and
#: magnitudes that ``json.dumps`` writes with an exponent (``1e-05``, ``1e+16``).
JSON_HARD_DOUBLES = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 1e-05,
                     -1e16, 2.0**53 + 2, 0.1, -1.0]


def json_texts(rng: np.random.Generator) -> dict[str, tuple]:
    """(reader, canonical text, keys of the integers it declares) of a model, a matrix, a
    sequence and a factor record, each long enough to span several small pieces."""
    steps, modes = 70, 5

    def values(*shape):
        out = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
        out.flat[: len(JSON_HARD_DOUBLES)] = JSON_HARD_DOUBLES
        return out

    gains = values(steps, modes)
    gains[0] = 1.0
    return {
        "model": (DiagonalSsm.from_json, DiagonalSsm(gains, values(steps, modes),
                                                      values(steps, modes)).to_json(), ("T", "N")),
        "matrix": (LowerTriangularMatrix.from_json,
                   LowerTriangularMatrix(np.tril(values(40, 40))).to_json(), ("T",)),
        "sequence": (sequence_from_json, json.dumps({"X": values(steps, 3).tolist()}), ()),
        "factors": (MaskedAttentionFactors.from_json,
                    json.dumps({"p": values(steps).tolist(), "Q": values(steps, 2).tolist(),
                                "K": values(steps, 2).tolist()}), ()),
    }


def read_outcome(read, text):
    """What ``read`` makes of ``text``: each array's dtype, shape and bytes, or the error's class
    and message."""
    try:
        got = read(text)
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(got, np.ndarray):
        return got.dtype, got.shape, got.tobytes()
    fields = {name: getattr(got, name) for name in ("values", "a_diag", "b", "c", "p", "Q", "K")
              if hasattr(got, name)}
    assert all(type(a) is np.ndarray and not a.flags.writeable for a in fields.values())
    return {name: (a.dtype, a.shape, a.tobytes()) for name, a in fields.items()}


def whole_text_outcome(read, text):
    """``read_outcome`` with every text read whole by ``json_loads``, as before the piece reader."""
    with mock.patch.object(ss_matrix, "_json_object", return_value=None):
        return read_outcome(read, text)


def in_first_rows(text: str, old: str, new: str) -> str:
    """``text`` with the first ``old`` from its first 2-D array on replaced by ``new``."""
    at = text.index("[[")
    return text[:at] + text[at:].replace(old, new, 1)


def first_number(text: str) -> str:
    """The first number of the first 2-D array of a canonical text."""
    return text[text.index("[[") + 2 :].split(",")[0]


#: Spellings of a record's text that the piece reader leaves to ``json_loads``: each maps a
#: canonical text to another.
WHOLE_TEXT_SPELLINGS = {
    "indented": lambda text: json.dumps(json.loads(text), indent=2),
    "compact": lambda text: json.dumps(json.loads(text), separators=(",", ":")),
    "leading-space": lambda text: " " + text,
    "row-per-line": lambda text: text.replace("], [", "],\n [", 3),
    **{f"literal-{literal}": (lambda literal: lambda text: in_first_rows(
        text, "[[" + first_number(text), "[[" + literal))(literal)
       for literal in ("NaN", "Infinity", "-Infinity", "1e400", "null", "true", '"1.5"')},
    "ragged": lambda text: in_first_rows(text, "[[" + first_number(text) + ", ", "[["),
    "scalar-row": lambda text: in_first_rows(text, "], [", "], 2.5, ["),
    "object-in-row": lambda text: in_first_rows(text, "[[" + first_number(text), "[[{}"),
    "nested-row": lambda text: in_first_rows(text, "[[" + first_number(text),
                                             "[[[" + first_number(text) + "]"),
    "three-axes": lambda text: text.replace(": [[", ": [[[", 1).replace("]]", "]]]", 1),
    "repeated-key": lambda text: text[:-1] + ", " + text[1:-1] + "}",
    "repeated-key-other-value": lambda text: text[:-1] + ", " + in_first_rows(
        text[1:-1], "[[" + first_number(text), "[[7.5") + "}",
    "trailing-comma": lambda text: text[:-1] + ", }",
    "after-the-object": lambda text: text + " 1",
}


class TestJsonRecordReader:
    """``_read_json_record`` reads a record's canonical JSON text a piece at a time, to the bits
    that ``json_loads`` and ``np.array`` give, and hands every other text to ``json_loads``."""

    @pytest.mark.parametrize("piece_chars", [1, 97, 1 << 16], ids=["row", "few-rows", "default"])
    @pytest.mark.parametrize("kind", ["model", "matrix", "sequence", "factors"])
    def test_canonical_text_reads_as_json_loads(self, monkeypatch, kind, piece_chars):
        read, text, integers = json_texts(np.random.default_rng(43))[kind]
        assert ss_matrix._json_object(text, integers) is not None
        want = whole_text_outcome(read, text)
        monkeypatch.setattr(ss_matrix, "_PIECE_CHARS", piece_chars)
        monkeypatch.setattr(ss_matrix, "json_loads", mock.Mock(side_effect=AssertionError))
        assert read_outcome(read, text) == want

    def test_pieces_split_the_rows_where_they_may(self, monkeypatch):
        monkeypatch.setattr(ss_matrix, "_PIECE_CHARS", 10)
        text = '{"X": [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]}'
        pieces = list(ss_matrix._pieces(text, "], [", text.index("[[") + 2, len(text) - 3))
        assert pieces == ["1.0, 2.0], [3.0, 4.0", "5.0, 6.0], [7.0, 8.0"]
        assert sequence_from_json(text).tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]
        # A 1-D array is cut between its numbers.
        text = '{"X": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]}'
        pieces = list(ss_matrix._pieces(text, ", ", text.index("[") + 1, len(text) - 2))
        assert pieces == ["1.0, 2.0, 3.0", "4.0, 5.0, 6.0"]
        assert sequence_from_json(text).tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    @pytest.mark.parametrize("spelling", list(WHOLE_TEXT_SPELLINGS))
    @pytest.mark.parametrize("kind", ["model", "matrix", "sequence", "factors"])
    def test_other_spellings_are_read_whole(self, monkeypatch, kind, spelling):
        read, text, integers = json_texts(np.random.default_rng(7))[kind]
        other = WHOLE_TEXT_SPELLINGS[spelling](text)
        assert other != text
        assert ss_matrix._json_object(other, integers) is None
        monkeypatch.setattr(ss_matrix, "_PIECE_CHARS", 97)
        assert read_outcome(read, other) == whole_text_outcome(read, other)

    @pytest.mark.parametrize("spelling", ["number-per-line", "integer-negative-zero"])
    @pytest.mark.parametrize("kind", ["sequence", "factors"])
    @pytest.mark.parametrize("piece_chars", [1, 97, 1 << 16], ids=["number", "few", "default"])
    def test_a_1d_array_reads_alike_by_either_route(self, monkeypatch, kind, spelling, piece_chars):
        # A sequence's X and the factors' p are 1-D arrays, read as a column one number wide.
        rng = np.random.default_rng(17)
        read, text, _ = json_texts(rng)[kind]
        if kind == "sequence":
            text = json.dumps({"X": rng.standard_normal(200).tolist()})
        lo = text.index("[") + 1
        hi = text.index("]", lo)
        numbers = text[lo:hi].split(", ")
        if spelling == "integer-negative-zero":
            numbers[len(numbers) // 2] = "-0"
        other = text[:lo] + (",\n " if spelling == "number-per-line" else ", ").join(numbers)
        other += text[hi:]
        monkeypatch.setattr(ss_matrix, "_PIECE_CHARS", piece_chars)
        assert read_outcome(read, other) == whole_text_outcome(read, other)

    @pytest.mark.parametrize(
        "text",
        ['{"T": 18446744073709551616, "rows": [[1.0]]}', '{"T": 1, "rows": [[18446744073709551616]]}',
         '{"T": 1, "rows": [[-0]]}', '{"T": -0, "rows": [[1.0]]}', '{"T": 1, "rows": [[1]]}',
         '{"T": 1, "rows": [[1.0]]}\n', '{"T": 1, "rows": [[1.0]], "extra": [2.0, 3.0]}',
         '{"T": 2, "rows": [[1.0]]}', '{"T": 1, "rows": [[]]}', '{"T": 0, "rows": [[], []]}',
         '{"T": 1, "rows": []}', '{"T": 1, "rows": [1.0]}', '{"T": 1, "rows": 5}',
         '{"T": [1], "rows": [[1.0]]}', '{"T": 1.0, "rows": [[1.0]]}', '{"T": 01, "rows": [[1.0]]}',
         '{"rows": [[1.0]]}', '{"T": 1, "rows": [[1.0], [2.0]]}',
         '{"T": 3, "rows": [[1.0], 2.0, [3.0]]}', '{"T": 3, "rows": [1.0], 2.0, [3.0]}',
         '{"T": 1, "rows": [[1.0]], "p": [1.0,2.0, ]}',
         '{"T": 1, "rows": [[1.0]], "p": [1.0], [2.0]}'],
        ids=["scalar-beyond-64-bits", "entry-beyond-64-bits", "integer-negative-zero",
             "scalar-negative-zero", "integer-entry", "trailing-newline", "extra-key",
             "declared-size-differs", "empty-row", "empty-rows", "no-rows", "one-axis",
             "scalar-rows", "array-size", "float-size", "leading-zero", "missing-size", "tall",
             "scalar-row", "scalar-between-arrays", "trailing-comma-after-numbers", "arrays-apart"],
    )
    @pytest.mark.parametrize("piece_chars", [1, 1 << 16], ids=["number", "default"])
    def test_either_route_reads_a_text_alike(self, monkeypatch, text, piece_chars):
        # Read by pieces or whole, each text gives the values, or the refusal, it gave before.
        monkeypatch.setattr(ss_matrix, "_PIECE_CHARS", piece_chars)
        read = LowerTriangularMatrix.from_json
        assert read_outcome(read, text) == whole_text_outcome(read, text)

    def test_a_representation_with_two_axes_of_transitions_is_refused_alike(self):
        # Its "r" would reach the constructor as a float array; the check on "A" refuses first.
        text = '{"T": 1, "N": 1, "A": [[1.0]], "b": [[1.0]], "c": [[1.0]], "r": [1]}'
        assert ss_matrix._json_object(text, ("T", "N")) is not None
        read = GeneralSssRepresentation.from_json
        assert read_outcome(read, text) == whole_text_outcome(read, text)
        assert read_outcome(read, text)[0] is ShapeMismatchError

    @pytest.mark.parametrize(
        "read, text",
        [(ss_matrix.array_from_csv, ",".join(["1.0"] * 500) + "\n" + "1.0\n" * 20000),
         (sequence_from_json, '{"X": [[' + ", ".join(["1.0"] * 500) + "]" + ", [1.0]" * 20000 + "]}")],
        ids=["csv", "json"],
    )
    def test_rows_too_many_for_the_text_make_no_array(self, monkeypatch, read, text):
        # A first piece of one 500-number row, and 20001 rows in all, would size an array of
        # 80 MB for a text of under 150 kB; at 64 KiB pieces the array can be larger than memory.
        monkeypatch.setattr(ss_matrix, "_PIECE_CHARS", 97)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                read(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_a_model_read_holds_its_arrays_once(self):
        # Beyond its text, the read holds about 1.4 times the model's arrays: the arrays and one
        # piece. Whole, through Python floats and a copy, it held about 5.8 times.
        rng = np.random.default_rng(5)
        gains = rng.uniform(0.5, 1.0, (4096, 16))
        gains[0] = 1.0
        model = DiagonalSsm(gains, rng.standard_normal((4096, 16)), rng.standard_normal((4096, 16)))
        text = model.to_json()
        tracemalloc.start()
        try:
            got = DiagonalSsm.from_json(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.a_diag.tobytes() == model.a_diag.tobytes()
        assert peak < 2.0 * 3 * model.a_diag.nbytes


def repr_csv(x) -> str:
    """The CSV writer ``array_to_csv`` had before orjson: each row's ``repr`` values joined."""
    rows = np.atleast_2d(np.asarray(x, dtype=float))
    return "\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n"


#: The two edges of the range where orjson spells a float as ``repr``, their neighbours, and
#: values outside it: signed zeros, the smallest subnormal, NaN, the infinities, the largest double.
EDGE_DOUBLES = [
    edge * sign
    for edge in (
        1e-4, float(np.nextafter(1e-4, 0)), float(np.nextafter(1e-4, 1)),
        1e16, float(np.nextafter(1e16, 0)), float(np.nextafter(1e16, np.inf)),
        0.0, 5e-324, 1.7976931348623157e308, np.nan, np.inf,
    )
    for sign in (1.0, -1.0)
]

#: Integer-valued doubles above 2**53, where ``repr`` keeps a ".0" up to 1e16 and an exponent after.
BIG_INTEGERS = [2.0**53, 2.0**53 + 2, 9999999999999998.0, 2.0**54 + 4, 2.0**60, 2.0**64, 1e17, 1e22]


class TestFloatArrayWriter:
    """``json_dumps`` writes ``json.dumps``'s text and ``array_to_csv`` the ``repr`` join, byte
    for byte, whichever of orjson and ``json.dumps`` writes each row."""

    @staticmethod
    def assert_written_as_before(a):
        a = np.asarray(a)
        want = json.dumps(a.tolist())
        assert ss_matrix._float_array_json(a) == want
        assert ss_matrix.json_dumps(a) == want
        assert ss_matrix.json_dumps({"a": a, "b": {"c": a}}) == json.dumps(
            {"a": a.tolist(), "b": {"c": a.tolist()}}
        )
        if a.ndim <= 2:
            assert ss_matrix.array_to_csv(a) == repr_csv(a)

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(
        st.integers(1, 4).flatmap(
            lambda cols: st.lists(
                st.lists(FINITE_BIT_PATTERNS, min_size=cols, max_size=cols), min_size=1, max_size=40
            )
        )
    )
    def test_random_bit_patterns_are_written_as_before(self, rows):
        a = np.array(rows, dtype=float)
        self.assert_written_as_before(a)
        self.assert_written_as_before(a.ravel())

    @pytest.mark.parametrize("value", EDGE_DOUBLES + BIG_INTEGERS, ids=repr)
    def test_edge_values_are_written_as_before_wherever_they_sit(self, value):
        safe = np.arange(1.0, 13.0).reshape(4, 3)
        for row, col in itertools.product(range(4), range(3)):
            a = safe.copy()
            a[row, col] = value
            self.assert_written_as_before(a)
        self.assert_written_as_before(np.array([value]))
        self.assert_written_as_before(np.array(value))

    def test_the_range_edges_pick_the_route(self):
        # 1e-4 and the largest double below 1e16 are orjson's; their outer neighbours are not.
        inside = [1e-4, -1e-4, float(np.nextafter(1e16, 0)), 0.0, -0.0]
        outside = [float(np.nextafter(1e-4, 0)), 1e16, 5e-324, np.nan, np.inf, -np.inf]
        a = np.array([[v] for v in inside + outside])
        assert ss_matrix._safe_runs(a) == [(0, len(inside), True), (len(inside), len(a), False)]

    @pytest.mark.parametrize(
        "shape", [(0,), (5,), (0, 4), (4, 0), (1, 0), (3, 4), (2, 0, 3), (2, 3, 0), (3, 2, 4)],
        ids=str,
    )
    def test_every_shape_is_written_as_before(self, shape):
        rng = np.random.default_rng(len(shape))
        a = rng.standard_normal(shape)
        self.assert_written_as_before(a)
        if a.size:
            a.flat[a.size // 2] = 1e-9  # one unsafe row in the middle
            self.assert_written_as_before(a)

    def test_views_are_written_as_before(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((9, 6)) * 10.0 ** rng.integers(-8, 18, (9, 6))
        views = [a[:, ::2], a.T, a[::-1], a[1:7, 2:5], a[::3]]
        for view in views:
            frozen = view.view()
            frozen.flags.writeable = False
            assert not view.flags.c_contiguous
            self.assert_written_as_before(view)
            self.assert_written_as_before(frozen)
        cube = rng.standard_normal((4, 5, 6))
        self.assert_written_as_before(cube.transpose(2, 0, 1)[:, ::2])

    @pytest.mark.parametrize(
        "unsafe", [[0], [7], [0, 7], [3, 4], [2, 3, 4, 6], [0, 1, 2, 3, 4, 5, 6, 7]], ids=str
    )
    def test_unsafe_rows_first_last_and_adjacent(self, unsafe):
        rng = np.random.default_rng(11)
        a = rng.uniform(0.5, 2.0, (8, 3))
        spellings = [1e-05, 2.5e-07, 1e16, np.nan, -np.inf, 5e-324]
        for i, row in enumerate(unsafe):
            a[row, i % 3] = spellings[i % len(spellings)]
        safe = [(lo, hi) for lo, hi, ok in ss_matrix._safe_runs(a) if ok]
        assert sum(hi - lo for lo, hi in safe) == 8 - len(unsafe)
        self.assert_written_as_before(a)
        self.assert_written_as_before(a[:, None, :])

    def test_values_other_than_float_arrays_go_to_json_dumps(self):
        values = [
            {}, [], None, True, 3, -0.0, float("nan"), 1e-05, "text", [1.0, [2.5e-07]],
            {"é\n\"key\"": [1, 2], "n": np.float64(1e16), "t": (1, 2.0)},
            {"ints": {"x": 1}, "empty": {}},
            {1: 2.0, "a": 3.0},  # a key that is not a str: json.dumps writes the whole dict
        ]
        for value in values:
            assert ss_matrix.json_dumps(value) == json.dumps(value)

    def test_a_non_float_array_is_refused_as_json_dumps_refuses_it(self):
        with pytest.raises(TypeError):
            json.dumps({"r": np.arange(3)})
        with pytest.raises(TypeError):
            ss_matrix.json_dumps({"r": np.arange(3)})

    @pytest.mark.parametrize("record, text", TINY_RECORDS, ids=RECORD_IDS)
    def test_records_write_json_dumps_of_their_dicts(self, record, text):
        fields = {key: value.tolist() if isinstance(value, np.ndarray) else value
                  for key, value in record.json_fields().items()}
        assert record.to_json() == json.dumps(fields)

    def test_a_large_matrix_is_written_as_before(self):
        rng = np.random.default_rng(3)
        m = np.tril(rng.standard_normal((300, 300)))
        m[17, 3], m[18, 0], m[299, 299] = 1e-7, -3e20, 2.5e-05
        self.assert_written_as_before(m)
