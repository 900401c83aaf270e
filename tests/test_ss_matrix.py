"""Tests for the semiseparable-matrix primitives."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdlab import ss_matrix
from ssdlab.bench import FlopReport
from ssdlab.duality import MaskedAttentionFactors
from ssdlab.errors import ShapeMismatchError, SizeExceededError
from ssdlab.limits import CounterexampleReport
from ssdlab.ss_matrix import (
    LowerTriangularMatrix,
    MaskVector,
    blocks_from_cuts,
    diagonal_block_partition,
    is_fine_mask,
    new_columns,
    numerical_rank,
    one_ss,
    rel_err,
    semiseparable_rank,
    submatrix_rank_oracle,
)
from ssdlab.ssm import DiagonalSsm
from ssdlab.sss_extract import GeneralSssRepresentation
from tests.conftest import random_lower_triangular, run_ssdlab

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
        got = one_ss(MaskVector([5.0, 1.0, 1.0]))
        assert np.array_equal(got.values, np.tril(np.ones((3, 3))))

    def test_direct_product_example(self):
        got = one_ss(MaskVector([7.0, 2.0, 3.0]))
        expected = np.array([[1, 0, 0], [2, 1, 0], [6, 3, 1]], dtype=float)
        assert np.array_equal(got.values, expected)
        # first gain is ignored
        other = one_ss(MaskVector([-4.0, 2.0, 3.0]))
        assert np.array_equal(got.values, other.values)

    def test_zero_gain_annihilates_earlier_columns(self):
        got = one_ss(MaskVector([9.0, 0.0, 5.0]))
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
        got = one_ss(MaskVector(gains)).values
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
            got = one_ss(MaskVector(gains)).values
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
        got = one_ss(MaskVector(gains)).values
        assert np.array_equal(np.diag(got), np.ones(len(gains)))


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
            assert semiseparable_rank(one_ss(MaskVector(gains))) == 1

    def test_zero_matrix_has_rank_zero(self):
        assert semiseparable_rank(LowerTriangularMatrix(np.zeros((4, 4)))) == 0


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


class TestDiagonalBlockPartition:
    def test_identity_splits_fully(self):
        m = LowerTriangularMatrix(np.eye(3))
        assert diagonal_block_partition(m) == [1, 2]
        assert blocks_from_cuts(3, [1, 2]) == [(0, 1), (1, 2), (2, 3)]

    def test_corner_entry_blocks_all_cuts(self):
        assert diagonal_block_partition(corner_matrix(5)) == []

    def test_zero_gain_cuts_the_mask(self):
        m = one_ss(MaskVector([1.0, 1.0, 0.0, 1.0]))
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


class TestIsFineMask:
    def test_first_entry_is_ignored(self):
        assert is_fine_mask(MaskVector([0.0, 1.0, 1.0]))

    def test_zero_gain_is_not_fine(self):
        assert not is_fine_mask(MaskVector([1.0, 0.0, 1.0]))

    def test_all_nonzero_is_fine(self):
        assert is_fine_mask(MaskVector([2.0, 3.0, 4.0]))


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

    @pytest.mark.parametrize(
        "arr, error",
        [
            (np.triu(np.ones((3, 3))), "above the main diagonal"),
            (np.array([[np.inf]]), "finite"),
            (np.zeros((2, 3)), "square"),
            (np.zeros((0, 0)), "at least 1"),
        ],
    )
    def test_builders_handover_keeps_every_check(self, arr, error):
        with pytest.raises(ValueError, match=error):
            LowerTriangularMatrix._adopt(arr)

    def test_panel_walk_output_is_not_rescanned(self, monkeypatch):
        def rescan(self, arr):
            raise AssertionError("the walk's output went through the full checks")

        monkeypatch.setattr(LowerTriangularMatrix, "_own", rescan)
        m = one_ss(MaskVector(np.full(70, 0.5)))
        assert m.values[69, 0] == 0.5**69
        with pytest.raises(ValueError):
            m.values[0, 0] = 2.0


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

    def test_mask_vector_round_trip(self):
        mask = MaskVector([0.1, -2.5, 1e-12])
        again = MaskVector.from_json(mask.to_json())
        assert np.array_equal(mask.a, again.a)


class TestCsvReader:
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

    def test_blank_and_whitespace_only_lines_are_skipped(self):
        got = ss_matrix.array_from_csv("\n1.5,-2.0\n   \n\t\n3.0,4e-310\r\n\n")
        assert got.tobytes() == np.array([[1.5, -2.0], [3.0, 4e-310]]).tobytes()

    def test_one_column_and_one_row_stay_two_dimensional(self):
        assert ss_matrix.array_from_csv("1.0\n2.0\n").shape == (2, 1)
        assert ss_matrix.array_from_csv("1.0,2.0").shape == (1, 2)

    @pytest.mark.parametrize(
        "text",
        ["1.0,2.0\n3.0\n", "1.0,2.0,\n3.0,4.0,\n", "# T=2\n1.0\n", "1.0,#2.0\n", '"1.0",2.0\n', "1_0\n"],
        ids=["ragged", "trailing-comma", "comment-line", "comment-field", "quoted", "underscore"],
    )
    def test_malformed_text_raises_value_error(self, text):
        with pytest.raises(ValueError):
            ss_matrix.array_from_csv(text)

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


#: One tiny instance of every JSON record type and its file text, key order included.
TINY_RECORDS = [
    (
        LowerTriangularMatrix([[1.0, 0.0], [0.5, -2.0]]),
        '{"T": 2, "rows": [[1.0, 0.0], [0.5, -2.0]]}',
    ),
    (MaskVector([1.0, 0.25]), '{"a": [1.0, 0.25]}'),
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
        assert record.to_dict() == json.loads(text)

    @pytest.mark.parametrize("record, text", TINY_RECORDS, ids=RECORD_IDS)
    def test_round_trip_gives_the_same_file(self, record, text):
        again = type(record).from_json(text)
        assert again.to_json() == text

    @pytest.mark.parametrize("record, text", TINY_RECORDS, ids=RECORD_IDS)
    def test_codec_lives_in_each_class(self, record, text):
        # Span wrappers look the loader up in the class's own namespace.
        cls = type(record)
        assert isinstance(cls.__dict__["from_json"], classmethod)
        assert {"to_dict", "to_json"} <= set(cls.__dict__)

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

    def test_constructor_checks_still_run(self):
        with pytest.raises(ValueError, match="above the main diagonal"):
            LowerTriangularMatrix.from_json('{"T": 2, "rows": [[1.0, 1.0], [0.0, 1.0]]}')

    def test_rejects_a_file_that_is_not_an_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            MaskVector.from_json("[1.0, 2.0]")
