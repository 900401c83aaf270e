"""Tests for the impossibility demonstrations."""

import math
import warnings

import numpy as np
import pytest

from ssdlab.errors import SizeExceededError
from ssdlab.limits import (
    SOFTMAX_MAX_T,
    _logsumexp,
    non_dualizable_matrix,
    softmax_counterexample,
    verify_non_dualizable,
)
from ssdlab.ss_matrix import new_columns, semiseparable_rank
from tests.oracles import has_one_ss_dual


class TestLogSumExp:
    def test_large_equal_values_do_not_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _logsumexp(np.array([1000.0, 1000.0])) == 1000.0 + math.log(2.0)

    def test_negligible_term_vanishes(self):
        assert _logsumexp(np.array([-1000.0, 0.0])) == 0.0

    @pytest.mark.parametrize("size", range(2, SOFTMAX_MAX_T + 1))
    def test_softmax_normalizers_match_exact_sum(self, size):
        idx = np.arange(1, size + 1)
        for i in idx:
            row = (i * idx).tolist()
            exact = math.log(math.fsum(math.exp(v) for v in row))
            assert abs(_logsumexp(i * idx) - exact) <= 4e-16 * abs(exact)


class TestSoftmaxCounterexample:
    def test_smallest_case_by_hand(self):
        report = softmax_counterexample(2)
        assert report.verdict
        assert report.measurements["rank_V_exact_one"]
        assert report.measurements["softmax_numeric_rank"] == 2
        # direct 2x2 determinant of the row-normalized scores
        z1 = np.exp(1.0) + np.exp(2.0)
        z2 = np.exp(2.0) + np.exp(4.0)
        det = (np.exp(1.0) * np.exp(4.0) - np.exp(2.0) * np.exp(2.0)) / (z1 * z2)
        assert abs(report.measurements["logdet_direct"] - np.log(abs(det))) < 1e-12

    @pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
    def test_rank_explosion_up_to_six(self, size):
        report = softmax_counterexample(size)
        assert report.verdict
        assert report.measurements["softmax_numeric_rank"] == size
        assert report.measurements["logdet_rel_err"] <= 1e-6
        assert report.measurements["row_sum_max_abs_err"] <= 1e-12

    def test_submatrix_sweep_runs_at_small_sizes(self):
        report = softmax_counterexample(5)
        assert report.measurements["all_square_submatrices_full_rank"]
        larger = softmax_counterexample(6)
        assert "all_square_submatrices_full_rank" not in larger.measurements

    def test_size_limits(self):
        with pytest.raises(SizeExceededError):
            softmax_counterexample(1)
        with pytest.raises(SizeExceededError):
            softmax_counterexample(9)

    def test_report_json(self):
        report = softmax_counterexample(3)
        assert '"verdict": true' in report.to_json()


class TestNonDualizableMatrix:
    def test_smallest_instance(self):
        expected = np.array([[1.0, 0, 0], [0, 1, 0], [1, 0, 1]])
        assert np.array_equal(non_dualizable_matrix(3).values, expected)

    def test_is_width_two_semiseparable(self):
        assert semiseparable_rank(non_dualizable_matrix(5)) == 2

    def test_all_but_last_column_are_new(self):
        for size in (3, 5, 8):
            assert new_columns(non_dualizable_matrix(size)) == list(range(size - 1))

    def test_rejects_tiny_sizes(self):
        with pytest.raises(ValueError):
            non_dualizable_matrix(2)


class TestVerifyNonDualizable:
    def test_reference_case(self):
        report = verify_non_dualizable(5, 2)
        assert report.applicable and report.verdict
        assert not report.measurements["has_attention_dual"]
        assert report.measurements["semiseparable_rank"] == 2
        assert report.measurements["extraction_roundtrip_rel_err"] <= 1e-8

    def test_wide_factors_are_out_of_scope(self):
        report = verify_non_dualizable(5, 4)
        assert not report.applicable
        assert report.measurements["has_attention_dual"]

    def test_boundary_size_is_out_of_scope(self):
        report = verify_non_dualizable(3, 2)
        assert not report.applicable

    def test_failure_across_the_whole_grid(self):
        for size in range(3, 17):
            m = non_dualizable_matrix(size)
            for width in range(2, size - 1):
                assert not has_one_ss_dual(m, width)
