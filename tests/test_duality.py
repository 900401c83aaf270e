"""Tests for dual constructions and representability decisions."""

import json

import numpy as np
import pytest

from ssdlab import cli, duality
from ssdlab.duality import (
    MaskedAttentionFactors,
    attention_like_decomposition,
    construct_one_ss_dual,
    count_block_new_columns,
    full_rank_one_ss_dual,
    has_one_ss_dual,
    kernel_residual,
    masked_attention_forward,
    materialize_term,
    representability_report,
    scalar_identity_dual,
)
from ssdlab.errors import (
    NotRepresentableError,
    NotScalarIdentityError,
    ReconstructionError,
    UnstableScalingError,
    ZeroGainError,
)
from ssdlab.limits import non_dualizable_matrix, verify_non_dualizable
from ssdlab.ss_matrix import LowerTriangularMatrix, new_columns
from ssdlab.ssm import DiagonalSsm, forward_recurrence, materialize_kernel, random_instance
from tests.conftest import rel_fro, representable_matrix


class TestScalarIdentityDual:
    def test_single_mode_is_always_applicable(self):
        ssm, x = random_instance(30, 10, 1, 2)
        factors = scalar_identity_dual(ssm)
        assert kernel_residual(ssm, factors) <= 1e-12

    def test_two_mode_half_gain_kernel(self):
        gains = np.array([[1.0, 1.0], [0.5, 0.5], [0.5, 0.5]])
        ones = np.ones((3, 2))
        ssm = DiagonalSsm(gains, ones, ones)
        factors = scalar_identity_dual(ssm)
        expected = np.array([[2, 0, 0], [1, 2, 0], [0.5, 1, 2]])
        assert np.allclose(factors.materialize().values, expected, rtol=1e-14)
        assert np.allclose(materialize_kernel(ssm).values, expected, rtol=1e-14)

    def test_rejects_mode_dependent_gains(self):
        gains = np.ones((3, 2))
        gains[1] = [0.5, 0.7]
        ssm = DiagonalSsm(gains, np.ones((3, 2)), np.ones((3, 2)))
        with pytest.raises(NotScalarIdentityError):
            scalar_identity_dual(ssm)


class TestAttentionLikeDecomposition:
    def test_single_mode_term_equals_kernel(self):
        ssm, _ = random_instance(31, 8, 1, 1)
        (term,) = attention_like_decomposition(ssm)
        assert rel_fro(materialize_term(term).values, materialize_kernel(ssm).values) <= 1e-14

    def test_terms_sum_to_kernel(self):
        ssm, _ = random_instance(32, 8, 4, 1)
        total = sum(materialize_term(t).values for t in attention_like_decomposition(ssm))
        assert rel_fro(total, materialize_kernel(ssm).values) <= 1e-12

    def test_zero_input_weight_mode_materializes_to_zero(self):
        ssm, _ = random_instance(33, 6, 3, 1)
        b = ssm.b.copy()
        b[:, 1] = 0.0
        modified = DiagonalSsm(ssm.a_diag, b, ssm.c)
        term = attention_like_decomposition(modified)[1]
        assert np.array_equal(materialize_term(term).values, np.zeros((6, 6)))


class TestMaterializeTerm:
    def test_unit_everything_gives_all_ones_triangle(self):
        term = attention_like_decomposition(
            DiagonalSsm(np.ones((4, 1)), np.ones((4, 1)), np.ones((4, 1)))
        )[0]
        assert np.array_equal(materialize_term(term).values, np.tril(np.ones((4, 4))))

    def test_gain_products(self):
        ssm = DiagonalSsm(np.array([[1.0], [2.0], [3.0]]), np.ones((3, 1)), np.ones((3, 1)))
        (term,) = attention_like_decomposition(ssm)
        expected = np.array([[1, 0, 0], [2, 1, 0], [6, 3, 1]], dtype=float)
        assert np.array_equal(materialize_term(term).values, expected)

    def test_zero_output_weight_zeroes_the_row(self):
        ssm, _ = random_instance(34, 4, 1, 1)
        c = ssm.c.copy()
        c[1] = 0.0
        (term,) = attention_like_decomposition(DiagonalSsm(ssm.a_diag, ssm.b, c))
        assert np.array_equal(materialize_term(term).values[1], np.zeros(4))


class TestFullRankDual:
    def test_cumulative_product_scalings(self):
        ssm = DiagonalSsm(np.array([[1.0], [2.0], [3.0]]), np.ones((3, 1)), np.ones((3, 1)))
        factors = full_rank_one_ss_dual(ssm)
        assert np.allclose(factors.Q.ravel(), [1.0, 2.0, 6.0])
        assert np.allclose(factors.K.ravel(), [1.0, 0.5, 1.0 / 6.0])
        assert np.array_equal(factors.p, np.ones(3))
        assert abs(factors.materialize().values[2, 1] - 3.0) < 1e-14

    def test_rejects_zero_gain(self):
        gains = np.ones((4, 2))
        gains[2, 1] = 0.0
        ssm = DiagonalSsm(gains, np.ones((4, 2)), np.ones((4, 2)))
        with pytest.raises(ZeroGainError):
            full_rank_one_ss_dual(ssm)

    def test_rejects_unstable_product_range(self):
        gains = np.full((60, 1), 0.5)
        gains[0] = 1.0
        ssm = DiagonalSsm(gains, np.ones((60, 1)), np.ones((60, 1)))
        with pytest.raises(UnstableScalingError):
            full_rank_one_ss_dual(ssm)

    def test_reproduces_kernel_on_random_instances(self):
        for seed in range(20):
            ssm, _ = random_instance(40 + seed, 32, 4, 1, a_abs=(0.5, 2.0))
            assert kernel_residual(ssm, full_rank_one_ss_dual(ssm)) <= 1e-8

    def test_matches_scalar_dual_materialization_when_both_apply(self):
        ssm, _ = random_instance(60, 16, 3, 1, a_abs=(0.5, 2.0), scalar_identity=True)
        via_scalar = scalar_identity_dual(ssm).materialize().values
        via_full = full_rank_one_ss_dual(ssm).materialize().values
        assert rel_fro(via_scalar, via_full) <= 1e-10


class TestMaskedAttentionForward:
    def test_scalar_dual_matches_recurrence(self):
        ssm, x = random_instance(35, 16, 3, 2, scalar_identity=True)
        factors = scalar_identity_dual(ssm)
        assert rel_fro(masked_attention_forward(factors, x), forward_recurrence(ssm, x)) <= 1e-10

    def test_zero_input(self):
        ssm, _ = random_instance(36, 8, 2, 2)
        factors = scalar_identity_dual(DiagonalSsm(np.ones((8, 2)), ssm.b, ssm.c))
        assert np.array_equal(masked_attention_forward(factors, np.zeros((8, 2))), np.zeros((8, 2)))

    def test_zero_mask_acts_diagonally(self):
        rng = np.random.default_rng(37)
        q = rng.standard_normal((5, 3))
        k = rng.standard_normal((5, 3))
        x = rng.standard_normal((5, 2))
        factors = MaskedAttentionFactors(np.zeros(5), q, k)
        expected = np.einsum("tn,tn->t", q, k)[:, None] * x
        assert np.allclose(masked_attention_forward(factors, x), expected, rtol=1e-13)


class TestBlockNewColumnCounts:
    def test_identity_splits_into_unit_blocks(self):
        blocks = count_block_new_columns(LowerTriangularMatrix(np.eye(3)))
        assert [(b.start, b.end, b.new_columns) for b in blocks] == [
            (0, 1, 1),
            (1, 2, 1),
            (2, 3, 1),
        ]

    def test_corner_matrix_is_one_block_with_four_new_columns(self):
        blocks = count_block_new_columns(non_dualizable_matrix(5))
        assert [(b.start, b.end, b.new_columns) for b in blocks] == [(0, 5, 4)]

    def test_all_ones_triangle_has_one_new_column(self):
        blocks = count_block_new_columns(LowerTriangularMatrix(np.tril(np.ones((4, 4)))))
        assert [(b.start, b.end, b.new_columns) for b in blocks] == [(0, 4, 1)]

    def test_blocks_compare_by_verdicts_not_coefficients(self):
        m = representable_matrix(5, 12, 2, blocks=2)
        first, again = count_block_new_columns(m), count_block_new_columns(m)
        assert first == again
        assert all(len(b.new) == b.end - b.start for b in first)


class TestHasOneSsDual:
    def test_corner_matrix_thresholds(self):
        m = non_dualizable_matrix(5)
        assert not has_one_ss_dual(m, 2)
        assert has_one_ss_dual(m, 4)

    def test_monotone_in_width(self):
        for seed in range(10):
            m = representable_matrix(seed, 8, 2)
            previous = False
            for width in range(1, 6):
                current = has_one_ss_dual(m, width)
                assert current or not previous
                previous = current

    def test_full_rank_kernel_is_representable_at_its_width(self):
        for seed in range(10):
            ssm, _ = random_instance(70 + seed, 12, 3, 1, a_abs=(0.5, 2.0))
            assert has_one_ss_dual(materialize_kernel(ssm), 3)

    def test_report_schema(self):
        report = representability_report(non_dualizable_matrix(5), 2)
        assert report == {
            "blocks": [{"start": 0, "end": 5, "new_columns": 4}],
            "representable": False,
        }
        m = representable_matrix(17, 12, 2, blocks=2)
        report = representability_report(m, 2)
        assert list(report) == ["blocks", "representable", "reconstruction_rel_residual", "factors"]
        assert report["representable"]
        assert report["factors"] == json.loads(construct_one_ss_dual(m, 2).to_json())
        back = MaskedAttentionFactors.from_json(json.dumps(report["factors"])).materialize()
        assert report["reconstruction_rel_residual"] == rel_fro(back.values, m.values)
        assert report["reconstruction_rel_residual"] <= 1e-9

    def test_report_raises_when_the_construction_misses_its_gate(self):
        # Mode decay rates differ, so the width-4 fill grows far past the kernel's scale.
        ssm, _ = random_instance(0, 64, 4, 1, a_abs=(0.5, 1.0))
        with pytest.raises(ReconstructionError):
            representability_report(materialize_kernel(ssm), 4)


class TestFineMaskWidthBound:
    def test_fine_masked_products_have_at_most_width_new_columns(self):
        for seed in range(100):
            width = 1 + seed % 3
            m = representable_matrix(seed, 8, width)
            assert len(new_columns(m)) <= width

    def test_forced_independent_columns_are_rejected(self):
        rng = np.random.default_rng(99)
        for width in (1, 2, 3):
            size = 8
            vals = np.zeros((size, size))
            vals[np.arange(size), np.arange(size)] = rng.uniform(0.5, 2.0, size)
            for t in range(width + 1):
                vals[size - 1 - t, t] = rng.uniform(0.5, 2.0)
            m = LowerTriangularMatrix(vals)
            assert not has_one_ss_dual(m, width)
            with pytest.raises(NotRepresentableError):
                construct_one_ss_dual(m, width)


class TestConstructOneSsDual:
    def test_all_ones_triangle_width_one(self):
        m = LowerTriangularMatrix(np.tril(np.ones((4, 4))))
        factors = construct_one_ss_dual(m, 1)
        assert rel_fro(factors.materialize().values, m.values) <= 1e-12
        assert factors.p[0] == 0.0 and np.array_equal(factors.p[1:], np.ones(3))

    def test_identity_width_one(self):
        factors = construct_one_ss_dual(LowerTriangularMatrix(np.eye(3)), 1)
        assert np.array_equal(factors.p, np.zeros(3))
        diag = np.einsum("tn,tn->t", factors.Q, factors.K)
        assert np.allclose(diag, np.ones(3), rtol=1e-12)
        assert rel_fro(factors.materialize().values, np.eye(3)) <= 1e-12

    def test_corner_matrix_is_not_representable_at_width_two(self):
        with pytest.raises(NotRepresentableError):
            construct_one_ss_dual(non_dualizable_matrix(5), 2)

    def test_round_trips_on_representable_matrices(self):
        for seed in range(30):
            width = 1 + seed % 3
            blocks = 1 + seed % 2
            m = representable_matrix(seed, 10, width, blocks=blocks)
            factors = construct_one_ss_dual(m, width)
            back = factors.materialize().values
            assert np.linalg.norm(back - m.values) <= 1e-8 * np.linalg.norm(m.values)
            assert factors.Q.shape == (10, width)

    def test_mask_zeros_at_block_starts(self):
        m = representable_matrix(123, 10, 2, blocks=3)
        starts = [b.start for b in count_block_new_columns(m)]
        factors = construct_one_ss_dual(m, 2)
        assert all(factors.p[s] == 0.0 for s in starts)

    def test_zero_matrix_is_trivially_representable(self):
        m = LowerTriangularMatrix(np.zeros((4, 4)))
        assert has_one_ss_dual(m, 1)
        factors = construct_one_ss_dual(m, 1)
        assert np.array_equal(factors.materialize().values, np.zeros((4, 4)))


class TestOneSweepPerCall:
    """Each call partitions once and fits each column at most once."""

    SIZE = 32

    @staticmethod
    def counted(monkeypatch):
        calls = {"lstsq": 0, "partition": 0, "sweep": 0, "materialize": 0}

        def count(owner, attr, key):
            original = getattr(owner, attr)

            def counting(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counting)

        count(np.linalg, "lstsq", "lstsq")
        count(duality, "diagonal_block_partition", "partition")
        count(duality, "_new_column_sweep", "sweep")
        count(MaskedAttentionFactors, "materialize", "materialize")
        return calls

    def test_construct_one_ss_dual(self, monkeypatch):
        m = representable_matrix(41, self.SIZE, 3, blocks=3)
        calls = self.counted(monkeypatch)
        construct_one_ss_dual(m, 3)
        assert calls["lstsq"] <= self.SIZE
        assert calls["partition"] == 1

    def test_verify_non_dualizable(self, monkeypatch):
        calls = self.counted(monkeypatch)
        report = verify_non_dualizable(self.SIZE, 2)
        assert report.verdict
        assert calls["lstsq"] <= self.SIZE
        assert calls["partition"] == 1

    def test_check_dual_command(self, monkeypatch, tmp_path):
        m = representable_matrix(41, self.SIZE, 3, blocks=3)
        (tmp_path / "m.csv").write_text(m.to_csv())
        calls = self.counted(monkeypatch)
        code = cli.main([
            "check-dual", "--mode", "representability", "--matrix", str(tmp_path / "m.csv"),
            "--N", "3", "--out", str(tmp_path / "out.json"),
        ])
        assert code == cli.EXIT_OK
        assert "factors" in json.loads((tmp_path / "out.json").read_text())
        assert calls["lstsq"] <= self.SIZE
        assert calls["partition"] == 1
        assert calls["sweep"] == 1
        assert calls["materialize"] == 1


class TestFactorsSerialization:
    def test_json_round_trip(self):
        rng = np.random.default_rng(8)
        factors = MaskedAttentionFactors(
            rng.standard_normal(4), rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
        )
        again = MaskedAttentionFactors.from_json(factors.to_json())
        assert np.array_equal(factors.p, again.p)
        assert np.array_equal(factors.Q, again.Q)
        assert np.array_equal(factors.K, again.K)
