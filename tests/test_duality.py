"""Tests for dual constructions and representability decisions."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdlab import cli, duality, ss_matrix, sss_extract
from ssdlab.duality import (
    MaskedAttentionFactors,
    attention_like_decomposition,
    construct_one_ss_dual,
    count_block_new_columns,
    full_rank_one_ss_dual,
    kernel_residual,
    one_ss,
    representability_report,
    scalar_identity_dual,
)
from ssdlab.errors import (
    NotRepresentableError,
    NotScalarIdentityError,
    ShapeMismatchError,
    UnstableScalingError,
    ZeroGainError,
)
from ssdlab.limits import non_dualizable_matrix, verify_non_dualizable
from ssdlab.ss_matrix import LowerTriangularMatrix, json_dumps, new_columns
from ssdlab.ssm import (
    FORWARD_PATHS,
    DiagonalSsm,
    forward_materialized,
    forward_recurrence,
    materialize_kernel,
    random_instance,
)
from ssdlab.sss_extract import extract_sss, materialize_sss, random_representation
from tests.conftest import rel_fro, representable_matrix
from tests.oracles import has_one_ss_dual
from tests.test_sss_extract import noisy_representation


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
        assert rel_fro(term.materialize().values, materialize_kernel(ssm).values) <= 1e-14

    def test_terms_sum_to_kernel(self):
        ssm, _ = random_instance(32, 8, 4, 1)
        total = sum(t.materialize().values for t in attention_like_decomposition(ssm))
        assert rel_fro(total, materialize_kernel(ssm).values) <= 1e-12

    def test_zero_input_weight_mode_materializes_to_zero(self):
        ssm, _ = random_instance(33, 6, 3, 1)
        b = ssm.b.copy()
        b[:, 1] = 0.0
        modified = DiagonalSsm(ssm.a_diag, b, ssm.c)
        term = attention_like_decomposition(modified)[1]
        assert np.array_equal(term.materialize().values, np.zeros((6, 6)))

    @pytest.mark.parametrize("seed", range(3))
    def test_scalar_identity_terms_stack_into_the_dual(self, seed):
        ssm, _ = random_instance(35 + seed, 12, 3, 1, scalar_identity=True)
        dual = scalar_identity_dual(ssm)
        terms = attention_like_decomposition(ssm)
        for term in terms:
            assert term.p.tobytes() == dual.p.tobytes()
            back = MaskedAttentionFactors.from_json(term.to_json())
            for name in ("p", "Q", "K"):
                assert getattr(back, name).tobytes() == getattr(term, name).tobytes()
        assert np.hstack([t.Q for t in terms]).tobytes() == dual.Q.tobytes()
        assert np.hstack([t.K for t in terms]).tobytes() == dual.K.tobytes()


class TestMaterializeTerm:
    def test_unit_everything_gives_all_ones_triangle(self):
        term = attention_like_decomposition(
            DiagonalSsm(np.ones((4, 1)), np.ones((4, 1)), np.ones((4, 1)))
        )[0]
        assert np.array_equal(term.materialize().values, np.tril(np.ones((4, 4))))

    def test_gain_products(self):
        ssm = DiagonalSsm(np.array([[1.0], [2.0], [3.0]]), np.ones((3, 1)), np.ones((3, 1)))
        (term,) = attention_like_decomposition(ssm)
        expected = np.array([[1, 0, 0], [2, 1, 0], [6, 3, 1]], dtype=float)
        assert np.array_equal(term.materialize().values, expected)

    def test_zero_output_weight_zeroes_the_row(self):
        ssm, _ = random_instance(34, 4, 1, 1)
        c = ssm.c.copy()
        c[1] = 0.0
        (term,) = attention_like_decomposition(DiagonalSsm(ssm.a_diag, ssm.b, c))
        assert np.array_equal(term.materialize().values[1], np.zeros(4))


class TestFullRankDual:
    def test_cumulative_product_scalings(self):
        ssm = DiagonalSsm(np.array([[1.0], [2.0], [3.0]]), np.ones((3, 1)), np.ones((3, 1)))
        factors = full_rank_one_ss_dual(ssm)
        assert np.array_equal(factors.p, [1.0, 2.0, 3.0])
        assert np.array_equal(factors.Q, np.ones((3, 1)))
        assert np.array_equal(factors.K, np.ones((3, 1)))
        assert abs(factors.materialize().values[2, 1] - 3.0) < 1e-14

    def test_ratio_products_under_mode_zero_mask(self):
        gains = np.array([[1.0, 1.0], [2.0, 4.0], [0.5, 3.0]])
        ssm = DiagonalSsm(gains, np.ones((3, 2)), np.ones((3, 2)))
        factors = full_rank_one_ss_dual(ssm)
        assert np.array_equal(factors.p, gains[:, 0])
        assert np.array_equal(factors.Q, [[1.0, 1.0], [1.0, 2.0], [1.0, 12.0]])
        assert np.array_equal(factors.K, [[1.0, 1.0], [1.0, 0.5], [1.0, 1.0 / 12.0]])
        assert rel_fro(factors.materialize().values, materialize_kernel(ssm).values) <= 1e-15

    def test_all_zero_step_cuts_the_mask_and_restarts_the_ratios(self):
        ssm, _ = random_instance(41, 20, 3, 1)
        gains = ssm.a_diag.copy()
        gains[[6, 7, 19]] = 0.0
        cut = DiagonalSsm(gains, ssm.b, ssm.c)
        factors = full_rank_one_ss_dual(cut)
        assert np.array_equal(factors.p[[6, 7, 19]], np.zeros(3))
        # R is 1 at each run's first step, so Q and K are c and b there.
        assert np.array_equal(factors.Q[[0, 6, 7, 19]], cut.c[[0, 6, 7, 19]])
        assert np.array_equal(factors.K[[0, 6, 7, 19]], cut.b[[0, 6, 7, 19]])
        assert kernel_residual(cut, factors) <= 1e-14

    def test_rejects_zero_gain(self):
        gains = np.ones((4, 2))
        gains[2, 1] = 0.0
        ssm = DiagonalSsm(gains, np.ones((4, 2)), np.ones((4, 2)))
        with pytest.raises(ZeroGainError):
            full_rank_one_ss_dual(ssm)

    @pytest.mark.parametrize("zero_modes, mode", [([1], 1), ([0], 0), ([0, 2], 0), ([1, 2], 1)])
    def test_partial_zero_step_names_step_and_mode(self, zero_modes, mode):
        gains = np.full((6, 3), 0.9)
        gains[0] = 1.0
        gains[2] = 0.0  # an all-zero step is accepted
        gains[4, zero_modes] = 0.0
        ssm = DiagonalSsm(gains, np.ones((6, 3)), np.ones((6, 3)))
        with pytest.raises(ZeroGainError, match=f"gain is zero at step 4, mode {mode}$"):
            full_rank_one_ss_dual(ssm)

    def test_rejects_unstable_product_range(self):
        # Mode 1's ratio products grow by 1e10 a step and overflow at step 31.
        gains = np.tile([1e-10, 1.0], (40, 1))
        gains[0] = 1.0
        ssm = DiagonalSsm(gains, np.ones((40, 2)), np.ones((40, 2)))
        with pytest.raises(UnstableScalingError, match="finite range at step 31$"):
            full_rank_one_ss_dual(ssm)

    @pytest.mark.parametrize("weight, step", [(1e-300, 31), (1e10, 30)])
    def test_shrinking_ratio_products_are_refused(self, weight, step):
        # Mode 1's ratio products shrink by 1e-10 a step. With b = 1e-300, K = b / R stays
        # finite, and the refusal comes at step 31, where R is subnormal and 1/R overflows.
        # With b = 1e10, K overflows first, at step 30, while R and 1/R are still finite.
        gains = np.tile([1.0, 1e-10], (40, 1))
        gains[0] = 1.0
        ssm = DiagonalSsm(gains, np.full((40, 2), weight), np.ones((40, 2)))
        with pytest.raises(UnstableScalingError, match=f"finite range at step {step}$"):
            full_rank_one_ss_dual(ssm)

    def test_long_geometric_decay_is_accepted(self):
        # For N=1 the ratio products are exactly 1, however far the gains decay.
        gains = np.full((60, 1), 0.5)
        gains[0] = 1.0
        ssm = DiagonalSsm(gains, np.ones((60, 1)), np.ones((60, 1)))
        assert kernel_residual(ssm, full_rank_one_ss_dual(ssm)) <= 1e-15

    def test_reproduces_kernel_on_random_instances(self):
        for seed in range(20):
            ssm, _ = random_instance(40 + seed, 32, 4, 1, a_abs=(0.5, 2.0))
            assert kernel_residual(ssm, full_rank_one_ss_dual(ssm)) <= 1e-8

    @pytest.mark.parametrize("a_abs", [(0.0, 2.0), (0.5, 1.0)])
    @pytest.mark.parametrize("steps", [16, 64, 256])
    def test_reconstructs_default_and_decaying_gains(self, steps, a_abs):
        for seed in range(3):
            for modes in (2, 4, 16):
                ssm, _ = random_instance(seed, steps, modes, 1, a_abs=a_abs)
                assert kernel_residual(ssm, full_rank_one_ss_dual(ssm)) <= 1e-13

    @pytest.mark.parametrize("seed", range(3))
    def test_scalar_identity_factors_are_the_model_arrays(self, seed):
        ssm, _ = random_instance(70 + seed, 24, 3, 1, scalar_identity=True)
        gains = ssm.a_diag.copy()
        gains[9] = 0.0
        for model in (ssm, DiagonalSsm(gains, ssm.b, ssm.c)):
            expected = MaskedAttentionFactors(model.a_diag[:, 0], model.c, model.b)
            for factors in (full_rank_one_ss_dual(model), scalar_identity_dual(model)):
                for name in ("p", "Q", "K"):
                    assert getattr(factors, name).tobytes() == getattr(expected, name).tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_single_mode_factors_are_the_decomposition_term(self, seed):
        ssm, _ = random_instance(80 + seed, 24, 1, 1)
        factors = full_rank_one_ss_dual(ssm)
        (term,) = attention_like_decomposition(ssm)
        for name in ("p", "Q", "K"):
            assert getattr(factors, name).tobytes() == getattr(term, name).tobytes()

    def test_matches_scalar_dual_materialization_when_both_apply(self):
        ssm, _ = random_instance(60, 16, 3, 1, a_abs=(0.5, 2.0), scalar_identity=True)
        via_scalar = scalar_identity_dual(ssm).materialize().values
        via_full = full_rank_one_ss_dual(ssm).materialize().values
        assert rel_fro(via_scalar, via_full) <= 1e-10


class TestMaskedAttentionForward:
    def test_scalar_dual_matches_recurrence(self):
        ssm, x = random_instance(35, 16, 3, 2, scalar_identity=True)
        factors = scalar_identity_dual(ssm)
        assert rel_fro(forward_materialized(factors, x), forward_recurrence(ssm, x)) <= 1e-10

    @pytest.mark.parametrize("path", list(FORWARD_PATHS))
    def test_zero_input(self, path):
        ssm, _ = random_instance(36, 8, 2, 2)
        factors = scalar_identity_dual(DiagonalSsm(np.ones((8, 2)), ssm.b, ssm.c))
        assert np.array_equal(FORWARD_PATHS[path](factors, np.zeros((8, 2))), np.zeros((8, 2)))

    @pytest.mark.parametrize("path", list(FORWARD_PATHS))
    def test_zero_mask_acts_diagonally(self, path):
        rng = np.random.default_rng(37)
        q = rng.standard_normal((5, 3))
        k = rng.standard_normal((5, 3))
        x = rng.standard_normal((5, 2))
        factors = MaskedAttentionFactors(np.zeros(5), q, k)
        expected = np.einsum("tn,tn->t", q, k)[:, None] * x
        assert np.allclose(FORWARD_PATHS[path](factors, x), expected, rtol=1e-13)

    @pytest.mark.parametrize("steps, width", [(0, 2), (3, 0)], ids=["T=0", "width=0"])
    def test_empty_factors_are_refused(self, steps, width):
        with pytest.raises(ShapeMismatchError, match="at least 1"):
            MaskedAttentionFactors(np.ones(steps), np.ones((steps, width)), np.ones((steps, width)))

    @pytest.mark.parametrize("path", list(FORWARD_PATHS))
    def test_an_input_without_channels_is_refused(self, path):
        factors = MaskedAttentionFactors(np.ones(3), np.ones((3, 2)), np.ones((3, 2)))
        with pytest.raises(ShapeMismatchError, match="got d=0"):
            FORWARD_PATHS[path](factors, np.zeros((3, 0)))

    @pytest.mark.parametrize("a_abs", [(0.0, 2.0), (0.5, 1.0), (0.95, 1.05)], ids=str)
    @pytest.mark.parametrize("steps", [1, 255, 600])
    def test_full_rank_duals_agree_on_every_path(self, a_abs, steps):
        """The factors' O(T) outputs match their materialized output and the model's."""
        for seed in range(4):
            ssm, x = random_instance(seed, steps, 4, 3, a_abs=a_abs)
            factors = full_rank_one_ss_dual(ssm)
            materialized = forward_materialized(factors, x)
            model = forward_recurrence(ssm, x)
            assert rel_fro(materialized, model) <= 1e-10, seed
            for path in ("recurrence", "ssd"):
                y = FORWARD_PATHS[path](factors, x)
                assert rel_fro(y, materialized) <= 1e-10, (seed, path)
                assert rel_fro(y, model) <= 1e-10, (seed, path)

    @pytest.mark.parametrize("path", list(FORWARD_PATHS))
    def test_the_first_mask_gain_is_never_felt(self, path):
        """p[0] multiplies only the zero start state, so no value of it changes the output."""
        rng = np.random.default_rng(42)
        p = rng.uniform(0.5, 1.5, 20)
        q, k = rng.standard_normal((2, 20, 3))
        x = rng.standard_normal((20, 2))
        outputs = []
        for first in (-7.0, 0.0, 1e300):
            p[0] = first
            outputs.append(FORWARD_PATHS[path](MaskedAttentionFactors(p, q, k), x))
        assert all(np.array_equal(y, outputs[0]) for y in outputs[1:])

    def test_the_linear_paths_carry_the_model_state_over_the_ratio_products(self):
        """Mode 1 decays 100 times faster than the mask, so K grows as 100^t.

        The factor state overflows from step 145 on, while the materialized path,
        which forms only products Q_t K_s of finite size, stays accurate.
        """
        rng = np.random.default_rng(0)
        gains = np.ones((150, 2))
        gains[1:, 1] = 0.01
        ssm = DiagonalSsm(gains, *rng.standard_normal((2, 150, 2)))
        x = rng.standard_normal((150, 2)) * 1e20
        factors = full_rank_one_ss_dual(ssm)
        assert 1e297 < np.abs(factors.K).max() < 1e298
        for path in ("recurrence", "ssd"):
            with np.errstate(over="ignore", invalid="ignore"):
                y = FORWARD_PATHS[path](factors, x)
            finite = np.isfinite(y).all(axis=1)
            assert finite[:145].all() and not finite[145:].any(), path
        assert rel_fro(forward_materialized(factors, x), forward_recurrence(ssm, x)) <= 1e-15


class TestMaterializeFactors:
    def test_never_forms_the_upper_triangle_of_q_k(self):
        # Q[0] K[1] = 1e400 overflows above the diagonal; every entry on or below it is finite.
        q = np.array([[1e200], [0.0]])
        k = np.array([[1e-200], [1e200]])
        factors = MaskedAttentionFactors(np.ones(2), q, k)
        assert np.array_equal(factors.materialize().values, [[1.0, 0.0], [0.0, 0.0]])
        assert np.array_equal(forward_materialized(factors, np.ones((2, 1))), [[1.0], [0.0]])

    def test_panels_match_the_dense_product(self):
        rng = np.random.default_rng(38)
        p = rng.uniform(0.5, 1.5, 100) * rng.choice([-1.0, 0.0, 1.0], 100, p=[0.45, 0.1, 0.45])
        q, k = rng.standard_normal((2, 100, 3))
        x = rng.standard_normal((100, 2))
        factors = MaskedAttentionFactors(p, q, k)
        dense = one_ss(p).values * (q @ k.T)
        assert rel_fro(factors.materialize().values, dense) <= 1e-14
        assert np.array_equal(np.triu(factors.materialize().values, 1), np.zeros((100, 100)))
        assert rel_fro(forward_materialized(factors, x), dense @ x) <= 1e-14


class TestKernelResidual:
    def test_matches_the_dense_difference(self):
        ssm, _ = random_instance(39, 100, 3, 1, a_abs=(0.5, 1.0))
        rng = np.random.default_rng(39)
        factors = MaskedAttentionFactors(ssm.a_diag[:, 0], *rng.standard_normal((2, 100, 3)))
        kernel = materialize_kernel(ssm).values
        dense = np.linalg.norm(factors.materialize().values - kernel) / np.linalg.norm(kernel)
        assert abs(kernel_residual(ssm, factors) - dense) <= 1e-14 * dense

    def test_zero_kernel_gives_the_factors_norm(self):
        ssm = DiagonalSsm(np.ones((40, 2)), np.zeros((40, 2)), np.ones((40, 2)))
        factors = MaskedAttentionFactors(np.ones(40), np.ones((40, 1)), np.ones((40, 1)))
        assert kernel_residual(ssm, factors) == np.linalg.norm(factors.materialize().values)

    @pytest.mark.parametrize("size", [1, 31, 32, 33, 70])
    def test_a_matrix_against_factors_or_a_representation_matches_the_dense_difference(self, size):
        m = representable_matrix(size, size, 2)
        rng = np.random.default_rng(size)
        q, k = rng.standard_normal((2, size, 2))
        factors = MaskedAttentionFactors(rng.uniform(0.5, 1.0, size), q, k)
        rep = random_representation(size, size, 2)
        for other, back in ((factors, factors.materialize()), (rep, materialize_sss(rep))):
            dense = np.linalg.norm(back.values - m.values) / np.linalg.norm(m.values)
            assert abs(kernel_residual(m, other) - dense) <= 1e-14 * dense

    def test_a_zero_matrix_gives_the_other_kernels_norm(self):
        m = LowerTriangularMatrix(np.zeros((40, 40)))
        factors = MaskedAttentionFactors(np.ones(40), np.ones((40, 1)), np.ones((40, 1)))
        assert kernel_residual(m, factors) == np.linalg.norm(factors.materialize().values)
        assert kernel_residual(m, m) == 0.0

    @pytest.mark.parametrize("kind", ["model", "matrix"])
    def test_factors_of_another_step_count_are_refused(self, kind):
        ssm, _ = random_instance(40, 40, 2, 1)
        kernel = ssm if kind == "model" else materialize_kernel(ssm)
        factors = full_rank_one_ss_dual(random_instance(40, 39, 2, 1)[0])
        with pytest.raises(ShapeMismatchError, match="other kernel has 39 steps, the reference 40"):
            kernel_residual(kernel, factors)

    def test_holds_no_kernel_sized_array(self):
        # One 2048 x 2048 kernel alone is 32 MiB; the panel streams hold a few panels.
        ssm, _ = random_instance(41, 2048, 16, 1, a_abs=(0.5, 1.0))
        factors = full_rank_one_ss_dual(ssm)
        tracemalloc.start()
        try:
            assert kernel_residual(ssm, factors) <= 1e-13
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_the_commands_comparisons_rebuild_no_kernel(self):
        # Peaks beyond the input, in T^2 doubles; the report's 2.0 is its block partition.
        m = materialize_kernel(random_instance(1, 2048, 4, 1, a_abs=(0.5, 1))[0])
        rep = extract_sss(m, 4)
        kernels = 8.0 * m.T**2

        def peak(call):
            tracemalloc.start()
            try:
                return call(), tracemalloc.get_traced_memory()[1] / kernels
            finally:
                tracemalloc.stop()

        residual, held = peak(lambda: kernel_residual(m, rep))
        assert residual <= 1e-9 and held < 0.1
        report, held = peak(lambda: representability_report(m, 4))
        assert report["reconstruction_rel_residual"] <= 1e-9 and held < 2.05


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
        assert json_dumps(report["factors"]) == construct_one_ss_dual(m, 2).to_json()
        back = MaskedAttentionFactors.from_json(json_dumps(report["factors"])).materialize()
        assert report["reconstruction_rel_residual"] == rel_fro(back.values, m.values)
        assert report["reconstruction_rel_residual"] <= 1e-9

    def test_report_reconstructs_a_kernel_with_spread_decay_rates(self):
        # Mode decay rates differ, so a filled upper triangle would grow far past the
        # kernel's scale; the coefficient construction never forms it.
        m = materialize_kernel(random_instance(0, 64, 4, 1, a_abs=(0.5, 1.0))[0])
        report = representability_report(m, 4)
        assert report["representable"]
        assert report["reconstruction_rel_residual"] <= 1e-8

    def test_report_refuses_a_kernel_beyond_its_error_budget(self):
        m = materialize_sss(random_representation(1, 128, 4))
        assert has_one_ss_dual(m, 4)
        with pytest.raises(UnstableScalingError, match="error budget term rounding dominates"):
            representability_report(m, 4)


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

    def test_long_masked_kernel_round_trips(self):
        rng = np.random.default_rng(9)
        gains = rng.uniform(0.95, 1.05, 1024) * rng.choice([-1.0, 1.0], 1024)
        q, k = rng.standard_normal((2, 1024, 4))
        m = LowerTriangularMatrix(one_ss(gains).values * (q @ k.T))
        factors = construct_one_ss_dual(m, 4)
        assert rel_fro(factors.materialize().values, m.values) <= 1e-9

    def test_refuses_a_fill_that_overflows(self):
        # This general representation's fill passes the largest double at column 318.
        m = materialize_sss(random_representation(0, 512, 4))
        with pytest.raises(
            UnstableScalingError,
            match=r"term finiteness fails: the coefficients of block \[0, 512\) overflow first",
        ):
            construct_one_ss_dual(m, 4)

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


def spread_gain_kernel(family: str, seed: int, size: int, lo: float, hi: float) -> LowerTriangularMatrix:
    """A width-4 kernel whose gains have magnitudes in [lo, hi]: one per mode, or one mask."""
    if family == "diag":
        return materialize_kernel(random_instance(seed, size, 4, 1, a_abs=(lo, hi))[0])
    rng = np.random.default_rng(seed)
    gains = rng.uniform(lo, hi, size) * rng.choice([-1.0, 1.0], size)
    q, k = rng.standard_normal((2, size, 4))
    return LowerTriangularMatrix(one_ss(gains).values * (q @ k.T))


#: Fragment every refusal message names: one of the four error-budget terms.
BUDGET_TERM = r"error budget term (dropped mass|fit residuals|rounding|finiteness)"


class TestCoefficientConstruction:
    """Factors built from the sweep's coefficients, refused up front beyond their error budget."""

    @pytest.mark.parametrize("size", [64, 128, 256])
    @pytest.mark.parametrize("family", ["diag", "masked"])
    @pytest.mark.parametrize("seed", range(2))
    def test_spread_gains_reconstruct(self, family, size, seed):
        m = spread_gain_kernel(family, seed, size, 0.5, 1.0)
        factors = construct_one_ss_dual(m, 4)
        assert rel_fro(factors.materialize().values, m.values) <= 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_wide_gains_reconstruct_once_each_fit_is_refined(self, seed):
        # Without the refinement, the composed fits alone miss the gate on seeds 1-3.
        m = spread_gain_kernel("diag", seed, 64, 0.0, 2.0)
        factors = construct_one_ss_dual(m, 4)
        assert rel_fro(factors.materialize().values, m.values) <= 1e-9

    def test_near_threshold_noise_never_fails_its_gate(self):
        m = noisy_representation(74, 12, 3, 1e-8)
        try:
            factors = construct_one_ss_dual(m, 6, eps=1e-12)
        except UnstableScalingError as exc:
            assert exc.args[0].startswith("error budget term")
        else:
            assert rel_fro(factors.materialize().values, m.values) <= 1e-12

    @pytest.mark.parametrize(
        "m",
        [
            *[
                pytest.param(materialize_sss(random_representation(seed, 128, 4)), id=f"sss-{seed}")
                for seed in range(3)
            ],
            *[
                pytest.param(spread_gain_kernel("diag", seed, 128, 0.0, 2.0), id=f"diag-0-2-{seed}")
                for seed in range(2)
            ],
        ],
    )
    def test_unstable_kernels_are_refused_naming_a_term(self, m):
        assert has_one_ss_dual(m, 4)
        with pytest.raises(UnstableScalingError, match=BUDGET_TERM):
            construct_one_ss_dual(m, 4)

    def test_dropped_mass_is_refused(self):
        # Each entry below the cut is within eps * max|M|, but together they exceed eps * |M|.
        vals = np.zeros((40, 40))
        vals[20:, :20] = 0.9e-9
        vals[:20, 0] = vals[20:, 20] = 1.0
        m = LowerTriangularMatrix(vals)
        assert [(b.start, b.end) for b in count_block_new_columns(m)] == [(0, 20), (20, 40)]
        with pytest.raises(UnstableScalingError, match="error budget term dropped mass dominates"):
            construct_one_ss_dual(m, 1)

    @given(
        family=st.sampled_from(["diag", "masked", "sss", "noisy"]),
        seed=st.integers(0, 2**16),
        size=st.integers(1, 64),
        gains=st.sampled_from([(0.95, 1.05), (0.5, 1.0), (0.0, 2.0)]),
        width=st.integers(1, 6),
        eps=st.sampled_from([1e-6, 1e-9, 1e-12]),
    )
    @settings(deadline=None, max_examples=60)
    @pytest.mark.filterwarnings("ignore:borderline new-column decision")
    def test_accepted_kernels_reconstruct_or_are_refused(self, family, seed, size, gains, width, eps):
        if family == "sss":
            m = materialize_sss(random_representation(seed, size, 4))
        elif family == "noisy":
            m = noisy_representation(seed, size, 3, 1e-8)
        else:
            m = spread_gain_kernel(family, seed, size, *gains)
        try:
            report = representability_report(m, width, eps)
        except UnstableScalingError as exc:
            assert exc.args[0].startswith("error budget term")
            return
        if report["representable"]:
            assert report["reconstruction_rel_residual"] <= eps

    def test_block_factors_read_the_block_in_place(self):
        # A T=1024 block is 8 MiB; its factors read each column where it lies, copying no block.
        m = spread_gain_kernel("masked", 5, 1024, 0.95, 1.05)
        (b,) = count_block_new_columns(m)
        tracemalloc.start()
        try:
            q, k, _ = duality._block_factors(m.values, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert q.shape == k.shape == (1024, 4)
        assert peak < m.values.nbytes / 8

    def test_factors_only_thin_matrices_outside_the_sweep(self, monkeypatch):
        size, width = 128, 4
        m = spread_gain_kernel("masked", 3, size, 0.95, 1.05)
        assert len(count_block_new_columns(m)) == 1
        sweeping, columns = [False], []
        sweep = duality._new_column_sweep

        def flagged_sweep(*args, **kwargs):
            sweeping[0] = True
            try:
                return sweep(*args, **kwargs)
            finally:
                sweeping[0] = False

        def counting(original):
            def factor(a, *args, **kwargs):
                if not sweeping[0]:
                    columns.append(np.shape(a)[-1])
                return original(a, *args, **kwargs)

            return factor

        monkeypatch.setattr(duality, "_new_column_sweep", flagged_sweep)
        for name in ("svd", "lstsq", "pinv", "qr", "eig", "eigh", "solve", "inv"):
            monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
        construct_one_ss_dual(m, width)
        assert columns
        assert max(columns) <= width + 1


class TestOneSweepPerCall:
    """Each call partitions once, fits each column at most once and rebuilds no kernel."""

    SIZE = 32

    @staticmethod
    def counted(monkeypatch):
        calls = {
            "lstsq": 0, "pinv": 0, "partition": 0, "sweep": 0, "materialize": 0, "width": 0,
            "materialize_sss": 0, "rel_err": 0,
        }

        def count(owner, attr, key):
            original = getattr(owner, attr)

            def counting(*args, **kwargs):
                calls[key] += 1
                if key in ("lstsq", "pinv"):
                    calls["width"] = max(calls["width"], np.shape(args[0])[1])
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counting)

        count(np.linalg, "lstsq", "lstsq")
        count(np.linalg, "pinv", "pinv")
        count(duality, "diagonal_block_partition", "partition")
        count(duality, "_new_column_sweep", "sweep")
        count(MaskedAttentionFactors, "materialize", "materialize")
        for owner in (cli, sss_extract):
            count(owner, "materialize_sss", "materialize_sss")
        for owner in (cli, ss_matrix):
            count(owner, "rel_err", "rel_err")
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
        assert calls["materialize_sss"] == calls["rel_err"] == 0

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
        assert calls["materialize"] == 0

    def test_extract_command(self, monkeypatch, tmp_path):
        m = representable_matrix(41, self.SIZE, 3, blocks=3)
        (tmp_path / "m.csv").write_text(m.to_csv())
        calls = self.counted(monkeypatch)
        code = cli.main([
            "extract", "--matrix", str(tmp_path / "m.csv"), "--N", "3",
            "--out", str(tmp_path / "rep.json"),
        ])
        assert code == cli.EXIT_OK
        assert json.loads((tmp_path / "rep.json").read_text())["roundtrip_rel_residual"] <= 1e-9
        assert calls["materialize_sss"] == calls["rel_err"] == 0

    def test_check_dual_fits_each_column_against_a_thin_factor(self, monkeypatch, tmp_path):
        m = representable_matrix(41, self.SIZE, 3, blocks=3)
        (tmp_path / "m.csv").write_text(m.to_csv())
        calls = self.counted(monkeypatch)
        code = cli.main([
            "check-dual", "--mode", "representability", "--matrix", str(tmp_path / "m.csv"),
            "--N", "3", "--out", str(tmp_path / "out.json"),
        ])
        assert code == cli.EXIT_OK
        assert calls["lstsq"] + calls["pinv"] > 0
        assert calls["width"] <= 3 + 1


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

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_from_json_refuses_non_finite_entries(self, value):
        record = {"p": [1.0, 1.0], "Q": [[1.0], [value]], "K": [[1.0], [1.0]]}
        with pytest.raises(ValueError, match="finite"):
            MaskedAttentionFactors.from_json(json.dumps(record))
