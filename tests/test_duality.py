"""Tests for dual constructions and representability decisions."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    UnstableScalingError,
    ZeroGainError,
)
from ssdlab.limits import non_dualizable_matrix, verify_non_dualizable
from ssdlab.ss_matrix import LowerTriangularMatrix, MaskVector, new_columns, one_ss
from ssdlab.ssm import DiagonalSsm, forward_recurrence, materialize_kernel, random_instance
from ssdlab.sss_extract import materialize_sss, random_representation
from tests.conftest import rel_fro, representable_matrix
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


class TestMaterializeFactors:
    def test_never_forms_the_upper_triangle_of_q_k(self):
        # Q[0] K[1] = 1e400 overflows above the diagonal; every entry on or below it is finite.
        q = np.array([[1e200], [0.0]])
        k = np.array([[1e-200], [1e200]])
        factors = MaskedAttentionFactors(np.ones(2), q, k)
        assert np.array_equal(factors.materialize().values, [[1.0, 0.0], [0.0, 0.0]])
        assert np.array_equal(masked_attention_forward(factors, np.ones((2, 1))), [[1.0], [0.0]])

    def test_panels_match_the_dense_product(self):
        rng = np.random.default_rng(38)
        p = rng.uniform(0.5, 1.5, 100) * rng.choice([-1.0, 0.0, 1.0], 100, p=[0.45, 0.1, 0.45])
        q, k = rng.standard_normal((2, 100, 3))
        x = rng.standard_normal((100, 2))
        factors = MaskedAttentionFactors(p, q, k)
        dense = one_ss(MaskVector(p)).values * (q @ k.T)
        assert rel_fro(factors.materialize().values, dense) <= 1e-14
        assert np.array_equal(np.triu(factors.materialize().values, 1), np.zeros((100, 100)))
        assert rel_fro(masked_attention_forward(factors, x), dense @ x) <= 1e-14


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
        m = LowerTriangularMatrix(one_ss(MaskVector(gains)).values * (q @ k.T))
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
    return LowerTriangularMatrix(one_ss(MaskVector(gains)).values * (q @ k.T))


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
    """Each call partitions once and fits each column at most once."""

    SIZE = 32

    @staticmethod
    def counted(monkeypatch):
        calls = {"lstsq": 0, "pinv": 0, "partition": 0, "sweep": 0, "materialize": 0, "width": 0}

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
