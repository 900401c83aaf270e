"""Tests for the three execution paths of diagonal state-space models."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdlab import ss_matrix
from ssdlab import ssm as ssm_mod
from ssdlab.duality import one_ss, scalar_identity_dual
from ssdlab.errors import ShapeMismatchError
from ssdlab.ss_matrix import semiseparable_rank
from ssdlab.ssm import (
    FORWARD_PATHS,
    DiagonalSsm,
    ascending_sum,
    forward_linear,
    forward_materialized,
    forward_recurrence,
    forward_ssd,
    materialize_kernel,
    random_instance,
    scan,
    sequence_from_csv,
    sequence_from_json,
    sequence_to_csv,
    sequence_to_json,
)
from tests.conftest import rel_fro
from tests.oracles import (
    recurrence_rounding_bound,
    reference_recurrence,
    reference_scan,
    reference_ssd,
)

#: Each linear path's plain step loop, which its chunked loop must equal.
STEP_LOOPS = {"recurrence": reference_recurrence, "ssd": reference_ssd}


def assert_is_the_step_loop(path, got, model, x, name):
    """The ssd path bit for bit; the recurrence within its mode sum's rounding bound.

    The states are the step loop's bit for bit on both paths. The recurrence
    sums modes by one batched matrix product, and some BLAS kernels (OpenBLAS'
    Prescott) pick a summation order by batch size, so only the ordered sum
    can promise the step loop's bytes on every CPU.
    """
    want = STEP_LOOPS[path](model, x)
    if path == "ssd":
        assert got.tobytes() == want.tobytes(), name
    else:
        assert np.all(np.abs(got - want) <= recurrence_rounding_bound(model, x)), name


def ref_kernel(ssm):
    """Direct evaluation of the kernel formula (test oracle)."""
    steps, modes = ssm.T, ssm.N
    out = np.zeros((steps, steps))
    for j in range(steps):
        for i in range(j + 1):
            total = 0.0
            for n in range(modes):
                prod = 1.0
                for r in range(i + 1, j + 1):
                    prod *= ssm.a_diag[r, n]
                total += ssm.c[j, n] * prod * ssm.b[i, n]
            out[j, i] = total
    return out


def row_recursion_kernel(ssm):
    """Row-by-row evaluation of the kernel formula (test oracle for large T)."""
    out = np.zeros((ssm.T, ssm.T))
    prods = np.zeros((ssm.T, ssm.N))
    for t in range(ssm.T):
        prods[:t] *= ssm.a_diag[t]
        prods[t] = 1.0
        out[t, : t + 1] = (prods[: t + 1] * ssm.b[: t + 1]) @ ssm.c[t]
    return out


def signed_gains_with_zeros(rng, steps, modes):
    gains = rng.uniform(0.5, 1.5, (steps, modes)) * rng.choice([-1.0, 1.0], (steps, modes))
    gains[rng.random((steps, modes)) < 0.2] = 0.0
    gains[0] = 1.0
    return gains


def model_and_dual(gains, b, c):
    """(record, model) pairs whose linear paths must give the model's step loop bit for bit.

    The model itself, and the dual of the model with mode 0's gains in every
    mode: its (T, 1) mask column, Q = c and K = b take the same steps.
    """
    model = DiagonalSsm(gains, b, c)
    scalar = DiagonalSsm(np.repeat(gains[:, :1], gains.shape[1], axis=1), b, c)
    return [(model, model), (scalar_identity_dual(scalar), scalar)]


def unit_gain_ssm(steps):
    ones = np.ones((steps, 1))
    return DiagonalSsm(ones, ones, ones)


class TestForwardRecurrence:
    def test_unit_gain_accumulator_gives_prefix_sums(self):
        y = forward_recurrence(unit_gain_ssm(3), np.array([[1.0], [2.0], [3.0]]))
        assert np.array_equal(y, np.array([[1.0], [3.0], [6.0]]))

    def test_zero_gain_is_memoryless(self):
        ssm = DiagonalSsm(
            np.array([[1.0], [0.0], [0.0]]), np.ones((3, 1)), np.ones((3, 1))
        )
        x = np.array([[1.0], [2.0], [3.0]])
        assert np.array_equal(forward_recurrence(ssm, x), x)

    def test_agrees_with_materialized_path(self):
        ssm, x = random_instance(21, 16, 4, 3)
        assert rel_fro(forward_recurrence(ssm, x), forward_materialized(ssm, x)) <= 1e-10

    def test_rejects_wrong_length(self):
        ssm, _ = random_instance(0, 8, 2, 1)
        with pytest.raises(ShapeMismatchError):
            forward_recurrence(ssm, np.zeros((7, 1)))

    @pytest.mark.parametrize("path", list(STEP_LOOPS))
    @pytest.mark.parametrize("steps", [1, 2, 3, 4, 8, 9])
    @pytest.mark.parametrize("modes", [1, 3])
    @pytest.mark.parametrize("channels", [1, 4])
    def test_chunks_are_bitwise_the_step_loop(self, monkeypatch, path, steps, modes, channels):
        """Chunks of 3: up to one, one and a step, two and a ragged third, three full."""
        monkeypatch.setattr(ssm_mod, "_CHUNK", 3)
        rng = np.random.default_rng(steps * 100 + modes * 10 + channels)
        gains = signed_gains_with_zeros(rng, steps, modes)
        gains[1::2, 0] = 0.0
        b, c = rng.standard_normal((2, steps, modes))
        x = rng.standard_normal((steps, channels))
        for record, model in model_and_dual(gains, b, c):
            assert_is_the_step_loop(path, FORWARD_PATHS[path](record, x), model, x,
                                    type(record).__name__)

    @pytest.mark.parametrize("path", list(STEP_LOOPS))
    def test_full_chunks_are_bitwise_the_step_loop(self, path):
        steps = 2 * ssm_mod._CHUNK + 3
        rng = np.random.default_rng(17)
        gains = signed_gains_with_zeros(rng, steps, 5)
        b, c = rng.standard_normal((2, steps, 5))
        x = rng.standard_normal((steps, 4))
        for record, model in model_and_dual(gains, b, c):
            assert_is_the_step_loop(path, FORWARD_PATHS[path](record, x), model, x,
                                    type(record).__name__)

    @pytest.mark.parametrize("path", list(STEP_LOOPS))
    def test_working_memory_does_not_grow_with_steps(self, path):
        """Beyond its output, a linear path holds as much at T=4096 as at T=1024."""
        extra = {}
        for steps in (1024, 4096):
            model, x = random_instance(5, steps, 16, 4)
            tracemalloc.start()
            try:
                y = FORWARD_PATHS[path](model, x)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            extra[steps] = peak - y.nbytes
        # A state for every step would add 8 * 3072 * 16 * 4 bytes; this allows 1/16 of that.
        assert extra[4096] <= extra[1024] + 8 * 3072 * 4


class TestForwardLinear:
    @pytest.mark.parametrize(
        "steps", [1, ssm_mod._CHUNK - 1, ssm_mod._CHUNK, ssm_mod._CHUNK + 1, 2 * ssm_mod._CHUNK + 3]
    )
    def test_one_pass_is_bitwise_each_path_and_its_step_loop(self, steps):
        rng = np.random.default_rng(steps)
        gains = signed_gains_with_zeros(rng, steps, 5)
        b, c = rng.standard_normal((2, steps, 5))
        x = rng.standard_normal((steps, 3))
        x[0] = -0.0
        for record, model in model_and_dual(gains, b, c):
            outputs = forward_linear(record, x)
            assert list(outputs) == ["recurrence", "ssd"]
            for path, y in outputs.items():
                label = f"{type(record).__name__} {path}"
                assert y.tobytes() == FORWARD_PATHS[path](record, x).tobytes(), label
                assert_is_the_step_loop(path, y, model, x, label)

    def test_outputs_come_in_the_order_named(self):
        model, x = random_instance(6, 9, 3, 2)
        outputs = forward_linear(model, x, ("ssd", "recurrence"))
        assert list(outputs) == ["ssd", "recurrence"]
        assert outputs["ssd"].tobytes() == forward_ssd(model, x).tobytes()

    def test_an_unknown_path_is_refused_before_any_work(self):
        model, _ = random_instance(6, 9, 3, 2)
        with pytest.raises(ValueError, match="^unknown linear path 'materialized'"):
            forward_linear(model, np.zeros((2, 1)), ("ssd", "materialized"))

    def test_two_paths_hold_one_chunk_of_states(self):
        """Beyond its outputs, the two-path pass holds as much as the ssd path alone, at any T."""
        extra = {}
        for steps in (1024, 4096):
            model, x = random_instance(5, steps, 16, 4)
            for paths in (("ssd",), ("recurrence", "ssd")):
                tracemalloc.start()
                try:
                    outputs = forward_linear(model, x, paths)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                extra[steps, paths] = peak - sum(y.nbytes for y in outputs.values())
        pair = ("recurrence", "ssd")
        # As in the one-path bound: no state for every step.
        assert extra[4096, pair] <= extra[1024, pair] + 8 * 3072 * 4
        # A second chunk of (N, d) states, one per path, would add 8 * _CHUNK * 16 * 4 bytes.
        assert extra[4096, pair] <= extra[4096, ("ssd",)] + 8 * ssm_mod._CHUNK * 16 * 4 // 4


class TestInputSequence:
    @pytest.mark.parametrize("path", list(FORWARD_PATHS))
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_entries_are_refused_as_the_input(self, path, value):
        model, x = random_instance(4, 8, 2, 3)
        x[5, 1] = value
        with pytest.raises(ValueError, match="^input sequence entries must be finite$"):
            FORWARD_PATHS[path](model, x)


class TestMaterializeKernel:
    def test_kernel_storage_is_read_only(self):
        ssm, _ = random_instance(3, 8, 2, 1)
        kernel = materialize_kernel(ssm).values
        assert not kernel.flags.writeable
        with pytest.raises(ValueError):
            kernel[0, 0] = 1.0

    def test_single_mode_products(self):
        ssm = DiagonalSsm(
            np.array([[1.0], [2.0], [3.0]]), np.ones((3, 1)), np.ones((3, 1))
        )
        expected = np.array([[1, 0, 0], [2, 1, 0], [6, 3, 1]], dtype=float)
        assert np.array_equal(materialize_kernel(ssm).values, expected)

    def test_zero_input_weight_zeroes_the_column(self):
        ssm, _ = random_instance(2, 6, 3, 1)
        b = ssm.b.copy()
        b[2] = 0.0
        modified = DiagonalSsm(ssm.a_diag, b, ssm.c)
        kernel = materialize_kernel(modified).values
        assert np.array_equal(kernel[:, 2], np.zeros(6))

    def test_scalar_identity_kernel_splits_into_mask_and_outer_products(self):
        ssm, _ = random_instance(3, 8, 3, 1, scalar_identity=True)
        mask = one_ss(ssm.a_diag[:, 0]).values
        expected = mask * (ssm.c @ ssm.b.T)
        assert np.allclose(materialize_kernel(ssm).values, expected, rtol=1e-12, atol=1e-14)

    def test_matches_direct_formula_oracle(self):
        ssm, _ = random_instance(4, 10, 3, 1)
        # Exact zero gains, some after negative products, in every mode.
        a_diag = ssm.a_diag.copy()
        a_diag[[3, 6], 0] = 0.0
        a_diag[[2, 9], 1] = 0.0
        a_diag[5, 2] = 0.0
        with_zeros = DiagonalSsm(a_diag, ssm.b, ssm.c)
        for model in (ssm, with_zeros):
            got = materialize_kernel(model).values
            assert np.allclose(got, ref_kernel(model), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("tile", [1, 2, 3, 5])
    def test_tiled_build_matches_direct_formula(self, monkeypatch, tile):
        monkeypatch.setattr(ss_matrix, "_TILE", tile)
        rng = np.random.default_rng(tile)
        for steps in sorted({1, max(tile - 1, 1), tile, tile + 1, 3 * tile + 2}):
            for modes in (1, 3):
                gains = signed_gains_with_zeros(rng, steps, modes)
                model = DiagonalSsm(gains, *rng.standard_normal((2, steps, modes)))
                got = materialize_kernel(model).values
                assert np.allclose(got, ref_kernel(model), rtol=1e-12, atol=1e-12)
                x = rng.standard_normal((steps, 2))
                y = forward_materialized(model, x)
                assert np.allclose(y, ref_kernel(model) @ x, rtol=1e-12, atol=1e-12)

    def test_three_tiles_match_row_recursion(self):
        # 600 steps: the panel walk builds 18 full panels of _TILE rows and a
        # ragged last panel of 24 rows, carrying the tail across every edge.
        rng = np.random.default_rng(8)
        gains = rng.uniform(0.9, 1.1, (600, 4)) * rng.choice([-1.0, 1.0], (600, 4))
        gains[0] = 1.0
        model = DiagonalSsm(gains, *rng.standard_normal((2, 600, 4)))
        assert rel_fro(materialize_kernel(model).values, row_recursion_kernel(model)) <= 1e-13

    def test_zero_gain_in_every_mode_gives_exact_zeros(self):
        rng = np.random.default_rng(9)
        gains = rng.uniform(0.5, 1.5, (600, 4))
        gains[0] = 1.0
        b, c = rng.standard_normal((2, 600, 4))
        x, other_x = rng.standard_normal((2, 600, 3))
        # Zero rows in every mode: inside panels, on and next to the panel edges
        # at 32 and 288, and in the last row of the ragged last panel.
        for zero_row in (150, 299, 300, 301, 450, 451, 31, 32, 33, 287, 288, 289, 599):
            with_zero = gains.copy()
            with_zero[zero_row] = 0.0
            model = DiagonalSsm(with_zero, b, c)
            got = materialize_kernel(model).values
            assert np.all(got[zero_row:, :zero_row] == 0.0), zero_row
            assert rel_fro(got, row_recursion_kernel(model)) <= 1e-13, zero_row
            # Inputs before the zero gain cannot reach outputs from it on.
            changed = x.copy()
            changed[:zero_row] = other_x[:zero_row]
            y, y_changed = forward_materialized(model, x), forward_materialized(model, changed)
            assert y[zero_row:].tobytes() == y_changed[zero_row:].tobytes(), zero_row

    def test_carried_weights_below_the_normal_range_are_carried_as_zero(self):
        # Gains in +-[0.05, 0.2] take carried products through the subnormal range
        # (below np.finfo(float).tiny) and on to zero within 600 steps.
        rng = np.random.default_rng(24)
        gains = rng.uniform(0.05, 0.2, (600, 4)) * rng.choice([-1.0, 1.0], (600, 4))
        gains[0] = 1.0
        b, c = rng.standard_normal((2, 600, 4))
        model = DiagonalSsm(gains, b, c)
        assert rel_fro(materialize_kernel(model).values, row_recursion_kernel(model)) <= 1e-13
        # Logs of |b[s]|, |c[t]| and of the products gains[s+1..t]; a weight at most
        # one nat from the edge of the normal range is left out of both checks.
        edge = np.log(np.finfo(float).tiny)
        logs = np.vstack([np.zeros((1, 4)), np.cumsum(np.log(np.abs(gains[1:])), axis=0)])
        rows = np.arange(600)
        starts = rows // ss_matrix._TILE * ss_matrix._TILE
        left_of_tile = rows[None, :] < starts[:, None]
        for n in range(4):
            single = DiagonalSsm(gains[:, n : n + 1], b[:, n : n + 1], c[:, n : n + 1])
            got = materialize_kernel(single).values
            log_b, log_c = np.log(np.abs(b[:, n])), np.log(np.abs(c[:, n]))
            # The carried weight b[s] * gains[s+1..lo-1] of column s in row t's panel.
            weight = log_b[None, :] + logs[starts - 1, n][:, None] - logs[None, :, n]
            product = logs[:, n][:, None] - logs[None, :, n]
            subnormal = left_of_tile & (weight < edge - 1.0)
            normal = left_of_tile & (weight > edge + 1.0) & (product > edge + 1.0)
            normal &= log_c[:, None] + product + log_b[None, :] > edge + 1.0
            assert subnormal.sum() > 10_000 and normal.sum() > 10_000
            assert got[subnormal].tobytes() == np.zeros(subnormal.sum()).tobytes(), n
            want = row_recursion_kernel(single)
            assert np.allclose(got[normal], want[normal], rtol=1e-12, atol=0.0), n

    @pytest.mark.parametrize("tile", [1, 2, 3, 5])
    def test_zero_gains_at_panel_edges_give_positive_zeros(self, monkeypatch, tile):
        monkeypatch.setattr(ss_matrix, "_TILE", tile)
        rng = np.random.default_rng(tile)
        steps = 3 * tile * ss_matrix._TILE_BATCH + 2
        gains = rng.uniform(0.5, 1.5, (steps, 3)) * rng.choice([-1.0, 1.0], (steps, 3))
        gains[0] = 1.0
        b, c = rng.standard_normal((2, steps, 3))
        x, other_x = rng.standard_normal((2, steps, 2))
        # Zero rows in every mode at and next to every panel edge, batch edges included.
        edges = range(tile, steps, tile)
        rows = {row + shift for row in edges for shift in (-1, 0, 1)} & set(range(1, steps))
        for zero_row in sorted(rows):
            with_zero = gains.copy()
            with_zero[zero_row] = 0.0
            model = DiagonalSsm(with_zero, b, c)
            got = materialize_kernel(model).values
            before = got[zero_row:, :zero_row]
            assert before.tobytes() == np.zeros(before.shape).tobytes(), zero_row
            changed = x.copy()
            changed[:zero_row] = other_x[:zero_row]
            y, y_changed = forward_materialized(model, x), forward_materialized(model, changed)
            assert y[zero_row:].tobytes() == y_changed[zero_row:].tobytes(), zero_row

    def test_kernel_rank_bounded_by_mode_count(self):
        for seed, modes in ((5, 1), (6, 2), (7, 4)):
            ssm, _ = random_instance(seed, 12, modes, 1)
            assert semiseparable_rank(materialize_kernel(ssm)) <= modes


class TestForwardMaterialized:
    def test_zero_input_gives_zero_output(self):
        ssm, _ = random_instance(8, 6, 2, 2)
        assert np.array_equal(forward_materialized(ssm, np.zeros((6, 2))), np.zeros((6, 2)))

    def test_single_step_scales_by_weight_product(self):
        ssm, _ = random_instance(9, 1, 3, 2)
        x = np.array([[2.0, -1.0]])
        expected = float(ssm.c[0] @ ssm.b[0]) * x
        assert np.allclose(forward_materialized(ssm, x), expected, rtol=1e-14)

    def test_agrees_with_recurrence(self):
        ssm, x = random_instance(10, 24, 4, 2)
        assert rel_fro(forward_materialized(ssm, x), forward_recurrence(ssm, x)) <= 1e-10

    def test_never_holds_the_whole_kernel(self):
        steps = 2048
        ssm, x = random_instance(11, steps, 4, 2)
        tracemalloc.start()
        try:
            forward_materialized(ssm, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The T x T kernel alone would take 8 * T^2 bytes.
        assert peak < 8 * steps**2 / 4

    def test_overflowing_model_is_refused(self):
        ones = np.ones((64, 2))
        gains = np.full((64, 2), 1e12)
        gains[0] = 1.0
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
            forward_materialized(DiagonalSsm(gains, ones, ones), np.ones((64, 1)))


class TestScan:
    def test_unit_gains_give_prefix_sums(self):
        y = np.arange(8.0).reshape(4, 2)
        assert np.array_equal(scan(np.ones(4), y, np.zeros(2)), np.cumsum(y, axis=0))

    def test_zero_gains_have_no_carry(self):
        y = np.arange(8.0).reshape(4, 2)
        assert np.array_equal(scan(np.zeros(4), y, np.zeros(2)), y)

    def test_direct_example_and_first_gain_unused(self):
        # The first gain multiplies only the zero start.
        got = scan(np.array([123.0, 2.0]), np.array([[1.0], [1.0]]), np.zeros(1))
        assert np.array_equal(got, np.array([[1.0], [3.0]]))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ShapeMismatchError):
            scan(np.ones(3), np.zeros((4, 2)), np.zeros(2))
        for bad in (np.zeros((4, 2, 2)), np.zeros((3, 3, 2)), np.zeros((3, 2))):
            with pytest.raises(ShapeMismatchError):
                scan(np.ones((3, 2)), bad, np.zeros(bad.shape[1:]))

    def test_mode_axis_is_bitwise_equal_to_per_mode_calls(self):
        ssm, _ = random_instance(13, 40, 4, 1)
        y = np.random.default_rng(13).standard_normal((40, 4, 3))
        got = scan(ssm.a_diag, y, np.zeros((4, 3)))
        for n in range(4):
            assert np.array_equal(got[:, n], scan(ssm.a_diag[:, n], y[:, n], np.zeros(3)))

    @pytest.mark.parametrize("with_start", [False, True])
    @pytest.mark.parametrize("steps", [1, 2, 37])
    @pytest.mark.parametrize("modes", [None, 1, 4])
    def test_bitwise_equal_to_the_step_loop(self, steps, modes, with_start):
        """gains[0] multiplies the start, a zero one or not; with one step, that gain is zero."""
        rng = np.random.default_rng(steps + (modes or 0))
        gains = signed_gains_with_zeros(rng, steps, modes or 1)
        gains[steps // 2] = 0.0
        if modes is None:
            gains = gains[:, 0]
        y = rng.standard_normal((*gains.shape, 3))
        start = rng.standard_normal(y.shape[1:]) if with_start else np.zeros(y.shape[1:])
        assert scan(gains, y, start).tobytes() == reference_scan(gains, y, start).tobytes()

    def test_negative_zero_first_row_from_a_zero_start_is_positive_zero(self):
        rows = np.array([[-0.0], [-0.0]])
        assert not np.signbit(scan(np.ones(2), rows, np.zeros(1))).any()

    def test_rejects_a_start_that_is_not_one_row(self):
        with pytest.raises(ShapeMismatchError, match="start must have shape"):
            scan(np.ones((3, 2)), np.zeros((3, 2, 4)), np.zeros((2, 1)))

    @pytest.mark.parametrize("vec, y", [(np.ones(0), np.zeros((0, 2))),
                                        (np.ones((0, 3)), np.zeros((0, 3, 2)))], ids=["1-D", "modes"])
    def test_zero_rows_are_a_size_error(self, vec, y):
        with pytest.raises(ShapeMismatchError, match="at least 1, got T=0"):
            scan(vec, y, np.zeros(y.shape[1:]))

    @pytest.mark.parametrize("with_start", [False, True])
    def test_a_gain_column_is_bitwise_the_gains_broadcast_over_modes(self, with_start):
        rng = np.random.default_rng(41)
        gains = signed_gains_with_zeros(rng, 37, 1)
        y = rng.standard_normal((37, 5, 3))
        start = rng.standard_normal((5, 3)) if with_start else np.zeros((5, 3))
        broadcast = np.broadcast_to(gains, (37, 5)).copy()
        assert scan(gains, y, start).tobytes() == scan(broadcast, y, start).tobytes()

    @pytest.mark.parametrize("gains, y", [(np.ones((3, 1)), np.zeros((3, 4))),
                                          (np.ones((3, 2)), np.zeros((3, 3, 4)))],
                             ids=["column against 2-D rows", "two modes against three"])
    def test_gains_must_have_the_rows_leading_shape_or_one_column(self, gains, y):
        with pytest.raises(ShapeMismatchError, match="need"):
            scan(gains, y, np.zeros(y.shape[1:]))


class TestAscendingSum:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_adds_the_terms_one_by_one_to_zeros(self, axis):
        terms = np.random.default_rng(axis).standard_normal((5, 6, 7)) * 1e8
        terms.flat[::11] = -0.0
        total = np.zeros(np.delete(terms.shape, axis))
        for term in np.moveaxis(terms, axis, 0):
            total = total + term
        assert ascending_sum(terms, axis).tobytes() == total.tobytes()


class TestForwardSsd:
    def test_direct_example(self):
        # h_0 = b_0 x_0 = (1, 2); h_1 = a_1 h_0 + b_1 x_1 = (6.5, 12); y_t = c_t . h_t
        ssm = DiagonalSsm([[1.0, 1.0], [0.5, 2.0]], [[1.0, 2.0], [3.0, 4.0]],
                          [[1.0, 1.0], [2.0, -1.0]])
        got = forward_ssd(ssm, np.array([[1.0], [2.0]]))
        assert np.array_equal(got, np.array([[3.0], [1.0]]))

    def test_unit_input_and_output_weights_give_the_scan(self):
        rng = np.random.default_rng(7)
        gains, x = rng.standard_normal((9, 1)), rng.standard_normal((9, 3))
        gains[0] = 1.0
        ones = np.ones((9, 1))
        got = forward_ssd(DiagonalSsm(gains, ones, ones), x)
        assert np.array_equal(got, scan(gains[:, 0], x, np.zeros(3)))

    @pytest.mark.parametrize("field", ["b", "c"])
    def test_zero_input_or_output_weights_give_zeros(self, field):
        ssm, x = random_instance(17, 9, 3, 2)
        weights = {"b": ssm.b, "c": ssm.c} | {field: np.zeros((9, 3))}
        got = forward_ssd(DiagonalSsm(ssm.a_diag, weights["b"], weights["c"]), x)
        assert np.array_equal(got, np.zeros((9, 2)))

    def test_modes_are_bitwise_the_single_mode_models_added_in_order(self):
        ssm, x = random_instance(18, 23, 4, 3)
        total = np.zeros((23, 3))
        for n in range(4):
            mode = DiagonalSsm(ssm.a_diag[:, n:n + 1], ssm.b[:, n:n + 1], ssm.c[:, n:n + 1])
            total += forward_ssd(mode, x)
        assert forward_ssd(ssm, x).tobytes() == total.tobytes()

    def test_rejects_wrong_length(self):
        ssm, _ = random_instance(0, 8, 2, 1)
        with pytest.raises(ShapeMismatchError, match="sequence has 7 steps, model has 8"):
            forward_ssd(ssm, np.zeros((7, 1)))

    def test_single_mode_is_bitwise_equal_to_recurrence(self):
        ssm, x = random_instance(11, 32, 1, 3)
        assert np.array_equal(forward_ssd(ssm, x), forward_recurrence(ssm, x))

    def test_agrees_with_recurrence(self):
        ssm, x = random_instance(12, 32, 8, 2)
        assert rel_fro(forward_ssd(ssm, x), forward_recurrence(ssm, x)) <= 1e-10

    def test_causality_on_unit_impulse(self):
        ssm, _ = random_instance(13, 12, 3, 2)
        k = 7
        x = np.zeros((12, 2))
        x[k] = 1.0
        for fn in (forward_recurrence, forward_ssd, forward_materialized):
            y = fn(ssm, x)
            assert np.array_equal(y[:k], np.zeros((k, 2)))

    def test_causality_under_perturbation(self):
        ssm, x = random_instance(14, 10, 2, 2)
        s = 4
        bumped = x.copy()
        bumped[s] += 1.0
        for fn in (forward_recurrence, forward_ssd, forward_materialized):
            delta = fn(ssm, bumped) - fn(ssm, x)
            assert np.allclose(delta[:s], 0.0, atol=1e-14)
            assert np.linalg.norm(delta[s:]) > 0.0

    def test_linearity(self):
        ssm, x1 = random_instance(15, 12, 3, 2)
        _, x2 = random_instance(16, 12, 3, 2)
        for fn in (forward_recurrence, forward_ssd, forward_materialized):
            combined = fn(ssm, 2.0 * x1 - 0.5 * x2)
            split = 2.0 * fn(ssm, x1) - 0.5 * fn(ssm, x2)
            assert rel_fro(combined, split) <= 1e-12

    @given(
        seed=st.integers(0, 10_000),
        steps=st.integers(1, 12),
        modes=st.integers(1, 4),
        channels=st.integers(1, 3),
    )
    @settings(deadline=None, max_examples=60)
    def test_three_paths_agree(self, seed, steps, modes, channels):
        ssm, x = random_instance(seed, steps, modes, channels)
        y_rec = forward_recurrence(ssm, x)
        assert rel_fro(y_rec, forward_ssd(ssm, x)) <= 1e-10
        assert rel_fro(y_rec, forward_materialized(ssm, x)) <= 1e-10


class TestDiagonalSsmType:
    def test_rejects_degenerate_dims(self):
        with pytest.raises(ShapeMismatchError):
            DiagonalSsm(np.ones((0, 1)), np.ones((0, 1)), np.ones((0, 1)))
        with pytest.raises(ShapeMismatchError):
            DiagonalSsm(np.ones((3, 0)), np.ones((3, 0)), np.ones((3, 0)))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ShapeMismatchError):
            DiagonalSsm(np.ones((3, 2)), np.ones((3, 2)), np.ones((4, 2)))

    def test_requires_identity_first_transition(self):
        gains = np.ones((3, 2))
        gains[0, 1] = 0.5
        with pytest.raises(ValueError):
            DiagonalSsm(gains, np.ones((3, 2)), np.ones((3, 2)))

    def test_json_round_trip(self):
        ssm, _ = random_instance(17, 6, 3, 1)
        again = DiagonalSsm.from_json(ssm.to_json())
        assert np.array_equal(ssm.a_diag, again.a_diag)
        assert np.array_equal(ssm.b, again.b)
        assert np.array_equal(ssm.c, again.c)

    def test_generator_is_deterministic(self):
        first, x_first = random_instance(18, 8, 2, 2)
        second, x_second = random_instance(18, 8, 2, 2)
        assert np.array_equal(first.a_diag, second.a_diag)
        assert np.array_equal(first.b, second.b)
        assert np.array_equal(x_first, x_second)

    def test_scalar_identity_generator(self):
        ssm, _ = random_instance(19, 8, 3, 1, scalar_identity=True)
        assert ssm.is_scalar_identity()
        generic, _ = random_instance(19, 8, 3, 1)
        assert not generic.is_scalar_identity()

    def test_gain_magnitudes_respect_range(self):
        ssm, _ = random_instance(20, 64, 4, 1, a_abs=(0.5, 2.0))
        mags = np.abs(ssm.a_diag[1:])
        assert mags.min() >= 0.5 and mags.max() <= 2.0

    @pytest.mark.parametrize("a_abs", [(0.0, np.inf), (1.0, np.inf), (np.inf, np.inf)], ids=str)
    def test_generator_refuses_infinite_gain_bounds(self, a_abs):
        with pytest.raises(ValueError, match="need 0 <= lo <= hi"):
            random_instance(0, 4, 2, 1, a_abs=a_abs)

    @pytest.mark.parametrize("dims", [(0, 2, 1), (4, 0, 1), (4, 2, 0), (-1, 2, 1)], ids=str)
    def test_generator_refuses_sizes_below_one(self, dims):
        with pytest.raises(ShapeMismatchError, match="at least 1"):
            random_instance(0, *dims)


class TestSequenceSerialization:
    def test_csv_round_trip(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 3))
        assert np.array_equal(sequence_from_csv(sequence_to_csv(x)), x)

    def test_json_round_trip(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 2)) * 1e-9
        assert np.array_equal(sequence_from_json(sequence_to_json(x)), x)

    @pytest.mark.parametrize("key", ["X", "Y"])
    def test_json_array_holding_an_object_is_a_value_error_naming_its_key(self, key):
        with pytest.raises(ValueError, match=f"^'{key}' must be an array of numbers"):
            sequence_from_json('{"%s": [[1.0], {"a": 1}]}' % key)
