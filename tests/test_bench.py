"""Tests for the operation-count instrumentation."""

import tracemalloc

import numpy as np
import pytest

from ssdlab import bench
from ssdlab import ssm as ssm_mod
from ssdlab.bench import (
    CountedArray,
    FlopCounter,
    count_flops,
    counted_forward,
    scaling_experiment,
)
from ssdlab.errors import DegenerateGridError, ShapeMismatchError
from ssdlab.ssm import (
    DiagonalSsm,
    forward_materialized,
    forward_recurrence,
    forward_ssd,
    random_instance,
)
from tests.conftest import rel_fro
from tests.oracles import reference_counted_forward


class TestCountFlops:
    def test_linear_path_lands_in_budget(self):
        report = count_flops("ssd", 64, 4, 2, seed=0)
        work = 4 * 64 * 2
        assert 3 * work <= report.multiply_adds <= 5 * work

    def test_quadratic_path_quadruples_when_steps_double(self):
        small = count_flops("materialized", 64, 4, 2, seed=0)
        large = count_flops("materialized", 128, 4, 2, seed=0)
        ratio = large.multiply_adds / small.multiply_adds
        assert abs(ratio - 4.0) <= 0.4

    def test_single_mode_paths_count_identically(self):
        ssd = count_flops("ssd", 64, 1, 3, seed=0)
        rec = count_flops("recurrence", 64, 1, 3, seed=0)
        assert ssd.multiply_adds == rec.multiply_adds
        assert ssd.additions == rec.additions

    def test_counts_are_seed_independent(self):
        first = count_flops("ssd", 32, 2, 2, seed=1)
        second = count_flops("ssd", 32, 2, 2, seed=999)
        assert first.multiply_adds == second.multiply_adds
        assert first.additions == second.additions
        assert first.peak_live_elements == second.peak_live_elements

    def test_linear_path_counts_scale_exactly(self):
        base = count_flops("ssd", 64, 4, 2, seed=0)
        double = count_flops("ssd", 128, 4, 2, seed=0)
        assert double.multiply_adds == 2 * base.multiply_adds
        assert double.additions == 2 * base.additions

    def test_peak_live_elements_bound(self):
        for steps, modes, channels in ((64, 4, 2), (32, 1, 5), (16, 8, 1)):
            report = count_flops("ssd", steps, modes, channels, seed=0)
            assert report.peak_live_elements <= 4 * modes * steps * channels + 3 * modes * steps

    def test_rejects_unknown_path(self):
        with pytest.raises(ValueError):
            count_flops("softmax", 8, 1, 1, seed=0)


class TestCountedForwardInput:
    @pytest.mark.parametrize("path", ["ssd", "recurrence", "materialized"])
    def test_rejects_zero_channels(self, path):
        ssm, _ = random_instance(0, 5, 2, 1)
        with pytest.raises(ShapeMismatchError):
            counted_forward(path, ssm, np.zeros((5, 0)))

    @pytest.mark.parametrize("path", ["ssd", "recurrence", "materialized"])
    def test_rejects_a_sequence_shorter_than_the_model(self, path):
        ssm, _ = random_instance(0, 5, 2, 1)
        with pytest.raises(ShapeMismatchError):
            counted_forward(path, ssm, np.ones((3, 1)))


class TestCountedArray:
    def test_each_operation_charges_its_element_count(self):
        counter = FlopCounter()
        column = CountedArray(np.arange(1.0, 5.0)[:, None], counter)
        row = CountedArray(np.ones((1, 3)), counter)
        product = column * row
        assert (counter.madds, counter.adds) == (4 * 3, 0)
        assert product[1:3].value.shape == (2, 3)
        product[0] = row[0]
        assert (counter.madds, counter.adds) == (4 * 3, 0)
        total = product.ascending_sum()
        assert (counter.madds, counter.adds) == (4 * 3, 4 * 3)
        assert total.value.tolist() == [1.0 + 2.0 + 3.0 + 4.0] * 3
        product.running_product()
        assert (counter.madds, counter.adds) == (4 * 3 + 3 * 3, 4 * 3)
        assert counter.peak_live == 0

    def test_running_sum_adds_rows_top_to_bottom(self):
        rows = np.array([[1e16, -0.0], [1.0, -0.0], [-1e16, 0.0]])
        counter = FlopCounter()
        sums = CountedArray(rows, counter).running_sum().value
        expected = [rows[0], rows[0] + rows[1], rows[0] + rows[1] + rows[2]]
        assert sums.tobytes() == np.array(expected).tobytes()
        assert (counter.madds, counter.adds, counter.peak_live) == (0, 2 * 2, 0)

    def test_ascending_sum_adds_in_order_from_zero(self):
        terms = np.zeros((16, 1))
        terms[:5, 0] = [-0.0, 1e16, 1.0, 1.0, -1e16]
        total = CountedArray(terms, FlopCounter()).ascending_sum().value
        # Term by term, each 1.0 is lost against 1e16; np.sum's partial sums keep them.
        assert total.tolist() == [0.0] and np.sum(terms, axis=0).tolist() == [2.0]
        only_negative_zeros = CountedArray(np.full((3, 1), -0.0), FlopCounter())
        assert not np.signbit(only_negative_zeros.ascending_sum().value).any()

    def test_ascending_sum_along_a_later_axis(self):
        terms = np.arange(24.0).reshape(2, 3, 4)
        counter = FlopCounter()
        total = CountedArray(terms, counter).ascending_sum(axis=1).value
        assert total.tobytes() == (0.0 + terms[:, 0] + terms[:, 1] + terms[:, 2]).tobytes()
        assert (counter.madds, counter.adds) == (0, 24)

    @pytest.mark.parametrize("with_start", [False, True])
    def test_scan_charges_a_multiply_and_an_add_per_element_of_every_row(self, with_start):
        rng = np.random.default_rng(7)
        rows, gains, start = rng.standard_normal((5, 3, 2)), rng.standard_normal((5, 3)), None
        counter = FlopCounter()
        if with_start:
            start = CountedArray(rng.standard_normal((3, 2)), counter)
        out = CountedArray(rows, counter).scan(CountedArray(gains, counter), start).value
        assert (counter.madds, counter.adds, counter.peak_live) == (5 * 3 * 2, 5 * 3 * 2, 0)
        prev = np.zeros((3, 2)) if start is None else start.value
        for t in range(5):
            prev = gains[t, :, None] * prev + rows[t]
            assert out[t].tobytes() == prev.tobytes()

    @pytest.mark.parametrize("gain", [1.0, -1.0])
    def test_scan_of_a_negative_zero_first_row_keeps_the_scalar_sign(self, gain):
        counter = FlopCounter()
        rows = CountedArray(np.array([[-0.0], [-0.0]]), counter)
        out = rows.scan(CountedArray(np.array([gain, gain]), counter)).value
        # The zero carry is multiplied, then added to, as the scalar kernel does.
        first = gain * 0.0 + -0.0
        assert out.tobytes() == np.array([[first], [gain * first + -0.0]]).tobytes()


class TestCountingKernelsMatchScalarOracle:
    """Counts, peak and output bytes equal the one-scalar-at-a-time kernels'."""

    @pytest.mark.parametrize("path", ["ssd", "recurrence", "materialized"])
    @pytest.mark.parametrize(
        "dims", [(1, 1, 1), (2, 3, 1), (7, 3, 2), (40, 17, 1), (33, 8, 2), (9, 33, 2)], ids=str
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bitwise_equal(self, path, dims, seed):
        ssm, x = random_instance(seed, *dims)
        out, counter = counted_forward(path, ssm, x)
        expected, oracle = reference_counted_forward(path, ssm, x)
        assert out.shape == expected.shape and out.tobytes() == expected.tobytes()
        counts = (counter.madds, counter.adds, counter.peak_live)
        assert counts == (oracle.madds, oracle.adds, oracle.peak_live)


@pytest.mark.parametrize("path", ["recurrence", "ssd"])
class TestCountedRecurrenceChunks:
    """The counted ssd and recurrence run in chunks of ``ssm._CHUNK`` steps, as production does."""

    @staticmethod
    def assert_matches_oracle(path, model, x):
        out, counter = counted_forward(path, model, x)
        expected, oracle = reference_counted_forward(path, model, x)
        assert out.tobytes() == expected.tobytes()
        counts = (counter.madds, counter.adds, counter.peak_live)
        assert counts == (oracle.madds, oracle.adds, oracle.peak_live)

    @pytest.mark.parametrize("steps", [1, 2, 3, 4, 8, 9])
    def test_chunks_are_bitwise_the_scalar_oracle(self, monkeypatch, path, steps):
        """Chunks of 3: up to one, one and a step, two and a ragged third, three full."""
        monkeypatch.setattr(ssm_mod, "_CHUNK", 3)
        self.assert_matches_oracle(path, *random_instance(steps, steps, 3, 2))

    def test_full_chunks_are_bitwise_the_scalar_oracle(self, path):
        steps = 2 * ssm_mod._CHUNK + 3
        rng = np.random.default_rng(17)
        gains = rng.uniform(0.5, 1.5, (steps, 3)) * rng.choice([-1.0, 1.0], (steps, 3))
        gains[rng.random((steps, 3)) < 0.1] = 0.0
        gains[0] = 1.0
        model = DiagonalSsm(gains, *rng.standard_normal((2, steps, 3)))
        self.assert_matches_oracle(path, model, rng.standard_normal((steps, 2)))

    def test_working_memory_does_not_grow_with_steps(self, path):
        """Beyond its output, a counted linear path holds as much at T=4096 as at T=1024."""
        extra = {}
        for steps in (1024, 4096):
            model, x = random_instance(5, steps, 16, 4)
            tracemalloc.start()
            try:
                y, _ = counted_forward(path, model, x)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            extra[steps] = peak - y.nbytes
        # A state for every step would add 8 * 3072 * 16 * 4 bytes; this allows 1/16 of that.
        assert extra[4096] <= extra[1024] + 8 * 3072 * 4


class TestCountedMaterializedBlocks:
    """The counted materialized path walks ``bench._BLOCK`` columns and ``bench._ROWS`` rows
    at a time, and stays bitwise the scalar oracle's across every edge of the walk."""

    @staticmethod
    def assert_matches_oracle(model, x):
        out, counter = counted_forward("materialized", model, x)
        expected, oracle = reference_counted_forward("materialized", model, x)
        assert out.tobytes() == expected.tobytes()
        counts = (counter.madds, counter.adds, counter.peak_live)
        assert counts == (oracle.madds, oracle.adds, oracle.peak_live)

    @staticmethod
    def signed_zero_instance(steps, seed):
        """Gains with exact zeros (all of step 1's), an input with -0.0 entries."""
        rng = np.random.default_rng(seed)
        gains = rng.uniform(0.5, 1.5, (steps, 3)) * rng.choice([-1.0, 1.0], (steps, 3))
        gains[rng.random((steps, 3)) < 0.2] = 0.0
        gains[1:2] = 0.0
        gains[0] = 1.0
        x = rng.standard_normal((steps, 2))
        x[rng.random((steps, 2)) < 0.3] = -0.0
        return DiagonalSsm(gains, *rng.standard_normal((2, steps, 3))), x

    @pytest.mark.parametrize("block, rows", [(3, 2), (3, 3), (4, 3)], ids=str)
    @pytest.mark.parametrize("steps", [1, 2, 3, 4, 7, 9, 11])
    def test_small_blocks_are_bitwise_the_scalar_oracle(self, monkeypatch, block, rows, steps):
        """One block and part of one, whole and ragged blocks, row tiles that split a block's
        triangle and the rows below it, or that end with it."""
        monkeypatch.setattr(bench, "_BLOCK", block)
        monkeypatch.setattr(bench, "_ROWS", rows)
        self.assert_matches_oracle(*random_instance(steps, steps, 3, 2))
        self.assert_matches_oracle(*self.signed_zero_instance(steps, steps))

    def test_two_blocks_and_a_ragged_one_are_bitwise_the_scalar_oracle(self):
        self.assert_matches_oracle(*self.signed_zero_instance(2 * bench._BLOCK + 3, 5))

    def test_calls_and_working_memory_stay_per_tile(self, monkeypatch):
        """At T=256 the run sums over modes once per tile of rows, not once per column, with a
        few wrapped operations per column; beyond its output it holds a few (T, N) arrays and
        at most three tiles of a block's products, no more at T=1024 than at T=256."""
        calls = {}

        def counting(owner, name):
            wrapped = getattr(owner, name)

            def call(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return wrapped(*args, **kwargs)

            monkeypatch.setattr(owner, name, call)

        counting(ssm_mod, "ascending_sum")
        operations = ("__mul__", "__add__", "__getitem__", "__setitem__", "running_product",
                      "running_sum")
        for name in operations:
            counting(CountedArray, name)
        steps, modes, channels = 256, 8, 2
        counted_forward("materialized", *random_instance(0, steps, modes, channels))
        # 20 tiles of rows at T=256: 4 triangles of two pieces, and 12 tiles below them.
        assert calls["ascending_sum"] <= steps // 8
        assert sum(calls[name] for name in operations) <= 10 * steps
        monkeypatch.undo()

        extra = {}
        tile = 8 * (bench._ROWS + 1) * modes * bench._BLOCK
        for steps in (256, 1024):
            model, x = random_instance(1, steps, modes, channels)
            counted_forward("materialized", model, x)  # the packed triangles' indices are kept
            tracemalloc.start()
            try:
                y, _ = counted_forward("materialized", model, x)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            extra[steps] = peak - y.nbytes
            assert extra[steps] <= 4 * 8 * steps * modes + 3 * tile
        assert extra[1024] <= extra[256] + 4 * 8 * (1024 - 256) * modes


def closed_forms(path, T, N, d):
    """(multiply-adds, additions, peak live elements) of one counted run, in closed form."""
    params, tri = 3 * T * N, T * (T + 1) // 2
    if path == "ssd":
        return 3 * N * T * d, 2 * N * T * d, params + 3 * N * T * d + T * d
    if path == "recurrence":
        return 3 * N * T * d, 2 * N * T * d, params + N * d + T * d
    return N * T * T + d * tri, (N + d) * tri, params + T * T + N + T * d


class TestClosedForms:
    @pytest.mark.parametrize("path", ["ssd", "recurrence", "materialized"])
    @pytest.mark.parametrize("dims", [(7, 3, 2), (16, 4, 1), (5, 1, 3)], ids=str)
    def test_counts_equal_their_closed_forms(self, path, dims):
        report = count_flops(path, *dims, seed=0)
        counted = (report.multiply_adds, report.additions, report.peak_live_elements)
        assert counted == closed_forms(path, *dims)


class TestCountingKernelsMatchProduction:
    def test_ssd(self):
        ssm, x = random_instance(3, 32, 4, 3)
        counted, _ = counted_forward("ssd", ssm, x)
        assert np.array_equal(counted, forward_ssd(ssm, x))

    def test_recurrence(self):
        ssm, x = random_instance(4, 32, 4, 3)
        counted, _ = counted_forward("recurrence", ssm, x)
        assert rel_fro(counted, forward_recurrence(ssm, x)) <= 1e-12

    def test_materialized(self):
        ssm, x = random_instance(5, 24, 3, 2)
        counted, _ = counted_forward("materialized", ssm, x)
        assert rel_fro(counted, forward_materialized(ssm, x)) <= 1e-12


class TestScalingExperiment:
    def test_linear_slopes(self):
        by_steps = scaling_experiment("ssd", [64, 128, 256, 512], [4], [2], seed=0)
        by_modes = scaling_experiment("ssd", [64], [1, 2, 4, 8], [2], seed=0)
        by_channels = scaling_experiment("ssd", [64], [4], [1, 2, 4, 8], seed=0)
        assert abs(by_steps.slopes["T"] - 1.0) <= 0.05
        assert abs(by_modes.slopes["N"] - 1.0) <= 0.05
        assert abs(by_channels.slopes["d"] - 1.0) <= 0.05

    def test_quadratic_slope_in_steps(self):
        result = scaling_experiment("materialized", [64, 128, 256], [4], [2], seed=0)
        assert abs(result.slopes["T"] - 2.0) <= 0.1

    def test_rejects_two_point_axis(self):
        with pytest.raises(DegenerateGridError):
            scaling_experiment("ssd", [64, 128], [4], [2], seed=0)

    def test_csv_has_one_row_per_point(self):
        result = scaling_experiment("ssd", [64, 128, 256], [4], [2], seed=0)
        lines = result.to_csv().strip().splitlines()
        assert len(lines) == 1 + 3
        assert lines[0] == "path,T,N,d,multiply_adds,additions,peak_live_elements"

