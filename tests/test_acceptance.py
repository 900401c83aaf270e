"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.
"""

import itertools
import time

import numpy as np

from ssdlab.bench import count_flops, scaling_experiment
from ssdlab.duality import (
    attention_like_decomposition,
    construct_one_ss_dual,
    full_rank_one_ss_dual,
    scalar_identity_dual,
)
from ssdlab.errors import ZeroGainError
from ssdlab.limits import non_dualizable_matrix, softmax_counterexample
from ssdlab.ss_matrix import semiseparable_rank
from ssdlab.ssm import (
    forward_materialized,
    forward_recurrence,
    forward_ssd,
    materialize_kernel,
    random_instance,
    sequence_to_csv,
)
from ssdlab.sss_extract import extract_sss, materialize_sss, random_representation
from tests.conftest import random_lower_triangular, rel_fro, representable_matrix, run_ssdlab
from tests.oracles import has_exact_padding, has_one_ss_dual, submatrix_rank_oracle


def test_criterion_01_three_path_equivalence():
    start = time.perf_counter()
    combos = list(itertools.product((8, 32, 64, 256), (1, 4, 8), (1, 3)))
    worst = 0.0
    for i in range(200):
        steps, modes, channels = combos[i % len(combos)]
        ssm, x = random_instance(1000 + i, steps, modes, channels, a_abs=(0.0, 2.0))
        y_rec = forward_recurrence(ssm, x)
        y_ssd = forward_ssd(ssm, x)
        y_mat = forward_materialized(ssm, x)
        worst = max(worst, rel_fro(y_rec, y_ssd), rel_fro(y_rec, y_mat), rel_fro(y_ssd, y_mat))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10, f"max pairwise relative error {worst:.3e}"
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    print(f"\nACCEPTANCE 01 PASS: three-path equivalence, 200 instances, "
          f"max rel err {worst:.3e}, {elapsed:.1f}s")


def test_criterion_02_scalar_identity_duality():
    worst = 0.0
    for i in range(100):
        steps = (8, 16, 32)[i % 3]
        modes = (1, 2, 4)[(i // 3) % 3]
        channels = (1, 3)[i % 2]
        ssm, x = random_instance(2000 + i, steps, modes, channels, scalar_identity=True)
        factors = scalar_identity_dual(ssm)
        worst = max(worst, rel_fro(forward_materialized(factors, x), forward_recurrence(ssm, x)))
    assert worst <= 1e-10, f"max relative error {worst:.3e}"
    print(f"ACCEPTANCE 02 PASS: scalar-identity dual matches recurrence, "
          f"100 instances, max rel err {worst:.3e}")


def test_criterion_03_full_rank_dual():
    worst = 0.0
    for i in range(100):
        steps = (8, 16, 32, 64)[i % 4]
        modes = (1, 2, 4)[i % 3]
        ssm, _ = random_instance(3000 + i, steps, modes, 1, a_abs=(0.5, 2.0))
        factors = full_rank_one_ss_dual(ssm)
        kernel = materialize_kernel(ssm).values
        worst = max(worst, rel_fro(factors.materialize().values, kernel))
    assert worst <= 1e-8, f"max relative error {worst:.3e}"
    gains = np.ones((6, 2))
    gains[3, 1] = 0.0
    from ssdlab.ssm import DiagonalSsm

    bad = DiagonalSsm(gains, np.ones((6, 2)), np.ones((6, 2)))
    try:
        full_rank_one_ss_dual(bad)
        raise AssertionError("zero-gain input was not rejected")
    except ZeroGainError:
        pass
    print(f"ACCEPTANCE 03 PASS: full-rank dual reproduces the kernel, "
          f"100 instances, max rel err {worst:.3e}; zero gains rejected")


def test_criterion_04_attention_like_decomposition():
    worst = 0.0
    for i in range(100):
        steps = (8, 12, 16)[i % 3]
        modes = (1, 2, 4, 8)[i % 4]
        ssm, _ = random_instance(4000 + i, steps, modes, 1)
        kernel = materialize_kernel(ssm).values
        total = sum(t.materialize().values for t in attention_like_decomposition(ssm))
        worst = max(worst, rel_fro(total, kernel))
    assert worst <= 1e-12, f"max relative error {worst:.3e}"
    print(f"ACCEPTANCE 04 PASS: per-mode terms sum to the kernel, "
          f"100 instances, max rel err {worst:.3e}")


def test_criterion_05_extraction_round_trip():
    worst = 0.0
    for i in range(50):
        steps = (8, 16, 24, 32, 48)[i % 5]
        width = (1, 2, 3, 4)[i % 4]
        source = random_representation(5000 + i, steps, width)
        m = materialize_sss(source)
        rep = extract_sss(m, width)
        worst = max(worst, rel_fro(materialize_sss(rep).values, m.values))
        assert has_exact_padding(rep), f"instance {i}: transition padding not exact"
    assert worst <= 1e-6, f"max round-trip error {worst:.3e}"
    print(f"ACCEPTANCE 05 PASS: extraction round trip on 50 representations, "
          f"max rel err {worst:.3e}, padding exact")


def test_criterion_06_rank_against_oracle():
    for i in range(100):
        size = 3 + i % 8
        if i % 5 == 4:
            ssm, _ = random_instance(6000 + i, size, 1 + i % 3, 1)
            m = materialize_kernel(ssm)
        else:
            m = random_lower_triangular(6000 + i, size)
        assert semiseparable_rank(m) == submatrix_rank_oracle(m), f"disagreement at instance {i}"
    corner = non_dualizable_matrix(5)
    assert semiseparable_rank(corner) == 2
    print("ACCEPTANCE 06 PASS: fast rank equals brute-force oracle on 100 matrices; "
          "corner matrix has rank 2")


def test_criterion_07_representability_decision():
    for size in range(3, 17):
        m = non_dualizable_matrix(size)
        for width in range(2, size - 1):
            assert not has_one_ss_dual(m, width), f"unexpected dual at T={size}, N={width}"
    worst = 0.0
    for i in range(100):
        size = 6 + i % 11
        width = (1, 2, 3)[i % 3]
        blocks = 1 + i % 2
        m = representable_matrix(7000 + i, size, width, blocks=blocks)
        assert has_one_ss_dual(m, width)
        factors = construct_one_ss_dual(m, width)
        residual = np.linalg.norm(factors.materialize().values - m.values)
        scale = np.linalg.norm(m.values)
        worst = max(worst, residual / scale)
    assert worst <= 1e-8, f"max reconstruction error {worst:.3e}"
    print(f"ACCEPTANCE 07 PASS: no dual exists on the corner family (T up to 16); "
          f"100 representable kernels reconstruct, max rel err {worst:.3e}")


def test_criterion_08_softmax_rank_explosion():
    for size in (2, 3, 4, 5):
        report = softmax_counterexample(size)
        m = report.measurements
        assert m["rank_V_exact_one"], f"T={size}: scores not exactly rank 1"
        assert m["softmax_numeric_rank"] == size, f"T={size}: softmax not full rank"
        assert np.isfinite(m["logdet_analytic"]), f"T={size}: analytic log-det not finite"
        assert m["logdet_rel_err"] <= 1e-6, f"T={size}: log-det disagreement"
        assert report.verdict
    print("ACCEPTANCE 08 PASS: softmax rank explosion holds for T in {2,3,4,5} "
          "with determinant cross-check")


def test_criterion_09_complexity_counts():
    start = time.perf_counter()
    checked = 0
    for steps in (64, 128, 256, 512):
        rep = count_flops("ssd", steps, 4, 2, seed=0)
        work = 4 * steps * 2
        assert 3 * work <= rep.multiply_adds <= 5 * work, f"T={steps} outside budget"
        checked += 1
    for modes in (1, 2, 4, 8):
        rep = count_flops("ssd", 64, modes, 2, seed=0)
        work = modes * 64 * 2
        assert 3 * work <= rep.multiply_adds <= 5 * work, f"N={modes} outside budget"
        checked += 1
    for channels in (1, 2, 4, 8):
        rep = count_flops("ssd", 64, 4, channels, seed=0)
        work = 4 * 64 * channels
        assert 3 * work <= rep.multiply_adds <= 5 * work, f"d={channels} outside budget"
        checked += 1
    by_steps = scaling_experiment("ssd", [64, 128, 256, 512], [4], [2], seed=0)
    by_modes = scaling_experiment("ssd", [64], [1, 2, 4, 8], [2], seed=0)
    by_channels = scaling_experiment("ssd", [64], [4], [1, 2, 4, 8], seed=0)
    quad = scaling_experiment("materialized", [64, 128, 256], [4], [2], seed=0)
    assert abs(by_steps.slopes["T"] - 1.0) <= 0.05
    assert abs(by_modes.slopes["N"] - 1.0) <= 0.05
    assert abs(by_channels.slopes["d"] - 1.0) <= 0.05
    assert abs(quad.slopes["T"] - 2.0) <= 0.1
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0, f"counting runs took {elapsed:.1f}s"
    print(f"ACCEPTANCE 09 PASS: {checked} grid points inside [3NTd, 5NTd]; slopes "
          f"T={by_steps.slopes['T']:.3f} N={by_modes.slopes['N']:.3f} "
          f"d={by_channels.slopes['d']:.3f} quadratic={quad.slopes['T']:.3f}; {elapsed:.1f}s")


def test_criterion_10_cli_determinism(tmp_path):
    ssm, x = random_instance(7, 16, 4, 3)
    (tmp_path / "ssm.json").write_text(ssm.to_json())
    (tmp_path / "x.csv").write_text(sequence_to_csv(x))
    (tmp_path / "corner5.csv").write_text(non_dualizable_matrix(5).to_csv())
    commands = [
        (["gen", "ssm", "--seed", "5", "--T", "12", "--N", "3", "--out", "gen.json"], ["gen.json"]),
        (
            ["forward", "--ssm", "ssm.json", "--input", "x.csv", "--path", "all", "--out", "fw.json"],
            ["fw.json"],
        ),
        (
            [
                "check-dual", "--mode", "representability", "--matrix", "corner5.csv",
                "--N", "4", "--out", "dual.json",
            ],
            ["dual.json"],
        ),
        (["extract", "--matrix", "corner5.csv", "--N", "2", "--out", "ext.json"], ["ext.json"]),
        (["counterexample", "softmax", "--T", "4", "--format", "json", "--out", "ce.json"], ["ce.json"]),
        (
            [
                "bench", "--path", "ssd", "--T", "64,128,256", "--seed", "3",
                "--out", "bench.csv", "--summary-out", "bench.json",
            ],
            ["bench.csv", "bench.json"],
        ),
    ]
    for argv, out_files in commands:
        runs = []
        for _ in range(2):
            proc = run_ssdlab(argv, cwd=tmp_path, capture_output=True)
            assert proc.returncode == 0, f"{argv[0]} failed: {proc.stderr!r}"
            runs.append((proc.stdout, [(tmp_path / f).read_bytes() for f in out_files]))
        assert runs[0] == runs[1], f"{argv[0]} output differs between runs"
    print("ACCEPTANCE 10 PASS: all six commands byte-identical across repeated runs")
