"""Check that two checkouts of ssdlab give the same outputs, bit for bit.

Usage: python scripts/compare_outputs.py BASE_SRC [HEAD_SRC]

Each ``*_SRC`` is a directory holding the ``ssdlab`` package (``src`` of a
checkout; HEAD_SRC defaults to this checkout's). Each side runs in its own
interpreter with BLAS pinned to one thread, on the same seeded inputs:
``one_ss`` and ``materialize_kernel`` (also at T=600, and on a T=600 model
whose gains of magnitude 0.05 to 0.2 take the kernel panel walk's carried
weights below the normal range, where it carries them as zero),
``forward_ssd`` at T=128; ``forward_ssd`` and ``forward_recurrence`` at
T=600 (two full chunks of steps and a ragged one) with N in {1, 17} and d
in {1, 5}, and on a T=600 model whose gains are zero at steps 255 to 257,
around the first chunk boundary, with a -0.0 first input row;
``forward_materialized`` on a T=600 model whose gains lie in +-[0.97, 1],
about one in a hundred exactly zero, so the kernel panel walk's carried
weights stay normal beside exact zeros; the summed per-mode
materializations of ``attention_like_decomposition``,
``construct_one_ss_dual`` and ``materialize_sss`` (also at T=70, two full
panels of 32 rows and a ragged one); ``kernel_residual`` of a T=600 model
and its ``full_rank_one_ss_dual`` (18 full panels and a ragged one);
``extract_sss`` (A, b, c and r),
``semiseparable_rank`` and the per-block new-column verdicts, span-fit
coefficients and warning texts (in order) of ``count_block_new_columns``
of a random width-4 representation and of a kernel cut by three zero
gains, both at T=256, of a matrix whose sweep refactors and widens its
carry, and of a 4 x 4 matrix whose column 1 lies in the borderline band;
plus the exit code, stdout, stderr, warning
messages and output file of the CLI commands ``forward --path all`` (at
T=128, at T=600, where the kernel panel walk runs 18 full panels and a ragged one,
and on the T=600 model whose carried weights fall below the normal range;
also on a T=64 model whose gains of 1e12 overflow every path, which it
refuses on the recurrence's output),
``forward --path ssd`` (CSV, chosen by the ``.csv`` name of ``--out``),
``forward --path all --format json`` and ``--path ssd`` (JSON printed, and
CSV) on a T=96 model whose outputs run from about 1e-15 to 1e22, so rows
inside and outside the range where orjson spells floats as ``repr``
alternate,
``forward`` with its flags from ``--config``,
``check-dual --mode representability`` (on a representable kernel, on a
matrix it refuses, and on a diagonal-model kernel with spread decay
rates, also read from CSV text whose upper triangle is spelled ``-0.0`` or
``0``, and from text with an integer ``-0`` below the diagonal, which the
matrix reader hands to its general route), ``check-dual --mode
scalar-identity`` and ``--mode full-rank`` (on gains near one, on ``gen
ssm``'s default gains and on a model with two all-zero gain steps),
``extract`` (also on a T=64 matrix whose rows are graded from 1e-6 to
1e6, whose representation holds entries below 1e-4, and on the three
respelled diagonal-model kernels),
``counterexample non-dualizable`` and ``softmax`` (at every T up
to ``SOFTMAX_MAX_T``), ``gen ssm``,
``gen sequence`` (CSV at T=24, JSON and CSV at T=64), ``gen matrix`` (JSON,
and CSV chosen by the ``.csv`` name of ``--out``, at T=8 and T=64), and
``bench`` on each of its three counted paths:
``materialized`` at one point, ``recurrence`` over a grid of T and ``ssd``
over a grid of d (its CSV table and its JSON summary file); the output
array and the counter fields (multiply-adds, additions, peak live elements)
of ``bench.counted_forward`` on each path at (T, N, d) = (40, 17, 1) and
(33, 8, 2), which the counts ``bench`` writes alone would not show a
reordered reduction in, on its materialized path at the benchmark's
grid points (64, 128 and 256, 8, 2) and at (100, 8, 2), where the last
block of kernel columns is ragged, on its ssd and recurrence paths at
(1024, 8, 2) and at (600, 17, 5) (two full chunks of steps and a ragged
one), and on every path on the zero-gain-steps model; and what
``LowerTriangularMatrix.from_csv`` and ``sequence_from_csv`` read from CSV
text of subnormals, signed zeros, the largest doubles and random bit
patterns, spelled in several ways and with blank lines, in one text
``np.loadtxt`` reads and one over three panels that orjson reads, and
from text holding the integer ``-0``; what they read from the canonical
text of a matrix and of a sequence respelled with CRLF line breaks, with
blank lines between rows and with trailing blank lines; what
``LowerTriangularMatrix.from_json``, ``DiagonalSsm.from_json``,
``GeneralSssRepresentation.from_json`` and ``sequence_from_json`` read
from JSON text of such values in five spellings, and the error class and
message (or, for a sequence, the array read) for a ``NaN``, ``Infinity``,
``-Infinity`` or ``1e400`` literal and for malformed text; what the
matrix, model and sequence readers make of JSON texts that span several
64 KiB pieces (a T=100 matrix, a T=600, N=17 model and a 4000 x 2
sequence of such values, and the sequence's 8000 values as one 1-D
array), as ``json.dumps`` writes them, respelled with a row a line, a
number a line and indented, and, for the matrix and model, with a declared
``T`` of 2**63 or 2**64, and the 1-D array with an integer ``-0`` among
its numbers; and the outcomes on
the benchmark's 96 theory matrices (seeds 1-3, 8 sets of 4 families at
T=256, built by ``perfbench/workloads.py``, imported read-only): the
per-block new-column verdicts, the exit code of ``check-dual --mode
representability --N 4`` and the ranks ``extract_sss`` gives at width 4, or
the class of the error it raises, each with the texts of the warnings the
call raised, in order. Arrays are
compared by their bytes; an array whose bytes differ but whose values
compare equal differs only in the sign of zeros, and is reported as such.
Arrays that differ in value are reported with their relative Frobenius
difference, and a differing JSON output file with every field whose value
differs, each with its own relative Frobenius difference (a field that is
not numbers is named only). Exits 1 when anything differs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import pickle
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

SEEDS = (0, 1, 2)

#: Benchmark seeds whose theory matrices are compared.
THEORY_SEEDS = (1, 2, 3)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _gains(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Signed gains in [0.5, 2] with about one in five set to exactly zero."""
    g = rng.uniform(0.5, 2.0, shape) * rng.choice([-1.0, 1.0], shape)
    g[rng.random(shape) < 0.2] = 0.0
    g[0] = 1.0
    return g


def _summed_terms(model) -> np.ndarray:
    """Sum of the per-mode materializations of ``attention_like_decomposition``."""
    from ssdlab.duality import attention_like_decomposition

    return sum(term.materialize().values for term in attention_like_decomposition(model))


def _zero_steps_instance(seed: int):
    """A T=600 model whose gains are zero in every mode at steps 255-257, and an input whose
    first row is -0.0.

    The zero steps sit on either side of the linear paths' first chunk boundary (256 steps), and
    the signed zeros of b_0 x_0 enter the scan's first row.
    """
    from ssdlab.ssm import DiagonalSsm, random_instance

    model, x = random_instance(seed, 600, 4, 2)
    gains = model.a_diag.copy()
    gains[255:258] = 0.0
    x[0] = -0.0
    return DiagonalSsm(gains, model.b, model.c), x


def _near_one_zeros_instance(seed: int):
    """A T=600, N=8 model whose gains lie in +-[0.97, 1], about one in a hundred exactly zero."""
    from ssdlab.ssm import DiagonalSsm, random_instance

    model, x = random_instance(seed, 600, 8, 2)
    rng = np.random.default_rng(seed)
    gains = rng.uniform(0.97, 1.0, model.a_diag.shape) * rng.choice([-1.0, 1.0], model.a_diag.shape)
    gains[rng.random(gains.shape) < 0.01] = 0.0
    gains[0] = 1.0
    return DiagonalSsm(gains, model.b, model.c), x


def _big_row_matrix(rng: np.random.Generator):
    """A T=48 width-4 matrix whose block sweep refactors its carry 21 columns wide at step 21.

    Row 20 is scaled by 1e16, so blocks 1 to 20 keep only the row's
    direction and the 1e8 corner's, and drop the rest below rounding. Step
    21 no longer holds the row, and the drops force a refactor to all 21
    columns left of it, far more than any other step keeps: its span fit is
    solved alone, and solving it with the others would pad theirs and change
    their bytes. The corner also keeps every diagonal-block cut from being
    taken.
    """
    from ssdlab.ss_matrix import LowerTriangularMatrix

    c, b = rng.standard_normal((2, 48, 4))
    vals = np.tril(c @ b.T)
    vals[20] *= 1e16
    vals[-1, 0] = 1e8
    return LowerTriangularMatrix(vals)


def _planted_band_matrix():
    """tril(ones(4)) with M[3, 0] = 1 + 3e-9: column 1 misses column 0's span by about 3e-9,
    inside the borderline band of its threshold, so its span test warns."""
    from ssdlab.ss_matrix import LowerTriangularMatrix

    vals = np.tril(np.ones((4, 4)))
    vals[3, 0] = 1 + 3e-9
    return LowerTriangularMatrix(vals)


def _spelled_csv(values: np.ndarray, upper: str, below: dict | None = None) -> str:
    """CSV text of a lower-triangular matrix: ``repr`` of each entry on and below the diagonal,
    except the fields ``below`` names by (row, column), and ``upper`` for each entry above it."""
    lines = []
    for i, row in enumerate(values.tolist()):
        fields = [(below or {}).get((i, j), repr(v)) for j, v in enumerate(row[: i + 1])]
        lines.append(",".join(fields + [upper] * (len(row) - 1 - i)))
    return "\n".join(lines) + "\n"


@contextlib.contextmanager
def _warning_texts(out: dict[str, object], key: str):
    """Record the texts of the warnings raised inside, in order, as ``out[key]``; an error
    raised inside still records them."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield
        finally:
            out[key] = [str(w.message) for w in caught]


def _span_coeffs(blocks) -> np.ndarray:
    """The span-fit coefficients of every block column, in one array.

    A None (a zero column, or a block's first) adds no entries, and column t
    of a block adds t.
    """
    return np.concatenate([np.zeros(0) if c is None else c for b in blocks for c in b.coeffs])


def dump() -> dict[str, object]:
    from ssdlab import cli
    from ssdlab.bench import counted_forward
    from ssdlab.duality import (
        construct_one_ss_dual,
        count_block_new_columns,
        full_rank_one_ss_dual,
        kernel_residual,
        one_ss,
    )
    from ssdlab.limits import SOFTMAX_MAX_T, non_dualizable_matrix
    from ssdlab.ss_matrix import LowerTriangularMatrix, semiseparable_rank
    from ssdlab.ssm import DiagonalSsm, forward_materialized, forward_recurrence, forward_ssd
    from ssdlab.ssm import materialize_kernel
    from ssdlab.ssm import random_instance
    from ssdlab.ssm import sequence_to_csv
    from ssdlab.sss_extract import extract_sss, materialize_sss, random_representation

    out: dict[str, object] = {}
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        out[f"one_ss/{seed}"] = one_ss(_gains(rng, (64,))).values
        zero_model = DiagonalSsm(_gains(rng, (64, 4)), *rng.standard_normal((2, 64, 4)))
        out[f"materialize_kernel/zero-gains/{seed}"] = materialize_kernel(zero_model).values
        model, x = random_instance(seed, 128, 8, 3)
        out[f"materialize_kernel/{seed}"] = materialize_kernel(model).values
        out[f"forward_ssd/{seed}"] = forward_ssd(model, x)
        out[f"forward_ssd/zero-gains/{seed}"] = forward_ssd(zero_model, x[:64])
        out[f"attention_like_decomposition/{seed}"] = _summed_terms(model)
        out[f"attention_like_decomposition/zero-gains/{seed}"] = _summed_terms(zero_model)
        # Mask zeros cut the kernel into diagonal blocks of width-3 products.
        gains = _gains(rng, (48,))
        gains[gains == 0.0] = 1.0
        gains[[12, 30]] = 0.0
        mask = one_ss(gains).values
        kernel = mask * (rng.standard_normal((48, 3)) @ rng.standard_normal((48, 3)).T)
        factors = construct_one_ss_dual(LowerTriangularMatrix(kernel), 3)
        for name in ("p", "Q", "K"):
            out[f"construct_one_ss_dual/{name}/{seed}"] = getattr(factors, name)
        out[f"materialize_sss/{seed}"] = materialize_sss(random_representation(seed, 96, 4)).values
        out[f"materialize_sss/70/{seed}"] = materialize_sss(random_representation(seed, 70, 3)).values
        residual_model, _ = random_instance(seed, 600, 16, 1, a_abs=(0.5, 1.0))
        # An array, so a difference is reported with its relative size.
        out[f"kernel_residual/600/{seed}"] = np.array(
            [kernel_residual(residual_model, full_rank_one_ss_dual(residual_model))]
        )
        # At T=600 the kernel build walks 18 panels of 32 rows and a ragged one of 24.
        out[f"one_ss/600/{seed}"] = one_ss(_gains(rng, (600,))).values
        wide = DiagonalSsm(_gains(rng, (600, 4)), *rng.standard_normal((2, 600, 4)))
        out[f"materialize_kernel/zero-gains/600/{seed}"] = materialize_kernel(wide).values
        long_model, long_x = random_instance(seed, 600, 4, 2)
        # Carried gain products fall through the subnormal range, and are carried as zero.
        underflow_model, underflow_x = random_instance(seed, 600, 4, 2, a_abs=(0.05, 0.2))
        out[f"materialize_kernel/underflow/600/{seed}"] = materialize_kernel(underflow_model).values
        # At T=600 the linear paths run two full chunks of 256 steps and a ragged one of 88.
        zero_steps_model, zero_steps_x = _zero_steps_instance(seed)
        for name, forward in (("recurrence", forward_recurrence), ("ssd", forward_ssd)):
            for modes, channels in itertools.product((1, 17), (1, 5)):
                chunked_model, chunked_x = random_instance(seed, 600, modes, channels)
                key = f"forward_{name}/600/{modes}x{channels}/{seed}"
                out[key] = forward(chunked_model, chunked_x)
            out[f"forward_{name}/zero-steps/600/{seed}"] = forward(zero_steps_model, zero_steps_x)
        # Gains near one with exact zeros: the kernel panel walk's carried weights stay normal.
        near_model, near_x = _near_one_zeros_instance(seed)
        near = forward_materialized(near_model, near_x)
        out[f"forward_materialized/near-one-zeros/600/{seed}"] = near
        # The linear paths also at bench-counts' largest point and at T=600, where they run two
        # full chunks of 256 steps and a ragged one of 88; the materialized path at bench-counts'
        # grid points and at T=100, where its last block of kernel columns is ragged; every path
        # on the zero-steps model.
        every, linear = ("ssd", "recurrence", "materialized"), ("ssd", "recurrence")
        counted = {
            "x".join(map(str, dims)): (random_instance(seed, *dims), paths)
            for dims, paths in (((40, 17, 1), every), ((33, 8, 2), every),
                                ((1024, 8, 2), linear), ((600, 17, 5), linear),
                                ((64, 8, 2), ("materialized",)), ((128, 8, 2), ("materialized",)),
                                ((256, 8, 2), ("materialized",)), ((100, 8, 2), ("materialized",)))
        }
        counted["zero-steps/600"] = ((zero_steps_model, zero_steps_x), every)
        for size, ((counted_model, counted_x), paths) in counted.items():
            for path in paths:
                y, counter = counted_forward(path, counted_model, counted_x)
                key = f"counted_forward/{path}/{size}/{seed}"
                out[key] = y
                out[f"{key}/counts"] = (counter.madds, counter.adds, counter.peak_live)
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            (work / "ssm.json").write_text(model.to_json())
            (work / "x.csv").write_text(sequence_to_csv(x))
            (work / "ssm600.json").write_text(long_model.to_json())
            (work / "x600.csv").write_text(sequence_to_csv(long_x))
            (work / "ssm-underflow.json").write_text(underflow_model.to_json())
            (work / "x-underflow.csv").write_text(sequence_to_csv(underflow_x))
            (work / "kernel.csv").write_text(LowerTriangularMatrix(kernel).to_csv())
            (work / "corner.csv").write_text(non_dualizable_matrix(8).to_csv())
            # Mode decay rates differ, so a filled upper triangle would outgrow the kernel.
            decaying, _ = random_instance(seed, 64, 4, 1, a_abs=(0.5, 1.0))
            (work / "diag.csv").write_text(materialize_kernel(decaying).to_csv())
            # The same kernel in spellings the matrix reader hands to its general route.
            decay_kernel = materialize_kernel(decaying).values
            (work / "diag-upper-negative.csv").write_text(_spelled_csv(decay_kernel, "-0.0"))
            (work / "diag-upper-integer.csv").write_text(_spelled_csv(decay_kernel, "0"))
            (work / "diag-integer-negative-zero.csv").write_text(
                _spelled_csv(decay_kernel, "0.0", {(40, 3): "-0"})
            )
            shared_gain, _ = random_instance(seed, 32, 4, 2, scalar_identity=True)
            (work / "ssm-scalar.json").write_text(shared_gain.to_json())
            # Gains of magnitude 0.9 to 1.1, either sign.
            calm, _ = random_instance(seed, 32, 4, 2, a_abs=(0.9, 1.1))
            (work / "ssm-calm.json").write_text(calm.to_json())
            spread, _ = random_instance(seed, 64, 4, 1)
            (work / "ssm-spread.json").write_text(spread.to_json())
            cut_gains = spread.a_diag.copy()
            cut_gains[[20, 41]] = 0.0  # all-zero steps cut the mask
            cut = DiagonalSsm(cut_gains, spread.b, spread.c)
            (work / "ssm-cut.json").write_text(cut.to_json())
            # Outputs from about 1e-15 to 1e22: runs of rows that orjson writes alternate with
            # rows that json.dumps writes, at both ends of the range where their spellings agree.
            straddle, straddle_x = random_instance(seed, 96, 4, 3, a_abs=(0.0, 0.1))
            straddle_x *= 10.0 ** np.linspace(-14, 22, 96)[:, None]
            (work / "ssm-straddle.json").write_text(straddle.to_json())
            (work / "x-straddle.csv").write_text(sequence_to_csv(straddle_x))
            # Rows graded from 1e-6 to 1e6: the extracted b and c hold entries below 1e-4.
            graded = materialize_sss(random_representation(seed, 64, 3)).values
            graded = graded * 10.0 ** np.linspace(-6, 6, 64)[:, None]
            (work / "graded.csv").write_text(LowerTriangularMatrix(graded).to_csv())
            # Gains of 1e12 overflow every path: --path all refuses it on the recurrence's check.
            overflow_gains = np.full((64, 2), 1e12)
            overflow_gains[0] = 1.0
            overflowing = DiagonalSsm(overflow_gains, np.ones((64, 2)), np.ones((64, 2)))
            (work / "ssm-overflow.json").write_text(overflowing.to_json())
            (work / "x-overflow.csv").write_text(sequence_to_csv(np.ones((64, 1))))
            forward_config = {"path": "materialized", "format": "json"}
            (work / "forward.json").write_text(json.dumps(forward_config))
            representability = ["check-dual", "--mode", "representability", "--matrix"]
            extract_matrix = ["extract", "--matrix"]
            seeded = ["--seed", str(seed)]
            bench = ["bench", *seeded, "--out", "counts.csv", "--summary-out", "summary.json"]
            commands = {
                "forward": ["forward", "--ssm", "ssm.json", "--input", "x.csv", "--path", "all"],
                "forward/600": [
                    "forward", "--ssm", "ssm600.json", "--input", "x600.csv", "--path", "all"
                ],
                "forward/underflow/600": [
                    "forward", "--ssm", "ssm-underflow.json", "--input", "x-underflow.csv",
                    "--path", "all",
                ],
                "forward/overflow": [
                    "forward", "--ssm", "ssm-overflow.json", "--input", "x-overflow.csv",
                    "--path", "all",
                ],
                "forward/straddle": [
                    "forward", "--ssm", "ssm-straddle.json", "--input", "x-straddle.csv",
                    "--path", "all", "--format", "json",
                ],
                "forward/straddle/ssd-json": [
                    "forward", "--ssm", "ssm-straddle.json", "--input", "x-straddle.csv",
                    "--path", "ssd", "--format", "json",
                ],
                "forward/straddle/ssd-csv": [
                    "forward", "--ssm", "ssm-straddle.json", "--input", "x-straddle.csv",
                    "--path", "ssd", "--out", "y-straddle.csv",
                ],
                "check-dual": [*representability, "kernel.csv", "--N", "3"],
                "check-dual/refused": [*representability, "corner.csv", "--N", "2"],
                "check-dual/spread-decay": [*representability, "diag.csv", "--N", "4"],
                **{
                    f"{command}/{spelling}": [
                        *(representability if command == "check-dual" else extract_matrix),
                        f"diag-{spelling}.csv", "--N", "4",
                    ]
                    for command in ("check-dual", "extract")
                    for spelling in ("upper-negative", "upper-integer", "integer-negative-zero")
                },
                "extract": ["extract", "--matrix", "kernel.csv", "--N", "3"],
                "extract/graded": ["extract", "--matrix", "graded.csv", "--N", "3"],
                "counterexample": ["counterexample", "non-dualizable", "--T", "8"],
                **{
                    f"counterexample/softmax/{t}": ["counterexample", "softmax", "--T", str(t)]
                    for t in range(2, SOFTMAX_MAX_T + 1)
                },
                "check-dual/scalar-identity": [
                    "check-dual", "--mode", "scalar-identity", "--ssm", "ssm-scalar.json"
                ],
                "check-dual/full-rank": [
                    "check-dual", "--mode", "full-rank", "--ssm", "ssm-calm.json"
                ],
                "check-dual/full-rank/default-gains": [
                    "check-dual", "--mode", "full-rank", "--ssm", "ssm-spread.json"
                ],
                "check-dual/full-rank/zero-step": [
                    "check-dual", "--mode", "full-rank", "--ssm", "ssm-cut.json"
                ],
                "forward/ssd-csv": [
                    "forward", "--ssm", "ssm.json", "--input", "x.csv", "--path", "ssd",
                    "--out", "y.csv",
                ],
                "forward/config": [
                    "forward", "--ssm", "ssm.json", "--input", "x.csv", "--config", "forward.json"
                ],
                "gen/ssm": ["gen", "ssm", *seeded, "--T", "16", "--a-min", "0.5"],
                "gen/sequence": ["gen", "sequence", *seeded, "--T", "24", "--out", "seq.csv"],
                "gen/matrix": ["gen", "matrix", *seeded, "--T", "8"],
                "gen/matrix-csv": ["gen", "matrix", *seeded, "--T", "8", "--out", "m.csv"],
                "gen/sequence/64": ["gen", "sequence", *seeded, "--T", "64", "--d", "3"],
                "gen/sequence-csv/64": [
                    "gen", "sequence", *seeded, "--T", "64", "--d", "3", "--out", "seq64.csv"
                ],
                "gen/matrix/64": ["gen", "matrix", *seeded, "--T", "64"],
                "gen/matrix-csv/64": ["gen", "matrix", *seeded, "--T", "64", "--out", "m64.csv"],
                "bench": [*bench, "--path", "materialized", "--T", "16"],
                "bench/grid": [*bench, "--path", "recurrence", "--T", "8,16,32", "--N", "2"],
                "bench/ssd": [*bench, "--path", "ssd", "--T", "12", "--N", "3", "--d", "1,2,4"],
            }
            cwd = os.getcwd()
            os.chdir(work)
            try:
                for name, argv in commands.items():
                    if "--out" not in argv:
                        argv = [*argv, "--out", "out.json"]
                    written = work / argv[argv.index("--out") + 1]
                    summary = work / "summary.json"
                    for stale in (written, summary):
                        stale.unlink(missing_ok=True)
                    printed, errors = io.StringIO(), io.StringIO()
                    # Warnings are kept apart from stderr: their text names the source file.
                    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(
                        errors
                    ), warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        code = cli.main(argv)
                    out[f"cli/{name}/{seed}"] = (
                        code,
                        printed.getvalue(),
                        errors.getvalue(),
                        [str(w.message) for w in caught],
                        written.read_bytes() if written.exists() else None,
                    )
                    if summary.exists():
                        out[f"cli/{name}/{seed}/summary"] = summary.read_bytes()
            finally:
                os.chdir(cwd)
    # Drawn after every input above, from a generator of their own, so those stay the same.
    rng = np.random.default_rng(len(SEEDS))
    gains = rng.uniform(0.95, 1.05, 256) * rng.choice([-1.0, 1.0], 256)
    gains[rng.choice(np.arange(1, 256), 3, replace=False)] = 0.0
    q, k = rng.standard_normal((2, 256, 4))
    extraction_inputs = {
        "random": materialize_sss(random_representation(len(SEEDS), 256, 4)),
        "masked": LowerTriangularMatrix(one_ss(gains).values * (q @ k.T)),
    }
    for name, m in extraction_inputs.items():
        rep = extract_sss(m, 4)
        for attr in ("A", "b", "c", "r"):
            out[f"extract_sss/{name}/{attr}"] = getattr(rep, attr)
        out[f"semiseparable_rank/{name}"] = semiseparable_rank(m)
    probes = {
        **extraction_inputs, "big-row": _big_row_matrix(rng), "planted-band": _planted_band_matrix()
    }
    for name, m in probes.items():
        with _warning_texts(out, f"count_block_new_columns/{name}/warnings"):
            blocks = count_block_new_columns(m)
        out[f"count_block_new_columns/{name}"] = [(b.start, b.end, b.new) for b in blocks]
        out[f"count_block_new_columns/{name}/coeffs"] = _span_coeffs(blocks)
    out.update(_csv_reads(np.random.default_rng(len(SEEDS) + 1)))
    out.update(_json_reads(np.random.default_rng(len(SEEDS) + 2)))
    out.update(_theory_outcomes())
    return out


def _theory_outcomes() -> dict[str, object]:
    """Verdicts, ``check-dual`` exit codes and ranks on the theory matrices."""
    from ssdlab import cli
    from ssdlab.duality import count_block_new_columns
    from ssdlab.errors import SsdError
    from ssdlab.ss_matrix import LowerTriangularMatrix
    from ssdlab.sss_extract import extract_sss

    sys.path.insert(0, str(PERFBENCH))
    import workloads

    spec = workloads.WORKLOADS["theory"]
    out: dict[str, object] = {}
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "m.csv"
        for seed in THEORY_SEEDS:
            rng = workloads._rng(seed, "theory", "main")
            for index in range(workloads.THEORY_SETS):
                for family, vals in workloads._theory_matrices(rng, spec["T"], spec["N"]).items():
                    m = LowerTriangularMatrix(np.tril(vals))
                    key = f"theory/{seed}/{family}-{index}"
                    with _warning_texts(out, f"{key}/new-columns/warnings"):
                        blocks = count_block_new_columns(m)
                    out[f"{key}/new-columns"] = [(b.start, b.end, b.new) for b in blocks]
                    csv.write_text(m.to_csv())
                    argv = ["check-dual", "--mode", "representability", "--matrix", str(csv),
                            "--N", str(spec["N"]), "--out", str(Path(tmp) / "out.json")]
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                        io.StringIO()
                    ), _warning_texts(out, f"{key}/check-dual/warnings"):
                        out[f"{key}/check-dual"] = cli.main(argv)
                    with _warning_texts(out, f"{key}/extract/warnings"):
                        try:
                            out[f"{key}/extract"] = extract_sss(m, spec["N"]).r
                        except SsdError as exc:
                            out[f"{key}/extract"] = type(exc).__name__
    return out


#: The extreme doubles: the smallest subnormals, signed zeros, the normal range's edge and the
#: largest doubles.
EDGES = [5e-324, -5e-324, 0.0, -0.0, 2.2250738585072014e-308, 2.225073858507201e-308,
         1.7976931348623157e308, -1.7976931348623157e308]


def _hard_doubles(rng: np.random.Generator, shape: tuple[int, int] = (32, 8)) -> np.ndarray:
    """Finite doubles from random bit patterns, which reach every exponent, with signs;
    column 1 is all subnormals."""
    values = rng.integers(0, 2**63, shape, dtype=np.int64).view(float)
    values[:, 1] = rng.integers(1, 2**52, len(values), dtype=np.int64).view(float)
    values *= rng.choice([-1.0, 1.0], values.shape)
    values[~np.isfinite(values)] = 1.0
    return values


def _csv_reads(rng: np.random.Generator) -> dict[str, np.ndarray]:
    """What the two CSV readers make of text holding the extreme doubles, read both ways.

    ``csv/matrix`` has a line in a spelling orjson refuses (a leading ``+``), so
    ``np.loadtxt`` reads that whole text. ``csv/matrix-orjson`` spans three 32-line
    panels in spellings orjson reads, and ``csv/negative-zero-integer`` holds the
    integer ``-0``, which JSON would read as +0.0. The canonical texts of a 70 x 70
    matrix and of the sequence are also read with CRLF line breaks and with blank
    lines between rows, which ``np.loadtxt`` reads, and with trailing blank lines,
    which orjson reads.
    """
    from ssdlab.ss_matrix import LowerTriangularMatrix, array_to_csv
    from ssdlab.ssm import sequence_from_csv

    values = _hard_doubles(rng)
    matrix = np.tril(values[:8])
    np.fill_diagonal(matrix, EDGES)
    lines = [",".join(repr(float(v)) for v in row) for row in matrix]
    # The same values in other spellings, and lines holding only whitespace.
    lines[1] = ",".join(f" {v!r} " for v in matrix[1].tolist())
    lines[2] = ",".join(f"{v:+.17E}" for v in matrix[2].tolist())
    lines[4:4] = ["", " \t "]
    sequence = values[8:]
    sequence[:, 0] = np.resize(EDGES, len(sequence))
    panels = np.tril(_hard_doubles(rng, (70, 70)))
    np.fill_diagonal(panels, np.resize(EDGES, len(panels)))
    spellings = itertools.cycle([repr, "{:.17e}".format])
    rows = ["\n".join(",".join(spell(v) for v in row) for spell, row in zip(spellings, half))
            for half in (panels[:32].tolist(), panels[32:].tolist())]
    out = {
        "csv/matrix": LowerTriangularMatrix.from_csv("\r\n".join(lines) + "\n").values,
        "csv/matrix-orjson": LowerTriangularMatrix.from_csv(
            rows[0] + "\r\n \r\n" + rows[1] + "\n"  # a blank line at the first panel's end
        ).values,
        "csv/negative-zero-integer": LowerTriangularMatrix.from_csv("-0,0\n1,-0\n").values,
        "csv/sequence": sequence_from_csv(
            "\n".join(",".join(repr(float(v)) for v in row) for row in sequence) + "\n\n"
        ),
    }
    # The canonical texts of the matrix and the sequence, with their line breaks respelled.
    canonical = {"matrix": (LowerTriangularMatrix.from_csv, array_to_csv(panels).splitlines()),
                 "sequence": (sequence_from_csv, array_to_csv(sequence).splitlines())}
    for name, (read, text_lines) in canonical.items():
        middle = len(text_lines) // 2
        texts = {
            "crlf": "\r\n".join(text_lines) + "\r\n",
            "blank-lines": "\n".join(text_lines[:middle] + ["", " \t "] + text_lines[middle:]),
            "trailing-blank-lines": "\n".join(text_lines) + "\n\n \t\n\n",
        }
        for case, text in texts.items():
            read_values = read(text)
            out[f"csv/{name}-{case}"] = getattr(read_values, "values", read_values)
    return out


def _json_reads(rng: np.random.Generator) -> dict[str, object]:
    """What the four JSON readers make of text holding the extreme doubles in several spellings,
    and the error class and message of each refusal of a non-finite literal or malformed text."""
    from ssdlab.ss_matrix import LowerTriangularMatrix
    from ssdlab.ssm import DiagonalSsm, sequence_from_json
    from ssdlab.sss_extract import GeneralSssRepresentation

    values = _hard_doubles(rng)
    values[8:16, 2] = EDGES
    spellings = [repr, "{:.17e}".format, "{:.17E}".format, "{:.25g}".format, "{:.40e}".format]

    def array(rows) -> str:
        # The spelling turns with row and column, so every spelling meets every kind of value;
        # "{:.25g}" spells integral values as JSON integers, -0 among them.
        return "[" + ", ".join(
            "[" + ", ".join(spellings[(i + j) % len(spellings)](float(v)) for j, v in enumerate(row))
            + "]"
            for i, row in enumerate(rows)
        ) + "]"

    def fields(read, text) -> dict[str, object]:
        try:
            record = read(text)
        except ValueError as exc:
            return {"": (type(exc).__name__, str(exc))}
        if isinstance(record, np.ndarray):
            return {"": record}
        attrs = ("values", "a_diag", "A", "b", "c")
        return {f"/{attr}": getattr(record, attr) for attr in attrs if hasattr(record, attr)}

    matrix = np.tril(values[:8])
    np.fill_diagonal(matrix, EDGES)
    gains = values[8:16].copy()
    gains[0] = 1.0
    transitions = values[16:24].reshape(4, 4, 4).copy()
    transitions[0] = np.eye(4)
    texts = {
        "matrix": (LowerTriangularMatrix.from_json, '{"T": 8, "rows": %s}' % array(matrix)),
        "model": (
            DiagonalSsm.from_json,
            '{"T": 8, "N": 8, "A_diag": %s, "b": %s, "c": %s}'
            % (array(gains), array(values[16:24]), array(values[24:32])),
        ),
        "representation": (
            GeneralSssRepresentation.from_json,
            '{"T": 4, "N": 4, "A": [%s], "b": %s, "c": %s, "r": [1, 2, 2, 1]}'
            % (", ".join(array(a) for a in transitions), array(values[24:28, :4]),
               array(values[28:32, :4])),
        ),
        "sequence": (sequence_from_json, '{"X": %s}' % array(values[8:])),
    }
    out: dict[str, object] = {}
    for name, (read, text) in texts.items():
        # A non-finite literal as the first array's second number, and broken text.
        number = text.index(", ", text.index("[[")) + 2
        cases = {
            "": text,
            **{f"/{literal}": text[:number] + literal + text[text.index(",", number):]
               for literal in ("NaN", "Infinity", "-Infinity", "1e400")},
            "/unterminated": text[:-2], "/trailing-comma": text[:-1] + ",}", "/empty": "",
            "/bom": "\ufeff" + text, "/single-quotes": text.replace('"', "'"),
        }
        for case, case_text in cases.items():
            for field, value in fields(read, case_text).items():
                out[f"json/{name}{case}{field}"] = value

    # Texts of several 64 KiB pieces, which the record reader parses a piece at a time: as
    # ``json.dumps`` writes them, respelled with a row or a number a line or indented, which
    # are read whole, and with declared sizes at 2**63 and 2**64, which orjson reads as an int
    # and a float.
    rows = np.tril(_hard_doubles(rng, (100, 100)))
    gains = _gains(rng, (600, 17))
    gains[1:, 3] = np.resize(EDGES, 599)
    pieces = {
        "matrix": (LowerTriangularMatrix.from_json, {"T": 100, "rows": rows.tolist()}),
        "model": (DiagonalSsm.from_json, {
            "T": 600, "N": 17, "A_diag": gains.tolist(),
            "b": _hard_doubles(rng, (600, 17)).tolist(), "c": rng.standard_normal((600, 17)).tolist(),
        }),
        "sequence": (sequence_from_json, {"X": np.resize(_hard_doubles(rng), (4000, 2)).tolist()}),
    }
    flat = np.ravel(pieces["sequence"][1]["X"]).tolist()
    pieces["sequence-1d"] = (sequence_from_json, {"X": flat})
    for name, (read, obj) in pieces.items():
        canonical = json.dumps(obj)
        cases = {
            "": canonical,
            "/row-per-line": canonical.replace("], [", "],\n ["),
            "/number-per-line": canonical.replace(", ", ",\n "),
            "/indented": json.dumps(obj, indent=2),
        }
        for size in (2**63, 2**64):
            if "T" in obj:
                cases[f"/declared-{size}"] = json.dumps({**obj, "T": size})
        if name == "sequence-1d":  # JSON reads an integer -0 as +0.0, read by pieces or whole
            cases["/integer-negative-zero"] = canonical.replace(", ", ", -0, ", 1)
        for case, case_text in cases.items():
            for field, value in fields(read, case_text).items():
                out[f"json-pieces/{name}{case}{field}"] = value
    return out


def _rel_fro(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    return float(np.linalg.norm(a - b) / denom) if denom else float(np.linalg.norm(a - b))


def _json_field_diffs(first: object, second: object, key: str = "") -> list[tuple[str, float | None]]:
    """(key, relative Frobenius difference) of every field whose JSON text differs, nested too.

    A number, or a list of numbers of one shape on both sides, gets its
    relative difference; a list of records is compared entry by entry; any
    other field (a string, a flag, or a list or object whose shape changed)
    gets None.
    """
    if json.dumps(first) == json.dumps(second):
        return []
    if isinstance(first, dict) and isinstance(second, dict) and first.keys() == second.keys():
        return [d for k in first for d in _json_field_diffs(first[k], second[k], f"{key}{k}/")]
    if isinstance(first, (list, float, int)) and not isinstance(first, bool):
        try:
            a, b = np.array(first, dtype=float), np.array(second, dtype=float)
            if a.shape == b.shape:
                return [(key.rstrip("/"), _rel_fro(a, b))]
        except (TypeError, ValueError):  # a list of records, not of numbers
            if isinstance(second, list) and len(first) == len(second):
                return [
                    d for i, (x, y) in enumerate(zip(first, second))
                    for d in _json_field_diffs(x, y, f"{key}{i}/")
                ]
    return [(key.rstrip("/"), None)]


def _file_field_diffs(a: bytes | None, b: bytes | None) -> str | None:
    """Every differing field of two JSON output files, each with its own relative difference."""
    try:
        first, second = json.loads(a), json.loads(b)
    except (TypeError, ValueError):
        return None
    fields = [
        f"{key or 'the value'} {'differs' if rel is None else f'{rel:.1e}'}"
        for key, rel in _json_field_diffs(first, second)
    ]
    return ", ".join(fields) or "none, same JSON values"


def run_side(src: str) -> dict[str, object]:
    # No bytecode is written, so importing perfbench/ leaves no file there.
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve()), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, __file__, "--dump"], env=env, capture_output=True,
                          check=True)
    return pickle.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if argv == ["--dump"]:
        sys.stdout.buffer.write(pickle.dumps(dump()))
        return 0
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    head_src = argv[1] if len(argv) == 2 else str(Path(__file__).resolve().parent.parent / "src")
    base, head = run_side(argv[0]), run_side(head_src)
    differ = 0
    for key in sorted(base.keys() | head.keys()):
        a, b = base.get(key), head.get(key)
        if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
            if a.shape == b.shape and a.tobytes() == b.tobytes():
                verdict = "bitwise equal"
            elif a.shape == b.shape and np.array_equal(a, b):
                verdict = "equal values, zero signs differ"
                differ += 1
            elif a.shape == b.shape:
                verdict = f"DIFFERENT (relative Frobenius difference {_rel_fro(a, b):.1e})"
                differ += 1
            else:
                verdict = "DIFFERENT"
                differ += 1
        else:
            verdict = "byte-identical" if a == b else "DIFFERENT"
            differ += a != b
            if isinstance(a, tuple) and isinstance(b, tuple) and a != b:
                fields = _file_field_diffs(a[-1], b[-1])
                if fields is not None:
                    verdict += f" (differing fields of the file, relative Frobenius: {fields})"
        print(f"{key}: {verdict}")
    print(f"{differ} of {len(base.keys() | head.keys())} outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
