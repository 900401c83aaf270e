"""Check that two checkouts of ssdlab give the same outputs, bit for bit.

Usage: python scripts/compare_outputs.py BASE_SRC [HEAD_SRC]

Each ``*_SRC`` is a directory holding the ``ssdlab`` package (``src`` of a
checkout; HEAD_SRC defaults to this checkout's). Each side runs this script
with ``--dump`` in its own interpreter, with BLAS pinned to one thread: it
builds the named inputs of ``seed_inputs`` for each seed in ``SEEDS`` and
those of ``shared_inputs`` once, and runs every probe on them. A probe is
one entry in one of three tables:

- ``CALLS``, library calls: the forward paths and kernel builds of diagonal
  models (at the edges of chunks, panels and blocks, and with zero,
  underflowing and near-one gains), masked-attention duals and residuals,
  SSS materialization and extraction, ranks and new-column sweeps with
  their span-fit coefficients and warnings, and the counted kernels'
  outputs and counts. Its ``theory/`` entry holds the outcomes on the
  benchmark's theory matrices (built by ``perfbench/workloads.py``,
  imported read-only): new-column verdicts, ``check-dual`` exit codes and
  extracted ranks or refusals, each with its warnings.
- ``CLI``, commands run through ``cli.main`` on the files of ``FILES``: each
  gives its exit code, stdout, stderr, warning texts and output file, and
  ``bench`` its summary file.
- ``READS``, the CSV and JSON readers on texts of extreme doubles in several
  spellings, line breaks and sizes: the arrays they read, or the class and
  message of each refusal.

Arrays are compared by their bytes; an array whose bytes differ but whose
values compare equal differs only in the sign of zeros, and is reported as
such. Arrays that differ in value are reported with their relative Frobenius
difference, and a differing JSON output file with every field whose value
differs, each with its own relative Frobenius difference (a field that is
not numbers is named only).

Exit status: 0 when every output is the same, 1 when any differs, and 2 on a
usage error or when a side fails, whose stderr is then printed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import os
import pickle
import subprocess
import sys
import tempfile
import warnings
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

SEEDS = (0, 1, 2)

#: Benchmark seeds whose theory matrices are compared.
THEORY_SEEDS = (1, 2, 3)

LINEAR = ("recurrence", "ssd")
EVERY = (*LINEAR, "materialized")


class _Library:
    """``ssdlab.<module>``, imported at first use, so that only a side's interpreter, whose path
    leads to that side's tree, imports the library."""

    def __getattr__(self, module: str):
        return importlib.import_module(f"ssdlab.{module}")


ssdlab = _Library()


# The inputs.

def _gains(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Signed gains in [0.5, 2] with about one in five set to exactly zero."""
    g = rng.uniform(0.5, 2.0, shape) * rng.choice([-1.0, 1.0], shape)
    g[rng.random(shape) < 0.2] = 0.0
    g[0] = 1.0
    return g


def _model(rng: np.random.Generator, T: int, N: int):
    return ssdlab.ssm.DiagonalSsm(_gains(rng, (T, N)), *rng.standard_normal((2, T, N)))


def _instance(seed: int, *dims: int, **kwargs):
    return ssdlab.ssm.random_instance(seed, *dims, **kwargs)


def _random_sss(seed: int, T: int, N: int):
    return ssdlab.sss_extract.materialize_sss(ssdlab.sss_extract.random_representation(seed, T, N))


def _zeroed(model, steps):
    """``model`` with its gains at ``steps`` set to zero in every mode."""
    gains = model.a_diag.copy()
    gains[steps] = 0.0
    return ssdlab.ssm.DiagonalSsm(gains, model.b, model.c)


def _spelled_csv(values: np.ndarray, upper: str, below: dict | None = None) -> str:
    """CSV text of a lower-triangular matrix: ``repr`` of each entry on and below the diagonal,
    except the fields ``below`` names by (row, column), and ``upper`` for each entry above it."""
    lines = []
    for i, row in enumerate(values.tolist()):
        fields = [(below or {}).get((i, j), repr(v)) for j, v in enumerate(row[: i + 1])]
        lines.append(",".join(fields + [upper] * (len(row) - 1 - i)))
    return "\n".join(lines) + "\n"


def seed_inputs(seed: int) -> SimpleNamespace:
    """The inputs of the per-seed probes, by name.

    The first six draw from the seed's generator, in the order they always
    have; the rest draw from generators of their own, seeded by the seed.
    """
    LowerTriangularMatrix = ssdlab.ss_matrix.LowerTriangularMatrix
    DiagonalSsm = ssdlab.ssm.DiagonalSsm
    rng = np.random.default_rng(seed)
    i = SimpleNamespace(seed=seed)
    i.gains = _gains(rng, (64,))
    i.zero_gains = _model(rng, 64, 4)
    i.model, i.x = _instance(seed, 128, 8, 3)
    # Mask zeros cut the kernel into diagonal blocks of width-3 products.
    gains = _gains(rng, (48,))
    gains[gains == 0.0] = 1.0
    gains[[12, 30]] = 0.0
    mask = ssdlab.duality.one_ss(gains).values
    kernel = mask * (rng.standard_normal((48, 3)) @ rng.standard_normal((48, 3)).T)
    i.kernel = LowerTriangularMatrix(kernel)
    i.gains600 = _gains(rng, (600,))
    i.wide = _model(rng, 600, 4)

    i.residual_model = _instance(seed, 600, 16, 1, a_abs=(0.5, 1.0))[0]
    i.long_model, i.long_x = _instance(seed, 600, 4, 2)
    # Carried gain products fall through the subnormal range, and are carried as zero.
    i.underflow, i.underflow_x = _instance(seed, 600, 4, 2, a_abs=(0.05, 0.2))
    # Gains zero in every mode at steps 255-257, on either side of the linear paths' first chunk
    # boundary (256 steps), and an input whose first row's signed zeros enter the scan's first row.
    model, i.zero_steps_x = _instance(seed, 600, 4, 2)
    i.zero_steps = _zeroed(model, slice(255, 258))
    i.zero_steps_x[0] = -0.0
    # Gains in +-[0.97, 1], about one in a hundred exactly zero: the kernel panel walk's carried
    # weights stay normal beside exact zeros.
    model, i.near_one_x = _instance(seed, 600, 8, 2)
    near = np.random.default_rng(seed)
    shape = model.a_diag.shape
    gains = near.uniform(0.97, 1.0, shape) * near.choice([-1.0, 1.0], shape)
    gains[near.random(gains.shape) < 0.01] = 0.0
    gains[0] = 1.0
    i.near_one = DiagonalSsm(gains, model.b, model.c)
    # Outputs from about 1e-15 to 1e22: runs of rows that orjson writes alternate with rows that
    # json.dumps writes, at both ends of the range where their spellings agree.
    i.straddle, i.straddle_x = _instance(seed, 96, 4, 3, a_abs=(0.0, 0.1))
    i.straddle_x *= 10.0 ** np.linspace(-14, 22, 96)[:, None]
    # Gains of 1e12 overflow every path: --path all refuses it on the recurrence's check.
    gains = np.full((64, 2), 1e12)
    gains[0] = 1.0
    i.overflowing = DiagonalSsm(gains, np.ones((64, 2)), np.ones((64, 2)))
    i.overflow_x = np.ones((64, 1))
    i.corner = ssdlab.limits.non_dualizable_matrix(8)
    # Rows graded from 1e-6 to 1e6: the extracted b and c hold entries below 1e-4.
    graded = _random_sss(seed, 64, 3).values * 10.0 ** np.linspace(-6, 6, 64)[:, None]
    i.graded = LowerTriangularMatrix(graded)
    # Mode decay rates differ, so a filled upper triangle would outgrow the kernel. The same
    # kernel is also spelled in ways the matrix reader hands to its general route.
    i.decaying = ssdlab.ssm.materialize_kernel(_instance(seed, 64, 4, 1, a_abs=(0.5, 1.0))[0])
    i.upper_negative = _spelled_csv(i.decaying.values, "-0.0")
    i.upper_integer = _spelled_csv(i.decaying.values, "0")
    i.integer_negative_zero = _spelled_csv(i.decaying.values, "0.0", {(40, 3): "-0"})
    i.scalar = _instance(seed, 32, 4, 2, scalar_identity=True)[0]
    i.calm = _instance(seed, 32, 4, 2, a_abs=(0.9, 1.1))[0]  # gains of magnitude 0.9 to 1.1
    i.spread = _instance(seed, 64, 4, 1)[0]
    i.cut = _zeroed(i.spread, [20, 41])  # all-zero steps cut the mask
    # N=1 and d=2 about the edges of the materialized path's 64-column blocks and 32-row tiles,
    # every third input row -0.0.
    i.signed_zeros = {T: _instance(seed, T, 1, 2) for T in (1, 63, 65, 129)}
    for _, x in i.signed_zeros.values():
        x[::3] = -0.0
    i.forward_config = json.dumps({"path": "materialized", "format": "json"})
    return i


#: The extreme doubles: the smallest subnormals, signed zeros, the normal range's edge and the
#: largest doubles.
EDGES = [5e-324, -5e-324, 0.0, -0.0, 2.2250738585072014e-308, 2.225073858507201e-308,
         1.7976931348623157e308, -1.7976931348623157e308]


def _hard_doubles(rng: np.random.Generator, shape: tuple[int, int] = (32, 8)) -> np.ndarray:
    """Finite doubles from random bit patterns, which reach every exponent, with signs;
    column 1 is all subnormals."""
    values = rng.integers(0, 2**63, shape, dtype=np.int64).view(float)
    values[:, 1] = rng.integers(1, 2**52, len(values), dtype=np.int64).view(float)
    with np.errstate(invalid="ignore"):  # some patterns are NaNs; the next line drops them
        values *= rng.choice([-1.0, 1.0], values.shape)
    values[~np.isfinite(values)] = 1.0
    return values


def _repr_lines(values: np.ndarray) -> list[str]:
    return [",".join(repr(float(v)) for v in row) for row in values]


def _json_array(rows) -> str:
    """A JSON array of ``rows``, the spelling of its numbers turning with row and column, so
    every spelling meets every kind of value; "{:.25g}" spells integral values as JSON
    integers, -0 among them."""
    spellings = [repr, "{:.17e}".format, "{:.17E}".format, "{:.25g}".format, "{:.40e}".format]
    return "[" + ", ".join(
        "[" + ", ".join(spellings[(i + j) % len(spellings)](float(v)) for j, v in enumerate(row))
        + "]"
        for i, row in enumerate(rows)
    ) + "]"


def _theory_matrices(workloads):
    """The benchmark's theory matrices as ``({seed}/{family}-{index}, matrix)``, built one set at
    a time as they are read, so the 96 are never held at once."""
    spec = workloads.WORKLOADS["theory"]
    for seed in THEORY_SEEDS:
        rng = workloads._rng(seed, "theory", "main")
        for index in range(workloads.THEORY_SETS):
            for family, vals in workloads._theory_matrices(rng, spec["T"], spec["N"]).items():
                matrix = ssdlab.ss_matrix.LowerTriangularMatrix(np.tril(vals))
                yield f"{seed}/{family}-{index}", matrix


def shared_inputs() -> SimpleNamespace:
    """The inputs of the probes run once, by name, drawn from generators seeded after ``SEEDS``,
    so the per-seed inputs stay the same."""
    LowerTriangularMatrix = ssdlab.ss_matrix.LowerTriangularMatrix
    i = SimpleNamespace()
    # A T=256 random width-4 representation, and a T=256 width-4 masked kernel whose gains lie in
    # +-[0.95, 1.05], three of them zero.
    rng = np.random.default_rng(len(SEEDS))
    gains = rng.uniform(0.95, 1.05, 256) * rng.choice([-1.0, 1.0], 256)
    gains[rng.choice(np.arange(1, 256), 3, replace=False)] = 0.0
    q, k = rng.standard_normal((2, 256, 4))
    i.random = _random_sss(len(SEEDS), 256, 4)
    i.masked = LowerTriangularMatrix(ssdlab.duality.one_ss(gains).values * (q @ k.T))
    # A T=48 width-4 matrix whose block sweep refactors its carry 21 columns wide at step 21.
    # Row 20 is scaled by 1e16, so blocks 1 to 20 keep only the row's direction and the 1e8
    # corner's, and drop the rest below rounding. Step 21 no longer holds the row, and the drops
    # force a refactor to all 21 columns left of it, far more than any other step keeps: its span
    # fit is solved alone, and solving it with the others would pad theirs and change their
    # bytes. The corner also keeps every diagonal-block cut from being taken.
    c, b = rng.standard_normal((2, 48, 4))
    vals = np.tril(c @ b.T)
    vals[20] *= 1e16
    vals[-1, 0] = 1e8
    i.big_row = LowerTriangularMatrix(vals)
    # tril(ones(4)) with M[3, 0] = 1 + 3e-9: column 1 misses column 0's span by about 3e-9,
    # inside the borderline band of its threshold, so its span test warns.
    vals = np.tril(np.ones((4, 4)))
    vals[3, 0] = 1 + 3e-9
    i.planted_band = LowerTriangularMatrix(vals)
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    i.theory, i.theory_width = _theory_matrices(workloads), workloads.WORKLOADS["theory"]["N"]

    # CSV texts of the extreme doubles. ``csv_matrix`` has a line in a spelling orjson refuses (a
    # leading ``+``), so ``np.loadtxt`` reads that whole text; ``csv_orjson`` spans three 32-line
    # panels in spellings orjson reads; ``csv_integer_zero`` holds the integer ``-0``, which JSON
    # would read as +0.0.
    rng = np.random.default_rng(len(SEEDS) + 1)
    values = _hard_doubles(rng)
    matrix = np.tril(values[:8])
    np.fill_diagonal(matrix, EDGES)
    lines = _repr_lines(matrix)
    lines[1] = ",".join(f" {v!r} " for v in matrix[1].tolist())
    lines[2] = ",".join(f"{v:+.17E}" for v in matrix[2].tolist())
    lines[4:4] = ["", " \t "]  # lines holding only whitespace
    i.csv_matrix = "\r\n".join(lines) + "\n"
    i.csv_sequence = values[8:]
    i.csv_sequence[:, 0] = np.resize(EDGES, len(i.csv_sequence))
    i.csv_sequence_text = "\n".join(_repr_lines(i.csv_sequence)) + "\n\n"
    panels = np.tril(_hard_doubles(rng, (70, 70)))
    np.fill_diagonal(panels, np.resize(EDGES, len(panels)))
    spellings = itertools.cycle([repr, "{:.17e}".format])
    lines = [",".join(spell(v) for v in row) for spell, row in zip(spellings, panels.tolist())]
    # A blank line at the first panel's end.
    i.csv_orjson = "\n".join(lines[:32]) + "\r\n \r\n" + "\n".join(lines[32:]) + "\n"
    i.csv_integer_zero = "-0,0\n1,-0\n"
    i.csv_panels_canonical = ssdlab.ss_matrix.array_to_csv(panels)
    i.csv_sequence_canonical = ssdlab.ss_matrix.array_to_csv(i.csv_sequence)

    # JSON texts of the extreme doubles, of records and a sequence.
    rng = np.random.default_rng(len(SEEDS) + 2)
    values = _hard_doubles(rng)
    values[8:16, 2] = EDGES
    matrix = np.tril(values[:8])
    np.fill_diagonal(matrix, EDGES)
    gains = values[8:16].copy()
    gains[0] = 1.0
    transitions = values[16:24].reshape(4, 4, 4).copy()
    transitions[0] = np.eye(4)
    i.json_matrix = '{"T": 8, "rows": %s}' % _json_array(matrix)
    i.json_model = '{"T": 8, "N": 8, "A_diag": %s, "b": %s, "c": %s}' % (
        _json_array(gains), _json_array(values[16:24]), _json_array(values[24:32])
    )
    i.json_representation = '{"T": 4, "N": 4, "A": [%s], "b": %s, "c": %s, "r": [1, 2, 2, 1]}' % (
        ", ".join(_json_array(a) for a in transitions), _json_array(values[24:28, :4]),
        _json_array(values[28:32, :4]),
    )
    i.json_sequence = '{"X": %s}' % _json_array(values[8:])
    # JSON objects whose texts span several 64 KiB pieces: a T=100 matrix, a T=600, N=17 model
    # and a 4000 x 2 sequence, and the sequence's 8000 values as one 1-D array.
    i.pieces_matrix = {"T": 100, "rows": np.tril(_hard_doubles(rng, (100, 100))).tolist()}
    gains = _gains(rng, (600, 17))
    gains[1:, 3] = np.resize(EDGES, 599)
    b = _hard_doubles(rng, (600, 17))
    i.pieces_model = {"T": 600, "N": 17, "A_diag": gains.tolist(), "b": b.tolist(),
                      "c": rng.standard_normal((600, 17)).tolist()}
    i.pieces_sequence = {"X": np.resize(_hard_doubles(rng), (4000, 2)).tolist()}
    i.pieces_flat = {"X": np.ravel(i.pieces_sequence["X"]).tolist()}
    return i


# What the probes run.

def _forward(path: str, model, x: np.ndarray) -> np.ndarray:
    return ssdlab.ssm.FORWARD_PATHS[path](model, x)


def _counted(path: str, model, x: np.ndarray) -> dict[str, object]:
    """``bench.counted_forward``'s output, and its multiply-adds, additions and peak live
    elements, which the counts ``bench`` writes alone would not show a reordered reduction in."""
    y, counter = ssdlab.bench.counted_forward(path, model, x)
    return {"": y, "/counts": (counter.madds, counter.adds, counter.peak_live)}


def _summed_terms(model) -> np.ndarray:
    """Sum of the per-mode materializations of ``attention_like_decomposition``."""
    terms = ssdlab.duality.attention_like_decomposition(model)
    return sum(term.materialize().values for term in terms)


def _full_rank_residual(model) -> np.ndarray:
    """``kernel_residual`` of ``model`` and its ``full_rank_one_ss_dual``, as an array, so a
    difference is reported with its relative size."""
    dual = ssdlab.duality.full_rank_one_ss_dual(model)
    return np.array([ssdlab.duality.kernel_residual(model, dual)])


def _attrs(record, names: str) -> dict[str, object]:
    return {name: getattr(record, name) for name in names.split()}


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


def _main(argv: list[str]) -> tuple[int, str, str, list[str]]:
    """``cli.main``'s exit code, stdout, stderr and warning texts, which are kept apart from
    stderr: their text names the source file."""
    printed, errors, caught = io.StringIO(), io.StringIO(), {}
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(errors), _warning_texts(
        caught, ""
    ):
        code = ssdlab.cli.main(argv)
    return code, printed.getvalue(), errors.getvalue(), caught[""]


def _new_columns(m) -> dict[str, object]:
    """The per-block new-column verdicts of ``count_block_new_columns``, their span-fit
    coefficients (a block's column t adds t, a None column none) and the warnings' texts."""
    out: dict[str, object] = {}
    with _warning_texts(out, "/warnings"):
        blocks = ssdlab.duality.count_block_new_columns(m)
    out[""] = [(b.start, b.end, b.new) for b in blocks]
    coeffs = [np.zeros(0) if c is None else c for b in blocks for c in b.coeffs]
    out["/coeffs"] = np.concatenate(coeffs)
    return out


def _theory_outcomes(matrices, width: int) -> dict[str, object]:
    """Per matrix: the new-column verdicts, the exit code of ``check-dual --mode
    representability`` and the ranks ``extract_sss`` gives, or the class of the error it
    raises, each with the texts of the warnings the call raised, in order."""
    out: dict[str, object] = {}
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "m.csv"
        for key, m in matrices:
            verdicts = _new_columns(m)
            del verdicts["/coeffs"]
            out.update({f"{key}/new-columns{field}": value for field, value in verdicts.items()})
            csv.write_text(m.to_csv())
            argv = ["check-dual", "--mode", "representability", "--matrix", str(csv),
                    "--N", str(width), "--out", str(Path(tmp) / "out.json")]
            code, _, _, out[f"{key}/check-dual/warnings"] = _main(argv)
            out[f"{key}/check-dual"] = code
            with _warning_texts(out, f"{key}/extract/warnings"):
                try:
                    out[f"{key}/extract"] = ssdlab.sss_extract.extract_sss(m, width).r
                except ssdlab.errors.SsdError as exc:
                    out[f"{key}/extract"] = type(exc).__name__
    return out


#: The counted kernels' points (T, N, d) and the paths run at each: every path at two small
#: points; the linear paths at bench-counts' largest point and at T=600, where they run two
#: full chunks of 256 steps and a ragged one of 88; the materialized path at bench-counts' grid
#: points and at T=100, where its last block of kernel columns is ragged.
COUNTED = [((40, 17, 1), EVERY), ((33, 8, 2), EVERY), ((1024, 8, 2), LINEAR),
           ((600, 17, 5), LINEAR), *[((T, 8, 2), ("materialized",)) for T in (64, 128, 256, 100)]]

#: Library calls: (key, the inputs read, the call, which takes those inputs). A call whose key
#: holds ``{field}`` returns a dict, and each of its entries is one output. A key holding
#: ``{seed}`` is run on each seed's inputs, any other once on the shared inputs.
CALLS = [
    # At T=600 the kernel build walks 18 panels of 32 rows and a ragged one of 24.
    *[(f"one_ss/{size}{{seed}}", name, lambda gains: ssdlab.duality.one_ss(gains).values)
      for size, name in (("", "gains"), ("600/", "gains600"))],
    *[(f"materialize_kernel/{case}{{seed}}", name,
       lambda model: ssdlab.ssm.materialize_kernel(model).values)
      for case, name in (("", "model"), ("zero-gains/", "zero_gains"), ("zero-gains/600/", "wide"),
                         ("underflow/600/", "underflow"))],
    ("forward_ssd/{seed}", "model x", partial(_forward, "ssd")),
    ("forward_ssd/zero-gains/{seed}", "zero_gains x", lambda m, x: _forward("ssd", m, x[:64])),
    # At T=600 the linear paths run two full chunks of 256 steps and a ragged one of 88.
    *[(f"forward_{path}/600/{N}x{d}/{{seed}}", "seed",
       lambda seed, path=path, N=N, d=d: _forward(path, *_instance(seed, 600, N, d)))
      for path in LINEAR for N, d in itertools.product((1, 17), (1, 5))],
    *[(f"forward_{path}/zero-steps/600/{{seed}}", "zero_steps zero_steps_x",
       partial(_forward, path)) for path in LINEAR],
    ("forward_materialized/near-one-zeros/600/{seed}", "near_one near_one_x",
     partial(_forward, "materialized")),
    ("attention_like_decomposition/{seed}", "model", _summed_terms),
    ("attention_like_decomposition/zero-gains/{seed}", "zero_gains", _summed_terms),
    ("construct_one_ss_dual/{field}/{seed}", "kernel",
     lambda m: _attrs(ssdlab.duality.construct_one_ss_dual(m, 3), "p Q K")),
    ("materialize_sss/{seed}", "seed", lambda seed: _random_sss(seed, 96, 4).values),
    # Two full panels of 32 rows and a ragged one.
    ("materialize_sss/70/{seed}", "seed", lambda seed: _random_sss(seed, 70, 3).values),
    ("kernel_residual/600/{seed}", "residual_model", _full_rank_residual),
    *[(f"counted_forward/{path}/{T}x{N}x{d}/{{seed}}{{field}}", "seed",
       lambda seed, path=path, dims=(T, N, d): _counted(path, *_instance(seed, *dims)))
      for (T, N, d), paths in COUNTED for path in paths],
    *[(f"counted_forward/{path}/zero-steps/600/{{seed}}{{field}}", "zero_steps zero_steps_x",
       partial(_counted, path)) for path in EVERY],
    *[(f"counted_forward/materialized/{T}x1x2/signed-zeros/{{seed}}{{field}}", "signed_zeros",
       lambda instances, T=T: _counted("materialized", *instances[T])) for T in (1, 63, 65, 129)],
    *[(f"extract_sss/{name}/{{field}}", name,
       lambda m: _attrs(ssdlab.sss_extract.extract_sss(m, 4), "A b c r"))
      for name in ("random", "masked")],
    *[(f"semiseparable_rank/{name}", name, lambda m: ssdlab.ss_matrix.semiseparable_rank(m))
      for name in ("random", "masked")],
    *[(f"count_block_new_columns/{name.replace('_', '-')}{{field}}", name, _new_columns)
      for name in ("random", "masked", "big_row", "planted_band")],
    ("theory/{field}", "theory theory_width", _theory_outcomes),
]

#: The files the CLI probes read: each the text of one per-seed input (``_file_text``).
FILES = {
    "ssm.json": "model", "x.csv": "x",
    "ssm600.json": "long_model", "x600.csv": "long_x",
    "ssm-underflow.json": "underflow", "x-underflow.csv": "underflow_x",
    "ssm-overflow.json": "overflowing", "x-overflow.csv": "overflow_x",
    "ssm-straddle.json": "straddle", "x-straddle.csv": "straddle_x",
    "kernel.csv": "kernel", "corner.csv": "corner", "graded.csv": "graded",
    "diag.csv": "decaying", "diag-upper-negative.csv": "upper_negative",
    "diag-upper-integer.csv": "upper_integer",
    "diag-integer-negative-zero.csv": "integer_negative_zero",
    "ssm-scalar.json": "scalar", "ssm-calm.json": "calm",
    "ssm-spread.json": "spread", "ssm-cut.json": "cut",
    "forward.json": "forward_config",
}

FORWARD = "forward --ssm ssm.json --input x.csv --path"
STRADDLE = "forward --ssm ssm-straddle.json --input x-straddle.csv --path"
REPRESENTABILITY = "check-dual --mode representability --matrix"
BENCH = "bench --seed {seed} --out counts.csv --summary-out summary.json"

#: CLI commands, run once per seed in a directory holding ``FILES``: name -> argv, whose
#: ``{seed}`` is the seed. A command with no ``--out`` writes ``out.json``.
CLI = {
    "forward": f"{FORWARD} all",
    # The kernel panel walk runs 18 full panels and a ragged one.
    "forward/600": "forward --ssm ssm600.json --input x600.csv --path all",
    "forward/underflow/600": "forward --ssm ssm-underflow.json --input x-underflow.csv --path all",
    # Refused on the recurrence's output.
    "forward/overflow": "forward --ssm ssm-overflow.json --input x-overflow.csv --path all",
    "forward/straddle": f"{STRADDLE} all --format json",
    "forward/straddle/ssd-json": f"{STRADDLE} ssd --format json",
    "forward/straddle/ssd-csv": f"{STRADDLE} ssd --out y-straddle.csv",
    "check-dual": f"{REPRESENTABILITY} kernel.csv --N 3",
    "check-dual/refused": f"{REPRESENTABILITY} corner.csv --N 2",
    "check-dual/spread-decay": f"{REPRESENTABILITY} diag.csv --N 4",
    **{f"{name}/{spelling}": f"{command} diag-{spelling}.csv --N 4"
       for name, command in (("check-dual", REPRESENTABILITY), ("extract", "extract --matrix"))
       for spelling in ("upper-negative", "upper-integer", "integer-negative-zero")},
    "extract": "extract --matrix kernel.csv --N 3",
    "extract/graded": "extract --matrix graded.csv --N 3",
    "counterexample": "counterexample non-dualizable --T 8",
    # Every T that limits.SOFTMAX_MAX_T allows.
    **{f"counterexample/softmax/{t}": f"counterexample softmax --T {t}" for t in range(2, 9)},
    "check-dual/scalar-identity": "check-dual --mode scalar-identity --ssm ssm-scalar.json",
    "check-dual/full-rank": "check-dual --mode full-rank --ssm ssm-calm.json",
    "check-dual/full-rank/default-gains": "check-dual --mode full-rank --ssm ssm-spread.json",
    "check-dual/full-rank/zero-step": "check-dual --mode full-rank --ssm ssm-cut.json",
    "forward/ssd-csv": f"{FORWARD} ssd --out y.csv",
    "forward/config": "forward --ssm ssm.json --input x.csv --config forward.json",
    "gen/ssm": "gen ssm --seed {seed} --T 16 --a-min 0.5",
    "gen/sequence": "gen sequence --seed {seed} --T 24 --out seq.csv",
    "gen/matrix": "gen matrix --seed {seed} --T 8",
    "gen/matrix-csv": "gen matrix --seed {seed} --T 8 --out m.csv",
    "gen/sequence/64": "gen sequence --seed {seed} --T 64 --d 3",
    "gen/sequence-csv/64": "gen sequence --seed {seed} --T 64 --d 3 --out seq64.csv",
    "gen/matrix/64": "gen matrix --seed {seed} --T 64",
    "gen/matrix-csv/64": "gen matrix --seed {seed} --T 64 --out m64.csv",
    "bench": f"{BENCH} --path materialized --T 16",
    "bench/grid": f"{BENCH} --path recurrence --T 8,16,32 --N 2",
    "bench/ssd": f"{BENCH} --path ssd --T 12 --N 3 --d 1,2,4",
}


#: The text readers, by what they read: each returns an array or a record.
READERS = {
    "csv-matrix": lambda text: ssdlab.ss_matrix.LowerTriangularMatrix.from_csv(text).values,
    "csv-sequence": lambda text: ssdlab.ssm.sequence_from_csv(text),
    "matrix": lambda text: ssdlab.ss_matrix.LowerTriangularMatrix.from_json(text),
    "model": lambda text: ssdlab.ssm.DiagonalSsm.from_json(text),
    "representation": lambda text: ssdlab.sss_extract.GeneralSssRepresentation.from_json(text),
    "sequence": lambda text: ssdlab.ssm.sequence_from_json(text),
}


def _blank_lines(text: str) -> str:
    """``text`` with two lines holding only whitespace in its middle, and no final line break."""
    lines = text.splitlines()
    middle = len(lines) // 2
    return "\n".join(lines[:middle] + ["", " \t "] + lines[middle:])


def _with_literal(text: str, literal: str) -> str:
    """``text`` with ``literal`` as its first array's second number."""
    number = text.index(", ", text.index("[[")) + 2
    return text[:number] + literal + text[text.index(",", number):]


AS_IS = {"": lambda text: text}

#: A canonical CSV text respelled with CRLF line breaks, with lines holding only whitespace
#: between rows (both read by np.loadtxt) and with trailing blank lines (read by orjson).
LINE_BREAKS = {
    "-crlf": lambda text: text.replace("\n", "\r\n"),
    "-blank-lines": _blank_lines,
    "-trailing-blank-lines": lambda text: text + "\n \t\n\n",
}

#: A JSON text as it is, with a non-finite literal, and broken.
JSON_BREAKS = {
    **AS_IS,
    **{f"/{literal}": partial(_with_literal, literal=literal)
       for literal in ("NaN", "Infinity", "-Infinity", "1e400")},
    "/unterminated": lambda text: text[:-2],
    "/trailing-comma": lambda text: text[:-1] + ",}",
    "/empty": lambda text: "",
    "/bom": lambda text: "\ufeff" + text,
    "/single-quotes": lambda text: text.replace('"', "'"),
}

#: A JSON object of several 64 KiB pieces as ``json.dumps`` writes it, and respelled with a row
#: or a number a line or indented, which are read whole.
PIECES = {
    "": json.dumps,
    "/row-per-line": lambda obj: json.dumps(obj).replace("], [", "],\n ["),
    "/number-per-line": lambda obj: json.dumps(obj).replace(", ", ",\n "),
    "/indented": partial(json.dumps, indent=2),
}

#: Declared sizes that orjson reads as an int and as a float.
DECLARED = {f"/declared-{2**63}": lambda obj: json.dumps({**obj, "T": 2**63}),
            f"/declared-{2**64}": lambda obj: json.dumps({**obj, "T": 2**64})}

#: Text reads of shared inputs: (key, reader, input, respellings: suffix -> the text read).
READS = [
    ("csv/matrix", "csv-matrix", "csv_matrix", AS_IS),
    ("csv/matrix-orjson", "csv-matrix", "csv_orjson", AS_IS),
    # JSON would read the integer -0 as +0.0.
    ("csv/negative-zero-integer", "csv-matrix", "csv_integer_zero", AS_IS),
    ("csv/sequence", "csv-sequence", "csv_sequence_text", AS_IS),
    ("csv/matrix", "csv-matrix", "csv_panels_canonical", LINE_BREAKS),
    ("csv/sequence", "csv-sequence", "csv_sequence_canonical", LINE_BREAKS),
    *[(f"json/{name}", name, f"json_{name}", JSON_BREAKS)
      for name in ("matrix", "model", "representation", "sequence")],
    ("json-pieces/matrix", "matrix", "pieces_matrix", PIECES | DECLARED),
    ("json-pieces/model", "model", "pieces_model", PIECES | DECLARED),
    ("json-pieces/sequence", "sequence", "pieces_sequence", PIECES),
    # The same 8000 numbers as one 1-D array; JSON reads an integer -0 among them as +0.0.
    ("json-pieces/sequence-1d", "sequence", "pieces_flat",
     PIECES | {"/integer-negative-zero": lambda obj: json.dumps(obj).replace(", ", ", -0, ", 1)}),
]


# The loops: one per kind of probe.

def _run_calls(out: dict[str, object], i: SimpleNamespace, seed: int | None = None) -> None:
    """Run on the inputs ``i`` each call whose key holds ``{seed}`` if ``seed`` is given, else
    each other call."""
    for key, reads, call in CALLS:
        if ("{seed}" in key) == (seed is not None):
            result = call(*(getattr(i, name) for name in reads.split()))
            for field, value in result.items() if "{field}" in key else [("", result)]:
                out[key.format(seed=seed, field=field)] = value


def _file_text(value, name: str) -> str:
    """An input as a file: a text as it is, an array as CSV, a record as CSV or JSON by ``name``."""
    if isinstance(value, str):
        return value
    if isinstance(value, np.ndarray):
        return ssdlab.ss_matrix.array_to_csv(value)
    return value.to_csv() if name.endswith(".csv") else value.to_json()


def _run_cli(out: dict[str, object], i: SimpleNamespace) -> None:
    """Each command's ``_main`` and output file (None when it wrote none), and a summary file
    when it wrote one."""
    with tempfile.TemporaryDirectory() as tmp:
        work, cwd = Path(tmp), os.getcwd()
        for name, input_name in FILES.items():
            (work / name).write_text(_file_text(getattr(i, input_name), name))
        os.chdir(work)
        try:
            for name, argv in CLI.items():
                argv = argv.format(seed=i.seed).split()
                if "--out" not in argv:
                    argv = [*argv, "--out", "out.json"]
                written, summary = work / argv[argv.index("--out") + 1], work / "summary.json"
                for stale in (written, summary):
                    stale.unlink(missing_ok=True)
                result = _main(argv)
                file = written.read_bytes() if written.exists() else None
                out[f"cli/{name}/{i.seed}"] = (*result, file)
                if summary.exists():
                    out[f"cli/{name}/{i.seed}/summary"] = summary.read_bytes()
        finally:
            os.chdir(cwd)


def _read_fields(read, text: str) -> dict[str, object]:
    """What ``read`` makes of ``text``: an array, a record's arrays by attribute, or the class
    and message of its refusal."""
    try:
        record = read(text)
    except ValueError as exc:
        return {"": (type(exc).__name__, str(exc))}
    if isinstance(record, np.ndarray):
        return {"": record}
    attrs = ("values", "a_diag", "A", "b", "c")
    return {f"/{attr}": getattr(record, attr) for attr in attrs if hasattr(record, attr)}


def _run_reads(out: dict[str, object], i: SimpleNamespace) -> None:
    for key, reader, name, respellings in READS:
        for case, spell in respellings.items():
            for field, value in _read_fields(READERS[reader], spell(getattr(i, name))).items():
                out[f"{key}{case}{field}"] = value


def dump() -> dict[str, object]:
    out: dict[str, object] = {}
    for seed in SEEDS:
        inputs = seed_inputs(seed)
        _run_calls(out, inputs, seed)
        _run_cli(out, inputs)
    shared = shared_inputs()
    _run_calls(out, shared)
    _run_reads(out, shared)
    return out


# The comparison.

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


def _verdict(key: str, base: dict[str, object], head: dict[str, object]) -> tuple[bool, str]:
    """Whether the two outputs under ``key`` are the same, and how they compare."""
    if key not in base or key not in head:
        return False, f"DIFFERENT (only in {'HEAD' if key in head else 'BASE'})"
    a, b = base[key], head[key]
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        if a.shape != b.shape:
            return False, f"DIFFERENT (shape {a.shape}, then {b.shape})"
        if a.tobytes() == b.tobytes():
            return True, "bitwise equal"
        if np.array_equal(a, b):
            return False, "equal values, zero signs differ"
        return False, f"DIFFERENT (relative Frobenius difference {_rel_fro(a, b):.1e})"
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return False, "DIFFERENT"
    if a == b:
        return True, "byte-identical"
    both_tuples = isinstance(a, tuple) and isinstance(b, tuple)
    fields = _file_field_diffs(a[-1], b[-1]) if both_tuples else None
    if fields is None:
        return False, "DIFFERENT"
    return False, f"DIFFERENT (differing fields of the file, relative Frobenius: {fields})"


def compare(base: dict[str, object], head: dict[str, object]) -> int:
    """Print every output's verdict and the count that differ; return 1 if any differs, else 0."""
    keys = sorted(base.keys() | head.keys())
    differ = 0
    for key in keys:
        same, verdict = _verdict(key, base, head)
        differ += not same
        print(f"{key}: {verdict}")
    print(f"{differ} of {len(keys)} outputs differ")
    return 1 if differ else 0


def run_side(src: str) -> subprocess.CompletedProcess:
    """``--dump`` run on the tree ``src`` in a child interpreter, with BLAS pinned to one thread."""
    # No bytecode is written, so importing perfbench/ leaves no file there.
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve()), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, __file__, "--dump"], env=env, capture_output=True)


def main(argv: list[str]) -> int:
    if argv == ["--dump"]:
        sys.stdout.buffer.write(pickle.dumps(dump()))
        return 0
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sides = {"BASE_SRC": argv[0], "HEAD_SRC": argv[1] if len(argv) == 2 else str(ROOT / "src")}
    dumps = []
    for side, src in sides.items():
        proc = run_side(src)
        if proc.returncode:
            print(f"{side} {src} failed (exit status {proc.returncode}):", file=sys.stderr)
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            return 2
        dumps.append(pickle.loads(proc.stdout))
    return compare(*dumps)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
