"""Check that two checkouts of ssdlab give the same outputs, bit for bit.

Usage: python scripts/compare_outputs.py BASE_SRC [HEAD_SRC]

Each ``*_SRC`` is a directory holding the ``ssdlab`` package (``src`` of a
checkout; HEAD_SRC defaults to this checkout's). Each side runs in its own
interpreter with BLAS pinned to one thread, on the same seeded inputs:
``one_ss`` and ``materialize_kernel`` (also at T=600), ``forward_ssd``,
``construct_one_ss_dual`` and ``materialize_sss``; ``extract_sss`` (A, b, c and r),
``semiseparable_rank`` and the per-block new-column verdicts of
``count_block_new_columns`` of a random width-4 representation and of a
kernel cut by three zero gains, both at T=256; plus the exit code, stdout, stderr, warning
messages and output file of the CLI commands ``forward --path all`` (at
T=128 and at T=600, where the kernel panel walk runs 18 full panels and a ragged one),
``check-dual --mode representability`` (on a representable kernel, on a
matrix it refuses, and on a diagonal-model kernel whose construction
fails), ``extract`` and ``counterexample non-dualizable``. Arrays are
compared by their bytes; an array whose bytes differ but whose values
compare equal differs only in the sign of zeros, and is reported as such.
Arrays, and the arrays in JSON output files, that differ in value are
reported with their largest relative Frobenius difference. Exits 1 when
anything differs.
"""

from __future__ import annotations

import contextlib
import io
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


def _gains(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Signed gains in [0.5, 2] with about one in five set to exactly zero."""
    g = rng.uniform(0.5, 2.0, shape) * rng.choice([-1.0, 1.0], shape)
    g[rng.random(shape) < 0.2] = 0.0
    g[0] = 1.0
    return g


def dump() -> dict[str, object]:
    from ssdlab import cli
    from ssdlab.duality import construct_one_ss_dual, count_block_new_columns
    from ssdlab.limits import non_dualizable_matrix
    from ssdlab.ss_matrix import LowerTriangularMatrix, MaskVector, one_ss, semiseparable_rank
    from ssdlab.ssm import DiagonalSsm, forward_ssd, materialize_kernel, random_instance
    from ssdlab.ssm import sequence_to_csv
    from ssdlab.sss_extract import extract_sss, materialize_sss, random_representation

    out: dict[str, object] = {}
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        out[f"one_ss/{seed}"] = one_ss(MaskVector(_gains(rng, (64,)))).values
        zero_model = DiagonalSsm(_gains(rng, (64, 4)), *rng.standard_normal((2, 64, 4)))
        out[f"materialize_kernel/zero-gains/{seed}"] = materialize_kernel(zero_model).values
        model, x = random_instance(seed, 128, 8, 3)
        out[f"materialize_kernel/{seed}"] = materialize_kernel(model).values
        out[f"forward_ssd/{seed}"] = forward_ssd(model, x)
        out[f"forward_ssd/zero-gains/{seed}"] = forward_ssd(zero_model, x[:64])
        # Mask zeros cut the kernel into diagonal blocks of width-3 products.
        gains = _gains(rng, (48,))
        gains[gains == 0.0] = 1.0
        gains[[12, 30]] = 0.0
        mask = one_ss(MaskVector(gains)).values
        kernel = mask * (rng.standard_normal((48, 3)) @ rng.standard_normal((48, 3)).T)
        factors = construct_one_ss_dual(LowerTriangularMatrix(kernel), 3)
        for name in ("p", "Q", "K"):
            out[f"construct_one_ss_dual/{name}/{seed}"] = getattr(factors, name)
        out[f"materialize_sss/{seed}"] = materialize_sss(random_representation(seed, 96, 4)).values
        # At T=600 the kernel build walks 18 panels of 32 rows and a ragged one of 24.
        out[f"one_ss/600/{seed}"] = one_ss(MaskVector(_gains(rng, (600,)))).values
        wide = DiagonalSsm(_gains(rng, (600, 4)), *rng.standard_normal((2, 600, 4)))
        out[f"materialize_kernel/zero-gains/600/{seed}"] = materialize_kernel(wide).values
        long_model, long_x = random_instance(seed, 600, 4, 2)
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            (work / "ssm.json").write_text(model.to_json())
            (work / "x.csv").write_text(sequence_to_csv(x))
            (work / "ssm600.json").write_text(long_model.to_json())
            (work / "x600.csv").write_text(sequence_to_csv(long_x))
            (work / "kernel.csv").write_text(LowerTriangularMatrix(kernel).to_csv())
            (work / "corner.csv").write_text(non_dualizable_matrix(8).to_csv())
            # Mode decay rates differ, so the dual construction fails its residual gate.
            decaying, _ = random_instance(seed, 64, 4, 1, a_abs=(0.5, 1.0))
            (work / "diag.csv").write_text(materialize_kernel(decaying).to_csv())
            representability = ["check-dual", "--mode", "representability", "--matrix"]
            commands = {
                "forward": ["forward", "--ssm", "ssm.json", "--input", "x.csv", "--path", "all"],
                "forward/600": [
                    "forward", "--ssm", "ssm600.json", "--input", "x600.csv", "--path", "all"
                ],
                "check-dual": [*representability, "kernel.csv", "--N", "3"],
                "check-dual/refused": [*representability, "corner.csv", "--N", "2"],
                "check-dual/construct-fails": [*representability, "diag.csv", "--N", "4"],
                "extract": ["extract", "--matrix", "kernel.csv", "--N", "3"],
                "counterexample": ["counterexample", "non-dualizable", "--T", "8"],
            }
            cwd = os.getcwd()
            os.chdir(work)
            try:
                for name, argv in commands.items():
                    written = work / "out.json"
                    written.unlink(missing_ok=True)
                    printed, errors = io.StringIO(), io.StringIO()
                    # Warnings are kept apart from stderr: their text names the source file.
                    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(
                        errors
                    ), warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        code = cli.main([*argv, "--out", "out.json"])
                    out[f"cli/{name}/{seed}"] = (
                        code,
                        printed.getvalue(),
                        errors.getvalue(),
                        [str(w.message) for w in caught],
                        written.read_bytes() if written.exists() else None,
                    )
            finally:
                os.chdir(cwd)
    # Drawn after every input above, from a generator of their own, so those stay the same.
    rng = np.random.default_rng(len(SEEDS))
    gains = rng.uniform(0.95, 1.05, 256) * rng.choice([-1.0, 1.0], 256)
    gains[rng.choice(np.arange(1, 256), 3, replace=False)] = 0.0
    q, k = rng.standard_normal((2, 256, 4))
    extraction_inputs = {
        "random": materialize_sss(random_representation(len(SEEDS), 256, 4)),
        "masked": LowerTriangularMatrix(one_ss(MaskVector(gains)).values * (q @ k.T)),
    }
    for name, m in extraction_inputs.items():
        rep = extract_sss(m, 4)
        for attr in ("A", "b", "c", "r"):
            out[f"extract_sss/{name}/{attr}"] = getattr(rep, attr)
        out[f"semiseparable_rank/{name}"] = semiseparable_rank(m)
        out[f"count_block_new_columns/{name}"] = [
            (b.start, b.end, b.new) for b in count_block_new_columns(m)
        ]
    return out


def _rel_fro(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    return float(np.linalg.norm(a - b) / denom) if denom else float(np.linalg.norm(a - b))


def _json_rel_diffs(first: object, second: object) -> list[float]:
    """Relative differences of the numeric and list fields two JSON objects share, nested too."""
    if not isinstance(first, dict) or not isinstance(second, dict) or first.keys() != second.keys():
        return []
    diffs = []
    for k in first:
        if isinstance(first[k], dict):
            diffs += _json_rel_diffs(first[k], second[k])
        elif isinstance(first[k], (list, float)) and np.shape(first[k]) == np.shape(second[k]):
            try:
                a, b = np.array(first[k], dtype=float), np.array(second[k], dtype=float)
                diffs.append(_rel_fro(a, b))
            except (TypeError, ValueError):  # a list of records, not of numbers
                diffs += [d for x, y in zip(first[k], second[k]) for d in _json_rel_diffs(x, y)]
    return diffs


def _largest_json_rel_diff(a: bytes | None, b: bytes | None) -> float | None:
    """Largest relative difference over the fields of two JSON objects, if both are."""
    try:
        first, second = json.loads(a), json.loads(b)
    except (TypeError, ValueError):
        return None
    return max(_json_rel_diffs(first, second), default=None)


def run_side(src: str) -> dict[str, object]:
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve()), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
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
                largest = _largest_json_rel_diff(a[-1], b[-1])
                if largest is not None:
                    verdict += f" (largest relative Frobenius difference in file {largest:.1e})"
        print(f"{key}: {verdict}")
    print(f"{differ} of {len(base.keys() | head.keys())} outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
