"""Command-line frontend.

Subcommands: forward, check-dual, extract, counterexample, bench, gen.
Exit codes: 0 pass, 1 property failure, 2 input error, 3 precondition
block. Output files are written atomically (temp file plus rename) and
contain no timestamps or timings, so a fixed seed reproduces them byte
for byte.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import bench, duality, limits, ssm as ssm_mod
from .errors import (
    DegenerateGridError,
    InconsistentTransitionError,
    NotScalarIdentityError,
    RankExceedsWidthError,
    ReconstructionError,
    ShapeMismatchError,
    SizeExceededError,
    UnstableScalingError,
    ZeroGainError,
)
from .ss_matrix import DEFAULT_EPS, LowerTriangularMatrix, rel_err
from .sss_extract import extract_sss, materialize_sss

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3

_PRECONDITION_ERRORS = (
    NotScalarIdentityError,
    ZeroGainError,
    UnstableScalingError,
    RankExceedsWidthError,
    InconsistentTransitionError,
)

#: Commands that draw random data and therefore demand an explicit seed.
_RANDOMIZED_COMMANDS = {"bench", "gen"}

_INPUT_KEYS = ("ssm", "input", "matrix")
_DIM_KEYS = ("T", "N", "d")
_OPTION_KEYS = ("path", "mode", "which", "kind", "a_min", "a_max", "scalar_identity",
                "summary_out")


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: command, file paths, dims, seed, eps, output."""

    command: str
    inputs: dict = field(default_factory=dict)
    dims: dict = field(default_factory=dict)
    seed: int | None = None
    eps: float = DEFAULT_EPS
    out: str | None = None
    fmt: str = "pretty"
    options: dict = field(default_factory=dict)


def _build_config(args: argparse.Namespace) -> RunConfig:
    ns = vars(args)
    cfg = RunConfig(
        command=args.command,
        inputs={k: ns[k] for k in _INPUT_KEYS if ns.get(k)},
        dims={k: ns[k] for k in _DIM_KEYS if ns.get(k) is not None},
        seed=ns.get("seed"),
        eps=ns["eps"] if ns.get("eps") is not None else DEFAULT_EPS,
        out=ns.get("out"),
        fmt=ns.get("format") or "pretty",
        options={k: ns[k] for k in _OPTION_KEYS if k in ns},
    )
    if cfg.command in _RANDOMIZED_COMMANDS and cfg.seed is None:
        raise ValueError(f"{cfg.command} is randomized; --seed is mandatory")
    return cfg


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ssdlab-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read(path: str) -> str:
    with open(path, "r") as handle:
        return handle.read()


def _load_sequence(path: str) -> np.ndarray:
    if path.endswith(".json"):
        return ssm_mod.sequence_from_json(_read(path))
    return ssm_mod.sequence_from_csv(_read(path))


def _load_matrix(path: str) -> LowerTriangularMatrix:
    if path.endswith(".json"):
        return LowerTriangularMatrix.from_json(_read(path))
    return LowerTriangularMatrix.from_csv(_read(path))


def _parse_int_list(text: str) -> list[int]:
    values = [int(part) for part in str(text).split(",") if part.strip()]
    if not values:
        raise ValueError(f"grid {text!r} holds no values")
    return values


def _config_value(action: argparse.Action, key: str, value):
    """``value`` converted and checked as the option's own flag would be."""
    try:
        if action.nargs == 0:  # a switch such as --scalar-identity
            valid = isinstance(value, bool)
        else:
            value = (action.type or str)(str(value))
            valid = action.choices is None or value in action.choices
    except ValueError:
        valid = False
    if not valid:
        raise ValueError(f"config key {key!r}: {value!r} is not a value of its flag")
    return value


def _apply_config_file(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fill unset options from a JSON config file; explicit flags win.

    Each value goes through its option's type and choices. A key that names
    no option of the command, or a value its flag would reject, is an input
    error.
    """
    if not getattr(args, "config", None):
        return
    loaded = json.loads(_read(args.config))
    if not isinstance(loaded, dict):
        raise ValueError("config file must hold a JSON object")
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {action.dest: action for action in commands.choices[args.command]._actions}
    for key, value in loaded.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ValueError(f"config key {key!r} names no option of {args.command!r}")
        if getattr(args, attr) is None and value is not None:
            setattr(args, attr, _config_value(actions[attr], key, value))


def _run_forward(path: str, model: ssm_mod.DiagonalSsm, x: np.ndarray) -> np.ndarray:
    """One forward path's output; a non-finite entry (an overflowing model) is an input error."""
    y = ssm_mod.FORWARD_PATHS[path](model, x)
    if not np.isfinite(y).all():
        raise ValueError(f"the {path} output has non-finite entries")
    return y


def cmd_forward(cfg: RunConfig) -> int:
    model = ssm_mod.DiagonalSsm.from_json(_read(cfg.inputs["ssm"]))
    x = _load_sequence(cfg.inputs["input"])
    runners = ssm_mod.FORWARD_PATHS
    path = cfg.options.get("path") or "all"
    if path == "all":
        outputs = {name: _run_forward(name, model, x) for name in runners}
        pairwise = {
            f"{first}/{second}": rel_err(outputs[first], outputs[second])
            for first, second in itertools.combinations(outputs, 2)
        }
        worst = max(pairwise.values())
        payload = {f"Y_{name}": y.tolist() for name, y in outputs.items()}
        payload.update(pairwise_rel_errors=pairwise, max_rel_error=worst)
        if cfg.out:
            _write_atomic(cfg.out, json.dumps(payload))
        for pair, err in pairwise.items():
            print(f"{pair}: rel_error={err:.6e}")
        print(f"max_rel_error={worst:.6e} (eps={cfg.eps:.1e})")
        return EXIT_OK if worst <= cfg.eps else EXIT_PROPERTY
    if path not in runners:
        raise ValueError(f"unknown path {path!r}")
    y = _run_forward(path, model, x)
    y_json = json.dumps({"Y": y.tolist()})
    if cfg.out:
        want_csv = cfg.fmt == "csv" or cfg.out.endswith(".csv")
        _write_atomic(cfg.out, ssm_mod.sequence_to_csv(y) if want_csv else y_json)
    if cfg.fmt == "json":
        print(y_json)
    else:
        print(f"computed {path} output of shape {y.shape[0]}x{y.shape[1]}")
    return EXIT_OK


def cmd_check_dual(cfg: RunConfig) -> int:
    mode = cfg.options.get("mode")
    if mode in ("scalar-identity", "full-rank"):
        if "ssm" not in cfg.inputs:
            raise ValueError(f"--mode {mode} needs --ssm")
        model = ssm_mod.DiagonalSsm.from_json(_read(cfg.inputs["ssm"]))
        builder = (
            duality.scalar_identity_dual
            if mode == "scalar-identity"
            else duality.full_rank_one_ss_dual
        )
        factors = builder(model)
        residual = duality.kernel_residual(model, factors)
        payload = {
            "mode": mode,
            "kernel_rel_residual": residual,
            "factors": factors.to_dict(),
        }
        if cfg.out:
            _write_atomic(cfg.out, json.dumps(payload))
        print(f"{mode}: kernel_rel_residual={residual:.6e} (eps={cfg.eps:.1e})")
        return EXIT_OK if residual <= cfg.eps else EXIT_PROPERTY
    if mode == "representability":
        if "matrix" not in cfg.inputs or "N" not in cfg.dims:
            raise ValueError("--mode representability needs --matrix and --N")
        matrix = _load_matrix(cfg.inputs["matrix"])
        report = duality.representability_report(matrix, cfg.dims["N"], cfg.eps)
        if cfg.out:
            _write_atomic(cfg.out, json.dumps(report))
        print(json.dumps({k: report[k] for k in ("blocks", "representable")}))
        return EXIT_OK if report["representable"] else EXIT_PROPERTY
    raise ValueError(f"unknown mode {mode!r}")


def cmd_extract(cfg: RunConfig) -> int:
    matrix = _load_matrix(cfg.inputs["matrix"])
    rep = extract_sss(matrix, cfg.dims["N"], cfg.eps)
    back = materialize_sss(rep).values
    residual = rel_err(back, matrix.values)
    payload = {
        "roundtrip_rel_residual": residual,
        "block_ranks": list(rep.r),
        "representation": rep.to_dict(),
    }
    if cfg.out:
        _write_atomic(cfg.out, json.dumps(payload))
    print(f"extract: roundtrip_rel_residual={residual:.6e} (eps={cfg.eps:.1e})")
    return EXIT_OK if residual <= cfg.eps else EXIT_PROPERTY


def cmd_counterexample(cfg: RunConfig) -> int:
    size = cfg.dims["T"]
    if cfg.options["which"] == "softmax":
        report = limits.softmax_counterexample(size)
    else:
        report = limits.verify_non_dualizable(size, cfg.dims.get("N", 2))
    if cfg.out:
        _write_atomic(cfg.out, report.to_json())
    if cfg.fmt == "json":
        print(report.to_json())
    else:
        print(f"counterexample: {report.name} (T={report.T})")
        print(f"  claim: {report.claim}")
        for key, value in report.measurements.items():
            print(f"  {key}: {value}")
        print(f"  applicable: {report.applicable}")
        print(f"  verdict: {report.verdict}")
    if not report.applicable:
        return EXIT_PRECONDITION
    return EXIT_OK if report.verdict else EXIT_PROPERTY


def cmd_bench(cfg: RunConfig) -> int:
    path = cfg.options.get("path") or "ssd"
    t_values = _parse_int_list(cfg.dims.get("T", "64"))
    n_values = _parse_int_list(cfg.dims.get("N", "4"))
    d_values = _parse_int_list(cfg.dims.get("d", "2"))
    varied = any(len(set(vals)) >= 2 for vals in (t_values, n_values, d_values))
    if varied:
        result = bench.scaling_experiment(path, t_values, n_values, d_values, cfg.seed)
    else:
        report = bench.count_flops(path, t_values[0], n_values[0], d_values[0], cfg.seed)
        result = bench.ScalingResult(path=path, reports=[report], slopes={})
    if cfg.out:
        _write_atomic(cfg.out, result.to_csv())
    text = result.summary_json()
    if cfg.options.get("summary_out"):
        _write_atomic(cfg.options["summary_out"], text)
    print(text)
    return EXIT_OK


def cmd_gen(cfg: RunConfig) -> int:
    size = cfg.dims.get("T", 16)
    width = cfg.dims.get("N", 4)
    channels = cfg.dims.get("d", 2)
    a_lo = cfg.options.get("a_min")
    a_hi = cfg.options.get("a_max")
    a_abs = (a_lo if a_lo is not None else 0.0, a_hi if a_hi is not None else 2.0)
    kind = cfg.options["kind"]
    if kind == "ssm":
        model, _ = ssm_mod.random_instance(
            cfg.seed, size, width, channels,
            a_abs=a_abs, scalar_identity=cfg.options.get("scalar_identity", False),
        )
        text = model.to_json()
    elif kind == "sequence":
        rng = np.random.default_rng(cfg.seed)
        x = rng.standard_normal((size, channels))
        want_csv = cfg.fmt == "csv" or (cfg.out or "").endswith(".csv")
        text = ssm_mod.sequence_to_csv(x) if want_csv else ssm_mod.sequence_to_json(x)
    elif kind == "matrix":
        rng = np.random.default_rng(cfg.seed)
        matrix = LowerTriangularMatrix(np.tril(rng.standard_normal((size, size))))
        text = matrix.to_csv() if cfg.fmt == "csv" else matrix.to_json()
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if cfg.out:
        _write_atomic(cfg.out, text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssdlab",
        description="Diagonal state-space models, semiseparable kernels, and their duals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--eps", type=float, default=None, help="relative tolerance (default 1e-9)")
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument(
            "--format", choices=("json", "csv", "pretty"), default=None, help="output format"
        )
        p.add_argument("--config", default=None, help="JSON file supplying defaults for flags")
        p.add_argument("--seed", type=int, default=None, help="seed for randomized commands")

    p_forward = sub.add_parser("forward", help="run a model on an input sequence")
    p_forward.add_argument("--ssm", required=True, help="model JSON file")
    p_forward.add_argument("--input", required=True, help="input sequence (.csv or .json)")
    p_forward.add_argument(
        "--path", choices=(*ssm_mod.FORWARD_PATHS, "all"), default=None
    )
    common(p_forward)

    p_check = sub.add_parser("check-dual", help="build or decide masked-attention duals")
    p_check.add_argument(
        "--mode", choices=("scalar-identity", "full-rank", "representability"), required=True
    )
    p_check.add_argument("--ssm", default=None, help="model JSON file (constructive modes)")
    p_check.add_argument("--matrix", default=None, help="matrix file (representability mode)")
    p_check.add_argument("--N", type=int, default=None, help="factor width")
    common(p_check)

    p_extract = sub.add_parser("extract", help="recover a state-space representation")
    p_extract.add_argument("--matrix", required=True, help="matrix file (.csv or .json)")
    p_extract.add_argument("--N", type=int, required=True, help="representation width")
    common(p_extract)

    p_counter = sub.add_parser("counterexample", help="run an impossibility demonstration")
    p_counter.add_argument("which", choices=("softmax", "non-dualizable"))
    p_counter.add_argument("--T", type=int, required=True)
    p_counter.add_argument("--N", type=int, default=None, help="dual width to refute")
    common(p_counter)

    p_bench = sub.add_parser("bench", help="count operations and fit scaling exponents")
    p_bench.add_argument("--path", choices=bench.PATHS, default=None)
    p_bench.add_argument("--T", default=None, help="comma-separated grid values (default 64)")
    p_bench.add_argument("--N", default=None, help="comma-separated grid values (default 4)")
    p_bench.add_argument("--d", default=None, help="comma-separated grid values (default 2)")
    p_bench.add_argument("--summary-out", default=None, help="JSON summary file")
    common(p_bench)

    p_gen = sub.add_parser("gen", help="generate a random model, sequence, or matrix")
    p_gen.add_argument("kind", choices=("ssm", "sequence", "matrix"))
    p_gen.add_argument("--T", type=int, default=None)
    p_gen.add_argument("--N", type=int, default=None)
    p_gen.add_argument("--d", type=int, default=None)
    p_gen.add_argument("--a-min", type=float, default=None, help="minimum gain magnitude")
    p_gen.add_argument("--a-max", type=float, default=None, help="maximum gain magnitude")
    p_gen.add_argument("--scalar-identity", action="store_true", default=None)
    common(p_gen)

    return parser


_HANDLERS = {
    "forward": cmd_forward,
    "check-dual": cmd_check_dual,
    "extract": cmd_extract,
    "counterexample": cmd_counterexample,
    "bench": cmd_bench,
    "gen": cmd_gen,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args, parser)
        return _HANDLERS[args.command](_build_config(args))
    except _PRECONDITION_ERRORS as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ReconstructionError as exc:
        print(f"property failure: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except (
        ShapeMismatchError,
        SizeExceededError,
        DegenerateGridError,
        json.JSONDecodeError,
        KeyError,
        ValueError,
        OSError,
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
