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

import numpy as np

from . import bench, duality, limits, ssm as ssm_mod
from .errors import PreconditionError, ReconstructionError
from .ss_matrix import DEFAULT_EPS, LowerTriangularMatrix, check_sizes, rel_err
from .sss_extract import extract_sss, materialize_sss

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3

#: Commands that draw random data and therefore demand an explicit seed.
_RANDOMIZED_COMMANDS = {"bench", "gen"}


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


def _wants_csv(args: argparse.Namespace) -> bool:
    """The one format rule of every writer: CSV when asked for or when --out ends in .csv."""
    return args.format == "csv" or (args.out or "").endswith(".csv")


def _refuse_csv(args: argparse.Namespace, output: str) -> None:
    """Input error when ``_wants_csv`` holds for an ``output`` that has no CSV form."""
    if _wants_csv(args):
        raise ValueError(
            f"{output} has no CSV form: drop --format csv, and give --out a non-.csv name"
        )


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


def _parse_args(parser: argparse.ArgumentParser, argv: list[str] | None) -> argparse.Namespace:
    """Parsed ``argv``; a --config file's values become the command's defaults, so flags win.

    Each value goes through its option's type and choices, and ``null`` keeps
    the option's own default. A key that names no option of the command (the
    command name and ``--config`` itself included), or a value its flag would
    reject, is an input error.
    """
    args = parser.parse_args(argv)
    if not args.config:
        return args
    loaded = json.loads(_read(args.config))
    if not isinstance(loaded, dict):
        raise ValueError("config file must hold a JSON object")
    # The parser that read the options: the command's, or for gen its kind's.
    command, names = parser, []
    while subs := [a for a in command._actions if isinstance(a, argparse._SubParsersAction)]:
        names.append(getattr(args, subs[0].dest))
        command = subs[0].choices[names[-1]]
    actions = {a.dest: a for a in command._actions if a.dest not in ("help", "config")}
    defaults = {}
    for key, value in loaded.items():
        attr = key.replace("-", "_")
        if attr not in actions:
            raise ValueError(f"config key {key!r} names no option of {' '.join(names)!r}")
        if value is not None:
            defaults[attr] = _config_value(actions[attr], key, value)
    command.set_defaults(**defaults)
    return parser.parse_args(argv)


def _run_forward(path: str, model: ssm_mod.DiagonalSsm, x: np.ndarray) -> np.ndarray:
    """One forward path's output; a non-finite entry (an overflowing model) is an input error."""
    y = ssm_mod.FORWARD_PATHS[path](model, x)
    if not np.isfinite(y).all():
        raise ValueError(f"the {path} output has non-finite entries")
    return y


def cmd_forward(args: argparse.Namespace) -> int:
    model = ssm_mod.DiagonalSsm.from_json(_read(args.ssm))
    x = _load_sequence(args.input)
    if args.path == "all":
        _refuse_csv(args, "the --path all comparison")
        outputs = {name: _run_forward(name, model, x) for name in ssm_mod.FORWARD_PATHS}
        pairwise = {
            f"{first}/{second}": rel_err(outputs[first], outputs[second])
            for first, second in itertools.combinations(outputs, 2)
        }
        worst = max(pairwise.values())
        payload = {f"Y_{name}": y.tolist() for name, y in outputs.items()}
        payload.update(pairwise_rel_errors=pairwise, max_rel_error=worst)
        if args.out:
            _write_atomic(args.out, json.dumps(payload))
        for pair, err in pairwise.items():
            print(f"{pair}: rel_error={err:.6e}")
        print(f"max_rel_error={worst:.6e} (eps={args.eps:.1e})")
        return EXIT_OK if worst <= args.eps else EXIT_PROPERTY
    y = _run_forward(args.path, model, x)
    y_json = json.dumps({"Y": y.tolist()})
    if args.out:
        _write_atomic(args.out, ssm_mod.sequence_to_csv(y) if _wants_csv(args) else y_json)
    if args.format == "json":
        print(y_json)
    else:
        print(f"computed {args.path} output of shape {y.shape[0]}x{y.shape[1]}")
    return EXIT_OK


def cmd_check_dual(args: argparse.Namespace) -> int:
    mode = args.mode
    if mode == "representability":
        if not args.matrix or args.N is None:
            raise ValueError("--mode representability needs --matrix and --N")
        matrix = _load_matrix(args.matrix)
        report = duality.representability_report(matrix, args.N, args.eps)
        if args.out:
            _write_atomic(args.out, json.dumps(report))
        print(json.dumps({k: report[k] for k in ("blocks", "representable")}))
        return EXIT_OK if report["representable"] else EXIT_PROPERTY
    if not args.ssm:
        raise ValueError(f"--mode {mode} needs --ssm")
    model = ssm_mod.DiagonalSsm.from_json(_read(args.ssm))
    builder = (
        duality.scalar_identity_dual if mode == "scalar-identity" else duality.full_rank_one_ss_dual
    )
    factors = builder(model)
    residual = duality.kernel_residual(model, factors)
    payload = {"mode": mode, "kernel_rel_residual": residual, "factors": factors.to_dict()}
    if args.out:
        _write_atomic(args.out, json.dumps(payload))
    print(f"{mode}: kernel_rel_residual={residual:.6e} (eps={args.eps:.1e})")
    return EXIT_OK if residual <= args.eps else EXIT_PROPERTY


def cmd_extract(args: argparse.Namespace) -> int:
    matrix = _load_matrix(args.matrix)
    rep = extract_sss(matrix, args.N, args.eps)
    back = materialize_sss(rep).values
    residual = rel_err(back, matrix.values)
    payload = {
        "roundtrip_rel_residual": residual,
        "block_ranks": list(rep.r),
        "representation": rep.to_dict(),
    }
    if args.out:
        _write_atomic(args.out, json.dumps(payload))
    print(f"extract: roundtrip_rel_residual={residual:.6e} (eps={args.eps:.1e})")
    return EXIT_OK if residual <= args.eps else EXIT_PROPERTY


def cmd_counterexample(args: argparse.Namespace) -> int:
    _refuse_csv(args, "a counterexample report")
    if args.which == "softmax":
        report = limits.softmax_counterexample(args.T)
    else:
        report = limits.verify_non_dualizable(args.T, args.N)
    if args.out:
        _write_atomic(args.out, report.to_json())
    if args.format == "json":
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


def cmd_bench(args: argparse.Namespace) -> int:
    grid = [_parse_int_list(values) for values in (args.T, args.N, args.d)]
    result = bench.scaling_experiment(args.path, *grid, args.seed)
    if args.out:
        _write_atomic(args.out, result.to_csv())
    text = result.summary_json()
    if args.summary_out:
        _write_atomic(args.summary_out, text)
    print(text)
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "ssm":
        _refuse_csv(args, "a model")
        # The input random_instance draws after the model is discarded: one channel will do.
        model, _ = ssm_mod.random_instance(
            args.seed, args.T, args.N, 1,
            a_abs=(args.a_min, args.a_max), scalar_identity=args.scalar_identity,
        )
        text = model.to_json()
    elif args.kind == "sequence":
        check_sizes(T=args.T, d=args.d)
        x = np.random.default_rng(args.seed).standard_normal((args.T, args.d))
        text = ssm_mod.sequence_to_csv(x) if _wants_csv(args) else ssm_mod.sequence_to_json(x)
    else:
        values = np.random.default_rng(args.seed).standard_normal((args.T, args.T))
        matrix = LowerTriangularMatrix(np.tril(values))
        text = matrix.to_csv() if _wants_csv(args) else matrix.to_json()
    if args.out:
        _write_atomic(args.out, text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssdlab",
        description="Diagonal state-space models, semiseparable kernels, and their duals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *shared: str) -> None:
        """--out and --config, plus those of --eps, --format and --seed named in ``shared``."""
        if "eps" in shared:
            p.add_argument(
                "--eps", type=float, default=DEFAULT_EPS,
                help="relative tolerance (default %(default)s)",
            )
        p.add_argument("--out", help="output file path")
        if "format" in shared:
            p.add_argument(
                "--format", choices=("json", "csv", "pretty"), default="pretty",
                help="output format (default %(default)s)",
            )
        p.add_argument("--config", help="JSON file supplying defaults for flags")
        if "seed" in shared:
            p.add_argument("--seed", type=int, help="seed of the random draw (mandatory)")

    p_forward = sub.add_parser("forward", help="run a model on an input sequence")
    p_forward.add_argument("--ssm", required=True, help="model JSON file")
    p_forward.add_argument("--input", required=True, help="input sequence (.csv or .json)")
    p_forward.add_argument(
        "--path", choices=(*ssm_mod.FORWARD_PATHS, "all"), default="all",
        help="forward path, or all three compared (default %(default)s)",
    )
    common(p_forward, "eps", "format")

    p_check = sub.add_parser("check-dual", help="build or decide masked-attention duals")
    p_check.add_argument(
        "--mode", choices=("scalar-identity", "full-rank", "representability"), required=True
    )
    p_check.add_argument("--ssm", help="model JSON file (constructive modes)")
    p_check.add_argument("--matrix", help="matrix file (representability mode)")
    p_check.add_argument("--N", type=int, help="factor width (representability mode)")
    common(p_check, "eps")

    p_extract = sub.add_parser("extract", help="recover a state-space representation")
    p_extract.add_argument("--matrix", required=True, help="matrix file (.csv or .json)")
    p_extract.add_argument("--N", type=int, required=True, help="representation width")
    common(p_extract, "eps")

    p_counter = sub.add_parser("counterexample", help="run an impossibility demonstration")
    p_counter.add_argument("which", choices=("softmax", "non-dualizable"))
    p_counter.add_argument("--T", type=int, required=True)
    p_counter.add_argument(
        "--N", type=int, default=2, help="dual width to refute (default %(default)s)"
    )
    common(p_counter, "format")

    p_bench = sub.add_parser("bench", help="count operations and fit scaling exponents")
    grid_help = "comma-separated grid values (default %(default)s)"
    p_bench.add_argument(
        "--path", choices=bench.PATHS, default="ssd", help="counted path (default %(default)s)"
    )
    p_bench.add_argument("--T", default="64", help=grid_help)
    p_bench.add_argument("--N", default="4", help=grid_help)
    p_bench.add_argument("--d", default="2", help=grid_help)
    p_bench.add_argument("--summary-out", help="JSON summary file")
    common(p_bench, "seed")

    p_gen = sub.add_parser("gen", help="generate a random model, sequence, or matrix")
    kinds = p_gen.add_subparsers(dest="kind", required=True)
    g_ssm = kinds.add_parser("ssm", help="a random diagonal model")
    g_sequence = kinds.add_parser("sequence", help="a random input sequence")
    g_matrix = kinds.add_parser("matrix", help="a random lower triangular matrix")
    for p, what in ((g_ssm, "steps"), (g_sequence, "steps"), (g_matrix, "matrix size")):
        p.add_argument("--T", type=int, default=16, help=f"{what} (default %(default)s)")
    g_ssm.add_argument("--N", type=int, default=4, help="state width (default %(default)s)")
    g_ssm.add_argument(
        "--a-min", type=float, default=0.0, help="minimum gain magnitude (default %(default)s)"
    )
    g_ssm.add_argument(
        "--a-max", type=float, default=2.0, help="maximum gain magnitude (default %(default)s)"
    )
    g_ssm.add_argument(
        "--scalar-identity", action="store_true", help="one gain shared by every mode"
    )
    g_sequence.add_argument("--d", type=int, default=2, help="channels (default %(default)s)")
    for p in (g_ssm, g_sequence, g_matrix):
        common(p, "format", "seed")

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
    try:
        args = _parse_args(parser, argv)
        if args.command in _RANDOMIZED_COMMANDS and args.seed is None:
            raise ValueError(f"{args.command} is randomized; --seed is mandatory")
        return _HANDLERS[args.command](args)
    except PreconditionError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ReconstructionError as exc:
        print(f"property failure: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except (KeyError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
