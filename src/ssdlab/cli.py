"""Command-line frontend.

Subcommands: forward, check-dual, extract, counterexample, bench, gen.
Exit codes: 0 pass, 1 property failure, 2 input error, 3 precondition
block. A file named .csv is read and written as CSV, any other as JSON.
Output files are written atomically (temp file plus rename) and contain
no timestamps or timings, so a fixed seed reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import os
import reprlib
import stat
import sys

import numpy as np

from . import ssm as ssm_mod
from .errors import PreconditionError, ReconstructionError
from .ss_matrix import (
    DEFAULT_EPS, LowerTriangularMatrix, check_sizes, json_dumps, json_loads, rel_err,
)
# Imported eagerly, unlike duality, limits and bench: perfbench/spans.py times these names here.
from .sss_extract import extract_sss, materialize_sss  # noqa: F401

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3

def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` to a fresh file beside ``path`` and rename it over ``path``.

    The file gets the mode ``open(path, "w")`` would leave: an existing
    file's own, else 0666 less the process umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    # os.urandom(8).hex() is secrets.token_hex(8), without the hashlib and OpenSSL it imports.
    tmp = os.path.join(directory, f".ssdlab-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        with contextlib.suppress(FileNotFoundError):
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read(path: str) -> str:
    with open(path, "r") as handle:
        return handle.read()


def _form(path: str, what: str, csv=None, json=None):
    """The one file-format rule: the codec, of those ``what`` has, for ``path``'s form.

    A path ending in .csv holds CSV and any other path JSON; a form ``what``
    has no codec for is an input error.
    """
    form, codec = ("CSV", csv) if path.endswith(".csv") else ("JSON", json)
    if codec is None:
        raise ValueError(f"{path}: {what} has no {form} form (a .csv name is CSV, any other JSON)")
    return codec


def _load(path: str, what: str, csv=None, json=None):
    """``what`` parsed from ``path`` by the codec of the path's form."""
    return _form(path, what, csv, json)(_read(path))


def _writer(path: str | None, what: str, csv=None, json=None):
    """A writer to ``path``, if any; a form ``what`` lacks fails now, before any work.

    ``write(value, printed)`` writes ``value`` and returns ``printed(value)``, the
    text it wrote when ``printed`` is the file's own codec, so a value printed
    in its file's form is encoded once. With no ``printed`` it returns None.
    """
    encode = _form(path, what, csv, json) if path else None

    def write(value, printed=None):
        text = None
        if encode is not None:
            text = encode(value)
            _write_atomic(path, text)
        if printed is None:
            return None
        return text if printed is encode else printed(value)

    return write


def _print(text: str) -> None:
    """Print ``text`` now; a reader closing stdout drops the rest of the output, not the verdict."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # Later writes, and the flush at exit, go to the null device instead of the closed pipe.
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def _load_matrix(path: str) -> LowerTriangularMatrix:
    return _load(path, "a matrix", LowerTriangularMatrix.from_csv, LowerTriangularMatrix.from_json)


def _parse_int_list(text: str) -> list[int]:
    values = [int(part) for part in str(text).split(",") if part.strip()]
    if not values:
        raise ValueError(f"grid {text!r} holds no values")
    return values


def tolerance(text: str) -> float:
    """An --eps value: a finite float of at least 0; any other raises ``ValueError``."""
    value = float(text)
    if not 0.0 <= value < np.inf:
        raise ValueError(f"--eps must be finite and at least 0, got {text}")
    return value


def _config_value(action: argparse.Action, key: str, value):
    """``value`` converted and checked as the option's own flag would be."""
    try:
        if action.nargs == 0:  # a switch such as --scalar-identity
            valid = isinstance(value, bool)
        else:
            value = (action.type or str)(str(value))
            valid = action.choices is None or value in action.choices
    except (ValueError, RecursionError):  # str() of a deeply nested list recurses too far
        valid = False
    if not valid:
        raise ValueError(f"config key {key!r}: {reprlib.repr(value)} is not a value of its flag")
    return value


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parsed ``argv``; a --config file's values act as the command's defaults, so flags win.

    Each value goes through its option's type and choices, and ``null`` keeps
    the option's own default. A key that names no option of the command (the
    command name and ``--config`` itself included), or a value its flag would
    reject, is an input error. The parser itself is never changed.
    """
    args = parser.parse_args(argv)
    # The parser that read the options: the command's, or for gen and counterexample its kind's.
    names = args.leaf.prog.split()[1:]
    if args.config:
        loaded = _load(args.config, "a config file", json=json_loads)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        actions = {a.dest: a for a in args.leaf._actions if a.dest not in ("help", "config")}
        for key, value in loaded.items():
            attr = key.replace("-", "_")
            if attr not in actions:
                raise ValueError(f"config key {key!r} names no option of {' '.join(names)!r}")
            if value is not None:
                setattr(args, attr, _config_value(actions[attr], key, value))
        # The leaf reads its own flags again over the file's values, so flags win.
        args = args.leaf.parse_args(argv[len(names):], args)
    # The one rule for needed options: the leaf's own, then, in order, those its modes read.
    reads = (*args.needs, *args.modes.get(getattr(args, "mode", None), ()))
    for option in dict.fromkeys((*args.needs, *itertools.chain(*args.modes.values()))):
        given = getattr(args, option) is not None
        if given != (option in reads):
            who = " ".join(names) if option in args.needs else f"--mode {args.mode}"
            raise ValueError(f"{who} {'does not read' if given else 'needs'} --{option}")
    return args


def _run_forward(model: ssm_mod.DiagonalSsm, x: np.ndarray, *paths: str) -> dict[str, np.ndarray]:
    """The named forward paths' outputs; a non-finite entry (an overflowing model) is an input error.

    One path runs alone; several must be linear ones, which one ``forward_linear``
    pass gives. The outputs are checked in the order named.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the outputs are checked right after
        if len(paths) == 1:
            outputs = {paths[0]: ssm_mod.FORWARD_PATHS[paths[0]](model, x)}
        else:
            outputs = ssm_mod.forward_linear(model, x, paths)
    for path, y in outputs.items():
        if not np.isfinite(y).all():
            raise ValueError(f"the {path} output has non-finite entries")
    return outputs


def _output_json(y: np.ndarray) -> str:
    return json_dumps({"Y": y})


def cmd_forward(args: argparse.Namespace) -> int:
    if args.path == "all":
        write = _writer(args.out, "the --path all comparison", json=json_dumps)
    else:
        write = _writer(args.out, "a forward output", ssm_mod.sequence_to_csv, _output_json)
    model = _load(args.ssm, "a model", json=ssm_mod.DiagonalSsm.from_json)
    x = _load(args.input, "a sequence", ssm_mod.sequence_from_csv, ssm_mod.sequence_from_json)
    if args.path == "all":
        # The linear pair from one scan, refused if it overflows before the O(T^2) path runs.
        outputs = _run_forward(model, x, "recurrence", "ssd")
        outputs.update(_run_forward(model, x, "materialized"))
        pairwise = {
            f"{first}/{second}": rel_err(outputs[first], outputs[second])
            for first, second in itertools.combinations(outputs, 2)
        }
        worst = max(pairwise.values())
        payload = {f"Y_{name}": y for name, y in outputs.items()}
        payload.update(pairwise_rel_errors=pairwise, max_rel_error=worst)
        printed = write(payload, json_dumps if args.format == "json" else None)
        lines = [f"{pair}: rel_error={err:.6e}" for pair, err in pairwise.items()]
        lines.append(f"max_rel_error={worst:.6e} (eps={args.eps:.1e})")
        _print(printed or "\n".join(lines))
        return EXIT_OK if worst <= args.eps else EXIT_PROPERTY
    y = _run_forward(model, x, args.path)[args.path]
    printed = write(y, _output_json if args.format == "json" else None)
    _print(printed or f"computed {args.path} output of shape {y.shape[0]}x{y.shape[1]}")
    return EXIT_OK


def cmd_check_dual(args: argparse.Namespace) -> int:
    from . import duality  # imported here, so that only the commands that run it load it
    mode = args.mode
    write = _writer(args.out, f"a {mode} report", json=json_dumps)
    if mode == "representability":
        report = duality.representability_report(_load_matrix(args.matrix), args.N, args.eps)
        write(report)
        _print(json_dumps({k: report[k] for k in ("blocks", "representable")}))
        return EXIT_OK if report["representable"] else EXIT_PROPERTY
    model = _load(args.ssm, "a model", json=ssm_mod.DiagonalSsm.from_json)
    builder = (
        duality.scalar_identity_dual if mode == "scalar-identity" else duality.full_rank_one_ss_dual
    )
    factors = builder(model)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing panel is refused inside
        residual = duality.kernel_residual(model, factors)
    write({"mode": mode, "kernel_rel_residual": residual, "factors": factors.json_fields()})
    _print(f"{mode}: kernel_rel_residual={residual:.6e} (eps={args.eps:.1e})")
    return EXIT_OK if residual <= args.eps else EXIT_PROPERTY


def cmd_extract(args: argparse.Namespace) -> int:
    from . import duality  # imported here, so that only the commands that run it load it
    write = _writer(args.out, "an extraction report", json=json_dumps)
    matrix = _load_matrix(args.matrix)
    rep = extract_sss(matrix, args.N, args.eps)
    residual = duality.kernel_residual(matrix, rep)
    write({
        "roundtrip_rel_residual": residual, "block_ranks": list(rep.r),
        "representation": rep.json_fields(),
    })
    _print(f"extract: roundtrip_rel_residual={residual:.6e} (eps={args.eps:.1e})")
    return EXIT_OK if residual <= args.eps else EXIT_PROPERTY


def cmd_counterexample(args: argparse.Namespace) -> int:
    from . import limits  # imported here, so that only the commands that run it load it
    report_json = limits.CounterexampleReport.to_json
    write = _writer(args.out, "a counterexample report", json=report_json)
    if args.kind == "softmax":
        report = limits.softmax_counterexample(args.T)
    else:
        report = limits.verify_non_dualizable(args.T, args.N)
    printed = write(report, report_json if args.format == "json" else None)
    lines = [
        f"counterexample: {report.name} (T={report.T})", f"  claim: {report.claim}",
        *(f"  {key}: {value}" for key, value in report.measurements.items()),
        f"  applicable: {report.applicable}", f"  verdict: {report.verdict}",
    ]
    _print(printed or "\n".join(lines))
    if not report.applicable:
        return EXIT_PRECONDITION
    return EXIT_OK if report.verdict else EXIT_PROPERTY


def cmd_bench(args: argparse.Namespace) -> int:
    from . import bench  # imported here, so that only the commands that run it load it
    table = _writer(args.out, "the bench table", csv=bench.ScalingResult.to_csv)
    summary = _writer(args.summary_out, "the bench summary", json=bench.ScalingResult.summary_json)
    grid = [_parse_int_list(values) for values in (args.T, args.N, args.d)]
    result = bench.scaling_experiment(args.path, *grid, args.seed)
    table(result)
    _print(summary(result, bench.ScalingResult.summary_json))
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    what, to_csv, to_json = {
        "ssm": ("a model", None, ssm_mod.DiagonalSsm.to_json),
        "sequence": ("a sequence", ssm_mod.sequence_to_csv, ssm_mod.sequence_to_json),
        "matrix": ("a matrix", LowerTriangularMatrix.to_csv, LowerTriangularMatrix.to_json),
    }[args.kind]
    write = _writer(args.out, what, to_csv, to_json)
    rng = np.random.default_rng(args.seed)
    if args.kind == "ssm":
        # The input random_instance draws after the model is discarded: one channel will do.
        value, _ = ssm_mod.random_instance(
            args.seed, args.T, args.N, 1,
            a_abs=(args.a_min, args.a_max), scalar_identity=args.scalar_identity,
        )
    elif args.kind == "sequence":
        check_sizes(T=args.T, d=args.d)
        value = rng.standard_normal((args.T, args.d))
    else:
        check_sizes(T=args.T)
        value = LowerTriangularMatrix(np.tril(rng.standard_normal((args.T, args.T))))
    write(value)
    if not args.out:
        _print(to_json(value))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssdlab",
        description="Diagonal state-space models, semiseparable kernels, and their duals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, run, *shared: str, needs=(), modes=None) -> None:
        """``p`` runs ``run`` and takes --out and --config, plus those of --eps, --format and
        --seed named in ``shared``. It needs ``needs`` and any --seed (help ends "(required)"),
        ``modes`` maps each --mode to the options it alone reads, and --config may give any."""
        if "eps" in shared:
            p.add_argument(
                "--eps", type=tolerance, default=DEFAULT_EPS,
                help="relative tolerance (default %(default)s)",
            )
        p.add_argument("--out", help="output file (CSV if named .csv, else JSON)")
        if "format" in shared:
            p.add_argument(
                "--format", choices=("json", "pretty"), default="pretty",
                help="what is printed (default %(default)s)",
            )
        p.add_argument("--config", help="JSON file supplying defaults for flags")
        if "seed" in shared:
            p.add_argument("--seed", type=int, help="seed of the random draw")
            needs = (*needs, "seed")
        for action in (a for a in p._actions if a.dest in needs):
            action.help += " (required)"
        p.set_defaults(run=run, leaf=p, needs=needs, modes=modes or {})

    p_forward = sub.add_parser("forward", help="run a model on an input sequence")
    p_forward.add_argument("--ssm", help="model JSON file")
    p_forward.add_argument("--input", help="input sequence file")
    p_forward.add_argument(
        "--path", choices=(*ssm_mod.FORWARD_PATHS, "all"), default="all",
        help="forward path, or all three compared (default %(default)s)",
    )
    common(p_forward, cmd_forward, "eps", "format", needs=("ssm", "input"))

    p_check = sub.add_parser("check-dual", help="build or decide masked-attention duals")
    modes = {
        "scalar-identity": ("ssm",), "full-rank": ("ssm",), "representability": ("matrix", "N"),
    }
    p_check.add_argument("--mode", choices=tuple(modes), help="what to build or decide")
    p_check.add_argument("--ssm", help="model JSON file (constructive modes)")
    p_check.add_argument("--matrix", help="matrix file (representability mode)")
    p_check.add_argument("--N", type=int, help="factor width (representability mode)")
    common(p_check, cmd_check_dual, "eps", needs=("mode",), modes=modes)

    p_extract = sub.add_parser("extract", help="recover a state-space representation")
    p_extract.add_argument("--matrix", help="matrix file")
    p_extract.add_argument("--N", type=int, help="representation width")
    common(p_extract, cmd_extract, "eps", needs=("matrix", "N"))

    p_counter = sub.add_parser("counterexample", help="run an impossibility demonstration")
    demos = p_counter.add_subparsers(dest="kind", required=True)
    c_softmax = demos.add_parser("softmax", help="softmax of a rank-1 score matrix is full rank")
    c_non_dual = demos.add_parser("non-dualizable", help="a width-2 recurrence kernel with no dual")
    for p in (c_softmax, c_non_dual):
        p.add_argument("--T", type=int, help="matrix size")
        common(p, cmd_counterexample, "format", needs=("T",))
    c_non_dual.add_argument(
        "--N", type=int, default=2, help="dual width to refute (default %(default)s)"
    )

    p_bench = sub.add_parser("bench", help="count operations and fit scaling exponents")
    grid_help = "comma-separated grid values (default %(default)s)"
    p_bench.add_argument(
        "--path", choices=tuple(ssm_mod.FORWARD_PATHS), default="ssd",
        help="counted path (default %(default)s)",
    )
    p_bench.add_argument("--T", default="64", help=grid_help)
    p_bench.add_argument("--N", default="4", help=grid_help)
    p_bench.add_argument("--d", default="2", help=grid_help)
    p_bench.add_argument("--summary-out", help="JSON summary file")
    common(p_bench, cmd_bench, "seed")

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
        common(p, cmd_gen, "seed")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser tree, built on first use and never changed after that."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(_parser(), sys.argv[1:] if argv is None else argv)
        return args.run(args)
    except PreconditionError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ReconstructionError as exc:
        print(f"property failure: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except (KeyError, ValueError, OSError, MemoryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
