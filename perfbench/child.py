"""Workload process: one client driving ``ssdlab.cli.main`` in a closed loop.

Usage: python3 perfbench/child.py PLAN RESULT --cycles K --trace 0|1

Runs K of the plan's command cycles (whole cycles only, so every run has
the same family mix, and the same seed always runs the same commands),
times the host-speed probe around each command, checks every output, and
writes the end-to-end metrics, the failure ledger and, with --trace 1,
the per-layer metrics of a second, traced phase of K more cycles to
RESULT as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

import ssdlab
import ssdlab.cli as cli

import checks
import spans
import speed
from workloads import KNOWN_FAILURES

EXIT_CLASSES = {0: "ok", 1: "property", 2: "input", 3: "refusal"}
#: A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10


def run_command(main, cmd: dict) -> tuple[float, int | None, str]:
    """(seconds, exit code or None if it raised, captured output) of one CLI call."""
    for key in ("out", "table"):
        if key in cmd["check"]:
            Path(cmd["check"][key]).unlink(missing_ok=True)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = main(cmd["argv"])
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = None
            sink.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return elapsed, code, sink.getvalue()


def classify(cmd: dict, code: int | None) -> tuple[str, str | None]:
    """Failure class of one command, and the reason when its output is wrong."""
    cls = EXIT_CLASSES.get(code, "crash")
    spec = cmd["check"]
    if cls == "ok" or (spec["kind"] == "check-dual" and spec["masked"] and Path(spec["out"]).exists()):
        reason = checks.run(spec)
        if reason is not None:
            return "wrong-output", reason
    return cls, None


def expected(cmd: dict, cls: str) -> bool:
    """Success, or a property failure or refusal where the ledger already has one."""
    return cls == "ok" or (cls in ("property", "refusal") and (cmd["family"], cmd["command"]) in KNOWN_FAILURES)


def measure(
    main, cycles: list[list[dict]], count: int, mix: dict[str, float], tracer: spans.Tracer | None = None
) -> dict:
    """Run cycles 0 .. count-1, cycle i being ``cycles[i % len(cycles)]``."""
    times, probes, labels, ledger, problems = [], [], [], Counter(), []
    check_s = 0.0
    start = time.perf_counter()
    probes.append(speed.probe())
    for index in range(count):
        for cmd in cycles[index % len(cycles)]:
            if tracer is not None:
                tracer.cmd = len(times)
            elapsed, code, log = run_command(main, cmd)
            probes.append(speed.probe())
            mark = time.perf_counter()
            cls, reason = classify(cmd, code)
            check_s += time.perf_counter() - mark
            times.append(elapsed)
            labels.append(f"{cmd['family']} {cmd['command']}")
            ledger[(cmd["family"], cmd["command"], cls)] += 1
            if not expected(cmd, cls) and len(problems) < 5:
                problems.append(f"{cmd['family']} {cmd['command']}: {cls}: {reason or log.strip()[-400:]}")
    wall = time.perf_counter() - start
    failed = sum(n for (_, _, cls), n in ledger.items() if cls != "ok")
    return {
        "times": times,
        "factors": speed.factors(probes, mix),
        "probes": probes,
        "labels": labels,
        "cycles": count,
        "wall_s": wall,
        "check_s": check_s,
        "failed": failed,
        "correct": not problems,
        "problems": problems,
        "ledger": [[fam, command, cls, n] for (fam, command, cls), n in sorted(ledger.items())],
    }


def tail(times: list[float]) -> dict:
    """Highest percentile with TAIL_BEYOND samples beyond it, never below the median."""
    ordered = sorted(times)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1
    if k < n // 2:
        return {"value": statistics.median(ordered), "percentile": 50.0, "samples": n, "beyond": n // 2}
    return {"value": ordered[k], "percentile": 100.0 * (k + 1) / n, "samples": n, "beyond": TAIL_BEYOND}


def normalized(phase: dict) -> list[float]:
    """Command times in reference seconds (see speed.py)."""
    return [t * f for t, f in zip(phase["times"], phase["factors"])]


def end_to_end(phase: dict, rss_kib: int) -> dict:
    times = normalized(phase)
    return {
        "cmd_p50_s": statistics.median(times),
        "cmd_tail_s": tail(times)["value"],
        "cmd_per_s": len(times) / sum(times),
        "ok_share": 1.0 - phase["failed"] / len(times),
        "peak_rss_mb": rss_kib * 1024 / 1e6,
    }


def per_layer(tracer: spans.Tracer, traced: dict, untraced: dict, subnormals: dict) -> dict:
    per_cmd = tracer.per_command()
    n = len(traced["times"])
    self_names = set(spans.SELF_TIME_METRICS.values())
    for cmd, values in per_cmd.items():
        for name in self_names | {"trace.cmd_s"}:
            values[name] *= traced["factors"][cmd]
    names = sorted(self_names | set(spans.COUNTERS))
    layers = {name: sum(cmd.get(name, 0.0) for cmd in per_cmd.values()) / n for name in names}
    traced_s = sum(cmd["trace.cmd_s"] for cmd in per_cmd.values()) / n
    layers["trace.self_sum_share"] = sum(layers[name] for name in self_names) / traced_s
    layers["trace.cmd_p50_s"] = statistics.median(normalized(traced))
    layers["trace.overhead_share"] = layers["trace.cmd_p50_s"] / statistics.median(normalized(untraced)) - 1.0
    tiny = sum(t for t, _ in subnormals.values())
    nonzero = sum(nz for _, nz in subnormals.values())
    layers["input.subnormal_share"] = tiny / nonzero if nonzero else 0.0
    return layers


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports, read through its own API."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _caches() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() != "Instruction":
                sizes[f"L{(index / 'level').read_text().strip()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    scipy = sys.modules.get("scipy")
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": getattr(scipy, "__version__", None),
        "caches": _caches(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("result")
    parser.add_argument("--cycles", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    plan = json.loads(Path(args.plan).read_text())
    if Path(ssdlab.__file__).resolve().parent.parent != Path(plan["src"]).resolve():
        print(f"ssdlab was imported from {ssdlab.__file__}, not from {plan['src']}", file=sys.stderr)
        return 2

    mix = plan["probe_mix"]
    measure(cli.main, [plan["warmup"]], 1, mix)
    untraced = measure(cli.main, plan["cycles"], args.cycles, mix)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "env": environment(),
        "untraced": untraced,
        "end_to_end": end_to_end(untraced, rss_kib),
        "tail": tail(normalized(untraced)),
        "traced": None,
        "per_layer": None,
    }
    if args.trace:
        tracer = spans.Tracer()
        restore = spans.install(tracer)
        try:
            traced = measure(tracer.wrap(spans.ROOT, cli.main), plan["cycles"], args.cycles, mix, tracer)
        finally:
            restore()
        result["traced"] = traced
        result["per_layer"] = per_layer(tracer, traced, untraced, plan["subnormals"])
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
