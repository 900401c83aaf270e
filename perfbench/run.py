"""ssdlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]

Run from the root of a source checkout; the library is imported from its
``src/`` directory, so nothing has to be installed. Set-up writes the
seeded inputs under ``.perfbench-work/`` and times fresh interpreters
importing ``ssdlab.cli``; a separate workload process then drives the CLI
with BLAS pinned to one thread, through a fixed number of command cycles
that took S seconds on the build host. With --trace 0 the last line of
output is a JSON object holding the end-to-end metrics; with --trace 1
the run is split into an untraced and a traced half, and the last line
holds the per-layer metrics of the traced one. See
perfbench/NOTES.md for the workloads, the metrics and the failure ledger.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS runs on one thread here too, before numpy is first imported, so the speed
# probes of this process run like those of the workload process.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import speed  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150
PROBE = "import time, ssdlab.cli; print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))"

UNITS = {
    "cmd_p50_s": "s", "cmd_tail_s": "s", "cmd_per_s": "1/s", "ok_share": "share",
    "peak_rss_mb": "MB", "setup_s": "s",
}


def layer_unit(name: str) -> str:
    if name.endswith("_share"):
        return "share"
    if name.endswith("_s") or name == "numpy.linalg.s":
        return "s/cmd"
    if name.endswith("bytes_in") or name.endswith("bytes_out") or name.endswith("_bytes"):
        return "B/cmd"
    return "count/cmd"


def child_env() -> dict:
    env = dict(os.environ)
    # An absolute path, so no child depends on its working directory to find ssdlab.
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_seconds(env: dict, cwd: Path) -> tuple[list[float], list[float]]:
    """Raw seconds from starting a fresh interpreter to finishing ``import ssdlab.cli``,
    and the speed factor measured around each."""
    samples, probes = [], [speed.probe()]
    for _ in range(SETUP_PROBES):
        start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, "-c", PROBE], env=env, cwd=cwd, capture_output=True, text=True,
            timeout=60, check=True,
        )
        samples.append((int(proc.stdout.strip()) - start) / 1e9)
        probes.append(speed.probe())
    return samples, speed.factors(probes, speed.DEFAULT_MIX)


def run(args: argparse.Namespace, work: Path) -> dict:
    env = child_env()
    setup, setup_factors = setup_seconds(env, work)
    plan = workloads.prepare(args.workload, args.seed, work, properties=bool(args.trace))
    plan["src"] = str(SRC)
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps(plan))
    cmd = [
        sys.executable, str(HERE / "child.py"), str(plan_path), str(result_path),
        "--cycles", str(workloads.cycle_count(args.workload, args.seconds / (2 if args.trace else 1))),
        "--trace", str(args.trace),
    ]
    subprocess.run(cmd, env=env, cwd=work, timeout=CHILD_TIMEOUT_S, check=True)
    result = json.loads(result_path.read_text())
    result["setup_samples_s"] = setup
    result["setup_factors"] = setup_factors
    result["end_to_end"]["setup_s"] = statistics.median(s * f for s, f in zip(setup, setup_factors))
    result["subnormals"] = plan["subnormals"]
    result["working_set"] = plan["working_set"]
    return result


def report(args: argparse.Namespace, result: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    env, phase, tail = result["env"], result["untraced"], result["tail"]
    print(
        f"env: cores={env['cores']} usable={env['cores_usable']} blas={env['blas']} "
        f"threads={env['blas_threads']} (pinned {env['blas_threads_pinned']}) python={env['python']} "
        f"numpy={env['numpy']} scipy={env['scipy']} caches={env['caches']}"
    )
    sizes = ", ".join(f"{k}={v / 2**20:.3f} MiB" for k, v in result["working_set"].items())
    print(f"working set (computed): {sizes}")
    for family, (tiny, nonzero) in result["subnormals"].items():
        print(f"input {family}: subnormal share {tiny}/{nonzero} of nonzero kernel entries")
    print(
        f"workload {args.workload} seed {args.seed}: {len(phase['times'])} commands in "
        f"{phase['cycles']} cycles, {phase['wall_s']:.3f} s wall ({phase['check_s']:.3f} s of it checks)"
    )
    print(
        f"raw wall time: cmd_p50 {statistics.median(phase['times']):.4f} s, "
        f"setup {statistics.median(result['setup_samples_s']):.4f} s; reference seconds per raw second: "
        f"median {statistics.median(phase['factors']):.3f}, range "
        f"{min(phase['factors']):.3f}-{max(phase['factors']):.3f}"
    )
    for family, command, cls, n in phase["ledger"]:
        known = workloads.KNOWN_FAILURES.get((family, command))
        note = f" (known: {known})" if known else ""
        print(f"ledger: {family} {command} {cls}={n}{note}")
    by_label: dict[str, list[float]] = {}
    for label, seconds, factor in zip(phase["labels"], phase["times"], phase["factors"]):
        by_label.setdefault(label, []).append(seconds * factor)
    for label, times in by_label.items():
        print(f"p50 {label}: {statistics.median(times):.4f} reference s over {len(times)} commands")
    for problem in phase["problems"]:
        print(f"unexpected: {problem}")
    print(f"cmd_tail_s: p{tail['percentile']:.1f} of {tail['samples']} samples, {tail['beyond']} beyond it")
    print(f"setup_s raw samples: {', '.join(f'{s:.4f}' for s in result['setup_samples_s'])}")

    phases = [phase] + ([result["traced"]] if result["traced"] else [])
    if args.trace:
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in result["per_layer"].items()}
    else:
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in result["end_to_end"].items()}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    return {
        "correct": all(p["correct"] for p in phases),
        "attempted": sum(len(p["times"]) for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="also write the full result to this JSON file")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "ssdlab" / "cli.py").is_file():
        print(f"error: no ssdlab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, work)
    except subprocess.SubprocessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()
    final = report(args, result)
    if args.record:
        Path(args.record).write_text(json.dumps({"args": vars(args), **result, "final": final}, indent=1) + "\n")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
