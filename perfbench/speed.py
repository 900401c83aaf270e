"""Host-speed probe for normalizing timings on a shared machine.

On the 2-vCPU shared host this benchmark was built on, the same command
took up to twice as long from one minute to the next, so raw wall times
of two sets of runs could not agree within any useful bound. The probe
times a fixed amount of each of three kinds of work the commands do
(interpreter loop, LAPACK calls, JSON parsing), between measured calls.
Host slowdowns do not hit the kinds alike, so each workload weighs the
parts by its own mix (``workloads.WORKLOADS[...]["probe_mix"]``). A
timing is reported in reference seconds: raw seconds divided by the
weighted slowness around it, where a slowness of 1 is the part's time on
the build host. Raw seconds are printed and recorded next to them.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# Bound at import, before the traced run wraps numpy.linalg.svd.
from numpy.linalg import svd

#: Seconds each part took on the build host; a part's slowness is its time over this.
REFERENCE_S = {"loop": 0.004, "lapack": 0.006, "json": 0.005}

#: A mix part that is not timed: its slowness is always 1. It stands for the share
#: of a command's time that keeps its speed while the probe slows down.
STEADY = "steady"

#: Mix of the set-up probe and of workloads that name none.
DEFAULT_MIX = {"loop": 1.0, "lapack": 1.0, "json": 1.0}

_LOOPS = 70_000
_SVDS = 4
_MATRIX = np.random.default_rng(0).standard_normal((96, 96))
_TEXT = json.dumps(np.random.default_rng(1).standard_normal(20_000).tolist())


def _loop() -> None:
    total = 0
    for i in range(_LOOPS):
        total += i * i


def _lapack() -> None:
    for _ in range(_SVDS):
        svd(_MATRIX)


def _json() -> None:
    json.loads(_TEXT)


_PARTS = {"loop": _loop, "lapack": _lapack, "json": _json}


def probe() -> dict[str, float]:
    """Seconds of each part of the fixed probe work."""
    times = {}
    for name, part in _PARTS.items():
        start = time.perf_counter()
        part()
        times[name] = time.perf_counter() - start
    return times


def slowness(sample: dict[str, float], mix: dict[str, float]) -> float:
    """Weighted mean over the mix's parts of (time / build-host time)."""
    parts = {name: seconds / REFERENCE_S[name] for name, seconds in sample.items()}
    parts[STEADY] = 1.0
    return sum(w * parts[name] for name, w in mix.items()) / sum(mix.values())


def factors(probes: list[dict[str, float]], mix: dict[str, float]) -> list[float]:
    """Reference seconds per raw second for each of len(probes) - 1 measurements.

    ``probes[i]`` ran just before measurement i and ``probes[i + 1]`` just
    after it. A single probe is jittery at the millisecond scale, while the
    host's speed drifts over seconds, so each measurement uses the median
    slowness of the three probes before it and the three after it.
    """
    slow = [slowness(p, mix) for p in probes]
    return [1.0 / statistics.median(slow[max(0, i - 2) : i + 4]) for i in range(len(probes) - 1)]
