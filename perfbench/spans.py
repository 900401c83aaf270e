"""In-memory spans around the library's public functions, for the traced run.

Each wrapper is installed where its caller looks the name up (a module
attribute, a class attribute, or a dispatch dict), so the library itself
is not edited. Spans nest strictly because the workload is one thread
running one command at a time; a span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

import ssdlab.bench
import ssdlab.cli
import ssdlab.duality
import ssdlab.ss_matrix
import ssdlab.ssm
import ssdlab.sss_extract

ROOT = "cli.main"

#: Span name -> per-layer metric that reports its self time.
SELF_TIME_METRICS = {
    ROOT: "cli.self_s",
    # The atomic write is part of the CLI's own work; it is a span only to count bytes.
    "cli.write": "cli.self_s",
    "cli.load": "cli.load_s",
    "ssm.materialize_kernel": "ssm.materialize_kernel_s",
    "ssm.forward_materialized": "ssm.forward_materialized_s",
    "ssm.forward_ssd": "ssm.forward_ssd_s",
    "ssm.forward_recurrence": "ssm.forward_recurrence_s",
    "ss_matrix.one_ss": "ss_matrix.one_ss_s",
    "ss_matrix.diagonal_block_partition": "ss_matrix.diagonal_block_partition_s",
    "duality.representability_report": "duality.representability_report_s",
    "duality.construct_one_ss_dual": "duality.construct_one_ss_dual_s",
    "duality.materialize": "duality.materialize_s",
    "sss_extract.extract_sss": "sss_extract.extract_sss_s",
    "sss_extract.rank_factor_step": "sss_extract.rank_factor_step_s",
    "sss_extract.solve_transition": "sss_extract.solve_transition_s",
    "sss_extract.materialize_sss": "sss_extract.materialize_sss_s",
    "numpy.linalg": "numpy.linalg.s",
    "bench.count_flops": "bench.count_flops_s",
    "bench.scaling_experiment": "bench.scaling_experiment_s",
}

#: Span name -> counter incremented once for every span of that name that raised.
FAILURE_COUNTS = {
    "duality.construct_one_ss_dual": "duality.construct_failed",
    "sss_extract.extract_sss": "sss_extract.refused",
}

COUNTERS = (
    "cli.bytes_in", "cli.bytes_out", "ssm.kernel_bytes", "ssm.step_elements", "ss_matrix.blocks",
    "numpy.linalg.svd_calls", "numpy.linalg.lstsq_calls", "numpy.linalg.pinv_calls",
    "numpy.linalg.factored_elements", "bench.multiply_adds", "bench.additions",
    *FAILURE_COUNTS.values(),
)


class Tracer:
    """Spans and counters of one traced phase, keyed by command id."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index or None, command id, raised].
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.cmd = 0
        self._open: list[int] = []

    def add(self, name: str, value: float) -> None:
        self.counts[(self.cmd, name)] += value

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(tracer, result, *args)`` runs after the span closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._open[-1] if self._open else None, self.cmd, False]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if count is not None:
                count(self, result, *args, **kwargs)
            return result

        return traced

    def per_command(self) -> dict[int, dict[str, float]]:
        """Self times (under their metric names) and counters, per command id."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, cmd, raised) in enumerate(self.spans):
            out[cmd][SELF_TIME_METRICS[name]] += (end - start) - child_time[i]
            if name == ROOT:
                out[cmd]["trace.cmd_s"] += end - start
            if raised and name in FAILURE_COUNTS:
                out[cmd][FAILURE_COUNTS[name]] += 1
        for (cmd, name), value in self.counts.items():
            out[cmd][name] += value
        return out


def _bytes_in(tr, text, *args):
    tr.add("cli.bytes_in", len(text.encode()))


def _bytes_out(tr, result, path, text):
    tr.add("cli.bytes_out", len(text.encode()))


def _kernel_bytes(tr, result, model):
    tr.add("ssm.kernel_bytes", 8 * model.T * model.T)


def _step_elements(tr, result, model, x):
    tr.add("ssm.step_elements", model.T * model.N * np.shape(x)[1])


def _blocks(tr, cuts, *args, **kwargs):
    tr.add("ss_matrix.blocks", len(cuts) + 1)


def _linalg(kind):
    def count(tr, result, a, *args, **kwargs):
        shape = np.shape(a)
        tr.add(f"numpy.linalg.{kind}_calls", 1)
        tr.add("numpy.linalg.factored_elements", shape[-2] * shape[-1] if len(shape) >= 2 else shape[0])

    return count


def _flops(tr, report, *args):
    tr.add("bench.multiply_adds", report.multiply_adds)
    tr.add("bench.additions", report.additions)


def _targets():
    """(owner, attribute or key, span name, counter) for every wrapped lookup."""
    ssm, cli, dual, sss, bench = ssdlab.ssm, ssdlab.cli, ssdlab.duality, ssdlab.sss_extract, ssdlab.bench
    forwards = [(f"forward_{p}", f"ssm.forward_{p}") for p in ("recurrence", "ssd", "materialized")]
    return [
        (cli, "_read", "cli.load", _bytes_in),
        (cli, "_write_atomic", "cli.write", _bytes_out),
        (ssm.DiagonalSsm, "from_json", "cli.load", None),
        (ssm, "sequence_from_csv", "cli.load", None),
        (ssdlab.ss_matrix.LowerTriangularMatrix, "from_csv", "cli.load", None),
        *[(ssm, attr, name, _step_elements) for attr, name in forwards],
        # bench times the production paths through its own dispatch dict.
        *[(bench._PRODUCTION, attr[len("forward_"):], name, _step_elements) for attr, name in forwards],
        (ssm, "materialize_kernel", "ssm.materialize_kernel", _kernel_bytes),
        (dual, "materialize_kernel", "ssm.materialize_kernel", _kernel_bytes),
        (dual, "one_ss", "ss_matrix.one_ss", None),
        (dual, "diagonal_block_partition", "ss_matrix.diagonal_block_partition", _blocks),
        (dual, "representability_report", "duality.representability_report", None),
        (dual, "construct_one_ss_dual", "duality.construct_one_ss_dual", None),
        (dual.MaskedAttentionFactors, "materialize", "duality.materialize", None),
        (cli, "extract_sss", "sss_extract.extract_sss", None),
        (cli, "materialize_sss", "sss_extract.materialize_sss", None),
        (sss, "rank_factor_step", "sss_extract.rank_factor_step", None),
        (sss, "solve_transition", "sss_extract.solve_transition", None),
        (bench, "count_flops", "bench.count_flops", _flops),
        (bench, "scaling_experiment", "bench.scaling_experiment", None),
        *[(np.linalg, kind, "numpy.linalg", _linalg(kind)) for kind in ("svd", "lstsq", "pinv")],
    ]


def install(tracer: Tracer):
    """Wrap every target; return a function that puts the originals back."""
    saved = []
    for owner, key, name, count in _targets():
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = tracer.wrap(name, original, count)
        else:
            original = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
            if isinstance(original, classmethod):
                setattr(owner, key, classmethod(tracer.wrap(name, original.__func__, count)))
            else:
                setattr(owner, key, tracer.wrap(name, original, count))
        saved.append((owner, key, original))

    def restore() -> None:
        for owner, key, original in reversed(saved):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    return restore
