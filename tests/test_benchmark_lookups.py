"""The benchmark's traced run wraps library names where callers look them up.

``perfbench/spans.py`` finds every name it wraps by lookup, so a rename in
the library crashes the traced run; the first test fails first instead. A
command that stops calling a wrapped name leaves its per-layer metric at 0
on working code; the second test fails first then. Both import the
benchmark's module read-only and change nothing under ``perfbench/``.
"""

import importlib
import sys
from pathlib import Path

from ssdlab import cli
from ssdlab.ssm import random_instance, sequence_to_csv
from tests.conftest import representable_matrix

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: Wrapped span names that no benchmarked command enters: their metrics read 0.
IDLE_SPANS = {
    "ssm.materialize_kernel",
    # forward --path all runs the linear pair through one ``forward_linear`` pass.
    "ssm.forward_recurrence",
    "ssm.forward_ssd",
    "ss_matrix.one_ss",
    "duality.construct_one_ss_dual",
    "sss_extract.rank_factor_step",
    # check-dual and extract compare kernels by ``duality.kernel_residual``'s panel walk.
    "duality.materialize",
    "sss_extract.materialize_sss",
}


def _lookup(owner, key):
    """What ``spans.install`` wraps: a dict entry, a class's own attribute or a module's."""
    if isinstance(owner, dict):
        return owner[key]
    return owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)


def test_every_wrapped_name_resolves_and_is_put_back(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        spans = importlib.import_module("spans")
        targets = [(owner, key) for owner, key, _, _ in spans._targets()]
        originals = [_lookup(owner, key) for owner, key in targets]
        restore = spans.install(spans.Tracer())
        wrapped = [_lookup(owner, key) for owner, key in targets]
        restore()
    finally:
        sys.modules.pop("spans", None)
    assert all(now is not before for now, before in zip(wrapped, originals))
    assert all(_lookup(owner, key) is before for (owner, key), before in zip(targets, originals))


def test_one_command_of_each_workload_kind_enters_every_span_but_the_idle_ones(
    monkeypatch, tmp_path
):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.chdir(tmp_path)
    model, x = random_instance(1, 16, 2, 2)
    (tmp_path / "ssm.json").write_text(model.to_json())
    (tmp_path / "x.csv").write_text(sequence_to_csv(x))
    (tmp_path / "m.csv").write_text(representable_matrix(3, 32, 3).to_csv())
    # Each writes its --out file as the benchmark's commands do.
    commands = [
        ["forward", "--ssm", "ssm.json", "--input", "x.csv", "--path", "all", "--out", "y.json"],
        ["check-dual", "--mode", "representability", "--matrix", "m.csv", "--N", "3",
         "--out", "dual.json"],
        ["extract", "--matrix", "m.csv", "--N", "3", "--out", "rep.json"],
        ["bench", "--T", "8,16,32", "--N", "2", "--d", "1", "--seed", "1", "--out", "b.csv"],
    ]
    try:
        spans = importlib.import_module("spans")
        wrapped = {name for _, _, name, _ in spans._targets()}
        tracer = spans.Tracer()
        restore = spans.install(tracer)
        try:
            codes = [cli.main(argv) for argv in commands]
        finally:
            restore()
    finally:
        sys.modules.pop("spans", None)
    assert codes == [0] * len(commands)
    assert wrapped - {span[0] for span in tracer.spans} == IDLE_SPANS
