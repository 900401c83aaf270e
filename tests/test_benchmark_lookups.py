"""The benchmark's traced run wraps library names where callers look them up.

``perfbench/spans.py`` finds every name it wraps by lookup, so a rename in
the library crashes the traced run; this test fails first instead. It
imports the benchmark's module read-only and changes nothing under
``perfbench/``.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
