"""The benchmark's tracer wraps nestopt functions by module and name; each
of those names must still exist, or traced runs would stop at set-up."""

import importlib
from pathlib import Path

import nestopt  # noqa: F401

REPO = Path(__file__).resolve().parents[1]


def test_every_traced_layer_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO))
    spans = importlib.import_module("perfbench.spans")
    missing = [
        (module, attr)
        for module, attr, _ in spans.LAYERS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert spans.LAYERS and missing == []
