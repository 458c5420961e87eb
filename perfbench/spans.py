"""Spans around nestopt's public functions, recorded from outside the package.

A ``Tracer`` replaces each function listed in ``LAYERS`` by a wrapper, in
the module where its caller looks the name up (``run_dme`` calls
``find_copy_pairs`` through ``nestopt.dme``, so that is where it is
wrapped).  Each call records one ``Span``; spans stay in memory until the
caller writes them out.  Leaving the tracer's context puts every original
attribute back, so untraced rounds run the program's own code.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

# (module the caller looks the name up in, attribute, layer name)
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("nestopt.cli", "main", "cli.main"),
    ("nestopt.cli", "parse", "textual.parse"),
    ("nestopt.cli", "validate", "ir.validate"),
    ("nestopt.cli", "print_program", "textual.print_program"),
    ("nestopt.cli", "account", "traffic.account"),
    ("nestopt.cli", "build_document", "report.build_document"),
    ("nestopt.cli", "run_dme", "dme.run_dme"),
    ("nestopt.dme", "try_eliminate_pair", "dme.try_eliminate_pair"),
    ("nestopt.dme", "find_copy_pairs", "ir.find_copy_pairs"),
    ("nestopt.traffic", "find_copy_pairs", "ir.find_copy_pairs"),
    ("nestopt.dme", "reverse", "affine.reverse"),
    ("nestopt.dme", "compose", "affine.compose"),
    ("nestopt.bankmap", "seed_anchors", "bankmap.seed_anchors"),
    ("nestopt.bankmap", "propagate", "bankmap.propagate"),
    ("nestopt.bankmap", "materialize", "bankmap.materialize"),
    ("nestopt.cli", "run_local_baseline", "bankmap.run_local_baseline"),
    ("nestopt.bankmap", "dependence_edges", "ir.dependence_edges"),
    ("nestopt.cli", "equivalent", "interp.equivalent"),
    ("nestopt.interp", "run", "interp.run"),
    ("nestopt.interp", "random_inputs", "interp.random_inputs"),
)

LAYER_NAMES: tuple[str, ...] = tuple(dict.fromkeys(name for _, _, name in LAYERS))

# Layers whose distinct first arguments are counted: the store maps handed
# to ``reverse``, so that calls per distinct map shows what memoizing it
# would save.
KEYED_LAYERS = frozenset({"affine.reverse"})


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    program: str


class Tracer:
    """Records one span per call of each wrapped function.

    Set ``program`` before each call into nestopt; spans opened while it is
    set carry it as the id of the program they belong to.  Single-threaded:
    the open-span stack is shared by every wrapper.
    """

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans: list[Span] = []
        self.distinct: dict[str, set] = {name: set() for name in KEYED_LAYERS}
        self.program = ""
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        keyed = self.distinct.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keyed is not None:
                keyed.add(args[0])
            index = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0, self._open[-1] if self._open else None, self.program)
            self.spans.append(span)
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                span.end = time.perf_counter()

        return traced

    def __enter__(self) -> "Tracer":
        for module_name, attr, name in self.layers:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's length minus the part of it that its child spans cover.

    Children that overlap or extend past their parent are clipped, so time
    is never subtracted twice.
    """
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for kid in sorted(kids, key=lambda k: k.start):
            lo, hi = max(kid.start, reach), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def layer_totals(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """Call count and summed self time per layer, for every layer in LAYER_NAMES."""
    totals = {name: [0, 0.0] for name in LAYER_NAMES}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span.name, [0, 0.0])
        entry[0] += 1
        entry[1] += own
    return {name: (calls, own) for name, (calls, own) in totals.items()}
