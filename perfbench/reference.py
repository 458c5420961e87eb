"""A fixed piece of pure-Python work that times the machine, not nestopt.

The host this benchmark runs on is shared: over tens of seconds its speed
swings by 20 % and more, and it moves nestopt's calls and this loop alike.
The benchmark times this loop between calls and scales its timings by
``NOMINAL_S`` over the loop's median time in the same run, so that a run
on a slow stretch of the host reads about the same as one on a fast
stretch.  The loop imports nothing from nestopt, so a change to nestopt
cannot change the scale.

The loop has two halves, because the host's swings slow compute-bound and
memory-bound code by different shares, and nestopt's calls are a mix:
``_compute`` makes small objects, tuple keys, dict updates, strings and a
sort; ``_lookup`` reads a table of a few MiB at pseudo-random places.
"""

from __future__ import annotations

import gc
import time

# Scaled timings are seconds on a machine where the loop's median time
# between calls is NOMINAL_S.  It is a fixed constant: about the loop's time
# back to back in an idle process on a 2-core x86_64 host with Python 3.11.
# Between calls, on that host, the loop read 7.5-8.5 ms when the baselines
# in README.md were taken, so scaled times there are about half wall time.
NOMINAL_S = 0.004

_NAMES = tuple(str(k) for k in range(97))
_ROWS = [(i, i * 7 % 1013, _NAMES[i % 97]) for i in range(40000)]
_WEIGHTS = {i: i * 3 % 17 for i in range(16000)}


class _Point:
    __slots__ = ("key", "value")

    def __init__(self, key: tuple[int, int], value: int) -> None:
        self.key = key
        self.value = value


def _compute(n: int = 4000) -> int:
    table: dict[tuple[int, int], int] = {}
    names = []
    for i in range(n):
        point = _Point((i % 61, i % 7), i * 3)
        table[point.key] = table.get(point.key, 0) + point.value
        if i % 5 == 0:
            names.append(f"{point.key[0]}:{point.value}")
    names.sort()
    return len(names) + sum(table.values())


def _lookup(n: int = 3000) -> int:
    total, state = 0, 12345
    for _ in range(n):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        a, b, name = _ROWS[state % len(_ROWS)]
        total += _WEIGHTS[(a + b) % len(_WEIGHTS)] + len(name)
    return total


def work() -> int:
    """Both halves once.  Deterministic."""
    return _compute() + _lookup()


def sample() -> float:
    """Wall seconds of one ``work()``, with the cyclic garbage collector
    off: a collection would scan whatever the caller holds, and so time
    the caller's heap instead of the machine.  The loop makes no cycles."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
