"""Attribute a cProfile run to the layers of ``src/repro``.

The layers are the packages under ``src/repro/``.  A function's self
time goes to the package its file lives in.  Builtins and the standard
library (``struct.pack``, ``heapq``, ``hashlib``, ``dict.get``) have no
layer of their own: their self time is charged to whoever called them,
through the profile's callers table, so "consensus spent 8 % in
``hashlib``" shows up as consensus time.  Three pseudo-layers catch the
rest: ``asyncio`` (event loop and selectors code), ``idle`` (blocked in
``epoll.poll``) and ``other`` (the facade module, the benchmark's own
load generator, anything unattributable).
"""

from __future__ import annotations

import os
import re
from collections import defaultdict
from typing import Any

LAYERS = (
    "common",
    "crypto",
    "network",
    "des",
    "consensus",
    "client",
    "storage",
    "obs",
    "harness",
    "shard",
    "runtime",
    "adversary",
)
PSEUDO_LAYERS = ("asyncio", "idle", "other")
ALL_LAYERS = LAYERS + PSEUDO_LAYERS

_PACKAGE = re.compile(r"/repro/([a-z_]+)/")
_EVENT_LOOP = re.compile(r"/(asyncio/[a-z_]+|selectors)\.py$")
_OWN_DIR = os.path.dirname(os.path.abspath(__file__))
_CALLER_DEPTH = 8

def layer_of(code: Any) -> str | None:
    """The layer a profiled function belongs to, or None to charge it
    to its callers.  ``code`` is a code object, or a builtin's name."""
    if isinstance(code, str):
        return "idle" if "epoll" in code and "poll" in code else None
    filename = code.co_filename
    match = _PACKAGE.search(filename)
    if match is not None:
        return match.group(1) if match.group(1) in LAYERS else "other"
    if _EVENT_LOOP.search(filename):
        return "asyncio"
    if "/repro/" in filename or filename.startswith(_OWN_DIR):
        return "other"
    return None


def attribute(profiler: Any, traced_wall_s: float, ops: int) -> dict[str, float]:
    """Per-layer metrics of one profiled repetition.

    ``<layer>.self_cpu_share`` sums to 1 over all layers;
    ``<layer>.calls_per_op`` counts profiled calls of the layer's own
    functions per certified operation; ``trace.reconcile_err`` compares
    the bucket sum with the externally timed length of the traced region.

    Reads ``getstats()`` rather than ``pstats``: pstats keys functions by
    (file, line, name), so every dataclass-generated ``__init__`` lands
    on one key and all but one lose their time.
    """
    entries = profiler.getstats()
    direct = {entry.code: layer_of(entry.code) for entry in entries}
    # callee -> caller -> callee self time spent under that caller
    called_from: dict[Any, dict[Any, float]] = defaultdict(lambda: defaultdict(float))
    for entry in entries:
        for call in entry.calls or ():
            called_from[call.code][entry.code] += call.inlinetime
    memo: dict[Any, dict[str, float]] = {}

    def spread(code: Any, path: frozenset[Any]) -> dict[str, float]:
        """Layer -> share of ``code``'s self time, by who called it."""
        layer = direct.get(code)
        if layer is not None:
            return {layer: 1.0}
        if code in memo:
            return memo[code]
        callers = {
            caller: self_time
            for caller, self_time in called_from[code].items()
            if caller != code and caller not in path and self_time > 0.0
        }
        if not callers or len(path) >= _CALLER_DEPTH:
            return {"other": 1.0}
        total = sum(callers.values())
        out: dict[str, float] = defaultdict(float)
        for caller, self_time in callers.items():
            for name, share in spread(caller, path | {code}).items():
                out[name] += share * self_time / total
        memo[code] = out
        return out

    seconds: dict[str, float] = dict.fromkeys(ALL_LAYERS, 0.0)
    calls: dict[str, int] = dict.fromkeys(LAYERS, 0)
    for entry in entries:
        layer = direct[entry.code]
        if layer in calls:
            calls[layer] += entry.callcount
        for name, share in spread(entry.code, frozenset()).items():
            seconds[name] += entry.inlinetime * share

    total = sum(seconds.values())
    metrics = {f"{name}.self_cpu_share": seconds[name] / total for name in ALL_LAYERS}
    for name in LAYERS:
        metrics[f"{name}.calls_per_op"] = calls[name] / max(ops, 1)
    metrics["trace.reconcile_err"] = abs(total - traced_wall_s) / traced_wall_s
    return metrics
