"""A deterministic work budget: Python calls and lines per committed op.

Host time is noisy (the paired benchmark's spread is 5-25 %), but the
number of Python function calls a simulated run makes is exact: the same
seed gives the same count in every process and under every hash seed.
Each point below runs in a fresh interpreter with ``sys.setprofile``
counting ``call`` events and ``sys.settrace`` counting ``line`` events
around one load point, each divided by the operations the group
committed.  Lines see work that calls miss: a loop inside one function
costs lines per iteration but no calls.  The counts are held as
ceilings, so a refactor that adds a helper call does not fail
spuriously; a change that removes work lowers the ceiling it earns.

The points are the two ``tests/test_work_counters.py`` points (marlin
hub, 384 clients, f = 1 and f = 10) and the ``test_work_counters_shard``
point (G = 4, 1024 clients).  Call accounting differs between CPython
minor versions, so the budget only runs on the one it was recorded on.
Gen0 collections are reported but not gated: they depend on what the
process allocated before the run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

RECORDED_ON = (3, 11)

#: Ceiling on Python calls per committed op, per point: the measured
#: count (5.12, 30.08 and 7.38 once a delivered message is one partial
#: of the process's alive-checking dispatcher) plus under 2 % headroom.
CEILINGS = {
    "f1": 5.2,
    "f10": 30.6,
    "shard4": 7.5,
}

#: Ceiling on Python lines executed per committed op, per point: the
#: measured count (74.80, 200.35 and 61.83 once the hub certifies once
#: per block) plus under 2 % headroom.
LINE_CEILINGS = {
    "f1": 76.2,
    "f10": 204.0,
    "shard4": 63.0,
}

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != RECORDED_ON,
    reason="call counts are recorded on CPython %d.%d" % RECORDED_ON,
)

_POINTS = {
    "f1": dict(f=1, clients=384, shards=1),
    "f10": dict(f=10, clients=384, shards=1),
    "shard4": dict(f=1, clients=1024, shards=4),
}

_SCRIPT = """
import gc, json, sys
from repro.harness.scenarios import _load_point_ex
from repro.shard.config import ShardConfig

f, clients, shards = (int(arg) for arg in sys.argv[1:])
kwargs = dict(sim_time=12.0, warmup=2.0, seed=1)
if shards > 1:
    kwargs["shard"] = ShardConfig(shards=shards)
calls = lines = 0

def profile(frame, event, arg):
    global calls
    if event == "call":
        calls += 1

def count_lines(frame, event, arg):
    global lines
    if event == "line":
        lines += 1
    return count_lines

gen0 = gc.get_stats()[0]["collections"]
sys.settrace(count_lines)
sys.setprofile(profile)
result, cluster = _load_point_ex("marlin", f, clients, **kwargs)
sys.setprofile(None)
sys.settrace(None)
gen0 = gc.get_stats()[0]["collections"] - gen0
groups = [g.cluster for g in cluster.groups] if shards > 1 else [cluster]
ops = sum(group.total_ops_committed() for group in groups)
print(json.dumps({"calls": calls, "lines": lines, "ops": ops, "gen0": gen0}))
"""


def measure(point: str) -> dict:
    """Run ``point`` in a fresh interpreter; its calls, lines, ops and gen0."""
    spec = _POINTS[point]
    src = str(Path(repro.__file__).resolve().parents[1])
    args = [str(spec[name]) for name in ("f", "clients", "shards")]
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT, *args],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    return json.loads(completed.stdout)


@pytest.mark.parametrize("point", sorted(CEILINGS))
def test_calls_per_committed_op_within_budget(point, record_property):
    measured = measure(point)
    per_op = measured["calls"] / measured["ops"]
    lines_per_op = measured["lines"] / measured["ops"]
    record_property("calls_per_op", round(per_op, 3))
    record_property("lines_per_op", round(lines_per_op, 3))
    record_property("gen0_collections", measured["gen0"])
    print(
        f"{point}: {measured['calls']} calls / {measured['ops']} ops = "
        f"{per_op:.2f} per op (ceiling {CEILINGS[point]}); "
        f"{lines_per_op:.2f} lines per op (ceiling {LINE_CEILINGS[point]}); "
        f"gen0 collections {measured['gen0']}"
    )
    assert per_op <= CEILINGS[point]
    assert lines_per_op <= LINE_CEILINGS[point]
