"""Deterministic work counters of a sharded hub load point, pinned exactly.

The sharded companion of ``tests/test_work_counters.py``: four marlin
groups behind the key router in one simulator.  Routing, the replicas'
misroute guards, block and QC digests all sit on this path, so a speed
change there must leave every number below untouched — throughput and
latency floats in ``repr``, per-shard throughput, blocks, simulator
events, each group's network traffic, zero misroutes and the merged
commit trace.  Update the values only together with an explanation of
what the model now does differently.
"""

from __future__ import annotations

import hashlib

from repro.common.encoding import encode
from repro.harness.scenarios import _load_point_ex
from repro.shard.config import ShardConfig

GOLDEN = {
    "throughput_tps": "3481.6",
    "mean_latency": "0.2956081455317154",
    "p50_latency": "0.2956264534782509",
    "p99_latency": "0.29786918141787666",
    "per_shard_tps": "[911.2, 843.2, 897.6, 829.6]",
    "blocks_committed": 160,
    "events_processed": 11558,
    "group_messages": [1030, 1030, 1030, 1033],
    "group_bytes": [16745163, 15507763, 16497683, 15260772],
    "misrouted_ops": 0,
    "commit_trace_sha256": "7fb1749d845af5d521bb348ed512862c05b9299623b23d95d00f3b9da9814c07",
}


def measure() -> dict:
    result, sharded = _load_point_ex(
        "marlin",
        1,
        1024,
        sim_time=12.0,
        warmup=2.0,
        seed=1,
        shard=ShardConfig(shards=4),
    )
    measured = {
        name: repr(getattr(result, name))
        for name in ("throughput_tps", "mean_latency", "p50_latency", "p99_latency")
    }
    measured.update(
        per_shard_tps=repr(result.per_shard_tps),
        blocks_committed=result.blocks_committed,
        events_processed=sharded.sim.events_processed,
        group_messages=[g.cluster.network.stats.messages for g in sharded.groups],
        group_bytes=[g.cluster.network.stats.bytes for g in sharded.groups],
        misrouted_ops=sharded.misrouted_rejected,
        commit_trace_sha256=hashlib.sha256(encode(sharded.commit_trace())).hexdigest(),
    )
    return measured


def test_marlin_sharded_hub_load_point_counters():
    assert measure() == GOLDEN
