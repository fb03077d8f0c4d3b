"""Deterministic work counters of small hub load points, pinned exactly.

A speed change must leave the simulation untouched: the same seed gives
the same throughput and latency floats, the same blocks, simulator
events and network traffic, and the same commit trace.  These goldens
are that oracle in the tier-1 suite — noise-free, unlike host time.  A
change that moves any of them changed behaviour, not just speed; update
the values only together with an explanation of what the model now does
differently.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.common.encoding import encode
from repro.harness.scenarios import _load_point_ex

GOLDEN = {
    1: {
        "throughput_tps": "1305.6",
        "mean_latency": "0.2979733886467928",
        "p50_latency": "0.29794825212676734",
        "p90_latency": "0.29930561787285814",
        "p99_latency": "0.3013713692269384",
        "p999_latency": "0.3013713692269384",
        "blocks_committed": 40,
        "events_processed": 2864,
        "messages": 1022,
        "bytes": 23920807,
        "commit_trace_sha256": "5f746ea25e00f876e7479d54a1b43b65b2f67c4e19db91ec6cee1f9877b03ad4",
    },
    10: {
        "throughput_tps": "1228.8",
        "mean_latency": "0.3100683573266903",
        "p50_latency": "0.3099574652803536",
        "p90_latency": "0.31109286519340706",
        "p99_latency": "0.31142998171753167",
        "p999_latency": "0.31142998171753167",
        "blocks_committed": 38,
        "events_processed": 20820,
        "messages": 7355,
        "bytes": 159461442,
        "commit_trace_sha256": "dfc76d14aac71e309608ec85767035ac58a520353c37681d1e03733ae97c0dc7",
    },
}


@pytest.mark.parametrize("f", sorted(GOLDEN))
def test_marlin_hub_load_point_counters(f):
    result, cluster = _load_point_ex("marlin", f, 384, sim_time=12.0, warmup=2.0, seed=1)
    measured = {
        name: repr(getattr(result, name))
        for name in (
            "throughput_tps",
            "mean_latency",
            "p50_latency",
            "p90_latency",
            "p99_latency",
            "p999_latency",
        )
    }
    measured.update(
        blocks_committed=result.blocks_committed,
        events_processed=cluster.sim.events_processed,
        messages=cluster.network.stats.messages,
        bytes=cluster.network.stats.bytes,
        commit_trace_sha256=hashlib.sha256(encode(cluster.commit_trace())).hexdigest(),
    )
    assert measured == GOLDEN[f]
