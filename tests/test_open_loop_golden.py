"""The open-loop (Poisson) generator's readouts, pinned exactly.

:class:`OpenLoopClients` shares the hub's acknowledgement and latency
sample path with the closed-loop pool, but no benchmark workload drives
it.  These goldens hold it to the same "nothing moved" standard as
``test_work_counters.py``: one light point and one far past saturation,
each pinning the summary floats in ``repr``, the acknowledged op count
and the number of latency samples recorded.
"""

from __future__ import annotations

import pytest

from repro.common.config import ClusterConfig, ExperimentConfig
from repro.harness.des_runtime import DESCluster
from repro.harness.workload import OpenLoopClients

GOLDEN = {
    "light": {
        "rate": 5_000,
        "sim_time": 20.0,
        "summary": {
            "throughput_tps": "5028.550520384195",
            "mean_latency": "0.3335126980782129",
            "p50_latency": "0.3332058006565175",
            "p99_latency": "0.38235947239587453",
        },
        "acknowledged_ops": 98048,
        "samples": 1168,
    },
    "saturating": {
        "rate": 200_000,
        "sim_time": 15.0,
        "summary": {
            "throughput_tps": "84488.62646522863",
            "mean_latency": "6.2289015067072855",
            "p50_latency": "6.227224607020876",
            "p99_latency": "9.102525317249412",
        },
        "acknowledged_ops": 1136192,
        "samples": 12636,
    },
}


@pytest.mark.parametrize("point", sorted(GOLDEN))
def test_open_loop_readouts(point):
    golden = GOLDEN[point]
    experiment = ExperimentConfig(
        cluster=ClusterConfig.for_f(1, batch_size=30000, base_timeout=60.0), seed=3
    )
    cluster = DESCluster(experiment, protocol="marlin", crypto_mode="null")
    pool = OpenLoopClients(cluster, rate_tps=golden["rate"], token_weight=64, warmup=5.0)
    cluster.start()
    cluster.sim.schedule(0.01, pool.start)
    cluster.run(until=golden["sim_time"])
    cluster.assert_safety()
    assert {name: repr(value) for name, value in pool.summary().items()} == golden["summary"]
    assert pool.acknowledged_ops == golden["acknowledged_ops"]
    assert len(pool.latency.samples) == golden["samples"]
