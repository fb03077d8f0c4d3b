"""The open-loop (Poisson) load generator."""

from __future__ import annotations

import pytest

from repro.common.config import ClusterConfig, ExperimentConfig
from repro.common.errors import ConfigError
from repro.harness.des_runtime import DESCluster
from repro.harness.workload import OpenLoopClients
from tests.helpers import assert_replies_in_flight


def run_rate(rate: float, sim_time: float = 20.0, **kwargs):
    experiment = ExperimentConfig(
        cluster=ClusterConfig.for_f(1, batch_size=30000, base_timeout=60.0), seed=3
    )
    cluster = DESCluster(experiment, protocol="marlin", crypto_mode="null")
    pool = OpenLoopClients(cluster, rate_tps=rate, token_weight=64, warmup=5.0, **kwargs)
    cluster.start()
    cluster.sim.schedule(0.01, pool.start)
    cluster.run(until=sim_time)
    cluster.assert_safety()
    return cluster, pool


class TestOpenLoop:
    def test_delivers_offered_load_below_saturation(self):
        _, pool = run_rate(20_000)
        assert pool.summary()["throughput_tps"] == pytest.approx(20_000, rel=0.08)
        assert pool.summary()["mean_latency"] < 0.6

    def test_rate_conservation(self):
        _, pool = run_rate(10_000)
        # generated = acknowledged + backlog (nothing lost or duplicated).
        assert pool.generated_ops == pool.acknowledged_ops + pool.backlog_ops

    def test_reply_table_holds_only_blocks_in_flight(self):
        cluster, pool = run_rate(20_000)
        assert_replies_in_flight(cluster, pool)

    def test_latency_grows_with_offered_load(self):
        _, low = run_rate(5_000)
        _, high = run_rate(40_000)
        assert high.summary()["mean_latency"] > low.summary()["mean_latency"]

    def test_overload_builds_backlog(self):
        """Offering far beyond the saturation point must queue, not crash."""
        _, pool = run_rate(200_000, sim_time=15.0)
        assert pool.backlog_ops > 50_000
        # The system still makes progress at its capacity.
        assert pool.completed_ops > 100_000

    def test_invalid_parameters(self):
        experiment = ExperimentConfig(cluster=ClusterConfig.for_f(1))
        cluster = DESCluster(experiment, protocol="marlin", crypto_mode="null")
        with pytest.raises(ConfigError):
            OpenLoopClients(cluster, rate_tps=0)
        with pytest.raises(ConfigError):
            OpenLoopClients(cluster, rate_tps=10, target="moon")

    def test_open_and_closed_loop_agree_at_light_load(self):
        """Both methodologies must measure the same uncongested latency."""
        from repro.harness.workload import ClosedLoopClients

        _, open_pool = run_rate(2_000)
        experiment = ExperimentConfig(
            cluster=ClusterConfig.for_f(1, batch_size=30000, base_timeout=60.0), seed=3
        )
        cluster = DESCluster(experiment, protocol="marlin", crypto_mode="null")
        closed = ClosedLoopClients(cluster, num_clients=640, token_weight=64, warmup=5.0)
        cluster.start()
        cluster.sim.schedule(0.01, closed.start)
        cluster.run(until=20.0)
        open_lat = open_pool.summary()["mean_latency"]
        closed_lat = closed.summary()["mean_latency"]
        assert open_lat == pytest.approx(closed_lat, rel=0.35)
