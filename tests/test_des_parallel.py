"""The process-parallel sharded engine is byte-identical to the serial one.

Three engines must agree on a G=4 sharded run:

* the serial :class:`~repro.shard.ShardedCluster` (one shared simulator);
* the decomposed engine running every group task in-process (``jobs=1``);
* the decomposed engine across spawn worker processes (``jobs=4``).

"Agree" means byte-identity: commit-trace SHA-256, per-group simulator
event counts, merged latency samples, journey blobs and the waterfall
reconciliation — not approximate equality.  The suite runs the spawn
paths sparingly (worker boot costs real seconds) and leans on the
``jobs=1`` path, which runs the identical group task inline.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict

import pytest

from repro.api import Scenario, latency_breakdown, load_point, throughput_curve
from repro.common.config import ClusterConfig, ExperimentConfig
from repro.common.encoding import encode
from repro.common.errors import ConfigError
from repro.harness.workload import ShardedClosedLoopClients
from repro.shard.cluster import ShardedCluster
from repro.shard.config import ShardConfig
from repro.shard.parallel import ParallelShardedCluster


def _experiment(seed: int = 7) -> ExperimentConfig:
    return ExperimentConfig(
        cluster=ClusterConfig.for_f(1, base_timeout=120.0, max_timeout=240.0),
        seed=seed,
    )


def _shard(seed: int = 7) -> ShardConfig:
    return ShardConfig(shards=4, router_seed=seed)


def trace_sha(trace: list) -> str:
    return hashlib.sha256(encode(trace)).hexdigest()


def run_serial(protocol: str, seed: int = 7):
    sharded = ShardedCluster(
        _experiment(seed), shard=_shard(seed), protocol=protocol, crypto_mode="null"
    )
    pool = ShardedClosedLoopClients(
        sharded, num_clients=64, token_weight=1, warmup=1.0
    )
    sharded.start()
    sharded.sim.schedule(0.01, pool.start)
    sharded.run(until=5.0)
    sharded.assert_safety()
    return sharded, pool


def run_parallel(protocol: str, jobs: int, seed: int = 7) -> ParallelShardedCluster:
    engine = ParallelShardedCluster(
        _experiment(seed),
        shard=_shard(seed),
        protocol=protocol,
        crypto_mode="null",
        jobs=jobs,
    )
    engine.run_workload(num_clients=64, sim_time=5.0, token_weight=1, warmup=1.0)
    return engine


class TestSerialEquivalence:
    """Decomposed jobs=1 engine vs the classic shared-simulator engine."""

    @pytest.mark.parametrize("protocol", ["marlin", "hotstuff", "fast-hotstuff"])
    def test_commit_trace_matches_serial(self, protocol):
        sharded, pool = run_serial(protocol)
        engine = run_parallel(protocol, jobs=1)
        assert trace_sha(engine.commit_trace()) == trace_sha(sharded.commit_trace())
        assert engine.total_ops_committed() == sharded.total_ops_committed()
        assert engine.blocks_committed == sum(
            max(r.stats["blocks_committed"] for r in group.cluster.replicas)
            for group in sharded.groups
        )

    def test_latency_samples_match_serial(self):
        sharded, pool = run_serial("marlin")
        engine = run_parallel("marlin", jobs=1)
        assert (
            engine.merged_latency(window_start=1.0).samples
            == pool.merged_latency().samples
        )


class TestProcessEquivalence:
    """Spawn workers (jobs=4) vs the in-process decomposed run (jobs=1)."""

    @pytest.mark.parametrize("protocol", ["marlin", "hotstuff", "fast-hotstuff"])
    def test_jobs4_matches_jobs1(self, protocol):
        one = run_parallel(protocol, jobs=1)
        four = run_parallel(protocol, jobs=4)
        assert four.per_group_events() == one.per_group_events()
        assert trace_sha(four.commit_trace()) == trace_sha(one.commit_trace())
        assert four.merged_latency().samples == one.merged_latency().samples

    def test_excess_jobs_clamped_to_groups(self):
        engine = ParallelShardedCluster(
            _experiment(), shard=_shard(), crypto_mode="null", jobs=64
        )
        assert engine.jobs == 4


class TestScenarioWiring:
    """`Scenario(des_jobs=...)` reaches the engine through the facade."""

    def test_load_point_byte_identical(self):
        base = Scenario(
            protocol="marlin", f=1, clients=64, sim_time=5.0, warmup=1.0,
            shards=4, seed=3,
        )
        serial = load_point(base)
        parallel = load_point(base.with_overrides(des_jobs=4))
        assert asdict(parallel) == asdict(serial)
        assert parallel.shards == 4
        assert parallel.per_shard_tps is not None

    def test_waterfall_reconciliation_matches(self):
        base = Scenario(
            protocol="marlin", f=1, clients=64, sim_time=5.0, warmup=1.0,
            shards=4, seed=3,
        )
        serial, serial_journey = latency_breakdown(base, sample_rate=1.0)
        parallel, parallel_journey = latency_breakdown(
            base.with_overrides(des_jobs=4), sample_rate=1.0
        )
        assert parallel.waterfall == serial.waterfall
        assert sorted(parallel_journey._events.items()) == sorted(
            serial_journey._events.items()
        )

    def test_des_jobs_requires_sharding(self):
        with pytest.raises(ConfigError):
            Scenario(des_jobs=4)
        with pytest.raises(ConfigError):
            Scenario(des_jobs=0, shards=4)
        # The engine enforces the same invariant below the facade.
        with pytest.raises(ConfigError):
            ParallelShardedCluster(_experiment(), shard=ShardConfig(shards=1))


class TestNestedPools:
    """A sweep pool whose tasks each start a ``des_jobs`` pool of their own."""

    def test_des_jobs_curve_through_sweep_matches_serial(self):
        scenario = Scenario(
            protocol="marlin", f=1, sim_time=4.0, warmup=1.0, shards=2,
            des_jobs=2, seed=3,
        )
        counts = [32, 64]
        serial = throughput_curve(
            scenario.with_overrides(des_jobs=1), counts, latency_cap=1e9
        )
        fanned = throughput_curve(scenario, counts, latency_cap=1e9, jobs=2)
        assert len(serial) == len(counts)
        assert [asdict(point) for point in fanned] == [
            asdict(point) for point in serial
        ]
