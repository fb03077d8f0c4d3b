"""Closed-loop clients, metrics, and op conservation."""

from __future__ import annotations

import random

import pytest

from repro.common.config import ClusterConfig, ExperimentConfig, NetworkProfile
from repro.common.errors import ConfigError
from repro.common.utils import chunked, mean, percentile
from repro.harness.des_runtime import DESCluster
from repro.harness.metrics import LatencyRecorder, RunResult, ThroughputMeter
from repro.consensus.messages import ReplyBatch
from repro.harness import workload
from repro.harness.scenarios import _experiment
from repro.harness.workload import ClosedLoopClients
from tests.helpers import assert_replies_in_flight


class TestLatencyRecorder:
    def test_mean_weighted(self):
        rec = LatencyRecorder()
        rec.record(1.0, 0.1, weight=1)
        rec.record(2.0, 0.3, weight=3)
        assert rec.mean() == pytest.approx(0.25)
        assert rec.count == 4

    def test_window_filters(self):
        rec = LatencyRecorder(window_start=5.0, window_end=10.0)
        rec.record(1.0, 0.1)
        rec.record(6.0, 0.2)
        rec.record(11.0, 0.3)
        assert rec.count == 1
        assert rec.mean() == pytest.approx(0.2)

    def test_percentiles(self):
        rec = LatencyRecorder()
        for i in range(100):
            rec.record(1.0, i / 100.0)
        assert rec.p50() == pytest.approx(0.5, abs=0.02)
        assert rec.p99() >= 0.97

    def test_empty(self):
        rec = LatencyRecorder()
        assert rec.mean() == 0.0 and rec.p50() == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_expanded_weight_reference(self, seed):
        rng = random.Random(seed)
        rec = LatencyRecorder()
        for _ in range(rng.randint(1, 400)):
            # Coarse latencies so ties between samples of different
            # weights are common.
            rec.record(rng.random(), rng.randint(0, 50) / 100.0, weight=rng.randint(1, 6))
        expanded = [lat for _, lat, w in rec.samples for _ in range(w)]
        for pct in (0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0):
            assert rec._weighted_percentile(pct) == percentile(expanded, pct)
        assert rec.count == len(expanded)
        assert rec.mean() == pytest.approx(sum(expanded) / len(expanded))
        # Bit-identical to the insertion-order weighted sum.
        assert rec.mean() == sum(lat * w for _, lat, w in rec.samples) / len(expanded)

    def test_readout_follows_record_extend_and_reset(self):
        rec = LatencyRecorder()
        rec.record(1.0, 0.5)
        assert (rec.p50(), rec.count, rec.mean()) == (0.5, 1, 0.5)
        rec.record(2.0, 0.1, weight=3)
        assert (rec.p50(), rec.count, rec.mean()) == (0.1, 4, pytest.approx(0.2))
        rec.samples.extend([(3.0, 0.9, 4)])
        assert (rec.p50(), rec.p99(), rec.count) == (0.5, 0.9, 8)
        rec.reset()
        assert (rec.p50(), rec.count, rec.mean()) == (0.0, 0, 0.0)
        # Same list refilled to the length it had at an earlier readout.
        for when, latency in ((1.0, 0.7), (2.0, 0.8), (3.0, 0.9)):
            rec.record(when, latency)
        rec.p50()
        rec.reset()
        for when, latency in ((1.0, 0.1), (2.0, 0.2), (3.0, 0.3)):
            rec.record(when, latency)
        assert (rec.p50(), rec.p99(), rec.mean()) == (0.2, 0.3, pytest.approx(0.2))


class TestThroughputMeter:
    def test_rate_over_window(self):
        meter = ThroughputMeter()
        meter.record(1.0, 100)
        meter.record(3.0, 100)
        assert meter.throughput() == pytest.approx(100.0)
        assert meter.throughput(duration=4.0) == pytest.approx(50.0)

    def test_window_excludes_warmup(self):
        meter = ThroughputMeter(window_start=2.0)
        meter.record(1.0, 999)
        meter.record(3.0, 10)
        assert meter.ops == 10

    def test_empty(self):
        assert ThroughputMeter().throughput() == 0.0


class TestUtils:
    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile([], 50) == 0.0

    def test_percentile_bounds(self):
        with pytest.raises(ValueError):
            percentile([1.0], 150)

    def test_mean_empty(self):
        assert mean([]) == 0.0

    def test_chunked(self):
        assert [list(c) for c in chunked([1, 2, 3, 4, 5], 2)] == [[1, 2], [3, 4], [5]]
        with pytest.raises(ValueError):
            list(chunked([1], 0))

    def test_run_result_row(self):
        row = RunResult(
            clients=100,
            throughput_tps=12345.0,
            mean_latency=0.1,
            p50_latency=0.1,
            p99_latency=0.2,
            blocks_committed=10,
            sim_time=5.0,
        ).as_row()
        assert "12.35" in row and "100" in row


class TestClosedLoopClients:
    def _cluster(self, **kwargs):
        experiment = ExperimentConfig(
            cluster=ClusterConfig.for_f(1, batch_size=100),
            network=NetworkProfile.lan(),
            seed=3,
        )
        return DESCluster(experiment, protocol="marlin", crypto_mode="null", **kwargs)

    def test_in_flight_never_exceeds_population(self):
        cluster = self._cluster()
        pool = ClosedLoopClients(cluster, num_clients=10, token_weight=1)
        cluster.start()
        cluster.sim.schedule(0.01, pool.start)
        cluster.run(until=2.0)
        outstanding = len(pool._submit_time)
        assert outstanding <= pool.num_tokens
        assert pool.completed_ops > 0

    def test_token_weight_scales_ops(self):
        cluster = self._cluster()
        pool = ClosedLoopClients(cluster, num_clients=40, token_weight=10)
        assert pool.num_tokens == 4
        cluster.start()
        cluster.sim.schedule(0.01, pool.start)
        cluster.run(until=2.0)
        assert pool.completed_ops % 10 == 0
        assert pool.completed_ops > 0

    def test_acks_require_f_plus_one(self):
        cluster = self._cluster()
        pool = ClosedLoopClients(cluster, num_clients=4, token_weight=1)
        cluster.start()
        cluster.sim.schedule(0.01, pool.start)
        cluster.run(until=1.0)
        # Latency samples only exist for ops with >= f+1 replica replies.
        assert pool.latency.count == pool.completed_ops

    def test_noop_workload(self):
        cluster = self._cluster()
        pool = ClosedLoopClients(cluster, num_clients=8, token_weight=1, request_size=0, reply_size=0)
        cluster.start()
        cluster.sim.schedule(0.01, pool.start)
        cluster.run(until=2.0)
        assert pool.completed_ops > 0

    def test_reply_table_holds_only_blocks_in_flight(self):
        cluster = self._cluster()
        pool = ClosedLoopClients(cluster, num_clients=64, token_weight=1)
        cluster.start()
        cluster.sim.schedule(0.01, pool.start)
        cluster.run(until=3.0)
        assert pool.completed_ops > 0
        assert_replies_in_flight(cluster, pool)

    @pytest.mark.parametrize("protocol", ["marlin", "hotstuff", "fast-hotstuff"])
    def test_reply_table_after_leader_crash_is_bounded(self, protocol):
        """The crashed leader never replies again, so each block committed
        after the crash may stay in the table, and nothing else does."""
        cluster = DESCluster(
            _experiment(1, seed=1, batch=16, base_timeout=0.5),
            protocol=protocol,
            crypto_mode="null",
        )
        pool = ClosedLoopClients(cluster, num_clients=64, token_weight=1, target="all")
        cluster.start()
        cluster.sim.schedule(0.01, pool.start)
        cluster.crash_at(0, 1.0)
        cluster.run(until=4.0)
        after_crash = {digest for _, _, digest, when in cluster.auditor.commits if when > 1.0}
        assert after_crash
        assert len(pool._replying) <= len(after_crash)

    @pytest.mark.parametrize("target", ["leader", "all"])
    @pytest.mark.parametrize("crash", [False, True], ids=["steady", "leader-crash"])
    def test_certified_sequences_are_dense_from_zero(self, monkeypatch, target, crash):
        """Each release submits the certified sequence plus one, so every
        client's certificates arrive in order 0, 1, 2, ... with no gap."""
        certified: list[tuple[int, int]] = []

        def recording(pool, batch):
            keys = acknowledge(pool, batch)
            certified.extend(keys)
            return keys

        acknowledge = workload._acknowledge
        monkeypatch.setattr(workload, "_acknowledge", recording)
        cluster = DESCluster(
            _experiment(1, seed=1, batch=16, base_timeout=0.5),
            protocol="marlin",
            crypto_mode="null",
        )
        pool = ClosedLoopClients(cluster, num_clients=24, token_weight=2, target=target)
        cluster.start()
        cluster.sim.schedule(0.01, pool.start)
        if crash:
            cluster.crash_at(0, 1.0)
        cluster.run(until=3.0)
        by_client: dict[int, list[int]] = {}
        for client_id, seq in certified:
            by_client.setdefault(client_id, []).append(seq)
        assert set(by_client) == set(pool.client_ids)
        for seqs in by_client.values():
            assert seqs == list(range(len(seqs)))
        assert len(certified) * pool.token_weight >= pool.completed_ops > 0
        # The outstanding request of each client is the next one.
        for client_id, seq in pool._submit_time:
            assert seq == len(by_client[client_id])

    def test_hub_reply_batches_carry_no_digests(self):
        cluster = self._cluster()
        pool = ClosedLoopClients(cluster, num_clients=16, token_weight=1)
        batches: list[ReplyBatch] = []
        cluster.network.add_tap(
            lambda envelope: isinstance(envelope.payload, ReplyBatch)
            and batches.append(envelope.payload)
        )
        cluster.start()
        cluster.sim.schedule(0.01, pool.start)
        cluster.run(until=1.0)
        assert batches and pool.completed_ops > 0
        assert all(batch.result_digests == () and batch.op_keys for batch in batches)

    def test_invalid_parameters(self):
        cluster = self._cluster()
        with pytest.raises(ConfigError):
            ClosedLoopClients(cluster, num_clients=0)
        with pytest.raises(ConfigError):
            ClosedLoopClients(cluster, num_clients=4, target="nowhere")

    def test_summary_keys(self):
        cluster = self._cluster()
        pool = ClosedLoopClients(cluster, num_clients=4, token_weight=1)
        cluster.start()
        cluster.sim.schedule(0.01, pool.start)
        cluster.run(until=1.0)
        summary = pool.summary()
        assert set(summary) == {"throughput_tps", "mean_latency", "p50_latency", "p99_latency"}
        assert summary["mean_latency"] > 0
