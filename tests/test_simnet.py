"""The simulated network: latency, shaping, partitions, accounting."""

from __future__ import annotations

import pytest

from repro.common.config import NetworkProfile
from repro.common.errors import UnknownPeer
from repro.des.simulator import Simulator
from repro.network.simnet import SimNetwork


def make_net(sim: Simulator, **profile_kwargs) -> SimNetwork:
    defaults = dict(one_way_latency=0.040, bandwidth_bps=1e9, nic_bps=1e10, jitter=0.0)
    defaults.update(profile_kwargs)
    return SimNetwork(sim, NetworkProfile(**defaults))


class Sink:
    def __init__(self) -> None:
        self.received: list[tuple[float, int, object]] = []

    def handler(self, sim: Simulator):
        def handle(src: int, payload: object) -> None:
            self.received.append((sim.now, src, payload))

        return handle


class TestDelivery:
    def test_latency_applied(self):
        sim = Simulator()
        net = make_net(sim)
        sink = Sink()
        net.register(0, sink.handler(sim))
        net.register(1, sink.handler(sim))
        net.send(0, 1, "hello")
        sim.run()
        assert len(sink.received) == 1
        when, src, payload = sink.received[0]
        assert src == 0 and payload == "hello"
        assert when == pytest.approx(0.040, abs=1e-3)

    def test_loopback_fast(self):
        sim = Simulator()
        net = make_net(sim)
        sink = Sink()
        net.register(0, sink.handler(sim))
        net.send(0, 0, "self")
        sim.run()
        assert sink.received[0][0] < 1e-3

    def test_unknown_destination(self):
        sim = Simulator()
        net = make_net(sim)
        net.register(0, lambda s, p: None)
        with pytest.raises(UnknownPeer):
            net.send(0, 9, "x")

    def test_fifo_per_link(self):
        sim = Simulator()
        net = make_net(sim)
        sink = Sink()
        net.register(0, sink.handler(sim))
        net.register(1, sink.handler(sim))
        for i in range(10):
            net.send(0, 1, i)
        sim.run()
        assert [p for _, _, p in sink.received] == list(range(10))


class TestBatchedDelivery:
    """Same-instant deliveries on one link share one heap event but are
    still counted (and delivered) individually."""

    def test_burst_coalesces_heap_events_but_counts_each_delivery(self):
        sim = Simulator()
        net = make_net(sim)
        sink = Sink()
        net.register(0, sink.handler(sim))
        net.register(1, sink.handler(sim))
        net.set_unshaped(0)  # constant latency: one arrival instant
        for i in range(10):
            net.send(0, 1, i)
        assert sim.pending == 1  # ten deliveries, one scheduled drain
        sim.run()
        assert [p for _, _, p in sink.received] == list(range(10))
        assert sim.events_processed == 10  # deliveries counted individually

    def test_loopback_burst_coalesces(self):
        sim = Simulator()
        net = make_net(sim)
        sink = Sink()
        net.register(0, sink.handler(sim))
        for i in range(5):
            net.send(0, 0, i)
        assert sim.pending == 1
        sim.run()
        assert [p for _, _, p in sink.received] == list(range(5))
        assert sim.events_processed == 5

    def test_distinct_links_not_coalesced(self):
        sim = Simulator()
        net = make_net(sim)
        sink = Sink()
        for i in range(3):
            net.register(i, sink.handler(sim))
        net.set_unshaped(0)
        net.send(0, 1, "a")
        net.send(0, 2, "b")
        assert sim.pending == 2
        sim.run()
        assert sim.events_processed == 2

    def test_later_send_opens_new_batch(self):
        sim = Simulator()
        net = make_net(sim)
        sink = Sink()
        net.register(0, sink.handler(sim))
        net.register(1, sink.handler(sim))
        net.set_unshaped(0)
        net.send(0, 1, "early")
        sim.schedule(0.010, lambda: net.send(0, 1, "late"))
        sim.run()
        assert [p for _, _, p in sink.received] == ["early", "late"]
        times = [t for t, _, _ in sink.received]
        assert times[0] != times[1]

    def test_metrics_and_taps_see_every_delivery(self):
        sim = Simulator()
        net = make_net(sim)
        seen = []
        net.register(0, lambda s, p: None)
        net.register(1, lambda s, p: None)
        net.set_unshaped(0)
        net.add_tap(lambda env: seen.append(env.payload))
        for i in range(4):
            net.send(0, 1, i)
        sim.run()
        assert seen == [0, 1, 2, 3]


class TestBandwidth:
    def test_link_serialisation_delay(self):
        # 1 MB at 8 Mbps link = 1 second of serialisation.
        sim = Simulator()
        net = make_net(sim, bandwidth_bps=8e6)
        sink = Sink()
        net.register(0, sink.handler(sim))
        net.register(1, sink.handler(sim))

        class Big:
            wire_size = 1_000_000

        net.send(0, 1, Big())
        sim.run()
        assert sink.received[0][0] == pytest.approx(1.0 + 0.040, rel=0.02)

    def test_nic_shared_across_destinations(self):
        # Broadcasting two 1 MB messages through an 8 Mbps NIC serialises
        # them back to back: the second arrives ~1 s after the first.
        sim = Simulator()
        net = make_net(sim, bandwidth_bps=1e12, nic_bps=8e6)
        sink = Sink()
        net.register(0, sink.handler(sim))
        net.register(1, sink.handler(sim))
        net.register(2, sink.handler(sim))

        class Big:
            wire_size = 1_000_000

        net.send(0, 1, Big())
        net.send(0, 2, Big())
        sim.run()
        times = sorted(t for t, _, _ in sink.received)
        assert times[1] - times[0] == pytest.approx(1.0, rel=0.02)

    def test_unshaped_endpoint_skips_queues(self):
        sim = Simulator()
        net = make_net(sim, bandwidth_bps=8e6, nic_bps=8e6)
        sink = Sink()
        net.register(0, sink.handler(sim))
        net.register(1, sink.handler(sim))
        net.set_unshaped(0)

        class Big:
            wire_size = 1_000_000

        net.send(0, 1, Big())
        sim.run()
        assert sink.received[0][0] == pytest.approx(0.040, abs=1e-3)


class TestFaults:
    def test_cut_and_heal(self):
        sim = Simulator()
        net = make_net(sim)
        sink = Sink()
        net.register(0, sink.handler(sim))
        net.register(1, sink.handler(sim))
        net.cut(0, 1)
        net.send(0, 1, "lost")
        sim.run()
        assert sink.received == []
        assert net.stats.dropped == 1
        net.heal(0, 1)
        net.send(0, 1, "found")
        sim.run()
        assert [p for _, _, p in sink.received] == ["found"]

    def test_partition(self):
        sim = Simulator()
        net = make_net(sim)
        sink = Sink()
        for i in range(4):
            net.register(i, sink.handler(sim))
        net.partition([0, 1], [2, 3])
        net.send(0, 2, "x")
        net.send(3, 1, "y")
        net.send(0, 1, "ok")
        sim.run()
        assert [p for _, _, p in sink.received] == ["ok"]
        net.heal_all()
        net.send(0, 2, "back")
        sim.run()
        assert sink.received[-1][2] == "back"

    def test_loss_rate(self):
        sim = Simulator(seed=1)
        net = make_net(sim, loss_rate=0.5)
        sink = Sink()
        net.register(0, sink.handler(sim))
        net.register(1, sink.handler(sim))
        for _ in range(200):
            net.send(0, 1, "m")
        sim.run()
        assert 40 < len(sink.received) < 160


class TestAccounting:
    def test_stats_counts(self):
        sim = Simulator()
        net = make_net(sim)
        net.register(0, lambda s, p: None)
        net.register(1, lambda s, p: None)
        net.send(0, 1, "a")
        net.send(0, 1, "b")
        assert net.stats.messages == 2
        assert net.stats.bytes > 0
        assert net.stats.per_pair[(0, 1)] == 2

    def test_stats_per_pair_bytes(self):
        sim = Simulator()
        net = make_net(sim)
        net.register(0, lambda s, p: None)
        net.register(1, lambda s, p: None)
        net.send(0, 1, "a")
        net.send(0, 1, "b")
        net.send(1, 0, "c")
        # Byte counters mirror the message counters per directed link and
        # sum to the aggregate.
        assert set(net.stats.per_pair_bytes) == set(net.stats.per_pair)
        assert net.stats.per_pair_bytes[(0, 1)] > net.stats.per_pair_bytes[(1, 0)]
        assert sum(net.stats.per_pair_bytes.values()) == net.stats.bytes

    def test_stable_leader_links_are_star_shaped(self):
        """Per-link bytes under a stable leader (marlin, f = 1, steady state).

        The leader proposes to every follower, every follower votes back
        to the leader, and followers never talk to each other; proposal
        links carry the batches, vote links only constant-size votes.
        """
        from repro.common.config import ClusterConfig, ExperimentConfig
        from repro.harness.des_runtime import DESCluster
        from repro.harness.workload import ClosedLoopClients

        config = ClusterConfig.for_f(1, batch_size=400, base_timeout=60.0)
        cluster = DESCluster(
            ExperimentConfig(cluster=config, seed=6), protocol="marlin", crypto_mode="null"
        )
        pool = ClosedLoopClients(cluster, num_clients=256, token_weight=2, warmup=2.0)
        cluster.start()
        cluster.sim.schedule(0.01, pool.start)
        cluster.sim.schedule(2.0, cluster.network.reset_stats)  # drop boot traffic
        cluster.run(until=10.0)
        cluster.assert_safety()
        stats = cluster.network.stats
        n = config.num_replicas
        pairs = {
            (src, dst): (stats.per_pair[(src, dst)], stats.per_pair_bytes[(src, dst)])
            for src, dst in stats.per_pair
            # Replica-to-replica links only: skip the client hub and the
            # loopback delivery of a replica's own broadcasts.
            if src < n and dst < n and src != dst
        }
        leader = 0  # replica 0 leads view 1 and is never deposed here
        assert {pair for pair in pairs if pair[0] == leader} == {
            (leader, dst) for dst in range(1, n)
        }
        assert {pair for pair in pairs if pair[0] != leader} == {
            (src, leader) for src in range(1, n)
        }
        vote_bytes_per_msg = max(
            nbytes / msgs for (src, _), (msgs, nbytes) in pairs.items() if src != leader
        )
        proposal_bytes_per_msg = min(
            nbytes / msgs for (src, _), (msgs, nbytes) in pairs.items() if src == leader
        )
        assert proposal_bytes_per_msg > vote_bytes_per_msg * 10

    def test_sizer_fallback_counted_and_warned_once(self, caplog):
        import logging

        from repro.network.message import WireSizer

        class Mystery:
            pass

        sizer = WireSizer()
        with caplog.at_level(logging.WARNING, logger="repro.network.sizer"):
            for _ in range(3):
                sizer.size_of(Mystery())  # fresh object defeats the memo
        assert sizer.fallback_count == 3
        assert sizer.fallback_types == {"Mystery": 3}
        warnings_seen = [r for r in caplog.records if "Mystery" in r.getMessage()]
        assert len(warnings_seen) == 1  # warned once per type, not per payload

    def test_sizer_fallback_counter_binding(self):
        from repro.network.message import WireSizer

        class Counter:
            value = 0

            def inc(self) -> None:
                self.value += 1

        class Mystery:
            pass

        sizer = WireSizer()
        counter = Counter()
        sizer.bind_fallback_counter(counter)
        sizer.size_of(Mystery())
        sizer.size_of(Mystery())
        assert counter.value == 2

    def test_cluster_binds_sizer_fallback_counter(self):
        from repro.common.config import ClusterConfig, ExperimentConfig
        from repro.harness.des_runtime import DESCluster
        from repro.obs.observer import RunObservability

        obs = RunObservability(trace=False)
        cluster = DESCluster(
            ExperimentConfig(cluster=ClusterConfig.for_f(1), seed=1),
            protocol="marlin",
            crypto_mode="null",
            observability=obs,
        )
        assert cluster.network._sizer._fallback_counter is not None

        class Mystery:
            pass

        cluster.network._sizer.size_of(Mystery())
        assert cluster.network._sizer._fallback_counter.value == 1

    def test_recording_toggle(self):
        sim = Simulator()
        net = make_net(sim)
        net.register(0, lambda s, p: None)
        net.register(1, lambda s, p: None)
        net.set_recording(False)
        net.send(0, 1, "a")
        assert net.stats.messages == 0

    def test_tap_sees_deliveries(self):
        sim = Simulator()
        net = make_net(sim)
        seen = []
        net.register(0, lambda s, p: None)
        net.register(1, lambda s, p: None)
        net.add_tap(lambda env: seen.append(env.payload))
        net.send(0, 1, "x")
        sim.run()
        assert seen == ["x"]

    def test_extra_link_latency(self):
        sim = Simulator()
        net = make_net(sim)
        sink = Sink()
        net.register(0, sink.handler(sim))
        net.register(1, sink.handler(sim))
        net.link(0, 1).extra_latency = 0.5
        net.send(0, 1, "slow")
        sim.run()
        assert sink.received[0][0] == pytest.approx(0.540, abs=1e-2)
