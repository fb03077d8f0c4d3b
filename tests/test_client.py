"""The client subsystem: sessions, reply certificates, dedup, reads.

Unit tests drive the sans-io pieces (collector, tracker, session table,
session) directly; integration tests run real protocol clients over the
DES and over the asyncio runtime, including the adversarial cases the
subsystem exists for — forged replies, duplicate delivery, and leader
changes mid-request.
"""

from __future__ import annotations

import asyncio
from collections import Counter

import pytest

from repro.client import (
    ClientConfig,
    ClientService,
    ClientSession,
    LeaderTracker,
    ReplyCollector,
    SessionTable,
    result_digest_of,
)
from repro.common.errors import ConfigError, EncodingError
from repro.consensus.context import LocalContext
from repro.consensus.messages import ClientReply, ClientRequest, ReadReply
from repro.crypto.hashing import digest_of


def reply(client=9, seq=1, replica=0, result=b"", digest=None, view=1):
    return ClientReply(
        client_id=client,
        sequence=seq,
        replica=replica,
        result=result,
        result_digest=digest
        if digest is not None
        else result_digest_of(client, seq, result),
        view=view,
    )


class TestResultDigest:
    """``result_digest_of`` hashes the reply encoding without building it;
    the generic encoder is the reference."""

    @pytest.mark.parametrize("result", [b"", b"ok", bytes(range(256)) + b"x" * 44])
    @pytest.mark.parametrize(
        "client_id, sequence",
        [(0, 0), (9, 1), (-1, -(2**63)), (2**63 - 1, 2**63 - 1), (-7, 12345)],
    )
    def test_matches_canonical_encoding(self, client_id, sequence, result):
        assert result_digest_of(client_id, sequence, result) == digest_of(
            ["reply", client_id, sequence, result]
        )

    @pytest.mark.parametrize("client_id, sequence", [(2**63, 1), (1, -(2**63) - 1)])
    def test_out_of_range_integer_raises(self, client_id, sequence):
        with pytest.raises(EncodingError):
            digest_of(["reply", client_id, sequence, b""])
        with pytest.raises(EncodingError):
            result_digest_of(client_id, sequence, b"")


class TestClientConfig:
    def test_defaults_valid(self):
        config = ClientConfig()
        assert config.mode == "hub" and config.reads == "commit"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "fake"},
            {"reads": "dirty"},
            {"retry_timeout": 0.0},
            {"backoff": 0.5},
            {"max_backoff": 0.1},
            {"jitter": -0.1},
            {"lease_duration": -1.0},
            {"coalesce": -0.001},
            {"max_inflight": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            ClientConfig(**kwargs)


class TestReplyCollector:
    def test_certifies_at_f_plus_one_matching(self):
        collector = ReplyCollector(f=1)
        digest = result_digest_of(9, 1, b"r")
        assert collector.add(9, 1, 0, digest, view=1, result=b"r") is None
        cert = collector.add(9, 1, 2, digest, view=1, result=b"r")
        assert cert is not None
        assert cert.replicas == frozenset({0, 2})
        assert cert.result_digest == digest
        assert cert.result == b"r"

    def test_forged_minority_never_certifies(self):
        # f colluding forgers agree on a forged digest; that is still one
        # reply short of a certificate, forever.
        collector = ReplyCollector(f=1)
        forged = digest_of("forged")
        assert collector.add(9, 1, 3, forged, view=1) is None
        honest = result_digest_of(9, 1, b"")
        assert collector.add(9, 1, 0, honest, view=1) is None
        cert = collector.add(9, 1, 1, honest, view=1)
        assert cert is not None
        assert cert.result_digest == honest
        assert 3 not in cert.replicas
        assert collector.mismatches >= 1

    def test_one_vote_per_replica(self):
        # A replica re-sending a different digest cannot vote twice.
        collector = ReplyCollector(f=1)
        a, b = digest_of("a"), digest_of("b")
        assert collector.add(9, 1, 0, a, view=1) is None
        assert collector.add(9, 1, 0, b, view=1) is None  # contradiction
        assert collector.mismatches == 1
        assert collector.add(9, 1, 0, a, view=1) is None  # still one vote

    def test_certifies_once(self):
        collector = ReplyCollector(f=1)
        digest = result_digest_of(9, 1, b"")
        collector.add(9, 1, 0, digest, view=1)
        assert collector.add(9, 1, 1, digest, view=1) is not None
        assert collector.add(9, 1, 2, digest, view=1) is None

    def test_certificate_view_is_max_matching(self):
        collector = ReplyCollector(f=1)
        digest = result_digest_of(9, 1, b"")
        collector.add(9, 1, 0, digest, view=2)
        cert = collector.add(9, 1, 1, digest, view=3)
        assert cert.view == 3

    def test_sequential_certifications_keep_one_run(self):
        # State is O(outstanding requests): no tally outlives its
        # certificate, and a dense stream of closed keys is one run.
        collector = ReplyCollector(f=1)
        for seq in range(1, 10_001):
            digest = result_digest_of(9, seq, b"")
            assert collector.add(9, seq, 0, digest, view=1) is None
            assert collector.add(9, seq, 1, digest, view=1) is not None
        assert collector._votes == {}
        assert collector._certified._runs == {9: [1, 10_001]}
        assert not collector._certified._sparse

    def test_late_duplicate_after_certification_is_ignored(self):
        collector = ReplyCollector(f=1)
        digest = result_digest_of(9, 1, b"")
        collector.add(9, 1, 0, digest, view=1)
        assert collector.add(9, 1, 1, digest, view=1) is not None
        assert collector.add(9, 1, 1, digest, view=1) is None
        assert collector.add(9, 1, 2, digest_of("other"), view=1) is None
        assert collector.pending() == 0
        assert collector.mismatches == 0

    def test_only_a_different_digest_is_a_mismatch(self):
        collector = ReplyCollector(f=2)
        digest = result_digest_of(9, 1, b"")
        collector.add(9, 1, 0, digest, view=1)
        collector.add(9, 1, 0, digest, view=2)  # same story, resent
        collector.add(9, 1, 1, digest, view=1)
        assert collector.mismatches == 0
        collector.add(9, 1, 3, digest_of("forged"), view=1)
        assert collector.mismatches == 0  # counted when the request certifies
        assert collector.add(9, 1, 2, digest, view=1) is not None
        assert collector.mismatches == 1

    def test_two_outstanding_certify_out_of_order_once_each(self):
        collector = ReplyCollector(f=1)
        first, second = result_digest_of(9, 1, b""), result_digest_of(9, 2, b"")
        assert collector.add(9, 1, 0, first, view=1) is None
        assert collector.add(9, 2, 0, second, view=1) is None
        certs = [
            collector.add(9, 2, 1, second, view=1),
            collector.add(9, 1, 2, first, view=1),
            collector.add(9, 2, 2, second, view=1),
            collector.add(9, 1, 1, first, view=1),
        ]
        assert [(c.sequence, c.replicas) for c in certs if c is not None] == [
            (2, frozenset({0, 1})),
            (1, frozenset({0, 2})),
        ]
        assert collector.pending() == 0
        assert (9, 1) in collector._certified and (9, 2) in collector._certified

    def test_discarded_request_ignores_later_replies(self):
        collector = ReplyCollector(f=1)
        digest = result_digest_of(9, 1, b"")
        collector.add(9, 1, 0, digest, view=1)
        collector.discard(9, 1)
        assert collector.pending() == 0
        assert collector.add(9, 1, 1, digest, view=1) is None


class TestLeaderTracker:
    def test_routes_to_believed_leader(self):
        tracker = LeaderTracker(num_replicas=4)
        assert tracker.target() == tracker.leader_of(1) == 0

    def test_observe_advances_view(self):
        tracker = LeaderTracker(num_replicas=4)
        assert tracker.observe(3)
        assert tracker.target() == tracker.leader_of(3) == 2
        assert not tracker.observe(2)  # views never go backward
        assert tracker.view == 3

    def test_timeout_falls_back_to_broadcast(self):
        tracker = LeaderTracker(num_replicas=4)
        tracker.on_timeout()
        assert tracker.target() == LeaderTracker.BROADCAST

    def test_certification_restores_unicast(self):
        tracker = LeaderTracker(num_replicas=4)
        tracker.on_timeout()
        tracker.on_certified(2)
        assert tracker.target() == 1


class TestSessionTable:
    def test_records_and_replays(self):
        table = SessionTable()
        digest = result_digest_of(9, 1, b"r")
        table.record(9, 1, b"r", digest)
        assert table.committed(9, 1)
        assert table.cached_reply(9, 1) == (b"r", digest)
        assert not table.committed(9, 2)

    def test_older_sequences_stay_committed(self):
        table = SessionTable()
        table.record(9, 5, b"r5", digest_of("r5"))
        assert table.committed(9, 3)  # monotonic sequences: 3 < 5 committed
        assert table.cached_reply(9, 3) is None  # but its reply is gone
        table.record(9, 4, b"r4", digest_of("r4"))  # stale record ignored
        assert table.last_sequence(9) == 5


class TestClientSession:
    def make(self, config=None, f=1, n=4):
        ctx = LocalContext(9, n)
        results = []
        session = ClientSession(
            9,
            ctx,
            config or ClientConfig(mode="real"),
            n,
            f,
            on_result=lambda seq, outcome, latency: results.append((seq, outcome)),
        )
        return session, ctx, results

    def test_submit_targets_leader_and_arms_timer(self):
        session, ctx, _ = self.make()
        seq = session.submit(b"op")
        assert seq == 1
        assert ctx.drain() == [(0, ClientRequest(client_id=9, sequence=1, payload=b"op"))]
        assert session._timer_name in ctx.timers

    def test_certificate_completes_request(self):
        session, ctx, results = self.make()
        session.submit(b"op")
        ctx.drain()
        session.on_message(0, reply(replica=0))
        assert results == []
        session.on_message(1, reply(replica=1))
        assert len(results) == 1
        seq, cert = results[0]
        assert seq == 1 and cert.replicas == frozenset({0, 1})
        assert not session.inflight
        assert session._timer_name not in ctx.timers  # idle: timer cancelled

    def test_forged_replies_never_complete(self):
        session, ctx, results = self.make()
        session.submit(b"op")
        ctx.drain()
        session.on_message(3, reply(replica=3, digest=digest_of("forged")))
        session.on_message(0, reply(replica=0))
        assert results == []  # forged + honest disagree: no quorum yet
        session.on_message(1, reply(replica=1))
        assert len(results) == 1
        assert 3 not in results[0][1].replicas
        assert session.collector.mismatches >= 1

    def test_timeout_retransmits_to_all_with_backoff(self):
        session, ctx, _ = self.make(ClientConfig(mode="real", jitter=0.0))
        session.submit(b"op")
        ctx.drain()
        ctx.fire_timer(session._timer_name)
        sends = ctx.drain()
        assert [dst for dst, _ in sends] == [0, 1, 2, 3]
        assert session.retransmits == 1
        assert session.tracker.target() == LeaderTracker.BROADCAST
        deadline, _ = ctx.timers[session._timer_name]
        # Second delay is backed off (2s -> 4s by default).
        assert deadline - ctx.now == pytest.approx(4.0)

    def test_commit_read_orders_a_get(self):
        from repro.common.encoding import encode

        session, ctx, _ = self.make(ClientConfig(mode="real", reads="commit"))
        session.read(b"k")
        sends = ctx.drain()
        assert isinstance(sends[0][1], ClientRequest)
        assert sends[0][1].payload == encode(["get", b"k"])

    def test_lease_read_redirects_once_then_serves(self):
        session, ctx, results = self.make(
            ClientConfig(mode="real", reads="leader-lease")
        )
        seq = session.read(b"k")
        ctx.drain()
        session.on_message(
            2, ReadReply(client_id=9, sequence=seq, replica=2, view=3, ok=False)
        )
        # Redirect re-aims at the leader of the reported view.
        assert ctx.drain()[0][0] == session.tracker.leader_of(3) == 2
        session.on_message(
            2,
            ReadReply(
                client_id=9, sequence=seq, replica=2, view=3, value=b"v", ok=True
            ),
        )
        assert results == [(seq, b"v")]
        assert session.redirects == 1 and session.reads_served == 1

    def test_lease_reads_keep_closed_keys_one_run(self):
        # A lease read spends a sequence number no reply certificate
        # closes; the session closes it so later writes stay in the run.
        session, ctx, results = self.make(
            ClientConfig(mode="real", reads="leader-lease")
        )
        for _ in range(3):
            seq = session.submit(b"op")
            session.on_message(0, reply(seq=seq, replica=0))
            session.on_message(1, reply(seq=seq, replica=1))
            session.read(b"k")
        ctx.drain()
        assert [seq for seq, _ in results] == [1, 3, 5]
        assert session.collector._certified._runs == {9: [1, 7]}
        assert not session.collector._certified._sparse


# ---------------------------------------------------------------------------
# DES integration


def _des_cluster(f=1, seed=1, base_timeout=120.0, protocol="marlin"):
    from repro.harness.des_runtime import DESCluster
    from repro.harness.scenarios import _experiment

    experiment = _experiment(f, seed=seed, base_timeout=base_timeout, max_timeout=240.0)
    return DESCluster(experiment, protocol=protocol, crypto_mode="null")


def _closed_loop_endpoints(cluster, count, config, first_id=None):
    """Closed-loop DES protocol clients: each result releases the next op."""
    from repro.client.runtime import DESClientEndpoint

    n = cluster.experiment.cluster.num_replicas
    first_id = first_id if first_id is not None else n
    endpoints = []
    results: list[tuple[float, int, int]] = []  # (time, client, seq)

    def make_sink(index):
        def sink(seq, outcome, latency):
            results.append((cluster.sim.now, index, seq))
            endpoints[index].session.submit(b"op")

        return sink

    for index in range(count):
        endpoints.append(
            DESClientEndpoint(
                cluster, first_id + index, config, on_result=make_sink(index)
            )
        )
    return endpoints, results


class TestClientDES:
    def test_real_mode_agrees_with_hub(self):
        """Acceptance: same throughput through real clients as the hub model."""
        from repro.harness.workload import ClosedLoopClients

        measured = {}
        for mode in ("hub", "real"):
            cluster = _des_cluster()
            pool = ClosedLoopClients(
                cluster, num_clients=32, token_weight=1, target="leader",
                warmup=3.0, mode=mode,
                client_config=ClientConfig(mode="real") if mode == "real" else None,
            )
            cluster.start()
            cluster.sim.schedule(0.01, pool.start)
            cluster.run(until=8.0)
            cluster.assert_safety()
            measured[mode] = pool.throughput.throughput(duration=5.0)
        assert measured["real"] == pytest.approx(measured["hub"], rel=0.05)

    def test_duplicate_delivery_commits_once(self):
        """A replayed request is answered from cache, never re-committed."""
        cluster = _des_cluster()
        services = [
            ClientService(r, ClientConfig(mode="real")).install()
            for r in cluster.replicas
        ]
        config = ClientConfig(mode="real")
        endpoints, results = _closed_loop_endpoints(cluster, 2, config)
        commits: Counter = Counter()
        cluster.replicas[1].commit_listeners.append(
            lambda block, when: commits.update(
                (op.client_id, op.sequence) for op in block.operations
            )
        )
        cluster.start()
        cluster.sim.schedule(0.05, lambda: [e.session.submit(b"op") for e in endpoints])

        def replay_first_request():
            # Re-deliver client 4's first request, verbatim, to everyone.
            request = ClientRequest(
                client_id=endpoints[0].client_id, sequence=1, payload=b"op"
            )
            for rid in range(4):
                endpoints[0].ctx.send(rid, request)

        cluster.sim.schedule_at(3.0, replay_first_request)
        cluster.run(until=6.0)
        cluster.assert_safety()
        assert results, "clients made no progress"
        assert max(commits.values()) == 1  # no (client, seq) committed twice
        assert sum(s.sessions.replays for s in services) >= 4

    def test_reply_forger_never_certifies(self):
        """Satellite: a forged reply never enters any certificate."""
        from repro.adversary import AdversaryConfig, BehaviorSpec, apply_adversary

        cluster = _des_cluster()
        for replica in cluster.replicas:
            ClientService(replica, ClientConfig(mode="real")).install()
        certificates = []
        config = ClientConfig(mode="real")
        endpoints, _ = _closed_loop_endpoints(cluster, 4, config)
        for endpoint in endpoints:
            inner = endpoint.session.on_result

            def capture(seq, outcome, latency, inner=inner):
                certificates.append(outcome)
                inner(seq, outcome, latency)

            endpoint.session.on_result = capture
        apply_adversary(
            cluster, AdversaryConfig(behaviors=(BehaviorSpec.make("reply-forge", 2),))
        )
        cluster.start()
        cluster.sim.schedule(0.05, lambda: [e.session.submit(b"op") for e in endpoints])
        cluster.run(until=6.0)
        cluster.assert_safety()
        assert len(certificates) > 10
        for cert in certificates:
            assert 2 not in cert.replicas
            assert cert.result_digest == result_digest_of(
                cert.client_id, cert.sequence, b""
            )
        assert sum(e.session.collector.mismatches for e in endpoints) > 0

    def test_view_change_redirection(self):
        """Satellite: clients converge on the new leader after a crash."""
        cluster = _des_cluster(base_timeout=1.0)
        for replica in cluster.replicas:
            ClientService(replica, ClientConfig(mode="real")).install()
        config = ClientConfig(mode="real", retry_timeout=1.0)
        endpoints, results = _closed_loop_endpoints(cluster, 4, config)
        cluster.start()
        cluster.sim.schedule(0.05, lambda: [e.session.submit(b"op") for e in endpoints])
        cluster.crash_at(0, 2.0)
        cluster.run(until=10.0)
        cluster.assert_safety()
        new_view = max(r.cview for r in cluster.replicas[1:])
        assert new_view >= 2
        post_crash = [t for t, _, _ in results if t > 5.0]
        assert post_crash, "no progress after the view change"
        for endpoint in endpoints:
            session = endpoint.session
            # Converged: believed leader matches the cluster, unicast again.
            assert session.tracker.view == new_view
            assert session.tracker.strikes == 0
            assert session.tracker.target() == session.tracker.leader_of(new_view)
            # One outage, a couple of retransmit rounds at most.
            assert 1 <= session.retransmits <= 4

    def test_lease_read_never_served_stale_across_view_change(self):
        """Satellite: a deposed leader cannot serve a leader-lease read.

        Partition the view-1 leader away, keep writing through the new
        leader, and aim a read at the old one.  The old leader's quorum
        check can never complete, so the read is only ever served — with
        fresh state — after redirection to the real leader.
        """
        from repro.client.runtime import DESClientEndpoint

        cluster = _des_cluster(seed=2, base_timeout=1.0)
        read_config = ClientConfig(
            mode="real", reads="leader-lease", retry_timeout=2.5
        )
        for replica in cluster.replicas:
            ClientService(
                replica,
                read_config,
                read_fn=lambda key, r=replica: b"%d" % r.ledger.committed_height,
            ).install()

        writer = DESClientEndpoint(
            cluster, 4, ClientConfig(mode="real", retry_timeout=0.6)
        )
        writer.session.on_result = lambda seq, outcome, latency: writer.session.submit(b"w")
        reads: list[bytes] = []
        reader = DESClientEndpoint(
            cluster, 5, read_config,
            on_result=lambda seq, outcome, latency: reads.append(outcome),
        )

        state = {}
        cluster.start()
        cluster.sim.schedule(0.05, lambda: writer.session.submit(b"w"))

        def isolate_leader():
            state["h0"] = cluster.replicas[0].ledger.committed_height
            cluster.network.partition([0], [1, 2, 3])

        cluster.sim.schedule_at(2.0, isolate_leader)
        cluster.sim.schedule_at(2.05, lambda: reader.session.read(b"k"))
        cluster.sim.schedule_at(5.5, lambda: reader.session.read(b"k"))
        cluster.run(until=9.0)
        cluster.assert_safety()

        # The deposed leader parked the read and never served it.
        assert cluster.replicas[0].client_service.reads_served == 0
        assert reader.session.redirects >= 1
        assert len(reads) == 2
        # The second read (after commits resumed in the new view) must see
        # state past the old leader's frozen height — the stale answer the
        # quorum check exists to prevent.
        assert int(reads[1]) > state["h0"]

    def test_admission_window_sheds_and_recovers(self):
        """Overload sheds beyond max_inflight; backoff retries still land."""
        from repro.harness.workload import ClosedLoopClients

        cluster = _des_cluster()
        pool = ClosedLoopClients(
            cluster, num_clients=16, token_weight=1, target="leader",
            warmup=0.0, mode="real",
            client_config=ClientConfig(mode="real", retry_timeout=1.0, max_inflight=4),
        )
        cluster.start()
        cluster.sim.schedule(0.01, pool.start)
        cluster.run(until=10.0)
        cluster.assert_safety()
        assert pool.shed > 0
        assert pool.certified > 0


# ---------------------------------------------------------------------------
# Asyncio runtime integration


def run(coro):
    return asyncio.run(coro)


async def _wait_all_applied(cluster, count, timeout=10.0):
    deadline = asyncio.get_event_loop().time() + timeout
    while any(node.app.applied < count for node in cluster.nodes if node.alive):
        if asyncio.get_event_loop().time() > deadline:
            raise TimeoutError("replicas never applied the expected ops")
        await asyncio.sleep(0.02)


class TestClientAsyncio:
    def test_local_client_certifies_and_reads(self):
        from repro.runtime.app import KVStateMachine
        from repro.runtime.cluster import LocalCluster

        async def main():
            async with LocalCluster(f=1, protocol="marlin", batch_size=4) as cluster:
                client = cluster.client()
                cert = await client.submit(KVStateMachine.encode_set(b"k", b"v"))
                assert cert.replicas and len(cert.replicas) >= 2
                assert cert.result_digest == result_digest_of(
                    client.client_id, cert.sequence, b""
                )
                read_cert = await client.read(b"k")
                assert read_cert.result == b"v"

        run(main())

    def test_duplicate_delivery_applies_once(self):
        """Satellite: replayed request — applied count and digest unchanged."""
        from repro.runtime.app import KVStateMachine
        from repro.runtime.cluster import LocalCluster

        async def main():
            async with LocalCluster(f=1, protocol="marlin", batch_size=4) as cluster:
                client = cluster.client()
                payload = KVStateMachine.encode_set(b"k", b"v")
                cert = await client.submit(payload)
                await _wait_all_applied(cluster, 1)
                applied_before = [n.app.applied for n in cluster.nodes]
                digests_before = cluster.state_digests()

                request = ClientRequest(
                    client_id=client.client_id, sequence=cert.sequence, payload=payload
                )
                for rid in range(4):
                    client.ctx.send(rid, request)
                await asyncio.sleep(0.3)

                assert [n.app.applied for n in cluster.nodes] == applied_before
                assert cluster.state_digests() == digests_before
                replays = [
                    n.replica.client_service.sessions.replays for n in cluster.nodes
                ]
                assert all(count >= 1 for count in replays)

        run(main())

    def test_view_change_redirection(self):
        """Satellite: the asyncio client re-aims at the post-crash leader."""
        from repro.runtime.cluster import LocalCluster

        async def main():
            async with LocalCluster(
                f=1, protocol="marlin", batch_size=4, base_timeout=0.4
            ) as cluster:
                client = cluster.client(
                    config=ClientConfig(mode="real", retry_timeout=0.5)
                )
                await client.submit(b"")
                cluster.crash(0)
                cert = await client.submit(b"")
                assert cert is not None
                tracker = client.session.tracker
                assert tracker.view >= 2
                assert tracker.strikes == 0
                assert tracker.target() == tracker.leader_of(tracker.view)

        run(main())

    def test_forger_plus_crashed_leader_exactly_once(self):
        """Acceptance: ReplyForger + crashed leader; every request certifies
        exactly once, state digests agree, zero double-applies."""
        from repro.adversary.behaviors import ReplyForger
        from repro.runtime.app import KVStateMachine
        from repro.runtime.cluster import LocalCluster

        async def main():
            async with LocalCluster(
                f=1, protocol="marlin", batch_size=4, base_timeout=0.4
            ) as cluster:
                forger = ReplyForger()
                ctx = cluster.nodes[3].replica.ctx
                original_send = ctx.send
                ctx.send = lambda dst, payload: forger.outbound(
                    0.0, dst, payload, original_send
                )
                cluster.crash(0)

                client = cluster.client(
                    config=ClientConfig(mode="real", retry_timeout=0.5)
                )
                total = 5
                for index in range(total):
                    cert = await client.submit(
                        KVStateMachine.encode_set(b"k%d" % index, b"v")
                    )
                    assert cert.sequence == index + 1
                    assert 3 not in cert.replicas  # forged replies never count

                assert client.session.certified == total
                await _wait_all_applied(cluster, total)
                alive = [n for n in cluster.nodes[1:]]
                assert all(n.app.applied == total for n in alive)  # no double-applies
                digests = {n.app.state_digest() for n in alive}
                assert len(digests) == 1

        run(main())
