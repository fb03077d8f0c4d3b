"""Flight recorder, online auditor, observatory, and audited runs."""

from __future__ import annotations

import asyncio
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.consensus.block import Block, Operation
from repro.harness.audit import audited_run, complexity_sweep
from repro.obs.audit import OnlineAuditor
from repro.obs.complexity import ComplexityObservatory, SlopeFit, fit_loglog_slope
from repro.obs.flight import (
    FlightRecorder,
    decode_blackbox,
    encode_blackbox,
    read_blackbox,
)


class TestFlightRecorder:
    def test_records_in_order(self):
        recorder = FlightRecorder(0, capacity=8)
        recorder.record(0.1, "view", 1)
        recorder.record(0.2, "commit", 1, 1, b"\x01", "3")
        events = recorder.events()
        assert [e.kind for e in events] == ["view", "commit"]
        assert events[1].height == 1 and events[1].digest == b"\x01"
        assert events[0].seq == 0 and events[1].seq == 1

    def test_ring_is_bounded_and_keeps_newest(self):
        recorder = FlightRecorder(0, capacity=4)
        for i in range(10):
            recorder.record(float(i), "view", i)
        assert len(recorder) == 4
        assert recorder.total_recorded == 10
        views = [e.view for e in recorder.events()]
        assert views == [6, 7, 8, 9]
        seqs = [e.seq for e in recorder.events()]
        assert seqs == [6, 7, 8, 9]

    def test_window_filters(self):
        recorder = FlightRecorder(0, capacity=16)
        for i in range(6):
            recorder.record(float(i), "view", i)
        assert [e.view for e in recorder.window(last=2)] == [4, 5]
        assert [e.view for e in recorder.window(since=3.0)] == [3, 4, 5]
        assert [e.view for e in recorder.window(last=2, since=1.0)] == [4, 5]

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(0, capacity=0)

    def test_window_of_zero_is_empty(self):
        recorder = FlightRecorder(0, capacity=4)
        for i in range(6):
            recorder.record(float(i), "view", i)
        assert recorder.window(last=0) == []
        assert recorder.window(last=0, since=0.0) == []

    def test_window_rejects_negative_length(self):
        recorder = FlightRecorder(0, capacity=4)
        recorder.record(0.0, "view", 1)
        with pytest.raises(ValueError):
            recorder.window(last=-1)

    @settings(max_examples=300, deadline=None)
    @given(
        capacity=st.integers(1, 8),
        data=st.data(),
    )
    def test_window_is_filter_then_slice_of_events(self, capacity, data):
        # Counts below, at and above capacity, so the ring wraps.
        count = data.draw(st.integers(0, 3 * capacity), label="count")
        steps = data.draw(st.lists(st.integers(0, 2), min_size=count, max_size=count))
        recorder = FlightRecorder(0, capacity=capacity)
        now = 0.0
        for i, step in enumerate(steps):
            now += step
            recorder.record(now, "view", i)
        last = data.draw(st.none() | st.integers(0, 2 * capacity + 1), label="last")
        since = data.draw(st.none() | st.integers(-1, int(now) + 1).map(float), label="since")
        expected = recorder.events()
        if since is not None:
            expected = [e for e in expected if e.time >= since]
        if last is not None:
            expected = expected[len(expected) - min(last, len(expected)):]
        assert recorder.window(last=last, since=since) == expected


class TestBlackbox:
    def _recorders(self) -> dict[int, FlightRecorder]:
        recorders = {}
        for rid in (1, 0):
            recorder = FlightRecorder(rid, capacity=8)
            recorder.record(0.5 + rid, "view", 1, detail="start")
            recorder.record(1.25 + rid, "commit", 1, 3, bytes([rid]) * 4)
            recorders[rid] = recorder
        return recorders

    def test_roundtrip(self):
        meta = {"protocol": "marlin", "n": 4, "seed": 7}
        payload = encode_blackbox(self._recorders(), meta)
        decoded_meta, per_replica = decode_blackbox(payload)
        assert decoded_meta == meta
        assert sorted(per_replica) == [0, 1]
        events = per_replica[0]
        assert [e.kind for e in events] == ["view", "commit"]
        assert events[1].time == pytest.approx(1.25)
        assert events[1].digest == b"\x00\x00\x00\x00"

    def test_deterministic_bytes(self):
        assert encode_blackbox(self._recorders(), {"n": 4}) == encode_blackbox(
            self._recorders(), {"n": 4}
        )

    def test_rejects_wrong_magic(self):
        from repro.common.encoding import encode

        with pytest.raises(ValueError):
            decode_blackbox(encode(["not-a-blackbox", {}, []]))


class TestOnlineAuditor:
    def _auditor(self) -> OnlineAuditor:
        auditor = OnlineAuditor()
        auditor.configure(4, 3)
        return auditor

    def test_clean_stream_is_ok(self):
        auditor = self._auditor()
        for replica in range(4):
            auditor.on_view_entered(replica, 1, 0.0)
            auditor.on_prepare(replica, b"\x01", 1, 1, 0.1)
            auditor.on_commit(replica, b"\x01", 1, 1, 0.2)
        assert auditor.ok
        assert auditor.events_audited == 12

    def test_conflicting_commit_flagged_once(self):
        auditor = self._auditor()
        auditor.on_commit(0, b"\x01", 1, 1, 0.1)
        auditor.on_commit(1, b"\x02", 1, 1, 0.2)
        auditor.on_commit(2, b"\x02", 1, 1, 0.3)
        kinds = [v.kind for v in auditor.violations]
        assert kinds == ["conflicting-commit"]
        assert auditor.violations[0].severity == "safety"
        assert auditor.violations[0].replicas == (0, 1)

    def test_equivocation_flagged(self):
        auditor = self._auditor()
        auditor.on_prepare(1, b"\x01", 1, 1, 0.1)
        auditor.on_prepare(2, b"\x02", 1, 1, 0.2)
        assert [v.kind for v in auditor.violations] == ["equivocation"]

    def test_non_monotone_view_flagged(self):
        auditor = self._auditor()
        auditor.on_view_entered(0, 3, 0.1)
        auditor.on_view_entered(0, 2, 0.2)
        assert [v.kind for v in auditor.violations] == ["non-monotone-view"]

    def test_duplicate_execution_flagged(self):
        auditor = self._auditor()
        op = Operation(client_id=9, sequence=1, payload=b"x")
        block_a = Block(
            parent_link=None, parent_view=0, view=1, height=1,
            operations=(op,), justify_digest=b"",
        )
        block_b = Block(
            parent_link=None, parent_view=0, view=1, height=2,
            operations=(op,), justify_digest=b"",
        )
        auditor.on_commit_block(0, block_a, 0.1)
        auditor.on_commit_block(0, block_b, 0.2)
        assert [v.kind for v in auditor.violations] == ["duplicate-execution"]

    def test_violation_embeds_recorder_window(self):
        auditor = self._auditor()
        recorder = FlightRecorder(0, capacity=8)
        recorder.record(0.05, "view", 1)
        auditor.recorders = {0: recorder}
        auditor.on_commit(0, b"\x01", 1, 1, 0.1)
        auditor.on_commit(0, b"\x01", 1, 1, 0.2)  # duplicate digest
        (violation,) = auditor.violations
        assert violation.kind == "duplicate-commit"
        window = dict(violation.window)
        assert [e.kind for e in window[0]] == ["view"]
        rendered = violation.to_dict()
        assert rendered["window"]["0"][0]["kind"] == "view"

    @staticmethod
    def _block(height: int, keys, ops: tuple[Operation, ...] = ()) -> Block:
        ops = ops or tuple(Operation(client_id=c, sequence=s, payload=b"x") for c, s in keys)
        return Block(
            parent_link=None, parent_view=0, view=1, height=height,
            operations=ops, justify_digest=b"",
        )

    def test_duplicate_execution_in_op_order_within_a_block(self):
        auditor = self._auditor()
        auditor.on_commit_block(0, self._block(1, [(1, 0), (2, 0)]), 0.1)
        # The same op object twice, between a duplicate and a new key.
        old, new, repeat, late = self._block(2, [(2, 0), (1, 1), (3, 0), (1, 0)]).operations
        auditor.on_commit_block(0, self._block(2, (), (old, new, repeat, repeat, late)), 0.2)
        details = [v.detail for v in auditor.violations]
        assert details == [
            "replica 0 committed client 2 seq 0 twice (deduplicated at execution)",
            "replica 0 committed client 3 seq 0 twice (deduplicated at execution)",
            "replica 0 committed client 1 seq 0 twice (deduplicated at execution)",
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 1),
                st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5)), max_size=6),
            ),
            max_size=8,
        )
    )
    def test_duplicate_execution_matches_a_key_set_walk(self, commits):
        auditor = self._auditor()
        executed: dict[int, set] = {}
        expected: list[str] = []
        for height, (replica, keys) in enumerate(commits, start=1):
            seen = executed.setdefault(replica, set())
            for client, seq in keys:
                detail = (
                    f"replica {replica} committed client {client} seq {seq} "
                    f"twice (deduplicated at execution)"
                )
                if (client, seq) in seen and detail not in expected:
                    expected.append(detail)
                seen.add((client, seq))
            auditor.on_commit_block(replica, self._block(height, keys), float(height))
        assert [v.detail for v in auditor.violations] == expected

    def test_flags_share_a_window_until_the_recorder_moves(self):
        auditor = self._auditor()
        recorder = FlightRecorder(0, capacity=8)
        recorder.record(0.05, "view", 1)
        auditor.recorders = {0: recorder}
        auditor.on_commit_block(0, self._block(1, [(1, 0), (2, 0)]), 0.1)
        auditor.on_commit_block(0, self._block(2, [(1, 0), (2, 0)]), 0.2)
        recorder.record(0.25, "commit", 1, 2, b"\x02", "2")
        auditor.on_commit_block(0, self._block(3, [(1, 0), (3, 0), (3, 0)]), 0.3)
        first, second, third = auditor.violations
        assert dict(first.window)[0] is dict(second.window)[0]
        assert dict(third.window)[0] is not dict(first.window)[0]
        assert [e.kind for e in dict(third.window)[0]] == ["view", "commit"]
        assert first.to_dict()["window"]["0"] is second.to_dict()["window"]["0"]
        assert json.dumps(auditor.report(), sort_keys=True) == json.dumps(
            _reference_report(auditor), sort_keys=True
        )


def _reference_report(auditor: OnlineAuditor) -> dict:
    """``OnlineAuditor.report`` as it rendered each violation on its own."""
    by_kind: dict[str, int] = {}
    for violation in auditor.violations:
        by_kind[violation.kind] = by_kind.get(violation.kind, 0) + 1
    return {
        "ok": auditor.ok,
        "events_audited": auditor.events_audited,
        "last_commit_time": auditor.last_commit_time,
        "violations_by_kind": by_kind,
        "violations": [
            {
                "kind": v.kind,
                "severity": v.severity,
                "time": v.time,
                "replicas": list(v.replicas),
                "view": v.view,
                "height": v.height,
                "detail": v.detail,
                "window": {
                    str(replica): [
                        {
                            "seq": e.seq,
                            "time": e.time,
                            "kind": e.kind,
                            "view": e.view,
                            "height": e.height,
                            "digest": e.digest.hex()[:16],
                            "detail": e.detail,
                        }
                        for e in events
                    ]
                    for replica, events in v.window
                },
            }
            for v in auditor.violations
        ],
    }


class TestComplexityObservatory:
    def test_fit_loglog_slope_units(self):
        linear = [(n, 7.0 * n) for n in (4, 16, 64)]
        quadratic = [(n, 3.0 * n * n) for n in (4, 16, 64)]
        assert fit_loglog_slope(linear) == pytest.approx(1.0)
        assert fit_loglog_slope(quadratic) == pytest.approx(2.0)
        assert math.isnan(fit_loglog_slope([(4, 10.0)]))
        assert math.isnan(fit_loglog_slope([(4, 0.0), (8, 0.0)]))

    def test_slope_fit_verdict(self):
        fit = SlopeFit("bytes", [(4, 40.0), (16, 160.0), (64, 640.0)])
        assert fit.linear and "O(n)" in fit.render()
        quad = SlopeFit("bytes", [(4, 16.0), (16, 256.0), (64, 4096.0)])
        assert not quad.linear

    def test_tap_attributes_phases_and_views(self):
        from repro.consensus.block import Block, genesis_block
        from repro.consensus.messages import ClientRequest, Justify, PhaseMsg, VoteMsg
        from repro.consensus.qc import BlockSummary, Phase, genesis_qc
        from repro.network.message import Envelope

        genesis = genesis_block()
        justify = Justify(qc=genesis_qc(genesis))
        block = Block(
            parent_link=genesis.digest, parent_view=0, view=2, height=1,
            operations=(), justify_digest=genesis.digest,
        )
        observatory = ComplexityObservatory(num_replicas=4)
        proposal = PhaseMsg(phase=Phase.PREPARE, view=2, justify=justify, block=block)
        vote = VoteMsg(
            phase=Phase.COMMIT, view=2, block=BlockSummary.of(block), share=b"s"
        )
        request = ClientRequest(client_id=5, sequence=0, payload=b"p")
        observatory.tap(Envelope(0, 1, proposal, 100, 0.1))
        observatory.tap(Envelope(1, 0, vote, 10, 0.2))
        observatory.tap(Envelope(9, 0, request, 50, 0.3))
        assert observatory.per_phase["prepare"].messages == 1
        assert observatory.per_phase["commit"].messages == 1
        assert observatory.per_phase["client"].bytes == 50
        assert observatory.consensus.messages == 2
        assert observatory.client.messages == 1
        # Client traffic is not attributed to a consensus view.
        assert observatory.per_view[2].messages == 2
        assert observatory.views_observed() == 1
        snapshot = observatory.snapshot()
        assert snapshot["per_type"]["VoteMsg"]["authenticators"] == 1

    def test_disarm_stops_attribution(self):
        from repro.consensus.messages import ClientRequest
        from repro.network.message import Envelope

        observatory = ComplexityObservatory()
        observatory.disarm()
        observatory.tap(Envelope(0, 1, ClientRequest(1, 0, b""), 10, 0.0))
        assert observatory.total.messages == 0
        observatory.arm()
        observatory.tap(Envelope(0, 1, ClientRequest(1, 0, b""), 10, 0.0))
        assert observatory.total.messages == 1


class TestAuditedRuns:
    CLEAN_PROTOCOLS = ("marlin", "hotstuff", "fast-hotstuff")

    @pytest.mark.parametrize("protocol", CLEAN_PROTOCOLS)
    def test_clean_run_zero_violations(self, protocol):
        report = audited_run(protocol, n=4, sim_time=6.0, dump="never")
        assert report.ok, report.render()
        assert report.audit["violations"] == []
        assert report.committed_height > 0
        assert not report.stalled
        # Every replica's flight recorder saw protocol events.
        assert all(count > 0 for count in report.events_recorded.values())

    def test_equivocator_produces_violation_with_window(self):
        report = audited_run(
            "marlin", n=4, sim_time=6.0, byzantine="equivocator", dump="never"
        )
        assert not report.audit["ok"]
        kinds = report.audit["violations_by_kind"]
        assert kinds.get("equivocation", 0) >= 1
        violation = next(
            v for v in report.violations if v["kind"] == "equivocation"
        )
        assert violation["severity"] == "byzantine"
        # The structured report embeds a non-empty flight-recorder window.
        assert any(events for events in violation["window"].values())
        # Safety holds: the conflicting proposals never both commit.
        assert "conflicting-commit" not in kinds
        assert report.committed_height > 0

    def test_reply_forger_produces_divergence_with_window(self):
        report = audited_run(
            "marlin", n=4, sim_time=6.0, byzantine="reply-forger", dump="never"
        )
        kinds = report.audit["violations_by_kind"]
        assert kinds.get("reply-divergence", 0) >= 1
        violation = next(
            v for v in report.violations if v["kind"] == "reply-divergence"
        )
        assert violation["severity"] == "byzantine"
        assert any(events for events in violation["window"].values())
        assert "conflicting-commit" not in kinds

    def test_blackbox_dump_deterministic_across_reruns(self, tmp_path):
        kwargs = dict(
            protocol="marlin", n=4, sim_time=6.0, byzantine="equivocator",
            dump="always",
        )
        first = audited_run(dump_dir=str(tmp_path / "a"), **kwargs)
        second = audited_run(dump_dir=str(tmp_path / "b"), **kwargs)
        assert first.blackbox_path and second.blackbox_path
        blob_a = open(first.blackbox_path, "rb").read()
        blob_b = open(second.blackbox_path, "rb").read()
        assert blob_a == blob_b
        meta, per_replica = read_blackbox(first.blackbox_path)
        assert meta["protocol"] == "marlin" and meta["byzantine"] == "equivocator"
        assert sorted(per_replica) == [0, 1, 2, 3]
        assert all(events for events in per_replica.values())

    def test_client_admissions_recorded(self):
        # Real client mode routes requests through ClientService.intake,
        # which reports each newly admitted operation to the observer.
        report = audited_run(
            "marlin", n=4, sim_time=6.0, byzantine="reply-forger", dump="never"
        )
        meta_events = sum(report.events_recorded.values())
        assert meta_events > 0

    def test_complexity_sweep_small(self):
        sweep = complexity_sweep("marlin", sizes=(4, 16), seed=3)
        assert sweep.sizes == [4, 16]
        assert all(p.bytes > 0 for p in sweep.happy)
        assert all(p.messages > 0 for p in sweep.view_change)
        # A window that closes before the view change measures nothing.
        assert all(p.authenticators > 0 for p in sweep.view_change)
        payload = sweep.to_dict()
        assert len(payload["fits"]) == 4
        # Two sizes fit an exact line; the verdict machinery must run.
        assert all(fit["slope"] == fit["slope"] for fit in payload["fits"])


class TestAsyncioTrafficStats:
    def test_stats_mirror_simnet_counters(self):
        from repro.network.asyncio_net import AsyncioNetwork

        async def main():
            net = AsyncioNetwork()
            net.register(0, lambda s, p: None)
            net.register(1, lambda s, p: None)
            seen = []
            net.add_tap(seen.append)
            net.send(0, 1, b"xxxx")
            net.send(1, 0, b"yy")
            await asyncio.sleep(0.01)
            stats = net.stats
            assert stats.messages == 2
            assert stats.per_pair[(0, 1)] == 1
            assert stats.per_pair_bytes[(0, 1)] > 0
            assert len(seen) == 2
            assert {(e.src, e.dst) for e in seen} == {(0, 1), (1, 0)}
            net.reset_stats()
            assert net.stats.messages == 0
            net.set_recording(False)
            net.send(0, 1, b"zz")
            await asyncio.sleep(0.01)
            assert net.stats.messages == 0
            await net.close()

        asyncio.run(main())


class TestAsyncioAuditWiring:
    def test_local_cluster_clean_run_zero_violations(self):
        from repro.obs.observer import RunObservability
        from repro.runtime.cluster import LocalCluster

        async def main():
            observability = RunObservability(trace=False, flight=True, audit=True)
            cluster = LocalCluster(f=1, observability=observability)
            async with cluster:
                for i in range(3):
                    await cluster.submit(b"op-%d" % i)
                await cluster.wait_for_height(1, timeout=10.0)
            return observability

        observability = asyncio.run(main())
        report = observability.audit_report()
        assert report["ok"], report
        assert report["events_audited"] > 0
        # The transport mirrored simnet's TrafficStats.
        assert all(rec.total_recorded > 0 for rec in observability.recorders.values())
