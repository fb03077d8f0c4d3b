"""Request journeys: sampling, critical-path decomposition, waterfalls.

Covers the journey layer end to end: the deterministic seed-derived
sampler, the per-journey stage decomposition (telescoping invariant,
duplicate/truncation handling), the aggregate waterfall and its
stage-sum-reconciles-with-end-to-end invariant on a real DES run (hub,
real-client, and sharded modes), byte-identical determinism of the
journey blob and waterfall JSON, the ~zero-cost disabled mode, the
event-count invariance that proves tracing never steers the schedule,
and the ``repro latency`` CLI.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.client.config import ClientConfig
from repro.harness.metrics import LatencyRecorder
from repro.harness.scenarios import Scenario, _latency_breakdown, _load_point_ex
from repro.obs.journey import (
    CK_CERTIFIED,
    CK_COMMITTED,
    CK_EXECUTED,
    CK_PROPOSED,
    CK_RETRANSMIT,
    CK_SUBMIT,
    JourneyRecorder,
    build_waterfall,
    chrome_trace,
    decompose,
    journeys_blob,
    sample_bit,
    slowest_journeys,
    stage_of,
    waterfall_json,
)
from repro.shard import ShardConfig

# ---------------------------------------------------------------------------
# Sampling


class TestSampling:
    def test_deterministic_across_instances(self):
        a = JourneyRecorder(7, rate=0.25)
        b = JourneyRecorder(7, rate=0.25)
        assert [a.sampled(c) for c in range(500)] == [b.sampled(c) for c in range(500)]

    def test_matches_free_function(self):
        recorder = JourneyRecorder(3, rate=0.5)
        for client in range(200):
            assert recorder.sampled(client) == sample_bit(3, client, 5000)

    def test_seed_changes_the_set(self):
        first = {c for c in range(400) if sample_bit(1, c, 2500)}
        second = {c for c in range(400) if sample_bit(2, c, 2500)}
        assert first != second

    def test_rate_extremes(self):
        assert all(JourneyRecorder(1, rate=1.0).sampled(c) for c in range(100))
        zero = JourneyRecorder(1, rate=0.0)
        assert not zero.enabled
        assert not any(zero.sampled(c) for c in range(100))

    def test_rate_roughly_proportional(self):
        hits = sum(1 for c in range(4000) if sample_bit(9, c, 2500))
        assert 0.20 < hits / 4000 < 0.30

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            JourneyRecorder(1, rate=1.5)

    def test_sampled_keys_filters_like_sampled(self):
        class Op:
            def __init__(self, client_id, sequence):
                self.client_id = client_id
                self._key = (client_id, sequence)

        recorder = JourneyRecorder(5, rate=0.5)
        ops = [Op(c, 0) for c in range(100)]
        keys = recorder.sampled_keys(ops)
        assert keys == [(c, 0) for c in range(100) if recorder.sampled(c)]


# ---------------------------------------------------------------------------
# Critical-path decomposition


def _journey(*events):
    return [(label, float(t)) for label, t in events]


class TestDecompose:
    def test_stages_telescope_to_end_to_end(self):
        events = _journey(
            (CK_SUBMIT, 1.0),
            (CK_PROPOSED, 1.2),
            ("qc:prepare", 1.5),
            ("qc:commit", 1.9),
            (CK_COMMITTED, 1.9),
            (CK_EXECUTED, 2.0),
            (CK_CERTIFIED, 2.4),
        )
        breakdown = decompose(events)
        assert breakdown is not None
        stages, e2e = breakdown
        assert e2e == pytest.approx(1.4)
        assert sum(d for _, d in stages) == pytest.approx(e2e)
        assert [s for s, _ in stages] == [
            "leader_staging",
            "consensus_prepare",
            "consensus_commit",
            "commit_apply",
            "execution",
            "reply_fanin",
        ]

    def test_duplicates_take_earliest(self):
        # A re-proposal after a failed view leaves a second, later
        # "proposed"; the critical path starts at the first one.
        events = _journey(
            (CK_SUBMIT, 0.0),
            (CK_PROPOSED, 0.5),
            (CK_PROPOSED, 2.0),
            (CK_CERTIFIED, 3.0),
        )
        stages, e2e = decompose(events)
        assert dict(stages)["leader_staging"] == pytest.approx(0.5)
        assert e2e == pytest.approx(3.0)

    def test_chain_truncated_at_certified(self):
        # A straggling proposer executing after the client already holds
        # its certificate is off the critical path.
        events = _journey(
            (CK_SUBMIT, 0.0),
            (CK_CERTIFIED, 1.0),
            (CK_EXECUTED, 5.0),
        )
        stages, e2e = decompose(events)
        assert e2e == pytest.approx(1.0)
        assert all(stage != "execution" for stage, _ in stages)

    def test_retransmit_is_annotation_not_stage(self):
        events = _journey(
            (CK_SUBMIT, 0.0),
            (CK_RETRANSMIT, 0.5),
            (CK_CERTIFIED, 1.0),
        )
        stages, _e2e = decompose(events)
        assert all(stage != CK_RETRANSMIT for stage, _ in stages)

    def test_incomplete_returns_none(self):
        assert decompose(_journey((CK_SUBMIT, 0.0), (CK_PROPOSED, 0.1))) is None
        assert decompose(_journey((CK_CERTIFIED, 1.0))) is None

    def test_stage_of_qc(self):
        assert stage_of("qc:prepare") == "consensus_prepare"
        assert stage_of("qc:pre-commit") == "consensus_pre-commit"


class TestWaterfall:
    def _recorder(self):
        recorder = JourneyRecorder(1, rate=1.0)
        for client in range(10):
            base = float(client)
            recorder.record(client, 0, CK_SUBMIT, base)
            recorder.record(client, 0, CK_PROPOSED, base + 0.1)
            recorder.record(client, 0, CK_CERTIFIED, base + 0.3)
        return recorder

    def test_counts_and_reconciliation(self):
        recorder = self._recorder()
        recorder.record(99, 0, CK_SUBMIT, 5.0)  # never certified
        waterfall = build_waterfall(recorder, end_to_end=0.3)
        assert waterfall["journeys"]["complete"] == 10
        assert waterfall["journeys"]["incomplete"] == 1
        assert waterfall["stages"]["leader_staging"]["p50"] == pytest.approx(0.1)
        assert waterfall["end_to_end"]["stage_sum_p50"] == pytest.approx(0.3)
        assert waterfall["end_to_end"]["error"] == pytest.approx(0.0, abs=1e-9)

    def test_window_excludes_warmup(self):
        waterfall = build_waterfall(self._recorder(), window_start=5.0)
        assert waterfall["journeys"]["windowed_out"] == 5
        assert waterfall["journeys"]["complete"] == 5

    def test_anchors_against_latency_recorder(self):
        latency = LatencyRecorder()
        latency.record(1.0, 0.3)
        waterfall = build_waterfall(self._recorder(), end_to_end=latency)
        assert waterfall["end_to_end"]["recorder_p50"] == pytest.approx(0.3)

    def test_slowest_and_chrome_trace(self):
        recorder = self._recorder()
        recorder.record(50, 0, CK_SUBMIT, 0.0)
        recorder.record(50, 0, CK_CERTIFIED, 9.0)
        worst = slowest_journeys(recorder, 3)
        assert worst[0][0] == (50, 0)
        assert worst[0][1] == pytest.approx(9.0)
        trace = chrome_trace(recorder, k=3)
        assert trace["traceEvents"]
        assert {e["ph"] for e in trace["traceEvents"]} == {"X"}
        spans_50 = [e for e in trace["traceEvents"] if e["pid"] == 50]
        assert sum(e["dur"] for e in spans_50) == 9_000_000


# ---------------------------------------------------------------------------
# DES integration: the reconciliation invariant on real runs

_RUN = dict(clients=256, sim_time=14.0, warmup=5.0, seed=3)


class TestJourneyRuns:
    def test_hub_run_reconciles(self):
        result, _recorder, _ = _latency_breakdown(Scenario(**_RUN))
        waterfall = result.waterfall
        assert waterfall is not None
        assert waterfall["journeys"]["complete"] > 0
        assert waterfall["end_to_end"]["error"] < 0.05
        stages = set(waterfall["stages"])
        assert {"leader_staging", "commit_apply", "execution", "reply_fanin"} <= stages
        assert any(s.startswith("consensus_") for s in stages)
        # Marlin commits in two phases: prepare and commit QCs only.
        assert "consensus_prepare" in stages and "consensus_commit" in stages

    def test_runs_are_byte_identical(self):
        _, first, _ = _latency_breakdown(Scenario(**_RUN), 0.5)
        result, second, _ = _latency_breakdown(Scenario(**_RUN), 0.5)
        assert journeys_blob(first) == journeys_blob(second)
        assert waterfall_json(result.waterfall) == waterfall_json(
            build_waterfall(first, end_to_end=result.waterfall["end_to_end"]["recorder_p50"],
                            window_start=_RUN["warmup"])
        )

    def test_sampling_subsets_the_full_set(self):
        _, full, _ = _latency_breakdown(Scenario(**_RUN))
        _, sampled, _ = _latency_breakdown(Scenario(**_RUN), 0.25)
        full_keys = {key for key, _ in full.journeys()}
        sampled_keys = {key for key, _ in sampled.journeys()}
        assert 0 < len(sampled_keys) < len(full_keys)
        assert sampled_keys <= full_keys

    def test_sharded_run_adds_routing_stage(self):
        result, _, _ = _latency_breakdown(
            Scenario(shard=ShardConfig(shards=2), clients=256, sim_time=14.0, warmup=5.0, seed=3)
        )
        waterfall = result.waterfall
        assert waterfall["journeys"]["complete"] > 0
        assert "routing" in waterfall["stages"]
        assert waterfall["end_to_end"]["error"] < 0.05

    def test_real_client_mode_traces_admission(self):
        result, _recorder, _ = _latency_breakdown(
            Scenario(
                client=ClientConfig(mode="real"),
                clients=32,
                sim_time=14.0,
                warmup=5.0,
                seed=3,
            )
        )
        waterfall = result.waterfall
        assert waterfall["journeys"]["complete"] > 0
        assert "net_to_leader" in waterfall["stages"]
        assert waterfall["end_to_end"]["error"] < 0.05

    def test_disabled_rate_records_nothing(self):
        result, recorder, cluster = _latency_breakdown(Scenario(**_RUN), 0.0)
        assert not recorder.enabled
        assert len(recorder) == 0
        assert result.waterfall is None
        # rate=0 collapses to the NULL_OBS path: replicas carry no
        # journey observer at all.
        assert cluster.observability is None or cluster.observability.journey is None

    def test_event_count_invariance(self):
        """Arming the tracer must never change the simulated schedule."""
        base, off_cluster = _load_point_ex(
            "marlin", 1, _RUN["clients"], sim_time=_RUN["sim_time"],
            warmup=_RUN["warmup"], seed=_RUN["seed"],
        )
        traced, _, on_cluster = _latency_breakdown(Scenario(**_RUN))
        assert on_cluster.sim.events_processed == off_cluster.sim.events_processed
        assert traced.throughput_tps == pytest.approx(base.throughput_tps)
        assert traced.p50_latency == pytest.approx(base.p50_latency)


# ---------------------------------------------------------------------------
# RunResult surfacing + CLI


class TestSurfacing:
    def test_percentiles_on_run_result(self):
        result, _, _ = _latency_breakdown(Scenario(**_RUN))
        assert 0.0 < result.p50_latency <= result.p90_latency
        assert result.p90_latency <= result.p999_latency

    def test_latency_recorder_summary(self):
        recorder = LatencyRecorder()
        for i in range(1, 101):
            recorder.record(0.0, i / 100.0)
        summary = recorder.summary()
        assert summary["count"] == 100
        assert summary["p50"] == pytest.approx(0.5)
        assert summary["p90"] == pytest.approx(0.9)
        assert summary["p999"] == pytest.approx(1.0)
        assert summary["mean"] == pytest.approx(0.505)

    def test_cli_latency_smoke(self, tmp_path, capsys):
        waterfall_path = tmp_path / "waterfall.json"
        trace_path = tmp_path / "journeys.json"
        code = cli_main(
            [
                "latency",
                "--protocol", "marlin",
                "--f", "1",
                "--clients", "128",
                "--sim-time", "12",
                "--warmup", "4",
                "--seed", "3",
                "--check", "0.05",
                "--json", str(waterfall_path),
                "--chrome-out", str(trace_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "reconciliation" in out
        waterfall = json.loads(waterfall_path.read_text())
        assert waterfall["stages"]
        assert waterfall["end_to_end"]["error"] < 0.05
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]

    def test_cli_check_fails_loudly(self):
        # An impossible tolerance must exit non-zero.
        with pytest.raises(SystemExit):
            cli_main(
                [
                    "latency",
                    "--clients", "64",
                    "--sim-time", "8",
                    "--warmup", "3",
                    "--check", "0.0",
                ]
            )
