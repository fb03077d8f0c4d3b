"""Reproducibility: the DES is a deterministic function of its seed."""

from __future__ import annotations

from repro.common.config import ClusterConfig, ExperimentConfig
from repro.consensus.pipeline import PipelineConfig
from repro.harness.des_runtime import DESCluster
from repro.harness.workload import ClosedLoopClients


def run_once(
    seed: int, protocol: str = "marlin", pipeline: PipelineConfig | None = None
) -> tuple:
    experiment = ExperimentConfig(
        cluster=ClusterConfig.for_f(1, batch_size=200, base_timeout=0.6), seed=seed
    )
    cluster = DESCluster(experiment, protocol=protocol, crypto_mode="null", pipeline=pipeline)
    pool = ClosedLoopClients(cluster, num_clients=24, token_weight=1, target="all")
    cluster.start()
    cluster.sim.schedule(0.01, pool.start)
    cluster.crash_at(0, 2.0)
    cluster.run(until=8.0)
    cluster.assert_safety()
    commit_trace = tuple(
        (rid, height, digest) for rid, height, digest, _ in cluster.auditor.commits
    )
    return (
        commit_trace,
        tuple(cluster.committed_heights()),
        cluster.sim.events_processed,
        pool.completed_ops,
    )


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        assert run_once(17) == run_once(17)

    def test_different_seeds_diverge(self):
        # Jitter differs -> event interleaving differs -> traces differ.
        a = run_once(17)
        b = run_once(18)
        assert a != b

    def test_determinism_across_protocols(self):
        assert run_once(5, "hotstuff") == run_once(5, "hotstuff")
        assert run_once(5, "chained-marlin") == run_once(5, "chained-marlin")

    def test_scenario_functions_deterministic(self):
        from repro.harness.scenarios import view_change_latency

        a = view_change_latency("marlin", 1, seed=9)
        b = view_change_latency("marlin", 1, seed=9)
        assert a.latency == b.latency
        assert a.vc_start == b.vc_start


class TestPipelinedDeterminism:
    """Pipelining (vote batching + speculation) must keep the DES a pure
    function of its seed: same seed, same commit trace, and byte-identical
    exported traces."""

    def test_identical_runs_identical_traces(self):
        pipeline = PipelineConfig()
        assert run_once(17, pipeline=pipeline) == run_once(17, pipeline=pipeline)

    def test_pipelined_across_protocols(self):
        pipeline = PipelineConfig()
        for protocol in ("hotstuff", "chained-marlin"):
            assert run_once(5, protocol, pipeline) == run_once(5, protocol, pipeline)

    def test_trace_export_byte_identical(self):
        from repro.api import Scenario, traced_run

        traces = []
        for _ in range(2):
            _, obs = traced_run(
                Scenario(protocol="marlin", f=1, seed=3, pipeline=PipelineConfig()),
                sim_time=2.0,
            )
            traces.append(obs.tracer.chrome_trace())
        assert traces[0] == traces[1]
