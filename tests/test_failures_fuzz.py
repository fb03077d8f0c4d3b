"""Byzantine strategies and the random-adversity fuzzer.

Safety must hold under every strategy and every fuzzed schedule; liveness
is asserted only where the configuration permits it (at most f faulty,
network eventually healed).
"""

from __future__ import annotations

import pytest

from repro.adversary import AdversaryConfig, BehaviorSpec, apply_adversary, fuzz_schedule
from repro.common.config import ClusterConfig, ExperimentConfig
from repro.harness.des_runtime import DESCluster
from repro.harness.workload import ClosedLoopClients


def build(protocol: str = "marlin", f: int = 1, seed: int = 31, base_timeout: float = 0.5):
    experiment = ExperimentConfig(
        cluster=ClusterConfig.for_f(f, batch_size=200, base_timeout=base_timeout),
        seed=seed,
    )
    cluster = DESCluster(experiment, protocol=protocol, crypto_mode="threshold")
    pool = ClosedLoopClients(cluster, num_clients=16, token_weight=1, target="all")
    cluster.start()
    cluster.sim.schedule(0.01, pool.start)
    return cluster, pool


def misbehave(cluster, kind: str, replica: int, **params) -> None:
    config = AdversaryConfig(behaviors=(BehaviorSpec.make(kind, replica, **params),))
    apply_adversary(cluster, config)


@pytest.fixture
def double_count_one_block(monkeypatch):
    """Make the first ledger to commit a non-empty block apply it twice."""
    from repro.consensus.ledger import Ledger

    commit = Ledger.commit
    done = []

    def double_counting_commit(self, block):
        path = commit(self, block)
        for node in path:
            weight = sum(op.weight for op in node.operations)
            if weight and not done:
                done.append(node)
                self._ops_committed += weight
        return path

    monkeypatch.setattr(Ledger, "commit", double_counting_commit)


class TestStrategies:
    def test_silent_after_behaves_like_crash(self):
        cluster, pool = build()
        misbehave(cluster, "silent-after", 0, after=2.0)  # the view-1 leader
        cluster.run(until=12.0)
        cluster.assert_safety()
        post = [when for rid, _, _, when in cluster.auditor.commits if when > 3.0 and rid != 0]
        assert post, "survivors must recover from a silent leader"

    def test_vote_withholder_cannot_stop_quorum(self):
        cluster, pool = build()
        misbehave(cluster, "withhold-votes", 3)  # a non-leader
        cluster.run(until=8.0)
        cluster.assert_safety()
        assert min(r.ledger.committed_height for r in cluster.replicas[:3]) > 3

    def test_equivocating_leader_never_splits_commits(self):
        cluster, pool = build()
        misbehave(cluster, "equivocate", 0)
        cluster.run(until=12.0)
        cluster.assert_safety()  # the whole point: no conflicting commits

    def test_delayer_slows_but_does_not_break(self):
        cluster, pool = build(base_timeout=2.0)
        misbehave(cluster, "delay", 2, delay=0.2)
        cluster.run(until=10.0)
        cluster.assert_safety()
        assert min(r.ledger.committed_height for r in cluster.replicas) > 1

    def test_qc_hider_in_view_change(self):
        """Fig. 2's p4: hide knowledge in VIEW-CHANGE; recovery must still
        succeed (Marlin's vote-to-unlock does not trust any single VC)."""
        cluster, pool = build()
        misbehave(cluster, "qc-hide", 3)
        cluster.crash_at(0, 2.0)  # force a view change with the hider active
        cluster.run(until=14.0)
        cluster.assert_safety()
        post = [when for rid, _, _, when in cluster.auditor.commits if when > 2.5 and rid != 0]
        assert post


class TestFuzz:
    @pytest.mark.parametrize("seed", range(8))
    def test_marlin_fuzz_safety(self, seed):
        report = fuzz_schedule(seed, protocol="marlin", f=1, sim_time=20.0)
        assert report.safety_ok
        # With at most f crashes and all partitions healed, progress is
        # required after GST.
        alive = [h for i, h in enumerate(report.committed_heights)]
        assert max(alive) > 0, f"no progress at all: {report.events}"

    @pytest.mark.parametrize("seed", range(4))
    def test_hotstuff_fuzz_safety(self, seed):
        report = fuzz_schedule(seed + 100, protocol="hotstuff", f=1, sim_time=20.0)
        assert report.safety_ok
        assert max(report.committed_heights) > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_chained_marlin_fuzz_safety(self, seed):
        report = fuzz_schedule(seed + 200, protocol="chained-marlin", f=1, sim_time=20.0)
        assert report.safety_ok

    def test_f2_fuzz(self):
        report = fuzz_schedule(7, protocol="marlin", f=2, sim_time=25.0)
        assert report.safety_ok
        assert max(report.committed_heights) > 0

    def test_report_records_events(self):
        report = fuzz_schedule(3, protocol="marlin", f=1, sim_time=10.0)
        assert isinstance(report.events, list)
        assert report.max_view >= 1

    def test_double_counted_block_is_not_safe(self, double_count_one_block):
        # The checker holds each ledger's applied op-weight to its
        # committed history; a commit-rule audit alone never sees it.
        report = fuzz_schedule(1, protocol="marlin", f=1, sim_time=8.0)
        assert report.safety_ok is False

    def test_cli_exits_nonzero_on_violation(self, double_count_one_block, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["fuzz", "--seed", "1", "--sim-time", "8"])
        assert exit_info.value.code == 1
        assert "safety           : VIOLATED" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", range(6))
    def test_lemma4_holds_under_crash_faults(self, seed):
        """Lemma 4: a view-change snapshot never yields more than two
        rank-maximal QCs in crash-fault (non-equivocating) executions."""
        from repro.harness.des_runtime import DESCluster
        from repro.common.config import ClusterConfig, ExperimentConfig
        from repro.harness.workload import ClosedLoopClients

        experiment = ExperimentConfig(
            cluster=ClusterConfig.for_f(1, batch_size=300, base_timeout=0.4),
            seed=seed + 500,
        )
        cluster = DESCluster(experiment, protocol="marlin", crypto_mode="null",
                             force_unhappy=True)
        pool = ClosedLoopClients(cluster, num_clients=16, token_weight=1, target="all")
        cluster.start()
        cluster.sim.schedule(0.01, pool.start)
        cluster.crash_at(seed % 4, 1.5)
        cluster.run(until=10.0)
        cluster.assert_safety()
        assert all(r.stats["lemma4_violations"] == 0 for r in cluster.replicas)
