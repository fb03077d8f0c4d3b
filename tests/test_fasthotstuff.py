"""Fast-HotStuff / Jolteon: two-phase commit, quadratic view change."""

from __future__ import annotations


from repro.common.config import ClusterConfig, ExperimentConfig
from repro.consensus.fasthotstuff import FastHotStuffReplica
from repro.consensus.messages import AggregateNewView
from repro.harness.des_runtime import DESCluster
from repro.harness.workload import ClosedLoopClients

from tests.helpers import LocalNet
from tests.test_insecure_liveness import (
    advance_one_view,
    build_unsafe_snapshot_scenario,
)


class TestNormalCase:
    def test_two_phase_commit_inherited(self):
        net = LocalNet(FastHotStuffReplica, n=4)
        net.start()
        net.submit(0, [f"op-{i}".encode() for i in range(12)])
        net.pump()
        heights = net.heights()
        assert len(set(heights)) == 1 and heights[0] >= 2
        assert all(r.ledger.ops_committed == 12 for r in net.replicas)


class TestQuadraticViewChange:
    def test_crash_recovery_via_aggregate(self):
        net = LocalNet(FastHotStuffReplica, n=4)
        net.start()
        net.submit(0, [b"pre"])
        net.pump()
        net.crash(0)
        net.delivered.clear()
        net.timeout_all()
        aggregates = [
            p for _, _, p in net.delivered if isinstance(p, AggregateNewView)
        ]
        assert aggregates, "the view change must use the aggregate broadcast"
        assert len(aggregates[0].proofs) >= 3  # the full quorum travels
        net.submit(1, [b"post"], client=70)
        net.pump()
        alive = net.replicas[1:]
        assert all(r.ledger.ops_committed == 2 for r in alive)

    def test_unsafe_snapshot_recovers_by_unlock(self):
        """Where the *insecure* strawman stalls forever, Fast-HotStuff
        recovers: the quorum evidence forcibly unlocks the locked replica
        (at quadratic cost — Marlin achieves the same recovery linearly)."""
        net = build_unsafe_snapshot_scenario(FastHotStuffReplica)
        advance_one_view(net)
        alive = net.replicas[1:]
        heights = [r.ledger.committed_height for r in alive]
        assert min(heights) >= net.b1_height
        # The previously locked replica voted again (it was unlocked).
        leader_id = net.config.leader_of(max(net.views()))
        net.submit(leader_id, [b"onwards"], client=90)
        net.pump()
        assert min(r.ledger.committed_height for r in alive) > net.b1_height

    def test_aggregate_without_quorum_rejected(self):
        net = LocalNet(FastHotStuffReplica, n=4)
        net.start()
        net.submit(0, [b"x"])
        net.pump()
        replica = net.replicas[1]
        # Craft an aggregate with a single proof: must be ignored.
        from repro.consensus.messages import Justify, ViewChangeMsg
        from repro.consensus.qc import Phase
        from repro.consensus.block import Block

        qc = replica.locked_qc
        lb = qc.block
        proof = ViewChangeMsg(
            view=2, last_voted=lb, justify=Justify(qc),
            share=net.crypto.sign_vote(3, Phase.PREPARE, 2, lb),
        )
        block = Block(
            parent_link=qc.block.digest,
            parent_view=qc.block.view,
            view=2,
            height=qc.block.height + 1,
            operations=(),
            justify_digest=qc.digest,
            proposer=1,
        )
        votes_before = replica.stats["votes_sent"]
        replica.on_message(
            1,
            AggregateNewView(view=2, block=block, justify=Justify(qc), proofs=((3, proof),)),
        )
        assert replica.stats["votes_sent"] == votes_before


class TestOnDES:
    def test_end_to_end_with_crash(self):
        experiment = ExperimentConfig(
            cluster=ClusterConfig.for_f(1, batch_size=200, base_timeout=0.5),
            seed=41,
        )
        cluster = DESCluster(experiment, protocol="fast-hotstuff", crypto_mode="null")
        pool = ClosedLoopClients(cluster, num_clients=16, token_weight=1, target="all")
        cluster.start()
        cluster.sim.schedule(0.01, pool.start)
        cluster.crash_at(0, 2.0)
        cluster.run(until=12.0)
        cluster.assert_safety()
        post = [when for rid, _, _, when in cluster.auditor.commits if when > 2.5 and rid != 0]
        assert post
