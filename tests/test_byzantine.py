"""Adversarial behaviours: equivocation, forgery, replay — safety holds."""

from __future__ import annotations

import pytest

from repro.common.errors import SafetyViolation
from repro.consensus.block import Block
from repro.consensus.marlin.replica import MarlinReplica
from repro.consensus.messages import Justify, PhaseMsg, VoteMsg
from repro.consensus.qc import BlockSummary, Phase, QuorumCertificate

from tests.helpers import LocalNet


def booted() -> LocalNet:
    net = LocalNet(MarlinReplica, n=4)
    net.start()
    net.submit(0, [b"seed"])
    net.pump()
    return net


class TestEquivocatingLeader:
    def test_two_conflicting_proposals_cannot_both_commit(self):
        """An equivocating leader sends different blocks to different
        replicas at the same height; at most one can ever gather a
        quorum, so commits never conflict."""
        net = booted()
        leader = net.replicas[0]
        qc = leader.high_qc.qc
        blocks = []
        for salt in (1, 2):
            blocks.append(
                Block(
                    parent_link=qc.block.digest,
                    parent_view=qc.block.view,
                    view=1,
                    height=qc.block.height + 1,
                    operations=(),
                    justify_digest=qc.digest,
                    proposer=salt,
                )
            )
        # Replica 1 and 2 see block A; replica 3 sees block B.
        for dst, block in [(1, blocks[0]), (2, blocks[0]), (3, blocks[1])]:
            net.replicas[dst].on_message(
                0, PhaseMsg(phase=Phase.PREPARE, view=1, justify=Justify(qc), block=block)
            )
        net.pump()
        # Votes: A has 2 (< quorum without the leader), B has 1.
        committed = [r.ledger.committed_height for r in net.replicas[1:]]
        assert all(h == qc.block.height for h in committed)

    def test_auditor_trips_on_conflicting_commit(self):
        from repro.harness import CommitAuditor
        from repro.consensus.block import genesis_block, make_child
        from repro.crypto.hashing import digest_of

        auditor = CommitAuditor()
        genesis = genesis_block()
        a = make_child(genesis, 1, (), digest_of("qa"))
        b = make_child(genesis, 1, (), digest_of("qb"))
        auditor.observe(0, a, 1.0)
        auditor.observe(1, b, 1.1)
        (finding,) = auditor.findings
        assert finding["kind"] == "conflicting-commit"
        assert finding["evidence"]["replicas"] == [0, 1]
        with pytest.raises(SafetyViolation):
            auditor.check()


class TestForgery:
    def test_qc_with_insufficient_votes_rejected(self):
        net = booted()
        replica = net.replicas[1]
        target = BlockSummary(
            digest=b"\x11" * 32, view=1, height=9, parent_view=1, justify_in_view=True
        )
        # Only f votes — combine() itself refuses, so fabricate by abusing
        # a genesis-style None signature instead.
        fake = QuorumCertificate(phase=Phase.PREPARE, view=1, block=target, signature=None)
        assert not net.crypto.qc_is_valid(fake)
        votes_before = replica.stats["votes_sent"]
        replica.on_message(0, PhaseMsg(phase=Phase.COMMIT, view=1, justify=Justify(fake)))
        assert replica.stats["votes_sent"] == votes_before

    def test_reused_signature_on_other_block_rejected(self):
        net = booted()
        replica = net.replicas[1]
        real = replica.locked_qc
        other = BlockSummary(
            digest=b"\x22" * 32,
            view=real.view,
            height=real.block.height,
            parent_view=real.block.parent_view,
            justify_in_view=True,
        )
        grafted = QuorumCertificate(
            phase=real.phase, view=real.view, block=other, signature=real.signature
        )
        assert not net.crypto.qc_is_valid(grafted)

    def test_vote_from_wrong_signer_not_counted(self):
        net = booted()
        leader = net.replicas[0]
        block = leader.high_qc.qc.block
        share = net.crypto.sign_vote(2, Phase.COMMIT, 1, block)
        before = leader.collector.votes_for(Phase.COMMIT, 1, block.digest)
        leader.on_message(1, VoteMsg(phase=Phase.COMMIT, view=1, block=block, share=share))
        assert leader.collector.votes_for(Phase.COMMIT, 1, block.digest) == before


class TestReplay:
    def test_replayed_decide_is_idempotent(self):
        net = booted()
        replica = net.replicas[1]
        decides = [
            p
            for _, dst, p in net.delivered
            if isinstance(p, PhaseMsg) and p.phase == Phase.DECIDE and dst == 1
        ]
        assert decides
        height_before = replica.ledger.committed_height
        ops_before = replica.ledger.ops_committed
        for _ in range(3):
            replica.on_message(0, decides[-1])
        assert replica.ledger.committed_height == height_before
        assert replica.ledger.ops_committed == ops_before

    def test_old_view_commit_ignored(self):
        net = booted()
        net.crash(0)
        net.timeout_all()
        replica = net.replicas[2]
        # A COMMIT from the deposed leader's view must not be voted.
        old_commits = [
            p
            for src, dst, p in net.delivered
            if isinstance(p, PhaseMsg) and p.phase == Phase.COMMIT and p.view == 1
        ]
        votes_before = replica.stats["votes_sent"]
        if old_commits:
            replica.on_message(0, old_commits[-1])
        assert replica.stats["votes_sent"] == votes_before


class TestByzantineShareInQuorum:
    def test_bad_share_cannot_poison_qc(self):
        """A Byzantine replica submits a garbage share; the leader's QC
        still forms from honest shares and verifies."""
        from repro.crypto.threshold import PartialSignature

        net = booted()
        leader = net.replicas[0]
        block = leader.high_qc.qc.block
        garbage = PartialSignature(signer=3, value=424242)
        before = leader.collector.votes_for(Phase.COMMIT, 1, block.digest)
        leader.on_message(3, VoteMsg(phase=Phase.COMMIT, view=1, block=block, share=garbage))
        # Rejected at verification; never enters the accumulator.
        assert leader.collector.votes_for(Phase.COMMIT, 1, block.digest) == before


class TestRealFork:
    def test_fork_is_recorded_not_raised_mid_run(self):
        """A replica that really commits a conflicting block leaves
        evidence: the run finishes, the commit auditor holds the finding,
        the history checker reports it and only ``assert_safety`` raises."""
        from repro.adversary.checker import SafetyChecker
        from repro.common.config import ClusterConfig, ExperimentConfig
        from repro.consensus.block import make_child
        from repro.crypto.hashing import digest_of
        from repro.harness.des_runtime import DESCluster
        from repro.harness.workload import ClosedLoopClients

        experiment = ExperimentConfig(
            cluster=ClusterConfig.for_f(1, batch_size=200, base_timeout=0.5), seed=3
        )
        cluster = DESCluster(experiment, protocol="marlin", crypto_mode="null")
        pool = ClosedLoopClients(cluster, num_clients=16, token_weight=1)
        cluster.start()
        cluster.sim.schedule(0.01, pool.start)
        assert cluster.run_until(
            lambda: cluster.sim.now >= 1.0 and len(set(cluster.committed_heights())) == 1,
            deadline=3.0,
        )
        # Replica 3 commits a sibling of the block the others commit next.
        forker = cluster.replicas[3]
        head = forker.ledger.committed_head
        sibling = make_child(head, forker.cview, (), digest_of("fork"), proposer=3)
        forker.tree.add(sibling)
        forker.ledger.commit(sibling)
        cluster.crash(3)
        cluster.run(until=4.0)

        assert min(cluster.committed_heights()[:3]) > sibling.height
        (finding,) = cluster.auditor.findings
        assert finding["kind"] == "conflicting-commit"
        assert finding["severity"] == "safety"
        evidence = finding["evidence"]
        assert evidence["height"] == sibling.height
        assert evidence["replicas"][0] == 3 and evidence["replicas"][1] in (0, 1, 2)
        honest = cluster.replicas[evidence["replicas"][1]]
        other = honest.ledger.committed_digests()[sibling.height]
        assert evidence["digests"] == {
            sibling.digest.hex()[:12]: [3],
            other.hex()[:12]: [evidence["replicas"][1]],
        }
        report = SafetyChecker(4).check_cluster(cluster)
        assert "conflicting-commit" in report.kinds()
        with pytest.raises(SafetyViolation):
            cluster.assert_safety()

    def test_explorer_reports_a_fork(self):
        """The schedule explorer judges agreement by the commit auditor."""
        from repro.consensus.block import make_child
        from repro.crypto.hashing import digest_of
        from repro.harness.explorer import ScheduleExplorer

        explorer = ScheduleExplorer(
            MarlinReplica, seed=3, drop_probability=0.0,
            timeout_probability=0.0, crash_probability=0.0, max_steps=2000,
        )
        forker = explorer.replicas[3]
        sibling = make_child(forker.tree.genesis, 1, (), digest_of("fork"), proposer=3)
        forker.tree.add(sibling)
        forker.ledger.commit(sibling)
        result = explorer.run()
        assert not result.agreement
        assert max(result.committed_heights) >= 1
        (finding,) = explorer.auditor.findings
        assert finding["kind"] == "conflicting-commit"
        assert finding["evidence"]["replicas"][0] == 3
