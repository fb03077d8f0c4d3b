"""Edge paths: catch-up, stalled virtual QCs, justify validation, helpers."""

from __future__ import annotations

import pytest

from repro.consensus.block import Block
from repro.consensus.marlin.replica import MarlinReplica
from repro.consensus.messages import Justify, PhaseMsg, VoteMsg
from repro.consensus.qc import BlockSummary, Phase, QuorumCertificate

from tests.helpers import LocalNet, forge_qc


def booted() -> LocalNet:
    net = LocalNet(MarlinReplica, n=4)
    net.start()
    net.submit(0, [b"x"])
    net.pump()
    return net


class TestCatchUp:
    def test_lagging_replica_jumps_on_valid_qc(self):
        """A replica stuck in view 1 adopts view 3 when shown a QC formed
        there (e.g. a COMMIT whose prepareQC has formation view 3)."""
        net = booted()
        replica = net.replicas[3]
        assert replica.cview == 1
        summary = BlockSummary(
            digest=b"\x01" * 32, view=3, height=5, parent_view=3, justify_in_view=True
        )
        qc3 = forge_qc(net.crypto, Phase.PREPARE, 3, summary)
        replica.on_message(2, PhaseMsg(phase=Phase.COMMIT, view=3, justify=Justify(qc3)))
        assert replica.cview == 3

    def test_no_jump_on_unproven_view(self):
        """A message claiming a high view with only an old QC is ignored."""
        net = booted()
        replica = net.replicas[3]
        old_qc = replica.locked_qc  # formation view 1
        replica.on_message(
            2, PhaseMsg(phase=Phase.COMMIT, view=9, justify=Justify(old_qc))
        )
        assert replica.cview == 1

    def test_no_jump_on_forged_qc(self):
        net = booted()
        replica = net.replicas[3]
        summary = BlockSummary(
            digest=b"\x02" * 32, view=5, height=9, parent_view=5, justify_in_view=True
        )
        forged = QuorumCertificate(
            phase=Phase.PREPARE, view=5, block=summary, signature=None
        )
        replica.on_message(0, PhaseMsg(phase=Phase.COMMIT, view=5, justify=Justify(forged)))
        assert replica.cview == 1


class TestStalledVirtualQC:
    def test_virtual_ppqc_waits_for_vc_then_proceeds(self):
        """A leader holding only a virtual pre-prepareQC cannot start the
        prepare phase until a matching vc arrives via an R2 vote."""
        net = booted()
        leader = net.replicas[2]
        leader._advance_view(3)
        leader._pre_prepare_started.add(3)
        leader._leader_ready = False
        base_qc = net.replicas[1].locked_qc  # prepareQC h=1 view 1
        virtual = Block(
            parent_link=None,
            parent_view=base_qc.view,
            view=3,
            height=base_qc.block.height + 2,
            operations=(),
            justify_digest=base_qc.digest,
            proposer=2,
        )
        virtual_summary = BlockSummary.of(virtual, justify_in_view=False)
        leader.tree.add(virtual)
        ppqc = forge_qc(net.crypto, Phase.PRE_PREPARE, 3, virtual_summary)
        leader._pending_ppqcs.setdefault(3, []).append(ppqc)
        leader._try_start_prepare(3)
        assert not leader._leader_ready  # stalled: no vc yet
        # The missing vc arrives attached to a (late) R2 vote.
        parent_summary = BlockSummary(
            digest=b"\x03" * 32,
            view=1,
            height=base_qc.block.height + 1,
            parent_view=1,
            justify_in_view=True,
        )
        vc = forge_qc(net.crypto, Phase.PREPARE, base_qc.view, parent_summary)
        leader._offer_vc_candidate(3, vc)
        leader._try_start_prepare(3)
        assert leader._leader_ready
        assert leader.high_qc.is_composite
        assert leader.high_qc.vc == vc

    def test_mismatched_vc_not_accepted(self):
        net = booted()
        leader = net.replicas[2]
        leader._advance_view(3)
        leader._leader_ready = False
        base_qc = net.replicas[1].locked_qc
        virtual = Block(
            parent_link=None,
            parent_view=base_qc.view,
            view=3,
            height=base_qc.block.height + 2,
            operations=(),
            justify_digest=base_qc.digest,
            proposer=2,
        )
        leader.tree.add(virtual)
        ppqc = forge_qc(
            net.crypto, Phase.PRE_PREPARE, 3, BlockSummary.of(virtual, justify_in_view=False)
        )
        leader._pending_ppqcs.setdefault(3, []).append(ppqc)
        # vc at the WRONG height (equal to the virtual, not height - 1).
        wrong = forge_qc(
            net.crypto,
            Phase.PREPARE,
            base_qc.view,
            BlockSummary(
                digest=b"\x04" * 32,
                view=1,
                height=virtual.height,
                parent_view=1,
                justify_in_view=True,
            ),
        )
        leader._offer_vc_candidate(3, wrong)
        leader._try_start_prepare(3)
        assert not leader._leader_ready


class TestJustifyValidation:
    def _replica(self):
        return booted().replicas[1]

    def test_rejects_justify_formed_at_or_after_view(self):
        net = booted()
        replica = net.replicas[1]
        qc = replica.locked_qc  # formation view 1
        assert not replica._validate_justify(Justify(qc), before_view=1)
        assert replica._validate_justify(Justify(qc), before_view=2)

    def test_rejects_composite_with_non_virtual_qc(self):
        net = booted()
        replica = net.replicas[1]
        normal_qc = replica.locked_qc
        ppqc = forge_qc(
            net.crypto,
            Phase.PRE_PREPARE,
            1,
            BlockSummary(
                digest=b"\x05" * 32, view=1, height=2, parent_view=1, is_virtual=False,
                justify_in_view=False,
            ),
        )
        assert not replica._validate_justify(Justify(ppqc, normal_qc), before_view=2)

    def test_rejects_none(self):
        net = booted()
        assert not net.replicas[1]._validate_justify(None, before_view=2)


class TestLeaderVoteFiltering:
    def test_non_leader_ignores_votes(self):
        net = booted()
        replica = net.replicas[2]  # not the leader of view 1
        block = replica.locked_qc.block
        share = net.crypto.sign_vote(1, Phase.COMMIT, 1, block)
        replica.on_message(1, VoteMsg(phase=Phase.COMMIT, view=1, block=block, share=share))
        assert replica.collector.votes_for(Phase.COMMIT, 1, block.digest) == 0


class TestHarnessHelpers:
    def test_run_until_predicate(self, fast_experiment):
        from repro.harness.des_runtime import DESCluster
        from repro.harness.workload import ClosedLoopClients

        cluster = DESCluster(fast_experiment, protocol="marlin", crypto_mode="null")
        pool = ClosedLoopClients(cluster, num_clients=8, token_weight=1)
        cluster.start()
        cluster.sim.schedule(0.01, pool.start)
        reached = cluster.run_until(
            lambda: min(cluster.committed_heights()) >= 3, deadline=10.0
        )
        assert reached
        assert min(cluster.committed_heights()) >= 3
        assert cluster.sim.now < 10.0

    def test_run_until_deadline(self, fast_experiment):
        from repro.harness.des_runtime import DESCluster

        cluster = DESCluster(fast_experiment, protocol="marlin", crypto_mode="null")
        cluster.start()
        reached = cluster.run_until(lambda: False, deadline=0.3)
        assert not reached

    def test_leader_replica_tracks_view(self, fast_experiment):
        from repro.harness.des_runtime import DESCluster

        cluster = DESCluster(fast_experiment, protocol="marlin", crypto_mode="null")
        cluster.start()
        cluster.run(until=0.1)  # before any view timeout fires
        assert cluster.leader_replica.id == 0
        cluster.replicas[1]._advance_view(3)
        assert cluster.leader_replica.id == 2

    def test_unknown_protocol_rejected(self, fast_experiment):
        from repro.common.errors import ConfigError
        from repro.harness.des_runtime import DESCluster

        with pytest.raises(ConfigError):
            DESCluster(fast_experiment, protocol="raft")

    def test_unknown_crypto_rejected(self, fast_experiment):
        from repro.common.errors import ConfigError
        from repro.harness.des_runtime import DESCluster

        with pytest.raises(ConfigError):
            DESCluster(fast_experiment, crypto_mode="rsa")
