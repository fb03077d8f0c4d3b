"""The hot-path pipelining machinery: the vote gate and batch staging.

Unit-level coverage of :mod:`repro.consensus.pipeline` and the
:class:`~repro.consensus.block.BatchPool` staging extensions, plus one
end-to-end DES run with pipelining enabled.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.config import ClusterConfig, ExperimentConfig
from repro.consensus.block import BatchPool, Operation
from repro.consensus.crypto_service import NullCryptoService, ThresholdCryptoService
from repro.consensus.pipeline import PipelineConfig, VoteBatchGate
from repro.consensus.qc import BlockSummary, Phase
from repro.crypto.hashing import digest_of
from repro.crypto.keys import KeyRegistry
from repro.harness.des_runtime import DESCluster
from repro.harness.workload import ClosedLoopClients

N, QUORUM = 4, 3


def summary(tag: str = "block", view: int = 1) -> BlockSummary:
    return BlockSummary(digest=digest_of([tag, view]), view=view, height=view, parent_view=0)


def make_gate():
    service = NullCryptoService(N, QUORUM)
    return service, VoteBatchGate(service, QUORUM)


def share_for(service, signer: int, block: BlockSummary, phase=Phase.PREPARE):
    return service.sign_vote(signer, phase, block.view, block)


class TestVoteBatchGate:
    def test_holds_until_quorum_then_releases_in_src_order(self):
        service, gate = make_gate()
        block = summary()
        for src in (2, 0):
            result = gate.admit(
                src, Phase.PREPARE, 1, block, share_for(service, src, block), carry=f"v{src}"
            )
            assert result.released == () and result.batch_verified == 0
        result = gate.admit(
            1, Phase.PREPARE, 1, block, share_for(service, 1, block), carry="v1"
        )
        assert result.batch_verified == QUORUM
        assert result.released == ((0, "v0"), (1, "v1"), (2, "v2"))

    def test_duplicate_src_ignored(self):
        service, gate = make_gate()
        block = summary()
        share = share_for(service, 0, block)
        gate.admit(0, Phase.PREPARE, 1, block, share)
        assert gate.admit(0, Phase.PREPARE, 1, block, share).released == ()
        # Still needs two more distinct signers.
        gate.admit(1, Phase.PREPARE, 1, block, share_for(service, 1, block))
        result = gate.admit(2, Phase.PREPARE, 1, block, share_for(service, 2, block))
        assert len(result.released) == QUORUM

    def test_post_quorum_votes_dropped_unverified(self):
        service, gate = make_gate()
        block = summary()
        for src in range(QUORUM):
            gate.admit(src, Phase.PREPARE, 1, block, share_for(service, src, block))
        late = gate.admit(3, Phase.PREPARE, 1, block, share_for(service, 3, block))
        assert late.released == () and late.batch_verified == 0
        assert gate.dropped_late == 1

    def test_bad_share_excluded_and_quorum_waits(self):
        service, gate = make_gate()
        block = summary()
        forged = dataclasses.replace(share_for(service, 0, block), tag=b"\x00" * 32)
        gate.admit(0, Phase.PREPARE, 1, block, forged, carry="bad")
        gate.admit(1, Phase.PREPARE, 1, block, share_for(service, 1, block), carry="v1")
        # Third arrival triggers verification; the forged share is caught,
        # leaving only 2 valid — below quorum, nothing released.
        result = gate.admit(
            2, Phase.PREPARE, 1, block, share_for(service, 2, block), carry="v2"
        )
        assert result.released == () and result.batch_verified == QUORUM
        assert gate.rejected == 1
        # A replacement valid share completes the quorum without signer 0.
        result = gate.admit(
            3, Phase.PREPARE, 1, block, share_for(service, 3, block), carry="v3"
        )
        assert [src for src, _ in result.released] == [1, 2, 3]

    def test_targets_keyed_by_phase_view_block(self):
        service, gate = make_gate()
        prepare, commit = summary("a"), summary("a")
        for src in range(QUORUM - 1):
            gate.admit(src, Phase.PREPARE, 1, prepare, share_for(service, src, prepare))
            gate.admit(
                src, Phase.COMMIT, 1, commit,
                share_for(service, src, commit, Phase.COMMIT),
            )
        result = gate.admit(
            2, Phase.PREPARE, 1, prepare, share_for(service, 2, prepare)
        )
        assert len(result.released) == QUORUM  # commit target untouched

    def test_discard_view_drops_stale_targets(self):
        service, gate = make_gate()
        old, new = summary("old", view=1), summary("new", view=5)
        gate.admit(0, Phase.PREPARE, 1, old, share_for(service, 0, old))
        gate.admit(0, Phase.PREPARE, 5, new, share_for(service, 0, new))
        gate.discard_view(4)
        assert list(gate._targets) == [(Phase.PREPARE, 5, new.digest)]

    def test_thread_pool_chunking_matches_inline(self):
        registry = KeyRegistry(12, 9, seed=b"gate-pool")
        service = ThresholdCryptoService(registry)
        block = summary()
        votes = [
            (s, Phase.PREPARE, 1, block, registry.partial_sign(s, b"x"))  # wrong payload
            if s == 3
            else (
                s, Phase.PREPARE, 1, block,
                service.sign_vote(s, Phase.PREPARE, 1, block),
            )
            for s in range(12)
        ]
        # One aggregate check over all twelve shares finds the bad one.
        assert VoteBatchGate(service, 9)._verify(votes) == [3]


def op(sequence: int, weight: int = 1) -> Operation:
    return Operation(client_id=1, sequence=sequence, payload=b"x" * weight)


class TestBatchPoolStaging:
    def test_stage_take_roundtrip(self):
        pool = BatchPool(max_batch=2)
        for sequence in range(4):
            pool.add(op(sequence))
        staged = pool.stage()
        assert [o.sequence for o in staged] == [0, 1]
        assert pool.stage() is staged  # memoized
        assert pool.take_staged() == staged
        assert pool.take_staged() == ()

    def test_unstage_requeues_at_front(self):
        pool = BatchPool(max_batch=2)
        for sequence in range(4):
            pool.add(op(sequence))
        pool.stage()
        pool.unstage()
        assert [o.sequence for o in pool.next_batch()] == [0, 1]

    def test_empty_pool_stages_nothing_and_does_not_block_restaging(self):
        pool = BatchPool(max_batch=2)
        assert pool.stage() == ()
        pool.add(op(0))
        assert [o.sequence for o in pool.stage()] == [0]

    def test_forget_committed_ops_bumps_epoch(self):
        pool = BatchPool(max_batch=3)
        for sequence in range(3):
            pool.add(op(sequence))
        staged = pool.stage()
        epoch = pool.staged_epoch
        pool.forget((staged[1],))
        assert pool.staged_epoch == epoch + 1
        assert [o.sequence for o in pool.stage()] == [0, 2]

    def test_forget_unrelated_ops_keeps_epoch(self):
        pool = BatchPool(max_batch=1)
        pool.add(op(0))
        pool.add(op(1))
        pool.stage()
        epoch = pool.staged_epoch
        pool.forget((op(1),))
        assert pool.staged_epoch == epoch


class TestPipelineConfig:
    def test_presence_is_the_only_switch(self):
        assert dataclasses.fields(PipelineConfig) == ()
        assert PipelineConfig() == PipelineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            PipelineConfig().batch_votes = False


@pytest.mark.parametrize("crypto_mode", ["null", "threshold"])
def test_pipelined_des_run_commits_safely(crypto_mode):
    experiment = ExperimentConfig(
        cluster=ClusterConfig.for_f(1, batch_size=200, base_timeout=0.8), seed=4
    )
    cluster = DESCluster(
        experiment,
        protocol="marlin",
        crypto_mode=crypto_mode,
        pipeline=PipelineConfig(),
    )
    pool = ClosedLoopClients(cluster, num_clients=32, token_weight=1, target="all")
    cluster.start()
    cluster.sim.schedule(0.01, pool.start)
    cluster.run(until=6.0)
    cluster.assert_safety()
    assert min(cluster.committed_heights()) > 0
    assert pool.completed_ops > 0
