"""Basic HotStuff (PODC 2019), as reviewed in the paper's Section IV-A.

Normal case — three phases per block, each a CKPS consistent broadcast:

* **prepare**: leader proposes ``b`` extending ``block(highQC)`` with
  ``justify = highQC``; replicas vote under the safeNode rule (``b``
  extends the locked block, or the justify's view exceeds the lock's);
* **pre-commit**: leader broadcasts ``prepareQC(b)``; replicas record it
  as their new ``highQC`` and vote;
* **commit**: leader broadcasts ``precommitQC(b)``; replicas **lock** on
  it and vote; the combined ``commitQC`` is forwarded (DECIDE) and
  everyone commits.

The leader pipelines exactly like the Marlin implementation: when
``prepareQC(b_k)`` forms it both starts ``b_k``'s pre-commit phase and
proposes ``b_{k+1}`` justified by that QC — so HotStuff pays three
broadcast+vote rounds per block where Marlin pays two, the difference
every figure in the paper's evaluation measures.

View change: on timeout a replica enters ``v + 1`` and sends the new
leader a NEW-VIEW message carrying its ``prepareQC`` (here the reused
:class:`~repro.consensus.messages.ViewChangeMsg` with no partial
signature).  The leader picks the QC with the largest height from
``n - f`` messages and extends its block — a fresh three-phase round then
commits it, making the view change three phases as well.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.common.config import ClusterConfig
from repro.common.errors import InvalidVote
from repro.consensus.block import Block
from repro.consensus.context import NodeContext
from repro.consensus.costs import ZeroCostModel
from repro.consensus.crypto_service import CryptoService
from repro.consensus.messages import Justify, PhaseMsg, ViewChangeMsg, VoteMsg
from repro.consensus.pipeline import PipelineConfig
from repro.consensus.qc import BlockSummary, Phase, QuorumCertificate
from repro.consensus.replica_base import ReplicaBase


def _vh(qc: QuorumCertificate) -> tuple[int, int]:
    """HotStuff orders QCs by (view, height); no Marlin ranks here."""
    return (qc.view, qc.block.height)


class HotStuffReplica(ReplicaBase):
    """One basic-HotStuff replica (pipelined, stable leader per view)."""

    def __init__(
        self,
        replica_id: int,
        config: ClusterConfig,
        ctx: NodeContext,
        crypto: CryptoService,
        costs: ZeroCostModel | None = None,
        rotation_interval: float | None = None,
        forward_requests: bool = True,
        pipeline: PipelineConfig | None = None,
    ) -> None:
        super().__init__(
            replica_id,
            config,
            ctx,
            crypto,
            costs,
            rotation_interval,
            forward_requests,
            pipeline,
        )
        self.prepare_qc: QuorumCertificate = self.genesis_qc  # highQC
        self.locked_qc: QuorumCertificate = self.genesis_qc  # precommitQC lock
        self._last_voted_vh: tuple[int, int] = (0, 0)
        self._leader_ready = False
        self._outstanding_prepare: bytes | None = None
        self._new_views: dict[int, dict[int, ViewChangeMsg]] = {}
        self._started_views: set[int] = set()
        self._verified_blocks: set[bytes] = set()
        self._handlers: dict[type, Callable[[int, Any], None]] = {
            **self._base_handlers(),
            PhaseMsg: self._on_phase_msg,
            VoteMsg: self._on_vote,
            ViewChangeMsg: self._on_new_view,
        }

    @property
    def handlers(self) -> dict[type, Callable[[int, Any], None]]:
        return self._handlers

    # ---------------------------------------------------------- view entry

    def _enter_view(self, view: int) -> None:
        self._leader_ready = False
        self._outstanding_prepare = None
        message = ViewChangeMsg(
            view=view,
            last_voted=self.prepare_qc.block,
            justify=Justify(self.prepare_qc),
            share=None,
        )
        self.ctx.send(self.leader_of(view), message)
        self.obs.view_change_event("new-view-sent", view, leader=self.leader_of(view))

    def _on_new_view(self, src: int, msg: ViewChangeMsg) -> None:
        if msg.view < self.cview or self.leader_of(msg.view) != self.id:
            return
        if msg.view in self._started_views:
            return
        if msg.justify is None or msg.justify.qc.phase != Phase.PREPARE:
            return
        self._charge_qc_verify(msg.justify.qc)
        if not self.crypto.qc_is_valid(msg.justify.qc):
            return
        bucket = self._new_views.setdefault(msg.view, {})
        bucket[src] = msg
        if len(bucket) >= self.config.quorum:
            self._start_view_as_leader(msg.view)

    def _start_view_as_leader(self, view: int) -> None:
        if view in self._started_views:
            return
        self._started_views.add(view)
        if self.cview < view:
            self._advance_view(view)
        messages = self._new_views.pop(view, {})
        best = self.prepare_qc
        for msg in messages.values():
            assert msg.justify is not None
            if _vh(msg.justify.qc) > _vh(best):
                best = msg.justify.qc
        if _vh(best) > _vh(self.prepare_qc):
            self.prepare_qc = best
        self._leader_ready = True
        self.obs.view_change_event("new-view-quorum", view)
        self._maybe_propose(initial=True)

    # ------------------------------------------------------------ proposing

    def _maybe_propose(self, initial: bool = False) -> None:
        if not self.is_leader() or not self._leader_ready:
            return
        if self._outstanding_prepare is not None:
            return
        qc = self.prepare_qc
        block = None if initial else self._take_speculative(qc)
        if block is None:
            batch = self.pool.next_batch()
            if not batch and not initial:
                return
            parent = qc.block
            block = Block(
                parent_link=parent.digest,
                parent_view=parent.view,
                view=self.cview,
                height=parent.height + 1,
                operations=batch,
                justify_digest=qc.digest,
                proposer=self.id,
            )
        self.tree.add(block)
        self._verified_blocks.add(block.digest)
        self._outstanding_prepare = block.digest
        self.stats["proposals_sent"] += 1
        self.obs.block_proposed(block.digest, self.cview, block.height)
        self.obs.ops_proposed(block)
        self.obs.phase_begin(block.digest, "prepare", self.cview, block.height)
        self.ctx.broadcast(
            PhaseMsg(phase=Phase.PREPARE, view=self.cview, justify=Justify(qc), block=block)
        )
        self._stage_next(block, qc)

    # ------------------------------------------------------------- replica

    def _on_phase_msg(self, src: int, msg: PhaseMsg) -> None:
        if msg.phase == Phase.PREPARE:
            self._on_prepare(src, msg)
        elif msg.phase == Phase.PRECOMMIT:
            self._on_precommit(src, msg)
        elif msg.phase == Phase.COMMIT:
            self._on_commit(src, msg)
        elif msg.phase == Phase.DECIDE:
            self._on_decide(src, msg)

    def _catch_up(self, view: int, proof: QuorumCertificate) -> bool:
        if view <= self.cview:
            return True
        if proof.view >= view and self.crypto.qc_is_valid(proof):
            self._advance_view(view)
            return True
        return False

    def _on_prepare(self, src: int, msg: PhaseMsg) -> None:
        if self.leader_of(msg.view) != src or msg.block is None:
            return
        block = msg.block
        qc = msg.justify.qc
        if msg.view > self.cview:
            # Catch up: within a view the justify is a prepareQC of that
            # view; the first proposal of a view carries an older QC, so a
            # lagging replica joins at the next pipelined proposal.
            if not self._catch_up(msg.view, qc):
                return
        if msg.view != self.cview or block.view != msg.view:
            return
        if qc.phase != Phase.PREPARE or block.justify_digest != qc.digest:
            return
        if (
            block.parent_link != qc.block.digest
            or block.height != qc.block.height + 1
            or block.parent_view != qc.block.view
        ):
            return
        if (block.view, block.height) <= self._last_voted_vh:
            return
        self._charge_qc_verify(qc)
        if not self.crypto.qc_is_valid(qc):
            return
        # safeNode: extends the locked block, or the justify unlocks us.
        self.tree.add(block)
        extends_lock = self.tree.extends(block, self.locked_qc.block.digest)
        if not extends_lock and qc.view <= self.locked_qc.view:
            return
        if block.digest not in self._verified_blocks:
            self.ctx.charge(self.costs.verify_block(block))
            self._verified_blocks.add(block.digest)
        if _vh(qc) > _vh(self.prepare_qc):
            self.prepare_qc = qc
        summary = BlockSummary.of(block, justify_in_view=qc.view == block.view)
        self.obs.phase_begin(summary.digest, "prepare", msg.view, block.height)
        self.obs.view_change_done(msg.view)
        share = self.crypto.sign_vote(self.id, Phase.PREPARE, msg.view, summary)
        self._send_vote(
            src, VoteMsg(phase=Phase.PREPARE, view=msg.view, block=summary, share=share)
        )
        self._last_voted_vh = (block.view, block.height)

    def _on_precommit(self, src: int, msg: PhaseMsg) -> None:
        if self.leader_of(msg.view) != src:
            return
        qc = msg.justify.qc
        if qc.phase != Phase.PREPARE or qc.view != msg.view:
            return
        if msg.view > self.cview and not self._catch_up(msg.view, qc):
            return
        if msg.view != self.cview:
            return
        self._charge_qc_verify(qc)
        if not self.crypto.qc_is_valid(qc):
            return
        if _vh(qc) > _vh(self.prepare_qc):
            self.prepare_qc = qc
        self.obs.phase_end(qc.block.digest, "prepare")
        self.obs.phase_begin(qc.block.digest, "pre-commit", msg.view, qc.block.height)
        share = self.crypto.sign_vote(self.id, Phase.PRECOMMIT, msg.view, qc.block)
        self._send_vote(
            src, VoteMsg(phase=Phase.PRECOMMIT, view=msg.view, block=qc.block, share=share)
        )

    def _on_commit(self, src: int, msg: PhaseMsg) -> None:
        if self.leader_of(msg.view) != src:
            return
        qc = msg.justify.qc
        if qc.phase != Phase.PRECOMMIT or qc.view != msg.view:
            return
        if msg.view > self.cview and not self._catch_up(msg.view, qc):
            return
        if msg.view != self.cview:
            return
        self._charge_qc_verify(qc)
        if not self.crypto.qc_is_valid(qc):
            return
        if _vh(qc) > _vh(self.locked_qc):
            self.locked_qc = qc
        self.obs.phase_end(qc.block.digest, "pre-commit")
        self.obs.phase_begin(qc.block.digest, "commit", msg.view, qc.block.height)
        share = self.crypto.sign_vote(self.id, Phase.COMMIT, msg.view, qc.block)
        self._send_vote(
            src, VoteMsg(phase=Phase.COMMIT, view=msg.view, block=qc.block, share=share)
        )

    def _on_decide(self, src: int, msg: PhaseMsg) -> None:
        qc = msg.justify.qc
        if qc.phase != Phase.COMMIT:
            return
        self._charge_qc_verify(qc)
        if not self.crypto.qc_is_valid(qc):
            return
        if msg.view > self.cview:
            self._catch_up(msg.view, qc)
        self._commit_by_qc(qc)

    # -------------------------------------------------------------- leader

    def _on_vote(self, src: int, vote: VoteMsg) -> None:
        if vote.view != self.cview or not self.is_leader(vote.view):
            return
        if self._vote_gate is not None:
            result = self._vote_gate.admit(
                src, vote.phase, vote.view, vote.block, vote.share, carry=vote
            )
            if result.batch_verified:
                self.ctx.charge(self.costs.verify_votes_batch(result.batch_verified))
            for signer, released in result.released:
                self._dispatch_vote(signer, released)
            return
        try:
            self.ctx.charge(self.costs.verify_vote())
            self.crypto.verify_vote(src, vote.phase, vote.view, vote.block, vote.share)
        except InvalidVote:
            return
        self._dispatch_vote(src, vote)

    def _dispatch_vote(self, src: int, vote: VoteMsg) -> None:
        qc = self.collector.add_vote(vote.phase, vote.view, vote.block, src, vote.share)
        if qc is None:
            return
        self.ctx.charge(self.costs.combine(self.config.quorum))
        if vote.phase == Phase.PREPARE:
            self.obs.qc_formed(qc.block.digest, "prepare", vote.view, qc)
            if self._outstanding_prepare == vote.block.digest:
                self._outstanding_prepare = None
            if _vh(qc) > _vh(self.prepare_qc):
                self.prepare_qc = qc
            self.ctx.broadcast(
                PhaseMsg(phase=Phase.PRECOMMIT, view=vote.view, justify=Justify(qc))
            )
            self._maybe_propose()
        elif vote.phase == Phase.PRECOMMIT:
            self.obs.qc_formed(qc.block.digest, "pre-commit", vote.view, qc)
            self.ctx.broadcast(
                PhaseMsg(phase=Phase.COMMIT, view=vote.view, justify=Justify(qc))
            )
        elif vote.phase == Phase.COMMIT:
            self.obs.qc_formed(qc.block.digest, "commit", vote.view, qc)
            self.ctx.broadcast(
                PhaseMsg(phase=Phase.DECIDE, view=vote.view, justify=Justify(qc))
            )
