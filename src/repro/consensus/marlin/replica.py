"""The Marlin replica (paper Section V, Figures 6, 7 and 9).

Normal case — two phases:

* **prepare**: the leader broadcasts a block whose ``justify`` is its
  ``highQC``; replicas vote if the block outranks their last voted block
  and the justify outranks their ``lockedQC``.  Receiving a ``prepareQC``
  in a justify *locks* a replica on it (two-phase locking);
* **commit**: the leader broadcasts the freshly combined ``prepareQC``;
  replicas lock on it and vote; the combined ``commitQC`` is forwarded
  (DECIDE) and everyone commits the block and its ancestors.

The leader pipelines: as soon as ``prepareQC(b_k)`` forms it broadcasts
``COMMIT(b_k)`` and proposes ``b_{k+1}`` justified by that same QC, so at
steady state one block enters the pipeline per round trip while each block
commits after two.

View change — two or three phases:

* every replica entering view ``v`` sends the leader a VIEW-CHANGE with
  its last voted block ``lb``, its ``highQC``, and a partial signature
  over the *prepare vote for lb in view v*;
* **happy path** (two phases): if all ``n - f`` VIEW-CHANGE messages name
  the same ``lb``, the leader combines the partial signatures directly
  into a ``prepareQC`` (formation view ``v``) and resumes the normal case;
* **unhappy path** (three phases): the leader runs the **pre-prepare**
  phase, choosing Case V1 / V2 / V3 of Fig. 9 — possibly proposing a
  *virtual block* (a block whose parent may not exist) alongside a normal
  one, the two sharing one operation payload (*shadow blocks*); replicas
  answer according to Cases R1 / R2 / R3, where R2 both votes for the
  virtual block and ships the voter's ``lockedQC`` (the future ``vc``
  that gives the virtual block a real parent).

Replicas never lock on a ``pre-prepareQC`` (that is precisely the
insecure-two-phase bug of Section IV-B); locks move only to higher-ranked
``prepareQC``s.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.common.config import ClusterConfig
from repro.common.errors import CryptoError, InvalidVote
from repro.consensus.block import Block
from repro.consensus.context import NodeContext
from repro.consensus.costs import ZeroCostModel
from repro.consensus.crypto_service import CryptoService
from repro.consensus.messages import (
    Justify,
    PhaseMsg,
    PrePrepareMsg,
    Proposal,
    ViewChangeMsg,
    VoteMsg,
)
from repro.consensus.pipeline import PipelineConfig
from repro.consensus.qc import BlockSummary, Phase, QuorumCertificate
from repro.consensus.rank import (
    Rank,
    block_rank_higher,
    compare_qc_rank,
    highest_block,
    highest_qcs,
)
from repro.consensus.replica_base import ReplicaBase


class MarlinReplica(ReplicaBase):
    """One Marlin replica; drive it with ``start()`` and ``on_message()``."""

    def __init__(
        self,
        replica_id: int,
        config: ClusterConfig,
        ctx: NodeContext,
        crypto: CryptoService,
        costs: ZeroCostModel | None = None,
        rotation_interval: float | None = None,
        force_unhappy: bool = False,
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
        #: Skip the happy path even when every lb matches — used by the
        #: view-change benchmarks to force the pre-prepare phase (Fig 10i).
        self.force_unhappy = force_unhappy

        genesis_summary = BlockSummary.of(self.genesis, justify_in_view=True)
        self.last_voted: BlockSummary = genesis_summary
        self.locked_qc: QuorumCertificate = self.genesis_qc
        self.high_qc: Justify = Justify(self.genesis_qc)

        # Leader-side state, reset at each view entry.
        self._leader_ready = False
        self._outstanding_prepare: bytes | None = None
        self._vc_messages: dict[int, dict[int, ViewChangeMsg]] = {}
        self._pre_prepare_started: set[int] = set()
        self._pending_ppqcs: dict[int, list[QuorumCertificate]] = {}
        self._best_vc: dict[int, QuorumCertificate] = {}
        self._verified_blocks: set[bytes] = set()

        self.stats.update(
            {
                "happy_view_changes": 0,
                "unhappy_view_changes": 0,
                "case_v1": 0,
                "case_v2": 0,
                "case_v3": 0,
                "votes_r1": 0,
                "votes_r2": 0,
                "votes_r3": 0,
                "lemma4_violations": 0,
            }
        )
        self._handlers: dict[type, Callable[[int, Any], None]] = {
            **self._base_handlers(),
            PhaseMsg: self._on_phase_msg,
            PrePrepareMsg: self._on_pre_prepare,
            VoteMsg: self._on_vote,
            ViewChangeMsg: self._on_view_change,
        }

    @property
    def handlers(self) -> dict[type, Callable[[int, Any], None]]:
        return self._handlers

    # =================================================== view entry / exit

    def _enter_view(self, view: int) -> None:
        self._leader_ready = False
        self._outstanding_prepare = None
        share = self.crypto.sign_vote(self.id, Phase.PREPARE, view, self.last_voted)
        self.ctx.charge(self.costs.sign_vote())
        message = ViewChangeMsg(
            view=view, last_voted=self.last_voted, justify=self.high_qc, share=share
        )
        self.ctx.send(self.leader_of(view), message)
        self.obs.view_change_event("view-change-sent", view, leader=self.leader_of(view))

    def _catch_up(self, view: int, proof: QuorumCertificate) -> bool:
        """Jump to ``view`` when a QC proves a quorum entered it."""
        if view <= self.cview:
            return True
        if proof.view >= view and self.crypto.qc_is_valid(proof):
            self._advance_view(view)
            return True
        return False

    # ======================================================== leader: VCs

    def _on_view_change(self, src: int, msg: ViewChangeMsg) -> None:
        if msg.view < self.cview or self.leader_of(msg.view) != self.id:
            return
        if msg.view in self._pre_prepare_started:
            return
        if msg.last_voted is None:
            return
        if not self._validate_justify(msg.justify, before_view=msg.view):
            return
        try:
            self.ctx.charge(self.costs.verify_vote())
            self.crypto.verify_vote(src, Phase.PREPARE, msg.view, msg.last_voted, msg.share)
        except InvalidVote:
            return
        bucket = self._vc_messages.setdefault(msg.view, {})
        bucket[src] = msg
        if msg.justify is not None and msg.justify.qc.phase == Phase.PREPARE:
            self._offer_vc_candidate(msg.view, msg.justify.qc)
        if len(bucket) >= self.config.quorum:
            self._begin_pre_prepare(msg.view)

    def _offer_vc_candidate(self, view: int, qc: QuorumCertificate) -> None:
        """Track the highest prepareQC seen — a future virtual-block vc."""
        current = self._best_vc.get(view)
        if current is None or compare_qc_rank(qc, current) is Rank.HIGHER:
            self._best_vc[view] = qc

    def _begin_pre_prepare(self, view: int) -> None:
        if view in self._pre_prepare_started:
            return
        self._pre_prepare_started.add(view)
        if self.cview < view:
            self._advance_view(view)
        messages = self._vc_messages.pop(view, {})

        if not self.force_unhappy and self._try_happy_path(view, messages):
            self.stats["happy_view_changes"] += 1
            self.obs.view_change_event("happy-qc", view)
            return
        self.stats["unhappy_view_changes"] += 1
        self.obs.view_change_event("pre-prepare-start", view)
        self._run_pre_prepare_cases(view, messages)

    def _try_happy_path(self, view: int, messages: dict[int, ViewChangeMsg]) -> bool:
        """Two-phase view change: combine VC partial sigs into a prepareQC."""
        summaries = {m.last_voted for m in messages.values() if m.last_voted is not None}
        if len(summaries) != 1 or len(messages) < self.config.quorum:
            return False
        (lb,) = summaries
        accumulator = self.crypto.accumulator(Phase.PREPARE, view, lb)
        for src, msg in messages.items():
            accumulator.add(src, msg.share)
        if not accumulator.complete:
            return False
        try:
            qc = self.crypto.make_qc(Phase.PREPARE, view, lb, accumulator)
        except CryptoError:
            return False
        self.ctx.charge(self.costs.combine(self.config.quorum))
        self.high_qc = Justify(qc)
        self._leader_ready = True
        # Two-phase resume: commit lb (idempotent if already committed)
        # and pipeline the next proposal in the same instant.
        self.ctx.broadcast(PhaseMsg(phase=Phase.COMMIT, view=view, justify=Justify(qc)))
        self._maybe_propose()
        return True

    def _run_pre_prepare_cases(self, view: int, messages: dict[int, ViewChangeMsg]) -> None:
        """Leader Cases V1 / V2 / V3 of Fig. 9."""
        justifies: dict[bytes, Justify] = {}
        for msg in messages.values():
            if msg.justify is not None:
                justifies.setdefault(msg.justify.qc.digest, msg.justify)
        candidates = [justify.qc for justify in justifies.values()]
        maxima = highest_qcs(candidates)
        bv = highest_block([m.last_voted for m in messages.values() if m.last_voted])
        batch = self.pool.next_batch()

        proposals: list[Proposal]
        if len(maxima) == 1 and maxima[0].phase == Phase.PREPARE:
            qc = maxima[0]
            if bv is not None and block_rank_higher(bv, qc.block):
                # Case V1: shadow-propose a normal and a virtual block.
                self.stats["case_v1"] += 1
                normal = self._extend(qc.block, view, batch, qc)
                virtual = Block(
                    parent_link=None,
                    parent_view=qc.view,
                    view=view,
                    height=qc.block.height + 2,
                    operations=batch,
                    justify_digest=qc.digest,
                    proposer=self.id,
                )
                proposals = [
                    Proposal(normal, Justify(qc)),
                    Proposal(virtual, Justify(qc)),
                ]
            else:
                # Case V2 (prepareQC variant): safe snapshot, one block.
                self.stats["case_v2"] += 1
                proposals = [Proposal(self._extend(qc.block, view, batch, qc), Justify(qc))]
        elif len(maxima) == 1:
            # Case V2 (single pre-prepareQC variant).
            self.stats["case_v2"] += 1
            qc = maxima[0]
            justify = justifies[qc.digest]
            proposals = [Proposal(self._extend(qc.block, view, batch, qc), justify)]
        else:
            # Case V3: two pre-prepareQCs of equal rank (Lemma 4 caps it
            # at two for correct executions; extras are defensively
            # ignored and counted — the fuzz suite asserts this never
            # fires without Byzantine equivocation).
            if len(maxima) > 2:
                self.stats["lemma4_violations"] += 1
            self.stats["case_v3"] += 1
            first, second = maxima[0], maxima[1]
            proposals = [
                Proposal(self._extend(first.block, view, batch, first), justifies[first.digest]),
                Proposal(self._extend(second.block, view, batch, second), justifies[second.digest]),
            ]
        for proposal in proposals:
            self.tree.add(proposal.block)
        self.stats["proposals_sent"] += 1
        self.obs.view_change_event("pre-prepare-broadcast", view, proposals=len(proposals))
        self.ctx.broadcast(
            PrePrepareMsg(view=view, proposals=tuple(proposals), shadow=len(proposals) == 2)
        )

    def _extend(
        self, parent: BlockSummary, view: int, batch: tuple, qc: QuorumCertificate
    ) -> Block:
        return Block(
            parent_link=parent.digest,
            parent_view=parent.view,
            view=view,
            height=parent.height + 1,
            operations=batch,
            justify_digest=qc.digest,
            proposer=self.id,
        )

    # ============================================ replica: pre-prepare (R*)

    def _on_pre_prepare(self, src: int, msg: PrePrepareMsg) -> None:
        if msg.view < self.cview or self.leader_of(msg.view) != src:
            return
        if msg.view > self.cview:
            # A pre-prepare justify is formed *before* msg.view, so it
            # cannot prove a quorum entered msg.view; only replicas whose
            # own timeout reached the view participate, which is enough
            # (the leader already holds n - f VIEW-CHANGE messages).
            return
        for proposal in msg.proposals:
            self._consider_pre_prepare_vote(src, msg.view, proposal)

    def _consider_pre_prepare_vote(self, leader: int, view: int, proposal: Proposal) -> None:
        justify = proposal.justify
        block = proposal.block
        if block.view != view or block.justify_digest != justify.qc.digest:
            return
        if not self._validate_justify(justify, before_view=view):
            return
        qc = justify.qc
        if block.is_virtual:
            # Valid virtual block: justified by a prepareQC, two heights
            # above it, parent view = the QC's formation view (Fig. 9 V1).
            if qc.phase != Phase.PREPARE or justify.vc is not None:
                return
            if block.height != qc.block.height + 2 or block.parent_view != qc.view:
                return
        else:
            if (
                block.parent_link != qc.block.digest
                or block.height != qc.block.height + 1
                or block.parent_view != qc.block.view
            ):
                return

        locked = self.locked_qc
        attach: QuorumCertificate | None = None
        if compare_qc_rank(qc, locked).at_least:
            self.stats["votes_r1"] += 1  # Case R1
            case = "R1"
        elif (
            justify.vc is None
            and qc.phase == Phase.PREPARE
            and block.is_virtual
            and qc.view == locked.view
            and qc.block.height == locked.block.height - 1
        ):
            self.stats["votes_r2"] += 1  # Case R2: also ship lockedQC.
            attach = locked
            case = "R2"
        elif qc.phase == Phase.PRE_PREPARE and qc.block.digest == locked.block.digest:
            self.stats["votes_r3"] += 1  # Case R3
            case = "R3"
        else:
            return

        self.tree.add(block)
        summary = proposal.summary
        self.obs.view_change_event(
            "pre-prepare-vote", view, case=case, virtual=block.is_virtual
        )
        share = self.crypto.sign_vote(self.id, Phase.PRE_PREPARE, view, summary)
        self._send_vote(
            leader,
            VoteMsg(
                phase=Phase.PRE_PREPARE,
                view=view,
                block=summary,
                share=share,
                locked_qc=attach,
            ),
        )

    # ======================================================== vote intake

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
        if vote.phase == Phase.PRE_PREPARE:
            self._on_pre_prepare_vote(src, vote)
        elif vote.phase == Phase.PREPARE:
            self._on_prepare_vote(src, vote)
        elif vote.phase == Phase.COMMIT:
            self._on_commit_vote(src, vote)

    def _on_pre_prepare_vote(self, src: int, vote: VoteMsg) -> None:
        view = vote.view
        if self._leader_ready:
            return
        if vote.locked_qc is not None:
            # R2 attachment: a prepareQC that may validate the virtual block.
            if vote.locked_qc.phase == Phase.PREPARE and self.crypto.qc_is_valid(vote.locked_qc):
                self._charge_qc_verify(vote.locked_qc)
                self._offer_vc_candidate(view, vote.locked_qc)
        qc = self.collector.add_vote(Phase.PRE_PREPARE, view, vote.block, src, vote.share)
        if qc is not None:
            self.ctx.charge(self.costs.combine(self.config.quorum))
            self._pending_ppqcs.setdefault(view, []).append(qc)
            self.obs.qc_formed(qc.block.digest, "pre-prepare", view, qc)
        self._try_start_prepare(view)

    def _try_start_prepare(self, view: int) -> None:
        """Case 1 / Case 2 of Section IV-D: use the first usable ppQC."""
        if self._leader_ready:
            return
        for qc in self._pending_ppqcs.get(view, []):
            if not qc.block.is_virtual:
                self.high_qc = Justify(qc)
            else:
                vc = self._best_vc.get(view)
                if (
                    vc is None
                    or vc.view != qc.parent_view
                    or vc.block.height != qc.block.height - 1
                ):
                    continue
                self.tree.resolve_virtual_parent(qc.block.digest, vc.block.digest)
                self.high_qc = Justify(qc, vc)
            self._leader_ready = True
            self._outstanding_prepare = qc.block.digest
            self.stats["proposals_sent"] += 1
            self.obs.block_proposed(qc.block.digest, view, qc.block.height)
            self.obs.phase_begin(qc.block.digest, "prepare", view, qc.block.height)
            # Case N2 re-proposes by reference: the block travelled in the
            # PRE-PREPARE broadcast, so this PREPARE carries only the QC.
            self.ctx.broadcast(
                PhaseMsg(phase=Phase.PREPARE, view=view, justify=self.high_qc, block=None)
            )
            return

    def _on_prepare_vote(self, src: int, vote: VoteMsg) -> None:
        qc = self.collector.add_vote(Phase.PREPARE, vote.view, vote.block, src, vote.share)
        if qc is None:
            return
        self.ctx.charge(self.costs.combine(self.config.quorum))
        self.obs.qc_formed(qc.block.digest, "prepare", vote.view, qc)
        if self._outstanding_prepare == vote.block.digest:
            self._outstanding_prepare = None
        if compare_qc_rank(qc, self.high_qc.qc) is Rank.HIGHER:
            self.high_qc = Justify(qc)
        self._leader_ready = True
        self.ctx.broadcast(PhaseMsg(phase=Phase.COMMIT, view=vote.view, justify=Justify(qc)))
        self._maybe_propose()

    def _on_commit_vote(self, src: int, vote: VoteMsg) -> None:
        qc = self.collector.add_vote(Phase.COMMIT, vote.view, vote.block, src, vote.share)
        if qc is None:
            return
        self.ctx.charge(self.costs.combine(self.config.quorum))
        self.obs.qc_formed(qc.block.digest, "commit", vote.view, qc)
        self.ctx.broadcast(PhaseMsg(phase=Phase.DECIDE, view=vote.view, justify=Justify(qc)))

    # ================================================== normal case phases

    def _maybe_propose(self) -> None:
        """Case N1: extend the block of a current-view prepareQC."""
        if not self.is_leader() or not self._leader_ready:
            return
        if self._outstanding_prepare is not None:
            return
        qc = self.high_qc.qc
        if qc.phase != Phase.PREPARE or qc.view != self.cview:
            return
        block = self._take_speculative(qc)
        if block is None:
            batch = self.pool.next_batch()
            if not batch:
                return
            block = self._extend(qc.block, self.cview, batch, qc)
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

    def _on_phase_msg(self, src: int, msg: PhaseMsg) -> None:
        if msg.phase == Phase.PREPARE:
            self._on_prepare(src, msg)
        elif msg.phase == Phase.COMMIT:
            self._on_commit(src, msg)
        elif msg.phase == Phase.DECIDE:
            self._on_decide(src, msg)

    def _on_prepare(self, src: int, msg: PhaseMsg) -> None:
        if self.leader_of(msg.view) != src:
            return
        if msg.view > self.cview and not self._catch_up(msg.view, msg.justify.qc):
            return
        if msg.view != self.cview:
            return
        block = msg.block
        justify = msg.justify
        qc = justify.qc
        if qc.phase == Phase.PREPARE:
            # Case N1: a fresh block extending block(qc), carried in full.
            if block is None or justify.is_composite:
                return
            if block.view != msg.view:
                return
            if (
                block.justify_digest != qc.digest
                or block.parent_link != qc.block.digest
                or block.height != qc.block.height + 1
            ):
                return
            summary = BlockSummary.of(block, justify_in_view=qc.view == block.view)
        elif qc.phase == Phase.PRE_PREPARE:
            # Case N2: the block *is* block(qc).  It normally travels by
            # reference (it was broadcast in the PRE-PREPARE); a replica
            # that never received it can still vote from the summary and
            # fetch the body before committing.
            if qc.block.view != msg.view:
                return
            if block is not None and block.digest != qc.block.digest:
                return
            if justify.is_composite != qc.block.is_virtual:
                return
            summary = qc.block
        else:
            return
        if not block_rank_higher(summary, self.last_voted):
            return
        if not self._validate_justify(justify, before_view=None):
            return
        if qc.view != self.cview:
            return
        if not compare_qc_rank(qc, self.locked_qc).at_least:
            return
        if block is not None:
            if block.digest not in self._verified_blocks:
                self.ctx.charge(self.costs.verify_block(block))
                self._verified_blocks.add(block.digest)
            self.tree.add(block)
        self.obs.phase_begin(summary.digest, "prepare", msg.view, summary.height)
        self.obs.view_change_done(msg.view)
        share = self.crypto.sign_vote(self.id, Phase.PREPARE, msg.view, summary)
        self._send_vote(
            src, VoteMsg(phase=Phase.PREPARE, view=msg.view, block=summary, share=share)
        )
        self.last_voted = summary
        self.high_qc = justify
        if qc.phase == Phase.PREPARE and compare_qc_rank(qc, self.locked_qc) is Rank.HIGHER:
            self.locked_qc = qc

    def _on_commit(self, src: int, msg: PhaseMsg) -> None:
        if self.leader_of(msg.view) != src:
            return
        qc = msg.justify.qc
        if qc.phase != Phase.PREPARE or qc.view != msg.view:
            return
        if msg.view > self.cview and not self._catch_up(msg.view, qc):
            return
        if msg.view != self.cview:
            return
        self._verify_justify_sigs(msg.justify)
        if not self.crypto.qc_is_valid(qc):
            return
        self.obs.phase_end(qc.block.digest, "prepare")
        self.obs.phase_begin(qc.block.digest, "commit", msg.view, qc.block.height)
        self.obs.view_change_done(msg.view)
        share = self.crypto.sign_vote(self.id, Phase.COMMIT, msg.view, qc.block)
        self._send_vote(
            src, VoteMsg(phase=Phase.COMMIT, view=msg.view, block=qc.block, share=share)
        )
        if compare_qc_rank(qc, self.locked_qc) is Rank.HIGHER:
            self.locked_qc = qc
        if compare_qc_rank(qc, self.high_qc.qc) is Rank.HIGHER:
            self.high_qc = Justify(qc)

    def _on_decide(self, src: int, msg: PhaseMsg) -> None:
        qc = msg.justify.qc
        if qc.phase != Phase.COMMIT:
            return
        self._verify_justify_sigs(msg.justify)
        if not self.crypto.qc_is_valid(qc):
            return
        if msg.view > self.cview:
            self._catch_up(msg.view, qc)
        self._commit_by_qc(qc)

    # ------------------------------------------------------------ helpers

    def _verify_justify_sigs(self, justify: Justify) -> None:
        for qc in justify.qcs():
            self._charge_qc_verify(qc)

    def _validate_justify(self, justify: Justify | None, before_view: int | None) -> bool:
        """Structural + signature validation of a justify.

        ``before_view`` enforces the view-change requirement that every QC
        was formed before the new view; pass None to skip that check.
        """
        if justify is None:
            return False
        qc = justify.qc
        if before_view is not None and qc.view >= before_view:
            return False
        if justify.vc is not None:
            vc = justify.vc
            if qc.phase != Phase.PRE_PREPARE or not qc.block.is_virtual:
                return False
            if vc.view != qc.parent_view or vc.block.height != qc.block.height - 1:
                return False
            if before_view is not None and vc.view >= before_view:
                return False
        self._verify_justify_sigs(justify)
        for item in justify.qcs():
            if not self.crypto.qc_is_valid(item):
                return False
        if justify.vc is not None:
            self.tree.resolve_virtual_parent(qc.block.digest, justify.vc.block.digest)
        return True
