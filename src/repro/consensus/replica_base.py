"""The sans-io replica skeleton shared by every protocol.

Subclasses (Marlin, HotStuff, the insecure strawman) provide the phase
logic; this base owns everything protocol-agnostic:

* the block tree, ledger, mempool and vote collector;
* the pacemaker: a view timer with exponential back-off, reset on commit
  progress, plus an optional rotating-leader mode (fixed-period view
  advancement, as in the paper's Fig. 10j experiments);
* message dispatch with per-message CPU accounting;
* client request intake (with forwarding to the current leader);
* commit plumbing, including block sync for missing ancestors;
* statistics every experiment reads (commits, view changes, timing).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable

from repro.common.config import ClusterConfig
from repro.common.errors import ProtocolError
from repro.consensus.block import BatchPool, Block, Operation, genesis_block
from repro.consensus.blocktree import BlockTree
from repro.consensus.context import NodeContext
from repro.consensus.costs import ZeroCostModel
from repro.consensus.crypto_service import CryptoService
from repro.consensus.ledger import Ledger
from repro.consensus.messages import (
    ClientRequest,
    ClientRequestBatch,
    CommitEcho,
    LeaseAck,
    LeaseProbe,
    ReadRequest,
    SyncRequest,
    SyncResponse,
)
from repro.consensus.pipeline import PipelineConfig, VoteBatchGate
from repro.consensus.qc import BlockSummary, Phase, QuorumCertificate, genesis_qc
from repro.consensus.votes import VoteCollector
from repro.obs.log import replica_logger
from repro.obs.observer import NULL_OBS, NullReplicaObs

CommitListener = Callable[[Block, float], None]

TIMER_VIEW = "view-timer"


class ReplicaBase(ABC):
    """Common state machine chassis for HotStuff-family replicas."""

    #: Voting member of the consensus group (learners override to False).
    is_voter = True

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
        self.id = replica_id
        self.config = config
        self.ctx = ctx
        self.crypto = crypto
        self.costs = costs or ZeroCostModel()
        self.rotation_interval = rotation_interval
        self.forward_requests = forward_requests
        self.pipeline = pipeline

        self.genesis = genesis_block()
        self.genesis_qc = genesis_qc(self.genesis)
        self.tree = BlockTree(self.genesis)
        self.ledger = Ledger(self.tree, on_commit_block=self._on_block_committed)
        self.pool = BatchPool(max_batch=config.batch_size)
        self.collector = VoteCollector(crypto)

        # Batching/pipelining state; all of it is inert when ``pipeline``
        # is None (the default), which reproduces the seed behaviour.
        self._vote_gate: VoteBatchGate | None = (
            None if pipeline is None else VoteBatchGate(crypto, config.quorum)
        )
        #: (block, justify_digest, staged_epoch) of the speculatively
        #: built next proposal, or None.
        self._speculative: tuple[Block, bytes, int] | None = None

        self.cview = 0
        self.current_timeout = config.base_timeout
        self.commit_listeners: list[CommitListener] = []
        #: Optional :class:`repro.client.service.ClientService` — installed
        #: by ``ClientService.install()``; None keeps the seed behaviour.
        self.client_service: Any = None
        self._pending_commits: dict[bytes, QuorumCertificate | None] = {}
        self._sync_inflight: set[bytes] = set()
        self._sync_attempts: dict[bytes, int] = {}

        # Statistics read by experiments.  ``views_entered`` counts every
        # view advance (bootstrap, catch-up, rotation included);
        # ``view_changes`` counts only timeout/failure-triggered changes,
        # so failure experiments (Fig. 10i/10j) are not polluted by
        # normal rotation or catch-up.
        self.stats: dict[str, int] = {
            "views_entered": 0,
            "view_changes": 0,
            "timeouts": 0,
            "blocks_committed": 0,
            "ops_committed": 0,
            "messages_handled": 0,
            "votes_sent": 0,
            "proposals_sent": 0,
        }
        self.view_entered_at: float = 0.0
        # Observability: a no-op observer by default; the harness swaps in
        # a real one via attach_observer().  Zero behavioural impact.
        self.obs: NullReplicaObs = NULL_OBS
        self.log = replica_logger(self.protocol_name, replica_id, lambda: self.cview)

    # ------------------------------------------------------------ plumbing

    @property
    def protocol_name(self) -> str:
        """Short protocol label for logs and metric labels."""
        return type(self).__name__.removesuffix("Replica").lower()

    def attach_observer(self, obs: NullReplicaObs) -> None:
        """Install a real observer (metrics + tracing) for this replica."""
        self.obs = obs
        obs.bind(self.ctx)

    @property
    @abstractmethod
    def handlers(self) -> dict[type, Callable[[int, Any], None]]:
        """Payload-type -> handler dispatch table (built once)."""

    @abstractmethod
    def _enter_view(self, view: int) -> None:
        """Protocol-specific actions on entering ``view`` (send VC, ...)."""

    @abstractmethod
    def _maybe_propose(self) -> None:
        """Leader hook: propose if conditions allow."""

    def start(self) -> None:
        """Boot the replica: enter view 1 through the view-change path.

        Starting via a view change (rather than a special genesis case)
        keeps the protocol uniform: view 1's leader assembles its first
        ``highQC`` exactly like any later view's leader.
        """
        self._advance_view(1, reason="start")

    def on_message(self, src: int, payload: Any) -> None:
        """Single entry point for every inbound message."""
        self.stats["messages_handled"] += 1
        if self.obs.enabled:
            self.obs.message_handled(payload)
        self.ctx.charge(self.costs.handle_message())
        handler = self.handlers.get(type(payload))
        if handler is None:
            return
        try:
            handler(src, payload)
        except ProtocolError:
            # Malformed/invalid messages from (possibly Byzantine) peers
            # are dropped; correct peers never trigger this path.
            pass

    # -------------------------------------------------------------- views

    def is_leader(self, view: int | None = None) -> bool:
        return self.config.leader_of(view if view is not None else self.cview) == self.id

    def leader_of(self, view: int) -> int:
        return self.config.leader_of(view)

    def _advance_view(self, new_view: int | None = None, *, reason: str = "advance") -> None:
        """Enter a higher view.

        ``reason`` labels the cause for statistics and tracing: "start"
        (bootstrap), "timeout" (pacemaker fired — a rotation tick in
        rotating-leader mode, a real failure otherwise), "catch-up" (a QC
        proved a quorum moved on), or "quorum" (leader assembled n - f
        view-change messages).  Only non-rotation timeouts count as view
        changes; every advance counts as a view entered.
        """
        target = new_view if new_view is not None else self.cview + 1
        if target <= self.cview:
            return
        self.cview = target
        self.stats["views_entered"] += 1
        if reason == "timeout" and self.rotation_interval is None:
            self.stats["view_changes"] += 1
        self.view_entered_at = self.ctx.now
        self.obs.view_entered(target, reason)
        self.log.debug("entering view %d (%s)", target, reason)
        self.collector.discard_view(target - 1)
        if self._vote_gate is not None:
            self._vote_gate.discard_view(target - 1)
        self._drop_speculation()
        if self.client_service is not None:
            self.client_service.on_view_change()
        self._arm_view_timer()
        self._enter_view(target)

    def _arm_view_timer(self) -> None:
        if self.rotation_interval is not None:
            self.ctx.set_timer(TIMER_VIEW, self.rotation_interval, self._on_view_timeout)
        else:
            self.ctx.set_timer(TIMER_VIEW, self.current_timeout, self._on_view_timeout)

    def _on_view_timeout(self) -> None:
        self.stats["timeouts"] += 1
        self.obs.view_timeout(self.cview)
        if self.rotation_interval is None:
            self.current_timeout = min(
                self.current_timeout * self.config.timeout_multiplier,
                self.config.max_timeout,
            )
        self._advance_view(
            reason="rotation" if self.rotation_interval is not None else "timeout"
        )

    def _on_progress(self) -> None:
        """Commit progress observed: reset back-off, rearm the timer.

        In rotating-leader mode the period is fixed, so progress does not
        defer the next rotation (matching the Fig. 10j methodology).
        """
        if self.rotation_interval is None:
            self.current_timeout = self.config.base_timeout
            self._arm_view_timer()

    # ------------------------------------------------------------- clients

    def on_client_request(self, request: ClientRequest) -> None:
        """Accept an operation; leaders enqueue, others forward."""
        op = Operation(
            request.client_id, request.sequence, request.payload, weight=request.weight
        )
        if self.is_leader():
            if self.pool.add(op):
                self._maybe_propose()
        elif self.forward_requests:
            self.ctx.send(self.leader_of(self.cview), request)
        else:
            self.pool.add(op)

    def _handle_client_request(self, src: int, request: ClientRequest) -> None:
        # The client service (when installed) filters first: a committed
        # duplicate is replayed from its cache, a full admission window
        # sheds — either way the request never re-enters the pool.  For
        # admitted requests the service also paces the leader's proposal
        # (intake coalescing), so per-client sends batch like the
        # aggregate submissions do.
        service = self.client_service
        if service is not None:
            if service.intake(src, request):
                return
            op = Operation(
                request.client_id, request.sequence, request.payload,
                weight=request.weight,
            )
            if self.is_leader():
                if self.pool.add(op):
                    service.schedule_propose()
            elif self.forward_requests:
                self.ctx.send(self.leader_of(self.cview), request)
            else:
                self.pool.add(op)
            return
        self.on_client_request(request)

    def _handle_read_request(self, src: int, request: ReadRequest) -> None:
        if self.client_service is not None:
            self.client_service.on_read_request(src, request)

    def _handle_lease_probe(self, src: int, probe: LeaseProbe) -> None:
        if self.client_service is not None:
            self.client_service.on_lease_probe(src, probe)

    def _handle_lease_ack(self, src: int, ack: LeaseAck) -> None:
        if self.client_service is not None:
            self.client_service.on_lease_ack(src, ack)

    def _handle_request_batch(self, src: int, batch: ClientRequestBatch) -> None:
        """Aggregate intake from the DES workload generator.

        Non-leaders keep the operations locally (they may become leader
        after a rotation) rather than forwarding — the generator already
        fans batches out to every replica it wants them at.
        """
        self.pool.add_many(batch.operations)
        if self.is_leader():
            self._maybe_propose()

    # -------------------------------------------------------------- commit

    def _commit_by_qc(self, qc: QuorumCertificate) -> None:
        """Commit the block certified by a COMMIT QC, syncing if needed."""
        self._commit_digest(qc.block.digest, qc)

    def _commit_digest(self, digest: bytes, qc: QuorumCertificate | None = None) -> None:
        """Commit the block with ``digest`` (and ancestors), syncing gaps.

        ``qc`` is retained for bookkeeping only; chained-mode commits have
        no explicit COMMIT QC (the chain of prepare QCs is the proof) and
        pass None.
        """
        block = self.tree.get(digest)
        if block is None or not self.ledger.can_commit(block):
            self._pending_commits[digest] = qc
            missing = self.tree.missing_ancestor(block) if block is not None else digest
            if missing is not None:
                self._request_sync(missing)
            return
        if self.ledger.is_committed(block.digest):
            return
        committed = self.ledger.commit(block)
        for node in committed:
            self.ctx.charge(self.costs.db_write(node))
            self.ctx.charge(self.costs.execute(len(node.operations)))
        self._on_progress()

    def _on_block_committed(self, block: Block) -> None:
        self.stats["blocks_committed"] += 1
        self.stats["ops_committed"] += len(block.operations)
        if self.obs.enabled:
            self.obs.block_committed(
                block.digest, block.height, len(block.operations), block.view
            )
        self.pool.forget(block.operations)
        now = self.ctx.now
        for listener in self.commit_listeners:
            listener(block, now)
        if self.config.learners:
            echo = CommitEcho(block=block, parent=self.tree.parent_digest(block))
            for learner_id in self.config.learner_ids:
                self.ctx.send(learner_id, echo)

    # ---------------------------------------------------------------- sync

    def _request_sync(self, digest: bytes) -> None:
        """Fetch one missing block from a single peer, with retries.

        One peer at a time keeps sync traffic off the hot path (a fan-out
        of full-block responses can monopolise every NIC); the retry
        timer walks the peer ring, so a block held by only one correct
        replica is still found within ``n`` attempts.
        """
        if digest in self._sync_inflight:
            return
        self._sync_inflight.add(digest)
        attempt = self._sync_attempts.get(digest, 0)
        self._sync_attempts[digest] = attempt + 1
        self.obs.sync_requested(attempt)
        target = (self.leader_of(self.cview) + attempt) % self.config.num_replicas
        if target == self.id:
            target = (target + 1) % self.config.num_replicas
            self._sync_attempts[digest] += 1
        self.ctx.send(target, SyncRequest(digests=(digest,)))
        self.ctx.set_timer("sync-retry", 0.5, self._sync_retry)

    def _sync_retry(self) -> None:
        """Re-issue sync requests that have not been satisfied yet."""
        self._sync_inflight.clear()
        self._retry_pending_commits()
        # Re-request whatever the pending commits still lack (the attempt
        # counter moves each retry to the next peer in the ring).
        for digest in list(self._pending_commits):
            block = self.tree.get(digest)
            missing = self.tree.missing_ancestor(block) if block is not None else digest
            if missing is not None:
                self._request_sync(missing)

    def _handle_sync_request(self, src: int, request: SyncRequest) -> None:
        blocks: list[Block] = []
        resolutions: list[tuple[bytes, bytes]] = []
        for digest in request.digests:
            block = self.tree.get(digest)
            if block is None:
                continue
            # Serve a short branch suffix only: a requester more than a
            # couple of blocks behind re-requests the next gap, which
            # keeps any single response off the responder's NIC hot path.
            for node in self.tree.branch(block):
                if node.is_genesis:
                    break
                blocks.append(node)
                if node.is_virtual:
                    parent = self.tree.parent_digest(node)
                    if parent is not None:
                        resolutions.append((node.digest, parent))
                if len(blocks) >= 2:
                    break
        if blocks:
            self.ctx.send(src, SyncResponse(blocks=tuple(blocks), resolutions=tuple(resolutions)))

    def _handle_sync_response(self, src: int, response: SyncResponse) -> None:
        for block in response.blocks:
            self.ctx.charge(self.costs.verify_block(block))
            self.tree.add(block)
            self._sync_inflight.discard(block.digest)
        for virtual_digest, parent_digest in response.resolutions:
            self.tree.resolve_virtual_parent(virtual_digest, parent_digest)
            self._sync_inflight.discard(virtual_digest)
        self._retry_pending_commits()

    def _retry_pending_commits(self) -> None:
        for digest in list(self._pending_commits):
            qc = self._pending_commits[digest]
            block = self.tree.get(digest)
            if block is not None and self.ledger.can_commit(block):
                del self._pending_commits[digest]
                self._commit_digest(digest, qc)

    # ------------------------------------------------------------- helpers

    def _base_handlers(self) -> dict[type, Callable[[int, Any], None]]:
        return {
            ClientRequest: self._handle_client_request,
            ClientRequestBatch: self._handle_request_batch,
            ReadRequest: self._handle_read_request,
            LeaseProbe: self._handle_lease_probe,
            LeaseAck: self._handle_lease_ack,
            SyncRequest: self._handle_sync_request,
            SyncResponse: self._handle_sync_response,
        }

    def _send_vote(self, dst: int, vote: Any) -> None:
        self.stats["votes_sent"] += 1
        if self.obs.enabled:
            self.obs.vote_sent(getattr(vote, "phase", None))
        self.ctx.charge(self.costs.sign_vote())
        self.ctx.send(dst, vote)

    def _charge_qc_verify(self, qc: QuorumCertificate) -> None:
        """Charge CPU for verifying ``qc``, cache-aware when pipelining.

        With pipelining off the charge is always the full verification
        (the seed behaviour, keeping old traces byte-identical).  With it
        on, a QC already in the crypto service's LRU cache costs only a
        lookup — the amortisation the cache exists to provide.
        """
        if self.pipeline is not None and self.crypto.qc_cached(qc):
            self.ctx.charge(self.costs.qc_cache_lookup())
        else:
            self.ctx.charge(self.costs.verify_qc(qc))

    # -------------------------------------------------- pipelining helpers

    def _stage_next(self, proposed: Block, qc: QuorumCertificate) -> None:
        """Speculatively build the next block while ``proposed``'s QC forms.

        The prepare-QC digest for ``proposed`` is predictable before any
        vote arrives — a QC's digest covers (phase, view, block) but not
        its signature — so the leader can assemble the entire next block
        (batch, links, justify digest) during the vote round trip.
        ``qc`` is the justify ``proposed`` itself was built on.
        """
        if self.pipeline is None:
            return
        self._drop_speculation()
        batch = self.pool.stage()
        if not batch:
            return
        summary = BlockSummary.of(proposed, justify_in_view=qc.view == proposed.view)
        expected = QuorumCertificate(
            phase=Phase.PREPARE, view=self.cview, block=summary, signature=None
        ).digest
        child = Block(
            parent_link=proposed.digest,
            parent_view=proposed.view,
            view=self.cview,
            height=proposed.height + 1,
            operations=batch,
            justify_digest=expected,
            proposer=self.id,
        )
        self._speculative = (child, expected, self.pool.staged_epoch)

    def _take_speculative(self, qc: QuorumCertificate) -> Block | None:
        """Consume the speculative block if the formed QC matches its bet.

        Rejects (and falls back to a fresh build) when the QC digest
        differs from the prediction, the view moved, committed operations
        were pruned out of the staged batch, or a fresh batch would be
        strictly larger — speculation must never shrink throughput.
        """
        if self._speculative is None:
            return None
        block, expected, epoch = self._speculative
        if (
            qc.digest != expected
            or block.view != self.cview
            or epoch != self.pool.staged_epoch
        ):
            self._drop_speculation()
            return None
        if self.pool.staged_weight < self.pool.max_batch and self.pool.pending_ops > 0:
            self._drop_speculation()
            return None
        self._speculative = None
        if not self.pool.take_staged():
            return None
        return block

    def _drop_speculation(self) -> None:
        """Abandon any speculatively built block, returning its batch."""
        if self._speculative is not None:
            self._speculative = None
            self.pool.unstage()
