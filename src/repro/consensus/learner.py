"""Non-voting learner replicas (flexible quorums).

A learner is a full copy of the replicated state machine that takes no
part in consensus: it never votes, never leads, and holds no key
material.  Voting replicas echo every block they commit
(:class:`~repro.consensus.messages.CommitEcho`); the learner applies a
block once ``learner_commit_quorum`` *distinct* voters have echoed it —
``f + 1`` by default, so at least one echo came from a correct replica.
Raising the threshold buys stronger evidence at the cost of commit
latency (and of liveness when fewer than the threshold voters are up),
which is exactly the trade the adversary campaigns measure.

Learners commit strictly in chain order: a block is applied only when it
directly extends the learner's committed head *and* has met the echo
threshold, so a learner can never be tricked into applying a block whose
ancestors lack evidence.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.common.config import ClusterConfig
from repro.consensus.block import Block, genesis_block
from repro.consensus.blocktree import BlockTree
from repro.consensus.context import NodeContext
from repro.consensus.costs import ZeroCostModel
from repro.consensus.ledger import Ledger
from repro.consensus.messages import CommitEcho
from repro.obs.log import replica_logger
from repro.obs.observer import NULL_OBS, NullReplicaObs

CommitListener = Callable[[Block, float], None]


class LearnerReplica:
    """A non-voting replica that commits at its own echo threshold."""

    #: Harness hooks (client services, reply senders) skip non-voters.
    is_voter = False

    def __init__(
        self,
        replica_id: int,
        config: ClusterConfig,
        ctx: NodeContext,
        costs: ZeroCostModel | None = None,
    ) -> None:
        self.id = replica_id
        self.config = config
        self.ctx = ctx
        self.costs = costs or ZeroCostModel()
        self.cview = 0
        self.client_service: Any = None
        self.commit_listeners: list[CommitListener] = []

        self.genesis = genesis_block()
        self.tree = BlockTree(self.genesis)
        self.ledger = Ledger(self.tree, on_commit_block=self._on_block_committed)

        #: digest -> voter ids that echoed it.
        self._echoes: dict[bytes, set[int]] = {}
        #: digests that met the threshold but do not yet extend the head.
        self._ready: set[bytes] = set()

        self.stats: dict[str, int] = {
            "views_entered": 0,
            "view_changes": 0,
            "timeouts": 0,
            "blocks_committed": 0,
            "ops_committed": 0,
            "messages_handled": 0,
            "votes_sent": 0,
            "proposals_sent": 0,
            "echoes_received": 0,
        }
        self.obs: NullReplicaObs = NULL_OBS
        self.log = replica_logger(self.protocol_name, replica_id, lambda: self.cview)
        self._handlers: dict[type, Callable[[int, Any], None]] = {
            CommitEcho: self._on_commit_echo,
        }

    @property
    def protocol_name(self) -> str:
        return "learner"

    @property
    def handlers(self) -> dict[type, Callable[[int, Any], None]]:
        return self._handlers

    def attach_observer(self, obs: NullReplicaObs) -> None:
        self.obs = obs
        obs.bind(self.ctx)

    def start(self) -> None:
        """Learners are passive: nothing to boot, no timers to arm."""

    def on_message(self, src: int, payload: Any) -> None:
        self.stats["messages_handled"] += 1
        handler = self._handlers.get(type(payload))
        if handler is not None:
            handler(src, payload)

    # ------------------------------------------------------------- echoes

    def _on_commit_echo(self, src: int, echo: CommitEcho) -> None:
        if not 0 <= src < self.config.num_replicas:
            return  # only voting replicas can witness a commit
        block = echo.block
        self.stats["echoes_received"] += 1
        witnesses = self._echoes.setdefault(block.digest, set())
        if src in witnesses:
            return
        witnesses.add(src)
        if self.tree.get(block.digest) is None:
            self.ctx.charge(self.costs.verify_block(block))
            self.tree.add(block)
            if block.is_virtual and echo.parent is not None:
                self.tree.resolve_virtual_parent(block.digest, echo.parent)
        if len(witnesses) >= self.config.learner_commit_quorum:
            self._ready.add(block.digest)
            self._drain()

    def _drain(self) -> None:
        """Apply ready blocks that directly extend the committed head.

        Strict chain order: implicit ancestor commits are forbidden here —
        every applied block must have met the echo threshold itself.
        """
        progressed = True
        while progressed:
            progressed = False
            head = self.ledger.committed_head.digest
            for digest in list(self._ready):
                block = self.tree.get(digest)
                if block is None or self.tree.parent_digest(block) != head:
                    continue
                self._ready.discard(digest)
                self.ledger.commit(block)
                self.ctx.charge(self.costs.db_write(block))
                self.ctx.charge(self.costs.execute(len(block.operations)))
                self._echoes.pop(digest, None)
                progressed = True
                break

    def _on_block_committed(self, block: Block) -> None:
        self.stats["blocks_committed"] += 1
        self.stats["ops_committed"] += len(block.operations)
        if self.obs.enabled:
            self.obs.block_committed(
                block.digest, block.height, len(block.operations), block.view
            )
        now = self.ctx.now
        for listener in self.commit_listeners:
            listener(block, now)
