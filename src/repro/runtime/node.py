"""Asyncio node: one replica on a live event loop, with real storage.

:class:`AsyncioContext` satisfies the sans-io
:class:`~repro.consensus.context.NodeContext` contract with
``loop.call_later`` timers, end-of-pass coalescing and a real transport.
:class:`Node` bundles a protocol replica with the storage stack the
paper's evaluation used: committed blocks go to the from-scratch KV
store, a :class:`~repro.storage.checkpoint.CheckpointManager` trims
history, and a :class:`~repro.runtime.app.KVStateMachine` executes
operations.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable

from repro.client.config import ClientConfig
from repro.client.service import ClientService
from repro.common.config import ClusterConfig
from repro.common.encoding import encode
from repro.consensus.block import Block
from repro.consensus.context import NodeContext
from repro.consensus.crypto_service import CryptoService
from repro.consensus.hotstuff.replica import HotStuffReplica
from repro.consensus.marlin.replica import MarlinReplica
from repro.consensus.messages import StateTransferRequest, StateTransferResponse
from repro.consensus.pipeline import PipelineConfig
from repro.consensus.replica_base import ReplicaBase
from repro.network.transport import Transport
from repro.runtime.app import KVStateMachine
from repro.storage.blockstore import BlockStore
from repro.storage.checkpoint import CheckpointManager
from repro.storage.kvstore import KVStore


class AsyncioContext(NodeContext):
    """NodeContext over a live asyncio loop and a real transport."""

    def __init__(self, transport: Transport, replica_id: int, num_replicas: int) -> None:
        self._transport = transport
        self._id = replica_id
        self._n = num_replicas
        self._timers: dict[str, asyncio.Handle] = {}
        self._loop = asyncio.get_event_loop()

    @property
    def now(self) -> float:
        return self._loop.time()

    def send(self, dst: int, payload: Any) -> None:
        self._transport.send(self._id, dst, payload)

    def broadcast(self, payload: Any) -> None:
        for dst in range(self._n):
            self._transport.send(self._id, dst, payload)

    def set_timer(self, name: str, delay: float, callback: Callable[[], None]) -> None:
        self.cancel_timer(name)
        self._timers[name] = self._loop.call_later(delay, callback)

    def coalesce(self, name: str, window: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at the end of this loop pass, not after ``window``.

        ``call_soon`` queues it behind every callback the current
        ``select`` made ready, so it runs after all the frames that pass
        delivered: the burst is in without waiting on the wall clock.
        The handle is kept under ``name``, so ``cancel_timer`` and
        ``cancel_all`` stop it like a timer.
        """
        self.cancel_timer(name)
        self._timers[name] = self._loop.call_soon(callback)

    def cancel_timer(self, name: str) -> None:
        handle = self._timers.pop(name, None)
        if handle is not None:
            handle.cancel()

    def cancel_all(self) -> None:
        for name in list(self._timers):
            self.cancel_timer(name)

    def charge(self, seconds: float) -> None:
        """Wall-clock runtime: CPU time is real, nothing to account."""


def _serialize_block(block: Block) -> bytes:
    from repro.network import codec

    return codec.encode_block(block)


class Node:
    """A protocol replica plus its storage stack and application."""

    PROTOCOLS = {"marlin": MarlinReplica, "hotstuff": HotStuffReplica}

    def __init__(
        self,
        replica_id: int,
        config: ClusterConfig,
        transport: Transport,
        crypto: CryptoService,
        protocol: str = "marlin",
        data_dir: str | None = None,
        rotation_interval: float | None = None,
        observability: Any | None = None,
        pipeline: PipelineConfig | None = None,
        client_config: "ClientConfig | None" = None,
    ) -> None:
        self.id = replica_id
        self.ctx = AsyncioContext(transport, replica_id, config.num_replicas)
        replica_cls = self.PROTOCOLS[protocol]
        # Runtime clients broadcast requests to every node (see
        # LocalCluster.submit), so replicas hold operations locally
        # rather than forwarding to a leader that may be about to crash.
        self.replica: ReplicaBase = replica_cls(
            replica_id=replica_id,
            config=config,
            ctx=self.ctx,
            crypto=crypto,
            rotation_interval=rotation_interval,
            forward_requests=False,
            pipeline=pipeline,
        )
        if observability is not None:
            # Same RunObservability type the DES harness takes; spans get
            # wall-clock timestamps from AsyncioContext.now.
            self.replica.attach_observer(
                observability.replica_obs(replica_id, self.replica.protocol_name)
            )
        self.kv = KVStore(directory=data_dir)
        self.blockstore = BlockStore(kv=self.kv, serializer=_serialize_block)
        self.app = KVStateMachine(store=self.kv)
        self.checkpoints = CheckpointManager(
            interval=config.checkpoint_interval, blockstore=self.blockstore, kv=self.kv
        )
        # The client service wraps the application executor: it runs
        # app.apply under the ledger's exactly-once guard, caches the
        # reply per client session, and answers retransmits from that
        # cache instead of re-executing.
        self.client_service = ClientService(
            self.replica,
            client_config,
            result_fn=self.app.apply,
            read_fn=lambda key: self.app.get(key) or b"",
        ).install()
        self.replica.ledger.set_executor(self.client_service.execute)
        self.replica.commit_listeners.append(self._persist_commit)
        self.alive = True
        self._recovered_view: int | None = None
        self._awaiting_state_transfer = False
        self._st_responses: dict[bytes, dict[int, StateTransferResponse]] = {}
        if data_dir is not None:
            self._recover()
        transport.register(replica_id, self._on_message)
        self.commit_event = asyncio.Event()

    def _on_message(self, src: int, payload: Any) -> None:
        if not self.alive:
            return
        if isinstance(payload, StateTransferRequest):
            self._serve_state_transfer(src, payload)
            return
        if isinstance(payload, StateTransferResponse):
            self._on_state_transfer_response(src, payload)
            return
        self.replica.on_message(src, payload)

    # -------------------------------------------------- state transfer

    def _serve_state_transfer(self, src: int, request: StateTransferRequest) -> None:
        """Answer a peer's snapshot request from local committed state."""
        ledger = self.replica.ledger
        if ledger.committed_height <= request.have_height:
            return
        head = ledger.committed_head
        recent = tuple(
            block
            for block in self.replica.tree.branch(head)
            if not block.is_genesis
        )[:8]
        self.ctx.send(
            src,
            StateTransferResponse(
                committed_height=ledger.committed_height,
                head=head,
                recent_blocks=recent,
                app_entries=self.app.entries(),
            ),
        )

    def _on_state_transfer_response(self, src: int, response: StateTransferResponse) -> None:
        """Install a snapshot once f+1 peers agree on the head digest.

        f+1 matching responses guarantee at least one came from a correct
        replica, so the snapshot reflects a genuinely committed state.
        """
        if not self._awaiting_state_transfer or response.head is None:
            return
        if response.committed_height <= self.replica.ledger.committed_height:
            return
        digest = response.head.digest
        bucket = self._st_responses.setdefault(digest, {})
        bucket[src] = response
        f = (self.replica.config.num_replicas - 1) // 3
        if len(bucket) < f + 1:
            return
        self._awaiting_state_transfer = False
        self._st_responses.clear()
        head = response.head
        for block in (head, *response.recent_blocks):
            self.replica.tree.add(block)
            self.blockstore.add(block)
        self.replica.ledger.install_snapshot(head)
        self.app.install_entries(response.app_entries)
        for key, value in response.app_entries:
            self.kv.put(b"app:" + key, value)
        self.kv.put(b"meta:committed_height", str(head.height).encode())
        self.kv.put(b"chain:%012d" % head.height, head.digest)
        self.commit_event.set()

    def request_state_transfer(self) -> None:
        """Broadcast a snapshot request to every peer (fresh-disk boot)."""
        self._awaiting_state_transfer = True
        request = StateTransferRequest(have_height=self.replica.ledger.committed_height)
        for peer in range(self.replica.config.num_replicas):
            if peer != self.id:
                self.ctx.send(peer, request)

    def _persist_commit(self, block: Block, when: float) -> None:
        self.blockstore.add(block)
        self.kv.put(b"meta:committed_height", str(block.height).encode())
        self.kv.put(b"chain:%012d" % block.height, block.digest)
        self._persist_consensus_state()
        self.checkpoints.on_commit(block, block.height)
        self.commit_event.set()

    # ------------------------------------------------------- durability

    def _persist_consensus_state(self) -> None:
        """Write the consensus-critical variables for crash recovery.

        Persisted at commit time: a replica restarting from this state
        rejoins at its last committed view.  (Votes between the last
        commit and the crash are not persisted — the recovering replica
        may re-enter a view it voted in, which is safe for crash faults;
        Byzantine-proof restart would persist before every vote.)
        """
        from repro.network import codec

        replica = self.replica
        if hasattr(replica, "last_voted"):
            state = [
                "marlin",
                replica.cview,
                codec.encode_summary(replica.last_voted),
                codec.encode_qc(replica.locked_qc),
                codec.encode_justify(replica.high_qc),
            ]
        else:
            state = [
                "hotstuff",
                replica.cview,
                codec.encode_qc(replica.prepare_qc),
                codec.encode_qc(replica.locked_qc),
            ]
        self.kv.put(b"meta:consensus", encode(state))

    def _recover(self) -> bool:
        """Rebuild replica state from the KV store; True if restored.

        Requires the full committed chain to be present (a checkpoint may
        have pruned history, in which case recovery falls back to a fresh
        start — state transfer from peers then happens via block sync).
        """
        from repro.common.encoding import decode
        from repro.network import codec

        height_raw = self.kv.get(b"meta:committed_height")
        state_raw = self.kv.get(b"meta:consensus")
        if height_raw is None or state_raw is None:
            return False
        height = int(height_raw)
        blocks: list[Block] = []
        pruned = False
        for h in range(1, height + 1):
            digest = self.kv.get(b"chain:%012d" % h)
            raw = self.kv.get(b"block:" + digest) if digest is not None else None
            if raw is None:
                pruned = True  # checkpointing trimmed this prefix
                blocks.clear()
                continue
            blocks.append(codec.decode_block(raw))
        replica = self.replica
        if pruned:
            # Snapshot restore: adopt the newest contiguous suffix's head
            # (always present — it was just committed) and the persisted
            # application state; earlier history stays pruned.
            if not blocks:
                return False
            for block in blocks:
                replica.tree.add(block)
                self.blockstore.add(block)
            replica.ledger.install_snapshot(blocks[0])
            for block in blocks[1:]:
                replica.ledger.mark_committed(block)
        else:
            for block in blocks:
                replica.tree.add(block)
                self.blockstore.add(block)
                replica.ledger.mark_committed(block)
        self.app.load_from_store()
        state = decode(state_raw)
        if state[0] == "marlin":
            replica.cview = state[1] - 1  # start() re-enters the stored view
            replica.last_voted = codec.decode_summary(state[2])
            replica.locked_qc = codec.decode_qc(state[3])
            replica.high_qc = codec.decode_justify(state[4])
        else:
            replica.cview = state[1] - 1
            replica.prepare_qc = codec.decode_qc(state[2])
            replica.locked_qc = codec.decode_qc(state[3])
        self._recovered_view = state[1]
        return True

    def start(self) -> None:
        if getattr(self, "_recovered_view", None):
            # Re-enter the persisted view (sends the VIEW-CHANGE, arms
            # the pacemaker); catch-up handles a cluster that moved on.
            self.replica._advance_view(self._recovered_view)
        else:
            self.replica.start()

    def stop(self) -> None:
        self.ctx.cancel_all()
        self.replica.close()
        self.kv.close()

    def crash(self) -> None:
        """Crash-stop: ignore all future messages, cancel all timers."""
        self.alive = False
        self.ctx.cancel_all()

    @property
    def committed_height(self) -> int:
        return self.replica.ledger.committed_height

    async def wait_for_height(self, height: int, timeout: float = 30.0) -> None:
        """Block until this node commits up to ``height``."""
        deadline = asyncio.get_event_loop().time() + timeout
        while self.committed_height < height:
            remaining = deadline - asyncio.get_event_loop().time()
            if remaining <= 0:
                raise TimeoutError(
                    f"node {self.id} stuck at height {self.committed_height} < {height}"
                )
            self.commit_event.clear()
            try:
                await asyncio.wait_for(self.commit_event.wait(), timeout=min(remaining, 1.0))
            except asyncio.TimeoutError:
                continue
