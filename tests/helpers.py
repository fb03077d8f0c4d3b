"""Test harness utilities: a synchronous in-memory network and QC forging.

:class:`LocalNet` runs ``n`` replicas over
:class:`~repro.consensus.context.LocalContext` and pumps their outboxes in
deterministic rounds, with optional message filtering — the tool used to
construct the paper's Fig. 2 view-change snapshots exactly.
:func:`assert_replies_in_flight` checks a hub pool's reply table.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.common.config import ClusterConfig
from repro.consensus.context import LocalContext
from repro.consensus.crypto_service import CryptoService, ThresholdCryptoService
from repro.consensus.qc import BlockSummary, Phase, QuorumCertificate
from repro.consensus.replica_base import TIMER_VIEW, ReplicaBase
from repro.crypto.keys import KeyRegistry

DropRule = Callable[[int, int, Any], bool]
"""drop(src, dst, payload) -> True to drop the message."""


def make_crypto(n: int = 4) -> ThresholdCryptoService:
    config = ClusterConfig.for_f((n - 1) // 3)
    return ThresholdCryptoService(KeyRegistry(n, config.quorum, seed=b"localnet"))


def forge_qc(
    crypto: CryptoService, phase: Phase, view: int, block: BlockSummary, signers: list[int] | None = None
) -> QuorumCertificate:
    """Build a genuine QC by having a quorum of replicas sign."""
    signers = signers if signers is not None else list(range(crypto.quorum))
    acc = crypto.accumulator(phase, view, block)
    for signer in signers:
        acc.add(signer, crypto.sign_vote(signer, phase, view, block))
    return crypto.make_qc(phase, view, block, acc)


class LocalNet:
    """Deterministic synchronous message pump over LocalContext replicas."""

    def __init__(
        self,
        replica_cls: type[ReplicaBase],
        n: int = 4,
        crypto: CryptoService | None = None,
        config: ClusterConfig | None = None,
        **replica_kwargs: Any,
    ) -> None:
        self.config = config or ClusterConfig.for_f((n - 1) // 3, batch_size=8)
        self.crypto = crypto or make_crypto(n)
        self.contexts = [LocalContext(i, n) for i in range(n)]
        self.replicas = [
            replica_cls(
                replica_id=i,
                config=self.config,
                ctx=self.contexts[i],
                crypto=self.crypto,
                **replica_kwargs,
            )
            for i in range(n)
        ]
        self.crashed: set[int] = set()
        self.delivered: list[tuple[int, int, Any]] = []

    def start(self, pump: bool = True) -> None:
        for replica in self.replicas:
            replica.start()
        if pump:
            self.pump()

    def crash(self, replica_id: int) -> None:
        self.crashed.add(replica_id)

    def pump(self, drop: DropRule | None = None, max_rounds: int = 200) -> int:
        """Deliver queued messages round by round until quiescent.

        Returns the number of messages delivered.  ``drop`` filters
        individual deliveries (the snapshot-construction tool).  When the
        network quiesces with sync-retry timers armed, those fire (block
        fetch is timer-driven) before declaring quiescence.
        """
        count = 0
        sync_rounds = 0
        for _ in range(max_rounds):
            batch: list[tuple[int, int, Any]] = []
            for src, ctx in enumerate(self.contexts):
                for dst, payload in ctx.drain():
                    batch.append((src, dst, payload))
            if not batch:
                if sync_rounds < 8 and self._fire_sync_retries():
                    sync_rounds += 1
                    continue
                return count
            for src, dst, payload in batch:
                if src in self.crashed or dst in self.crashed:
                    continue
                if drop is not None and drop(src, dst, payload):
                    continue
                self.delivered.append((src, dst, payload))
                self.replicas[dst].on_message(src, payload)
                count += 1
        raise AssertionError("pump did not quiesce (possible message storm)")

    def _fire_sync_retries(self) -> bool:
        fired = False
        for replica_id, ctx in enumerate(self.contexts):
            if replica_id in self.crashed:
                continue
            if "sync-retry" in ctx.timers:
                ctx.fire_timer("sync-retry")
                fired = True
        return fired

    def timeout_all(self, pump: bool = True, drop: DropRule | None = None) -> None:
        """Fire every live replica's view timer (simultaneous timeout)."""
        for replica_id, ctx in enumerate(self.contexts):
            if replica_id in self.crashed:
                continue
            if TIMER_VIEW in ctx.timers:
                ctx.fire_timer(TIMER_VIEW)
        if pump:
            self.pump(drop=drop)

    def submit(self, replica_id: int, payloads: list[bytes], client: int = 50) -> None:
        from repro.consensus.messages import ClientRequest

        replica = self.replicas[replica_id]
        for seq, payload in enumerate(payloads):
            replica.on_message(-1, ClientRequest(client_id=client, sequence=seq, payload=payload))

    def heights(self) -> list[int]:
        return [r.ledger.committed_height for r in self.replicas]

    def views(self) -> list[int]:
        return [r.cview for r in self.replicas]


def assert_replies_in_flight(cluster: Any, pool: Any, wire_time: float = 1.0) -> None:
    """Every block left in the hub pool's reply table is still in flight.

    The table drops a block once every voting replica's ReplyBatch for it
    has arrived, so at the horizon it may only hold blocks some voting
    replica has not committed yet, or committed within ``wire_time`` (an
    upper bound on a reply's time on the wire in these runs).
    """
    voters = cluster.experiment.cluster.num_replicas
    commit_times: dict[bytes, list[float]] = {}
    for replica_id, _, digest, when in cluster.auditor.commits:
        if replica_id < voters:
            commit_times.setdefault(digest, []).append(when)
    horizon = cluster.sim.now
    for digest in pool._replying:
        times = commit_times.get(digest, [])
        assert len(times) < voters or max(times) > horizon - wire_time
