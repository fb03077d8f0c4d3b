"""Hot-path batching and pipelining (off by default).

Marlin's linear authenticator complexity puts signature work on the hot
path: the leader verifies a quorum of vote shares per phase and every
replica verifies the QCs riding in each message.  This module holds the
machinery that amortises that work, mirroring the engineering HotStuff
and Fast-HotStuff deployments rely on for their throughput numbers:

* :class:`PipelineConfig` — the switch threaded from the runtimes down to
  the replicas.  ``None`` (the default everywhere) reproduces the
  unbatched per-item behaviour exactly; a ``PipelineConfig()`` turns on
  vote batching, speculative proposals and the QC cache charge.
* :class:`VoteBatchGate` — buffers unverified vote shares per
  ``(phase, view, block)`` until a quorum's worth arrive, batch-verifies
  them in one aggregate check, and drops post-quorum stragglers without
  verifying them at all.

Everything here is deterministic: the gate releases votes in a canonical
order, so the DES stays reproducible with pipelining enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.consensus.qc import BlockSummary, Phase

if TYPE_CHECKING:
    from repro.consensus.crypto_service import CryptoService


@dataclass(frozen=True)
class PipelineConfig:
    """Turns on batching and pipelining for one replica.

    It has no fields: passing a config instead of ``None`` (the default)
    makes the leader buffer vote shares and verify a quorum in one
    aggregate check, speculatively build the next block while the QC
    forms, and charge cached QCs at lookup cost.  ``None`` keeps the
    seed behaviour: per-vote verification, no speculation.
    """


@dataclass(frozen=True)
class GateResult:
    """What :meth:`VoteBatchGate.admit` released for processing.

    ``released`` lists ``(src, carry)`` pairs whose shares verified, in
    canonical (src-sorted) order — ``carry`` is whatever the caller
    passed alongside the share (typically the whole vote message).
    ``batch_verified`` is the number of shares checked by the aggregate
    verification this arrival triggered — the quantity the DES charges
    via ``costs.verify_votes_batch`` — and is 0 when nothing was
    verified.
    """

    released: tuple[tuple[int, Any], ...] = ()
    batch_verified: int = 0


@dataclass
class _GateTarget:
    #: src -> (share, carry)
    pending: dict[int, tuple[Any, Any]] = field(default_factory=dict)
    done: bool = False


class VoteBatchGate:
    """Defers vote verification until a quorum's worth of shares arrive.

    Rationale: a leader only needs ``quorum`` valid shares to form a QC.
    Verifying each share on arrival wastes work twice over — per-share
    calls forgo the aggregate batch check, and shares arriving after the
    QC formed are verified for nothing.  The gate buffers unverified
    shares per ``(phase, view, block)``; once ``quorum`` distinct signers
    are buffered it batch-verifies them (one blinded aggregate equation
    for threshold shares) and releases the valid ones in src order.
    Shares arriving after the target completed are dropped unverified.

    Invalid shares found by the batch check are discarded and the target
    keeps collecting, so a Byzantine share can delay but never prevent QC
    formation — the same robustness the per-item path has.
    """

    def __init__(self, crypto: "CryptoService", quorum: int) -> None:
        self._crypto = crypto
        self._quorum = quorum
        self._targets: dict[tuple[Phase, int, bytes], _GateTarget] = {}
        #: Total shares dropped unverified after their QC formed.
        self.dropped_late = 0
        #: Total shares rejected by batch verification.
        self.rejected = 0

    def _verify(self, votes: list[Any]) -> list[int]:
        """Indices of the shares in ``votes`` that fail the aggregate check."""
        return self._crypto.verify_votes(votes)

    def admit(
        self,
        src: int,
        phase: Phase,
        view: int,
        block: BlockSummary,
        share: Any,
        carry: Any = None,
    ) -> GateResult:
        """Buffer one share; returns any votes released by this arrival.

        ``carry`` rides along unverified and is handed back with the
        release, so callers can thread the originating message through.
        """
        key = (phase, view, block.digest)
        target = self._targets.get(key)
        if target is None:
            target = self._targets[key] = _GateTarget()
        if target.done:
            self.dropped_late += 1
            return GateResult()
        if src in target.pending:
            return GateResult()
        target.pending[src] = (share, carry)
        if len(target.pending) < self._quorum:
            return GateResult()
        entries = sorted(target.pending.items())
        votes = [(signer, phase, view, block, sh) for signer, (sh, _) in entries]
        bad = set(self._verify(votes))
        self.rejected += len(bad)
        batch_size = len(entries)
        good = [(signer, pair) for index, (signer, pair) in enumerate(entries) if index not in bad]
        if len(good) < self._quorum:
            # Not enough valid shares yet: keep the good ones buffered and
            # wait for more, re-verifying the survivors with the next
            # arrival (they are few — only Byzantine floods hit this).
            target.pending = dict(good)
            return GateResult(released=(), batch_verified=batch_size)
        target.done = True
        target.pending.clear()
        released = tuple((signer, carried) for signer, (_, carried) in good)
        return GateResult(released=released, batch_verified=batch_size)

    def discard_view(self, view: int) -> None:
        """Drop all targets for views ``<= view`` (mirrors VoteCollector)."""
        stale = [key for key in self._targets if key[1] <= view]
        for key in stale:
            del self._targets[key]
