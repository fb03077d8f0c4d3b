"""Protocol messages (paper Section V-A, "Message format").

A message ``m`` has ``m.view``, ``m.type``, ``m.block``, ``m.justify`` and
``m.parsig``.  We split the format into typed dataclasses per direction:

* :class:`PhaseMsg` — leader broadcasts for PREPARE / PRECOMMIT / COMMIT /
  DECIDE.  PREPARE carries the full block; the QC-only phases carry just
  the justify (the certified block is identified by its summary).
* :class:`PrePrepareMsg` — the view-change broadcast with one or two
  :class:`Proposal`s.  When two proposals are **shadow blocks** they share
  one operation payload; ``wire_size`` counts the payload once, which is
  exactly the bandwidth saving of Section IV-D.
* :class:`VoteMsg` — a replica's signed response for one phase.  The
  optional ``locked_qc`` field implements view-change Case R2, where the
  voter also ships its ``lockedQC`` to the leader.
* :class:`ViewChangeMsg` — sent to the new leader: the last voted block
  ``lb``, the sender's ``highQC`` (as a :class:`Justify`), and a partial
  signature over the prepare-vote for ``lb`` in the *new* view (this is
  what the happy path combines directly into a ``prepareQC``).
* :class:`SyncRequest` / :class:`SyncResponse` — block fetch, used when a
  replica must commit ancestors it never received (e.g. the resolved
  parent of a virtual block).

Every message exposes ``wire_size`` so the DES bandwidth model and the
Table I communication accounting see realistic byte counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Any

from repro.common.errors import ProtocolError
from repro.consensus.block import Block, Operation
from repro.consensus.qc import BlockSummary, Phase, QuorumCertificate

_wire_size_of = attrgetter("wire_size")

PARTIAL_SIG_WIRE = 48
"""Wire size of one vote share (field element + signer index)."""


@dataclass(frozen=True)
class Justify:
    """One or two QCs, as the paper's ``m.justify``.

    The two-QC form ``(qc, vc)`` arises only for virtual blocks: ``qc`` is
    the pre-prepareQC for the virtual block and ``vc`` the prepareQC for
    its (now real) parent.
    """

    qc: QuorumCertificate
    vc: QuorumCertificate | None = None

    def __post_init__(self) -> None:
        if self.vc is not None and self.vc.phase != Phase.PREPARE:
            raise ProtocolError("the vc component of a justify must be a prepareQC")

    @property
    def is_composite(self) -> bool:
        return self.vc is not None

    @cached_property
    def wire_size(self) -> int:
        total = self.qc.wire_size
        if self.vc is not None:
            total += self.vc.wire_size
        return total

    def qcs(self) -> list[QuorumCertificate]:
        return [self.qc] if self.vc is None else [self.qc, self.vc]


@dataclass(frozen=True)
class PhaseMsg:
    """Leader broadcast driving one phase of one block.

    PREPARE normally carries the full proposed block.  The one exception
    is the prepare phase immediately after a pre-prepare (view-change
    Case N2): the block was already broadcast in the PRE-PREPARE, so the
    PREPARE references it through its QC only — the paper's chaining
    observation that "no new block is proposed in the prepare phase
    immediately after the pre-prepare".
    """

    phase: Phase
    view: int
    justify: Justify
    block: Block | None = None

    def __post_init__(self) -> None:
        if self.phase in (Phase.PRECOMMIT, Phase.COMMIT, Phase.DECIDE) and self.block is not None:
            raise ProtocolError(f"{self.phase.value} messages are QC-only")

    @cached_property
    def wire_size(self) -> int:
        total = 1 + 8 + self.justify.wire_size
        if self.block is not None:
            total += self.block.wire_size
        return total


@dataclass(frozen=True)
class Proposal:
    """One of the (up to two) blocks in a PRE-PREPARE message."""

    block: Block
    justify: Justify

    @property
    def summary(self) -> BlockSummary:
        justify_in_view = (
            self.justify.qc.phase == Phase.PREPARE
            and self.justify.qc.view == self.block.view
        )
        return BlockSummary.of(self.block, justify_in_view=justify_in_view)


@dataclass(frozen=True)
class PrePrepareMsg:
    """The view-change pre-prepare broadcast (one or two proposals)."""

    view: int
    proposals: tuple[Proposal, ...]
    shadow: bool = False

    def __post_init__(self) -> None:
        if not 1 <= len(self.proposals) <= 2:
            raise ProtocolError("PRE-PREPARE carries one or two proposals")
        if self.shadow and len(self.proposals) != 2:
            raise ProtocolError("shadow mode requires exactly two proposals")
        if self.shadow:
            first, second = self.proposals
            if first.block.operations != second.block.operations:
                raise ProtocolError("shadow blocks must share their operation payload")

    @cached_property
    def wire_size(self) -> int:
        total = 8
        for index, proposal in enumerate(self.proposals):
            total += proposal.justify.wire_size
            if self.shadow and index == 1:
                total += proposal.block.header_size
            else:
                total += proposal.block.wire_size
        return total


@dataclass(frozen=True)
class VoteMsg:
    """A replica's signed response for (phase, view, block)."""

    phase: Phase
    view: int
    block: BlockSummary
    share: Any
    locked_qc: QuorumCertificate | None = None

    @property
    def wire_size(self) -> int:
        total = 1 + 8 + self.block.wire_size + PARTIAL_SIG_WIRE
        if self.locked_qc is not None:
            total += self.locked_qc.wire_size
        return total


@dataclass(frozen=True)
class ViewChangeMsg:
    """Sent to the leader of ``view`` when a replica joins that view."""

    view: int
    last_voted: BlockSummary | None
    justify: Justify | None
    share: Any = None

    @property
    def wire_size(self) -> int:
        total = 8 + PARTIAL_SIG_WIRE
        if self.last_voted is not None:
            total += self.last_voted.wire_size
        if self.justify is not None:
            total += self.justify.wire_size
        return total


@dataclass(frozen=True)
class AggregateNewView:
    """Fast-HotStuff / Jolteon-style new-view broadcast (quadratic).

    The new leader ships its *entire* quorum of VIEW-CHANGE messages as
    evidence that the block it extends carries the highest QC any correct
    replica could be locked on — the PBFT-style unlock the paper's
    Section IV-C describes.  Each of the ``n`` replicas receives and
    verifies ``n - f`` embedded QCs: O(n^2) communication and
    authenticators per view change, the cost Table I charges these
    protocols with.
    """

    view: int
    block: Block
    justify: Justify
    proofs: tuple[tuple[int, ViewChangeMsg], ...]

    def __post_init__(self) -> None:
        if not self.proofs:
            raise ProtocolError("an aggregate new-view needs its proof quorum")

    @cached_property
    def wire_size(self) -> int:
        total = 8 + self.block.wire_size + self.justify.wire_size
        for _, proof in self.proofs:
            total += 4 + proof.wire_size
        return total


@dataclass(frozen=True)
class SyncRequest:
    """Ask a peer for the full blocks behind the listed digests."""

    digests: tuple[bytes, ...]

    @property
    def wire_size(self) -> int:
        return 4 + 32 * len(self.digests)


@dataclass(frozen=True)
class SyncResponse:
    """Full blocks answering a :class:`SyncRequest` (best effort).

    ``resolutions`` carries (virtual block digest, resolved parent digest)
    pairs so a syncing replica can reconstruct virtual-parent links it
    missed (they are otherwise only learned from a ``(qc, vc)`` justify).
    """

    blocks: tuple[Block, ...]
    resolutions: tuple[tuple[bytes, bytes], ...] = ()

    @cached_property
    def wire_size(self) -> int:
        return (
            4
            + sum(block.wire_size for block in self.blocks)
            + 64 * len(self.resolutions)
        )


@dataclass(frozen=True)
class CommitEcho:
    """Voter -> learner: "I committed this block".

    Learner replicas take no part in voting, so they learn commits from
    these echoes instead of DECIDE broadcasts: a learner applies a block
    only once ``learner_commit_quorum`` distinct voters have echoed it
    (default ``f + 1`` — at least one correct witness).  The full block
    travels because learners are outside the proposal fan-out.
    ``parent`` is the resolved parent digest for virtual blocks (whose
    ``parent_link`` is None until resolution).
    """

    block: Block
    parent: bytes | None = None

    @cached_property
    def wire_size(self) -> int:
        total = 8 + self.block.wire_size
        if self.parent is not None:
            total += 32
        return total


@dataclass(frozen=True)
class StateTransferRequest:
    """Ask a peer for a checkpoint snapshot (runtime-level recovery).

    Sent by a replica whose local history was garbage-collected past the
    point its WAL can rebuild; answered with a
    :class:`StateTransferResponse`.
    """

    have_height: int

    @property
    def wire_size(self) -> int:
        return 8


@dataclass(frozen=True)
class StateTransferResponse:
    """A checkpoint: application state plus the recent block window."""

    committed_height: int
    head: Block | None
    recent_blocks: tuple[Block, ...]
    app_entries: tuple[tuple[bytes, bytes], ...]

    @cached_property
    def wire_size(self) -> int:
        total = 16
        if self.head is not None:
            total += self.head.wire_size
        total += sum(b.wire_size for b in self.recent_blocks)
        total += sum(len(k) + len(v) + 8 for k, v in self.app_entries)
        return total


@dataclass(frozen=True)
class ClientRequest:
    """A client operation on its way to the leader.

    ``weight`` mirrors :class:`~repro.consensus.block.Operation.weight`:
    one request object can stand for ``weight`` lockstep clients (the
    token-scaling device), and its wire size scales accordingly so the
    bandwidth model sees the same bytes as ``weight`` individual sends.
    """

    client_id: int
    sequence: int
    payload: bytes
    weight: int = 1

    @property
    def wire_size(self) -> int:
        return self.weight * (16 + len(self.payload))


@dataclass(frozen=True)
class ClientRequestBatch:
    """Aggregate client submission used by the DES workload generator.

    One message stands for ``sum(op.weight)`` logical client requests; its
    wire size is the sum of the individual request sizes, so the bandwidth
    model sees exactly the traffic the paper's clients generate.

    Journey tracing (``repro.obs.journey``) adds **nothing** here: its
    trace context is each operation's existing ``(client_id, sequence)``
    identity, and the sample bit is derived from it (seeded CRC), so a
    traced run's wire traffic is byte-identical to an untraced one.
    """

    operations: tuple[Operation, ...]

    @cached_property
    def wire_size(self) -> int:
        return 4 + sum(map(_wire_size_of, self.operations))


@dataclass(frozen=True)
class ReplyBatch:
    """Aggregate replica->client replies for one committed block.

    ``view`` is the replica's view at commit time.  ``result_digests``
    may carry one digest per op key, but the hub workload sends none: it
    has no application, so every correct replica's digest would be the
    same request-derived value and nothing at the hub checks it.  Reply
    digests are checked on real-mode :class:`ClientReply` messages only.
    Neither field changes ``wire_size``: each modelled per-reply record
    already charges 24 bytes of header on top of the payload, which is
    where a 32-byte digest travels in the real encoding — keeping the
    hub model's benchmark curves exactly where they were.
    """

    replica: int
    block_digest: bytes
    op_keys: tuple[tuple[int, int], ...]
    num_ops: int
    reply_size: int
    result_digests: tuple[bytes, ...] = ()
    view: int = 1

    def __post_init__(self) -> None:
        if self.result_digests and len(self.result_digests) != len(self.op_keys):
            raise ProtocolError("need one result digest per op key")

    @property
    def wire_size(self) -> int:
        return 40 + self.num_ops * (24 + self.reply_size)


@dataclass(frozen=True)
class ClientReply:
    """A replica's reply to a committed client operation.

    Carries the triple the client certificate is built from —
    ``(sequence, result_digest)`` plus the replica's current ``view`` so
    the client's leader tracker learns about view changes from ordinary
    replies.  ``weight``/``reply_size`` scale the wire size for token
    clients exactly like :class:`ReplyBatch` does per op.
    """

    client_id: int
    sequence: int
    replica: int
    result: bytes = b""
    result_digest: bytes = b""
    view: int = 1
    weight: int = 1
    reply_size: int = 0

    @property
    def wire_size(self) -> int:
        per_reply = 24 + max(self.reply_size, len(self.result) + len(self.result_digest))
        return self.weight * per_reply


@dataclass(frozen=True)
class ReadRequest:
    """A leader-lease read (``reads="leader-lease"``) for one key."""

    client_id: int
    sequence: int
    key: bytes
    weight: int = 1

    @property
    def wire_size(self) -> int:
        return self.weight * (20 + len(self.key))


@dataclass(frozen=True)
class ReadReply:
    """Answer to a :class:`ReadRequest`.

    ``ok=False`` is a redirect: the receiver is not (or no longer) the
    leader; ``view`` tells the client where to look next.
    """

    client_id: int
    sequence: int
    replica: int
    view: int
    value: bytes = b""
    ok: bool = True
    weight: int = 1

    @property
    def wire_size(self) -> int:
        return self.weight * (33 + len(self.value))


@dataclass(frozen=True)
class LeaseProbe:
    """Leader -> replicas: "am I still the leader of ``view``?"

    The quorum check behind a leader-lease read (ReadIndex style): only
    after ``n - f`` replicas (including itself) acknowledge the view does
    the leader serve reads from committed state.
    """

    leader: int
    view: int
    nonce: int

    @property
    def wire_size(self) -> int:
        return 20


@dataclass(frozen=True)
class LeaseAck:
    """Replica -> leader: "yes, ``view`` is still my current view"."""

    replica: int
    view: int
    nonce: int

    @property
    def wire_size(self) -> int:
        return 20
