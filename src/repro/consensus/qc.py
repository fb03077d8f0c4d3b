"""Quorum certificates and vote payloads (paper Section V-A).

A QC is a threshold signature (or signature bundle) over a vote message
``m`` for a block ``b``.  Following the paper's notation:

* ``type(qc)`` is ``m.type`` — here :attr:`QuorumCertificate.phase`;
* ``qc`` exposes the *formation view* ``m.view`` — the view whose votes
  built it — as :attr:`QuorumCertificate.view`.  The rank rules (Fig. 4)
  and the Case N1 check ``qc.view = cview`` operate on this view.  In the
  normal case it equals the block's own view; after a happy-path view
  change a ``prepareQC`` for an old block is formed from VIEW-CHANGE
  votes cast in the *new* view, and ranks accordingly;
* the block-level fields the paper writes ``qc.height`` / ``qc.pview``
  come from the embedded :class:`BlockSummary`.

A :class:`BlockSummary` is the digest-plus-metadata projection of a block
that votes and QCs carry: enough to run every rank comparison and
view-change rule without shipping operation payloads.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Any

from repro.common.errors import EncodingError, InvalidQC
from repro.common.encoding import encode
from repro.consensus.block import Block
from repro.crypto.hashing import Digest, short_hex


class Phase(Enum):
    """Message/QC types across all protocols in the repository.

    Marlin uses NEW_VIEW? no — Marlin uses VIEW_CHANGE, PRE_PREPARE,
    PREPARE, COMMIT (Section V-A).  The HotStuff baseline additionally
    uses PRECOMMIT and DECIDE.  GENERIC is the chained-mode phase.
    """

    VIEW_CHANGE = "view-change"
    PRE_PREPARE = "pre-prepare"
    PREPARE = "prepare"
    PRECOMMIT = "precommit"
    COMMIT = "commit"
    DECIDE = "decide"
    GENERIC = "generic"


@dataclass(frozen=True)
class BlockSummary:
    """Digest-linked block metadata carried by votes, QCs and view changes.

    ``justify_in_view`` records whether the block's ``justify`` is a
    ``prepareQC`` formed in the block's own view — the third clause of the
    paper's block-rank rule (Section V-A), which a verifier of a bare
    summary could not otherwise evaluate.
    """

    digest: Digest
    view: int
    height: int
    parent_view: int
    is_virtual: bool = False
    justify_in_view: bool = True

    def __post_init__(self) -> None:
        if len(self.digest) != 32:
            raise InvalidQC("block summary digest must be 32 bytes")
        if self.view < 0 or self.height < 0 or self.parent_view < 0:
            raise InvalidQC("block summary fields cannot be negative")

    @classmethod
    def of(cls, block: Block, justify_in_view: bool = True) -> "BlockSummary":
        return cls(
            digest=block.digest,
            view=block.view,
            height=block.height,
            parent_view=block.parent_view,
            is_virtual=block.is_virtual,
            justify_in_view=justify_in_view,
        )

    @property
    def wire_size(self) -> int:
        return 32 + 8 + 8 + 8 + 2

    def encodable(self) -> list:
        return [
            self.digest,
            self.view,
            self.height,
            self.parent_view,
            self.is_virtual,
            self.justify_in_view,
        ]

    def __repr__(self) -> str:
        kind = "virt" if self.is_virtual else "blk"
        return f"<{kind}sum v={self.view} h={self.height} {short_hex(self.digest)}>"


# ``encode([tag, phase.value, view, summary.encodable()])`` is a constant
# (tag, phase) prefix, one fixed-width run of tagged fields — view, the
# list-of-6 header, the 32-byte digest, view, height, parent view — and
# the two bool tag bytes.  Votes and QC digests pack that run directly.
_SUMMARY_FIELDS = struct.Struct(">BqBIBI32sBqBqBq")
_T_INT = ord("i")
_T_LIST = ord("l")
_T_BYTES = ord("b")
_BOOL_TAGS = {
    (virtual, in_view): encode(virtual) + encode(in_view)
    for virtual in (False, True)
    for in_view in (False, True)
}


def _tagged_prefix(tag: str, phase: Phase) -> bytes:
    return struct.pack(">BI", _T_LIST, 4) + encode(tag) + encode(phase.value)


_VOTE_PREFIX = {phase: _tagged_prefix("vote", phase) for phase in Phase}
_QC_PREFIX = {phase: hashlib.sha256(_tagged_prefix("qc", phase)) for phase in Phase}


def _summary_fields(view: int, block: BlockSummary, _pack=_SUMMARY_FIELDS.pack) -> bytes:
    """``view`` and ``block.encodable()`` as they follow a (tag, phase) prefix."""
    try:
        fields = _pack(
            _T_INT, view, _T_LIST, 6, _T_BYTES, 32, block.digest,
            _T_INT, block.view, _T_INT, block.height, _T_INT, block.parent_view,
        )
    except struct.error as exc:
        raise EncodingError(f"integer out of 64-bit range in vote for view {view}") from exc
    return fields + _BOOL_TAGS[block.is_virtual, block.justify_in_view]


def vote_payload(phase: Phase, view: int, block: BlockSummary) -> bytes:
    """The byte string a vote signs: binds phase, formation view, block.

    Every voter for the same (phase, view, block) signs identical bytes,
    which is what lets ``t`` partial signatures combine into one QC.
    Byte-identical to ``encode(["vote", phase.value, view,
    block.encodable()])`` (pinned by ``tests/test_fused_digests.py``),
    built from a precomputed prefix and one struct pack: every replica
    builds or checks one payload per vote.
    """
    return _VOTE_PREFIX[phase] + _summary_fields(view, block)


@dataclass(frozen=True)
class QuorumCertificate:
    """A certificate that ``n - f`` replicas voted (phase, view, block).

    ``signature`` is whatever the active crypto service produces: a
    combined :class:`~repro.crypto.threshold.ThresholdSignature`, a
    :class:`~repro.crypto.multisig.MultiSignature`, or an opaque token in
    fast-simulation mode.  Validation goes through the crypto service so
    protocol code never inspects it.
    """

    phase: Phase
    view: int
    block: BlockSummary
    signature: Any

    def __post_init__(self) -> None:
        if self.view < 0:
            raise InvalidQC("QC view cannot be negative")
        if self.phase == Phase.VIEW_CHANGE:
            raise InvalidQC("VIEW_CHANGE messages do not form QCs directly")

    @property
    def height(self) -> int:
        """``qc.height`` in the paper: the certified block's height."""
        return self.block.height

    @property
    def parent_view(self) -> int:
        """``qc.pview`` in the paper: the certified block's parent view."""
        return self.block.parent_view

    @property
    def block_digest(self) -> Digest:
        return self.block.digest

    @property
    def signed_payload(self) -> bytes:
        return vote_payload(self.phase, self.view, self.block)

    @property
    def wire_size(self) -> int:
        signature_size = getattr(self.signature, "wire_size", 32)
        return 1 + 8 + self.block.wire_size + int(signature_size)

    @property
    def digest(self) -> Digest:
        """Byte-identical to ``digest_of(["qc", phase.value, view,
        block.encodable()])``; packed like :func:`vote_payload`."""
        state = _QC_PREFIX[self.phase].copy()
        state.update(_summary_fields(self.view, self.block))
        return state.digest()

    def __repr__(self) -> str:
        return (
            f"<QC {self.phase.value} view={self.view} "
            f"h={self.height} {short_hex(self.block.digest)}>"
        )


def genesis_qc(block: Block) -> QuorumCertificate:
    """A synthetic PREPARE QC for the genesis block, trusted by fiat.

    Every replica boots with this as its ``highQC``; it validates without
    signature checking (all crypto services special-case view 0).
    """
    return QuorumCertificate(
        phase=Phase.PREPARE,
        view=0,
        block=BlockSummary.of(block, justify_in_view=True),
        signature=None,
    )
