"""Blocks: the unit of agreement (paper Sections III-A and V-A).

A block is ``b = [pl, pview, view, height, op, justify]``:

* ``pl`` — hash digest of the parent block (``None`` for virtual blocks
  and for the genesis block);
* ``pview`` — the view number of the parent block (a Marlin addition to
  the HotStuff syntax);
* ``view`` / ``height`` — where the block sits in the view/height grid;
* ``op`` — a batch of client operations;
* ``justify`` — a QC for the parent block (digest-linked here to keep
  block identity well-founded; the full QC travels in the message).

**Virtual blocks** (Section V-A) have ``pl = None``; they are proposed in
view-change Case V1 against a parent that may not exist yet, and acquire a
real parent when a ``prepareQC`` ``vc`` for that parent surfaces.

**Shadow blocks** (Section IV-D) are two blocks proposed together sharing
one operation payload; sharing is expressed at the message layer (the
second proposal's wire size omits the payload) while each block object
still owns its ``operations`` tuple, so digests stay self-contained.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter

from repro.common.errors import EncodingError, InvalidBlock
from repro.crypto.hashing import Digest, digest_of, short_hex

OPERATION_OVERHEAD = 16
"""Wire overhead per operation: client id, sequence number, length."""


class Operation:
    """One client operation: an opaque payload plus its provenance.

    ``weight`` lets a single object stand for ``weight`` identical
    back-to-back operations from one client — a simulation-scaling device
    (wire size, execution cost and throughput all scale by it) that keeps
    object counts manageable at paper-scale loads.  Real deployments use
    ``weight == 1``.

    Hand-written rather than a frozen dataclass: the workload generator
    creates one Operation per simulated request, and a frozen dataclass
    pays an ``object.__setattr__`` per field on every construction.  The
    wire size and dedup key are precomputed here because they are read on
    every hot path (batching, sizing, reply matching).
    """

    __slots__ = ("client_id", "sequence", "payload", "weight", "wire_size", "_key")

    def __init__(
        self,
        client_id: int,
        sequence: int,
        payload: bytes = b"",
        weight: int = 1,
    ) -> None:
        if weight < 1:
            raise InvalidBlock(f"operation weight must be >= 1, got {weight}")
        self.client_id = client_id
        self.sequence = sequence
        self.payload = payload
        self.weight = weight
        self.wire_size = (OPERATION_OVERHEAD + len(payload)) * weight
        self._key = (client_id, sequence)

    def key(self) -> tuple[int, int]:
        """Deduplication key: (client, sequence)."""
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Operation):
            return NotImplemented
        return (
            self._key == other._key
            and self.payload == other.payload
            and self.weight == other.weight
        )

    def __hash__(self) -> int:
        return hash((self.client_id, self.sequence, self.payload, self.weight))

    def __repr__(self) -> str:
        return (
            f"Operation(client_id={self.client_id}, sequence={self.sequence}, "
            f"payload={self.payload!r}, weight={self.weight})"
        )


# Layout of the canonical encoding (repro.common.encoding) that
# ``Block.digest`` hashes: the list-of-7 header, link (``n`` or 32 tagged
# bytes), the three tagged header ints and the ops-list header form one
# pack; each op is a list-of-4 header, tagged client and sequence, the
# payload's length header, the payload, then the tagged weight — one pack
# of the fused struct for its payload length.
_T_LIST = ord("l")
_T_INT = ord("i")
_T_BYTES = ord("b")
_T_NONE = ord("n")
_HEAD_UNLINKED = struct.Struct(">BIBBqBqBqBI")
_HEAD_LINKED = struct.Struct(">BIBI32sBqBqBqBI")
_TAGGED_INT = struct.Struct(">Bq")
_BYTES_HEAD = struct.Struct(">BI")


class _OpPackers(dict):
    """Payload length -> ``pack`` of one whole encoded op, built on first use."""

    def __missing__(self, size: int):
        pack = self[size] = struct.Struct(f">BIBqBqBI{size}sBq").pack
        return pack


_OP_PACKERS = _OpPackers()
_weight_of = attrgetter("weight")
_wire_size_of = attrgetter("wire_size")


@dataclass(frozen=True)
class Block:
    """An immutable block; identity is the digest of its canonical form."""

    parent_link: Digest | None
    parent_view: int
    view: int
    height: int
    operations: tuple[Operation, ...]
    justify_digest: Digest
    proposer: int = 0

    def __post_init__(self) -> None:
        if self.view < 0 or self.height < 0 or self.parent_view < 0:
            raise InvalidBlock("view/height fields cannot be negative")
        if self.parent_view > self.view:
            raise InvalidBlock(
                f"parent view {self.parent_view} exceeds block view {self.view}"
            )
        if self.parent_link is not None and len(self.parent_link) != 32:
            raise InvalidBlock("parent link must be a 32-byte digest")

    @property
    def is_virtual(self) -> bool:
        """True for the view-change virtual blocks of Section V-A."""
        return self.parent_link is None and self.height > 0

    @property
    def is_genesis(self) -> bool:
        return self.height == 0

    @cached_property
    def digest(self) -> Digest:
        """SHA-256 of the block's canonical encoding.

        Byte-identical to ``digest_of([pl, pview, view, height, [[client,
        seq, payload, weight], ...], justify, proposer])``, and raises
        :class:`EncodingError` wherever that does (an int outside int64);
        ``tests/test_fused_digests.py`` pins the equivalence.  Each op is
        one pack of a fused struct instead of per-op lists for the generic
        encoder, and the joined buffer is hashed once: every proposal and
        every replica receiving it digests the whole batch.
        """
        operations = self.operations
        link = self.parent_link
        justify = self.justify_digest
        packers = _OP_PACKERS
        header = (_T_INT, self.parent_view, _T_INT, self.view, _T_INT, self.height)
        try:
            if link is None:
                head = _HEAD_UNLINKED.pack(
                    _T_LIST, 7, _T_NONE, *header, _T_LIST, len(operations)
                )
            else:
                head = _HEAD_LINKED.pack(
                    _T_LIST, 7, _T_BYTES, 32, link, *header, _T_LIST, len(operations)
                )
            parts = [head]
            append = parts.append
            for op in operations:
                payload = op.payload
                size = len(payload)
                append(
                    packers[size](
                        _T_LIST, 4, _T_INT, op.client_id, _T_INT, op.sequence,
                        _T_BYTES, size, payload, _T_INT, op.weight,
                    )
                )
            append(_BYTES_HEAD.pack(_T_BYTES, len(justify)))
            append(justify)
            append(_TAGGED_INT.pack(_T_INT, self.proposer))
        except struct.error as exc:
            raise EncodingError(
                f"integer out of 64-bit range in block v={self.view} h={self.height}"
            ) from exc
        return hashlib.sha256(b"".join(parts)).digest()

    @cached_property
    def num_ops(self) -> int:
        """Logical operation count (weighted)."""
        return sum(map(_weight_of, self.operations))

    @cached_property
    def payload_size(self) -> int:
        return sum(map(_wire_size_of, self.operations))

    @property
    def header_size(self) -> int:
        """Wire size of everything except the operation payload."""
        return 32 + 8 + 8 + 8 + 32 + 8

    @cached_property
    def wire_size(self) -> int:
        return self.header_size + self.payload_size

    def release_payload(self) -> None:
        """Drop the operations once nothing will read them again.

        The header stays: the digest and the payload-derived sizes are
        cached first, so sync, wire sizing, ``extends`` and the commit
        paths answer for a released block as they did before.  Only a
        group's shared :class:`~repro.consensus.ledger.CommitLog`
        releases, once every ledger of the group is past the block.
        """
        self.digest, self.num_ops, self.wire_size  # cached before the payload goes
        object.__setattr__(self, "operations", ())

    def __repr__(self) -> str:
        kind = "virtual" if self.is_virtual else "block"
        return (
            f"<{kind} v={self.view} h={self.height} "
            f"ops={len(self.operations)} {short_hex(self.digest)}>"
        )


_GENESIS_JUSTIFY = digest_of(["genesis-justify"])


def genesis_block() -> Block:
    """The common root of every replica's tree (view 0, height 0)."""
    return Block(
        parent_link=None,
        parent_view=0,
        view=0,
        height=0,
        operations=(),
        justify_digest=_GENESIS_JUSTIFY,
        proposer=0,
    )


def make_child(
    parent: "Block",
    view: int,
    operations: tuple[Operation, ...],
    justify_digest: Digest,
    proposer: int = 0,
) -> Block:
    """Convenience constructor for a normal block extending ``parent``."""
    return Block(
        parent_link=parent.digest,
        parent_view=parent.view,
        view=view,
        height=parent.height + 1,
        operations=operations,
        justify_digest=justify_digest,
        proposer=proposer,
    )


class KeySet:
    """An exact set of ``(client, sequence)`` keys in O(clients) memory.

    Exactly-once execution needs every executed key remembered, but
    client sequence numbers are dense: each client numbers its requests
    consecutively.  PBFT-style session tables exploit this by keeping a
    per-client watermark instead of a key log; this class keeps the same
    answers as a plain ``set``.  Each client owns one contiguous run
    ``[start, end)``, begun at its first key; a key that lands outside
    its client's run (a gap, an out-of-order arrival, a key below the
    run) goes to a sparse ``set``, and sparse keys move into the run as
    soon as its ``end`` reaches them.  Dense streams therefore leave the
    sparse set empty and cost one run per client.
    """

    __slots__ = ("_runs", "_sparse")

    def __init__(self) -> None:
        self._runs: dict[int, list[int]] = {}
        self._sparse: set[tuple[int, int]] = set()

    def add(self, key: tuple[int, int]) -> bool:
        """Insert ``key``; True if it was not already present.

        :meth:`add_ops`'s rule for one key, without its op and list.
        """
        client, seq = key
        run = self._runs.get(client)
        if run is None:
            self._runs[client] = run = [seq, seq]
        elif seq != run[1]:
            if run[0] <= seq < run[1] or key in self._sparse:
                return False
            self._sparse.add(key)
            return True
        seq += 1
        sparse = self._sparse
        while sparse and (client, seq) in sparse:
            sparse.remove((client, seq))
            seq += 1
        run[1] = seq
        return True

    def add_ops(self, ops) -> list[Operation]:
        """Insert every op's key, in order; the ops whose key was new.

        Exactly as if each key went through :meth:`add` in turn, so an op
        repeating an earlier key of the same call is not new.
        """
        runs = self._runs
        sparse = self._sparse
        new: list[Operation] = []
        append = new.append
        for op in ops:
            key = op._key
            client, seq = key
            run = runs.get(client)
            if run is None:
                runs[client] = run = [seq, seq]
            elif seq != run[1]:
                if run[0] <= seq < run[1] or key in sparse:
                    continue
                sparse.add(key)
                append(op)
                continue
            seq += 1
            if sparse:
                while (client, seq) in sparse:
                    sparse.remove((client, seq))
                    seq += 1
            run[1] = seq
            append(op)
        return new

    def copy(self) -> "KeySet":
        """An independent set holding the same keys."""
        other = KeySet()
        other._runs = {client: run[:] for client, run in self._runs.items()}
        other._sparse = set(self._sparse)
        return other

    def __contains__(self, key: tuple[int, int]) -> bool:
        run = self._runs.get(key[0])
        if run is not None and run[0] <= key[1] < run[1]:
            return True
        return key in self._sparse

    def clear(self) -> None:
        self._runs.clear()
        self._sparse.clear()


@dataclass
class BatchPool:
    """A mempool of pending operations, drained into block batches.

    ``max_batch`` counts *weighted* operations.  Every admitted key is
    remembered in a :class:`KeySet`, so a later leader cannot re-admit
    an operation even after it committed and was pruned from the
    pending queue (it may sit in several replicas' pools under leader
    rotation).  For dense client sequences that memory is one
    ``[start, end)`` run per client, whatever the run length.
    """

    max_batch: int = 400
    _pending: list[Operation] = field(default_factory=list)
    _seen: KeySet = field(default_factory=KeySet)
    _staged: tuple[Operation, ...] | None = None
    staged_epoch: int = 0

    def add(self, op: Operation) -> bool:
        """Queue an operation; duplicate (client, seq) pairs are dropped."""
        if not self._seen.add_ops((op,)):
            return False
        self._pending.append(op)
        return True

    def add_many(self, ops) -> bool:
        """Bulk :meth:`add`; True if any operation was admitted.

        One call per client batch instead of one per operation — the DES
        workload generator delivers hundreds of operations per message.
        """
        new = self._seen.add_ops(ops)
        self._pending += new
        return bool(new)

    def next_batch(self) -> tuple[Operation, ...]:
        """Remove and return up to ``max_batch`` weighted operations (FIFO).

        Always returns at least one operation when any is pending, even if
        its weight alone exceeds the cap.
        """
        batch: list[Operation] = []
        total = 0
        for op in self._pending:
            if batch and total + op.weight > self.max_batch:
                break
            batch.append(op)
            total += op.weight
        del self._pending[: len(batch)]
        return tuple(batch)

    def requeue(self, ops: tuple[Operation, ...]) -> None:
        """Put operations back at the front (e.g. proposal abandoned)."""
        self._pending[:0] = list(ops)

    def stage(self) -> tuple[Operation, ...]:
        """Pre-assemble the next batch without committing to it.

        A pipelining leader stages the batch for its *next* proposal while
        the current QC is still forming.  The staged operations leave the
        pending queue; :meth:`take_staged` hands them out and
        :meth:`unstage` puts them back.  Re-staging returns the existing
        staged batch.
        """
        if self._staged is None:
            batch = self.next_batch()
            if not batch:
                return ()
            self._staged = batch
        return self._staged

    def take_staged(self) -> tuple[Operation, ...]:
        """Consume the staged batch (empty tuple if nothing staged)."""
        staged = self._staged or ()
        self._staged = None
        return staged

    def unstage(self) -> None:
        """Abandon the staged batch, returning its operations to the front."""
        if self._staged is not None:
            self.requeue(self._staged)
            self._staged = None

    @property
    def staged_weight(self) -> int:
        """Weighted size of the staged batch (0 when nothing staged)."""
        return sum(op.weight for op in self._staged) if self._staged else 0

    def forget(self, ops: tuple[Operation, ...]) -> None:
        """Prune committed operations from the pending queue.

        Returns at once when nothing is pending or staged, as on every
        replica but the leader when clients send to the leader.
        """
        if not ops or not (self._pending or self._staged):
            return
        keys = {op._key for op in ops}
        if self._pending:
            self._pending = [op for op in self._pending if op._key not in keys]
        if self._staged is not None and any(op._key in keys for op in self._staged):
            # A speculative batch containing now-committed operations is
            # stale; drop those ops and invalidate any block built on it.
            self._staged = tuple(op for op in self._staged if op._key not in keys)
            self.staged_epoch += 1

    @property
    def pending_ops(self) -> int:
        """Weighted count of queued operations."""
        return sum(op.weight for op in self._pending)

    def __len__(self) -> int:
        return len(self._pending)
