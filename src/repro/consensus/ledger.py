"""The committed ledger: a monotonically growing branch.

Commitment in BFT-over-graphs (Section III-A): committing block ``b``
commits every uncommitted ancestor first, and the committed branch only
ever grows.  The ledger enforces that invariant defensively — an attempt
to commit a block conflicting with the committed branch raises
:class:`~repro.common.errors.SafetyViolation`, which the safety test
suites use as a tripwire (it must never fire for correct protocols).

The ledger also drives execution: committed operations are applied, in
block order, to an application callback, and per-operation commit
latencies are handed to the metrics sink.

Agreement says every correct replica commits a prefix of one chain, so
the chain's exactly-once bookkeeping is kept once per chain, in a
:class:`CommitLog`, and each ledger is a cursor into a log.  A lone
ledger owns a private log; a simulated consensus group hands one log to
all of its ledgers (:meth:`Ledger.share_log`), so a block's new
operations are worked out once per group instead of once per replica.
A shared log also bounds the group's memory: once every ledger is past
an entry, the block's operations are folded into an
:class:`ExecutionRecord` and released (see :class:`CommitLog`).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable

from repro.common.errors import SafetyViolation
from repro.consensus.block import Block, KeySet, Operation
from repro.consensus.blocktree import BlockTree
from repro.crypto.hashing import Digest


_weight_of = attrgetter("weight")

RELEASE_MARGIN = 16
"""How far every ledger of a shared log must be past an entry before the
entry's operations are released.  Sixteen blocks is well past a chained
commit rule's depth (three blocks for chained HotStuff), and past the
≤ 10 blocks a replica commits before the leader crash pinned by
``tests/test_table1_golden.py``, which reads every committed payload
after the run."""


class ExecutionRecord:
    """What the released prefix of a log executed.

    The first ``length`` entries of a log (the root included) are
    released: their blocks' operations are gone, and what they executed
    is kept here — ``keys``, every ``(client, sequence)`` key of those
    blocks, and ``weight``, the total weight of the distinct keys at
    their first occurrence.  It is folded from each block's own
    ``operations`` at release, not from the log's recorded answers, so
    :meth:`~repro.adversary.checker.SafetyChecker.check_cluster` can
    start an independent walk of a replica's history from it.
    """

    __slots__ = ("length", "keys", "weight")

    def __init__(self) -> None:
        self.length = 1
        self.keys = KeySet()
        self.weight = 0

    def fold(self, block: Block) -> None:
        """Add the next released block's operations."""
        self.weight += sum(map(_weight_of, self.keys.add_ops(block.operations)))
        self.length += 1


class CommitLog:
    """One record of a committed chain, readable by many ledgers.

    Entry ``i`` is the chain's ``i``-th block (entry 0 is the root the
    chain grows from: genesis, or a snapshot head): its digest, the total
    weight of the operations that were new when it committed, and those
    new operations — the block's own ``operations`` tuple when every one
    was new.  ``index`` maps each digest to its position, and ``keys``
    holds every key executed up to the tip.

    A ledger whose committed branch agrees with the log at every position
    reads the recorded answers; only a ledger at the tip computes one, by
    appending.  The recorded answer is exact for every ledger that
    reaches it, because a digest fixes the block's operations and equal
    prefixes leave equal key sets behind.

    Release: ``members`` ledgers share the log, and ``passes[i]`` counts
    those that have begun a commit with entry ``i`` at least
    :data:`RELEASE_MARGIN` entries below their head.  When the count
    reaches ``members``, no ledger will read entry ``i`` again, so
    :meth:`_release` folds the block into ``released`` and drops both
    ``new_ops[i]`` and the block's payload; the header stays in every
    tree.  Entries complete in order, one count per ledger advance.  A
    ledger leaving the log (a fork, a snapshot, a restore) ends
    releasing for good, and a ledger that stops committing (a crash)
    holds back every later entry.
    """

    __slots__ = (
        "digests", "new_weights", "new_ops", "index", "keys",
        "members", "passes", "releasing", "released",
    )

    def __init__(self, root: Digest) -> None:
        self.digests: list[Digest] = [root]
        self.new_weights: list[int] = [0]
        self.new_ops: list[tuple[Operation, ...]] = [()]
        self.index: dict[Digest, int] = {root: 0}
        self.keys = KeySet()
        self.members = 0
        self.passes: list[int] = [0]
        self.releasing = True
        self.released = ExecutionRecord()

    def append(self, block: Block) -> None:
        """Record ``block`` at the tip: which of its operations are new.

        Exactly-once execution: an operation re-proposed by a later leader
        (possible under rotation and after a view change), or repeated
        within a block, executes and counts once, at its first weight.
        """
        ops = block.operations
        new = self.keys.add_ops(ops)
        if len(new) == len(ops):
            new = ops
            weight = block.num_ops
        else:
            new = tuple(new)
            weight = sum(op.weight for op in new)
        self.index[block.digest] = len(self.digests)
        self.digests.append(block.digest)
        self.new_weights.append(weight)
        self.new_ops.append(new)
        self.passes.append(0)

    def _release(self, position: int, block: Block) -> None:
        """Fold entry ``position`` into the record and drop its operations."""
        assert position == self.released.length, "entries are released in order"
        self.released.fold(block)
        self.new_ops[position] = ()
        block.release_payload()

    def prefix(self, length: int) -> "CommitLog":
        """A private log of the first ``length`` entries.

        It shares this log's record of the released entries, and its key
        set starts from the record's and replays the recorded new
        operations after it, which adds exactly the keys the prefix
        executed.  A private log releases nothing.
        """
        assert length >= self.released.length, "a prefix keeps every released entry"
        log = CommitLog(self.digests[0])
        log.digests = self.digests[:length]
        log.new_weights = self.new_weights[:length]
        log.new_ops = self.new_ops[:length]
        log.index = {digest: i for i, digest in enumerate(log.digests)}
        log.passes = [0] * length
        log.released = self.released
        log.keys = self.released.keys.copy()
        add_ops = log.keys.add_ops
        for ops in log.new_ops[self.released.length :]:
            add_ops(ops)
        return log


class Ledger:
    """Tracks the committed branch of one replica and executes it.

    The branch is the first ``_length`` entries of ``_log``.  Committing
    block ``B`` at position ``i`` takes the log's recorded answer when
    entry ``i`` is ``B``, appends ``B`` when ``i`` is the log's tip, and
    otherwise — this ledger committed a block another ledger of the log
    did not — moves to a private copy of its own prefix first, so no
    other ledger's answers change.  ``install_snapshot`` and
    ``mark_committed`` also leave the ledger on a private log.
    """

    def __init__(
        self,
        tree: BlockTree,
        on_execute: Callable[[Block, Operation], None] | None = None,
        on_commit_block: Callable[[Block], None] | None = None,
    ) -> None:
        self._tree = tree
        self._on_execute = on_execute
        self._on_commit_block = on_commit_block
        self._log = CommitLog(tree.genesis.digest)
        self._shared = False
        self._length = 1
        #: Entries of a shared log this ledger has counted itself past.
        self._passed = 1
        self._ops_committed = 0

    def set_executor(self, on_execute: Callable[[Block, Operation], None]) -> None:
        """Attach (or replace) the application execution callback."""
        self._on_execute = on_execute

    def share_log(self, log: CommitLog) -> None:
        """Follow ``log``, the committed chain shared by a consensus group.

        Call before this ledger commits anything; ``log`` must grow from
        the same root and have released nothing.  On-execute callbacks
        and commit listeners still run per ledger, for the recorded new
        operations.
        """
        if (
            self._length != 1
            or log.digests[0] != self._log.digests[0]
            or log.released.length != 1
        ):
            raise ValueError("a shared log must be joined at its root, before any commit")
        self._log = log
        self._shared = True
        log.members += 1

    def _leave(self, log: CommitLog) -> CommitLog:
        """Move to the private ``log``; a shared log stops releasing."""
        if self._shared:
            self._log.releasing = False
            self._shared = False
        self._log = log
        return log

    def _detach(self) -> CommitLog:
        """Move to a private copy of this ledger's prefix of the log."""
        return self._leave(self._log.prefix(self._length))

    def _pass(self, log: CommitLog) -> None:
        """Count this ledger past every entry :data:`RELEASE_MARGIN` below its head.

        Runs as a commit begins, so the previous commit's blocks have been
        read by every caller before they can be released.
        """
        frontier = self._length - RELEASE_MARGIN
        passed = self._passed
        passes = log.passes
        while passed < frontier:
            passes[passed] += 1
            if passes[passed] == log.members:
                log._release(passed, self._tree.get(log.digests[passed]))
            passed += 1
        self._passed = passed

    @property
    def committed_head(self) -> Block:
        head = self._tree.get(self._log.digests[self._length - 1])
        assert head is not None, "committed head must stay in the tree"
        return head

    @property
    def committed_height(self) -> int:
        return self.committed_head.height

    @property
    def num_committed_blocks(self) -> int:
        """Committed blocks excluding genesis."""
        return self._length - 1

    @property
    def ops_committed(self) -> int:
        return self._ops_committed

    @property
    def released(self) -> ExecutionRecord:
        """What the released leading entries of the committed branch executed."""
        return self._log.released

    def is_committed(self, digest: Digest) -> bool:
        position = self._log.index.get(digest)
        return position is not None and position < self._length

    def committed_digests(self) -> list[Digest]:
        return self._log.digests[: self._length]

    def can_commit(self, block: Block) -> bool:
        """True if ``block``'s branch is fully known down to the head."""
        if self.is_committed(block.digest):
            return True
        head = self._log.digests[self._length - 1]
        return self._tree.path_between(head, block) is not None

    def mark_committed(self, block: Block) -> None:
        """Restore path: record ``block`` as committed WITHOUT executing.

        Used when rebuilding a replica from durable storage, where the
        application state was persisted separately — re-executing would
        double-apply.  The block must directly extend the committed head.
        """
        if self.is_committed(block.digest):
            return
        head = self.committed_head
        if self._tree.parent_digest(block) != head.digest:
            raise SafetyViolation(
                f"restore out of order: {block!r} does not extend {head!r}"
            )
        log = self._detach() if self._shared else self._log
        log.append(block)
        self._length += 1
        self._ops_committed += log.new_weights[-1]

    def install_snapshot(self, head: Block) -> None:
        """Adopt ``head`` as the committed frontier without replay.

        Used by checkpoint-based state transfer: the application state
        arrives separately; the ledger only needs to know where the
        committed branch now ends.  History below ``head`` is treated as
        committed-but-unknown, and the ledger moves to a private log
        rooted at ``head`` with an empty key set: dedup restarts at the
        snapshot boundary, as in checkpointed BFT systems generally, and
        each client's run begins again at the first key committed above
        ``head``.
        """
        if self.is_committed(head.digest):
            return
        if head.height <= self.committed_head.height and self._length > 1:
            raise SafetyViolation(
                f"snapshot head {head!r} is below the committed head"
            )
        self._tree.add(head)
        self._leave(CommitLog(head.digest))
        self._length = 1

    def commit(self, block: Block) -> list[Block]:
        """Commit ``block`` and all uncommitted ancestors; returns them.

        Raises :class:`SafetyViolation` if ``block`` conflicts with the
        committed branch, and ``ValueError`` if ancestors are missing
        (callers must block-sync first; see :meth:`can_commit`).
        """
        log = self._log
        position = log.index.get(block.digest)
        if position is not None and position < self._length:
            return []
        path = self._tree.path_between(log.digests[self._length - 1], block)
        if path is None:
            if self._tree.missing_ancestor(block) is not None:
                raise ValueError(
                    f"cannot commit {block!r}: branch has gaps (sync required)"
                )
            raise SafetyViolation(
                f"block {block!r} conflicts with committed head {self.committed_head!r}"
            )
        if self._shared and log.releasing:
            self._pass(log)
        on_execute = self._on_execute
        on_commit_block = self._on_commit_block
        for node in path:
            i = self._length
            if i == len(log.digests):
                log.append(node)
            elif log.digests[i] != node.digest:
                log = self._detach()
                log.append(node)
            self._length = i + 1
            self._ops_committed += log.new_weights[i]
            if on_execute is not None:
                for op in log.new_ops[i]:
                    on_execute(node, op)
            if on_commit_block is not None:
                on_commit_block(node)
        return path
