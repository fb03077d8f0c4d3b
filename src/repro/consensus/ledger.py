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
"""

from __future__ import annotations

from typing import Callable

from repro.common.errors import SafetyViolation
from repro.consensus.block import Block, KeySet, Operation
from repro.consensus.blocktree import BlockTree
from repro.crypto.hashing import Digest


class Ledger:
    """Tracks the committed branch of one replica and executes it."""

    def __init__(
        self,
        tree: BlockTree,
        on_execute: Callable[[Block, Operation], None] | None = None,
        on_commit_block: Callable[[Block], None] | None = None,
    ) -> None:
        self._tree = tree
        self._on_execute = on_execute
        self._on_commit_block = on_commit_block
        self._committed: list[Digest] = [tree.genesis.digest]
        self._committed_set: set[Digest] = {tree.genesis.digest}
        self._executed_keys = KeySet()
        self._ops_committed = 0

    def set_executor(self, on_execute: Callable[[Block, Operation], None]) -> None:
        """Attach (or replace) the application execution callback."""
        self._on_execute = on_execute

    @property
    def committed_head(self) -> Block:
        head = self._tree.get(self._committed[-1])
        assert head is not None, "committed head must stay in the tree"
        return head

    @property
    def committed_height(self) -> int:
        return self.committed_head.height

    @property
    def num_committed_blocks(self) -> int:
        """Committed blocks excluding genesis."""
        return len(self._committed) - 1

    @property
    def ops_committed(self) -> int:
        return self._ops_committed

    def is_committed(self, digest: Digest) -> bool:
        return digest in self._committed_set

    def committed_digests(self) -> list[Digest]:
        return list(self._committed)

    def can_commit(self, block: Block) -> bool:
        """True if ``block``'s branch is fully known down to the head."""
        if block.digest in self._committed_set:
            return True
        return self._tree.path_between(self._committed[-1], block) is not None

    def mark_committed(self, block: Block) -> None:
        """Restore path: record ``block`` as committed WITHOUT executing.

        Used when rebuilding a replica from durable storage, where the
        application state was persisted separately — re-executing would
        double-apply.  The block must directly extend the committed head.
        """
        if block.digest in self._committed_set:
            return
        head = self.committed_head
        if self._tree.parent_digest(block) != head.digest:
            raise SafetyViolation(
                f"restore out of order: {block!r} does not extend {head!r}"
            )
        self._committed.append(block.digest)
        self._committed_set.add(block.digest)
        for op in block.operations:
            if self._executed_keys.add(op._key):
                self._ops_committed += op.weight

    def install_snapshot(self, head: Block) -> None:
        """Adopt ``head`` as the committed frontier without replay.

        Used by checkpoint-based state transfer: the application state
        arrives separately; the ledger only needs to know where the
        committed branch now ends.  History below ``head`` is treated as
        committed-but-unknown, and the executed-key set is cleared: dedup
        restarts at the snapshot boundary, as in checkpointed BFT systems
        generally, and each client's run begins again at the first key
        committed above ``head``.
        """
        if self._committed_set and head.digest in self._committed_set:
            return
        if head.height <= self.committed_head.height and len(self._committed) > 1:
            raise SafetyViolation(
                f"snapshot head {head!r} is below the committed head"
            )
        self._tree.add(head)
        self._committed = [head.digest]
        self._committed_set = {head.digest}
        self._executed_keys.clear()

    def commit(self, block: Block) -> list[Block]:
        """Commit ``block`` and all uncommitted ancestors; returns them.

        Raises :class:`SafetyViolation` if ``block`` conflicts with the
        committed branch, and ``ValueError`` if ancestors are missing
        (callers must block-sync first; see :meth:`can_commit`).
        """
        if block.digest in self._committed_set:
            return []
        path = self._tree.path_between(self._committed[-1], block)
        if path is None:
            if self._tree.missing_ancestor(block) is not None:
                raise ValueError(
                    f"cannot commit {block!r}: branch has gaps (sync required)"
                )
            raise SafetyViolation(
                f"block {block!r} conflicts with committed head {self.committed_head!r}"
            )
        is_new = self._executed_keys.add
        on_execute = self._on_execute
        on_commit_block = self._on_commit_block
        for node in path:
            self._committed.append(node.digest)
            self._committed_set.add(node.digest)
            for op in node.operations:
                # Exactly-once execution: an operation re-proposed by a
                # later leader (possible under rotation), or repeated within
                # a block, executes and counts once.
                if is_new(op._key):
                    self._ops_committed += op.weight
                    if on_execute is not None:
                        on_execute(node, op)
            if on_commit_block is not None:
                on_commit_block(node)
        return path
