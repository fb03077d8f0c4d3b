"""Block persistence keyed by digest.

The block store is deliberately generic: it stores any object exposing a
``digest`` (bytes) and a ``parent_link`` (bytes or None), so it does not
depend on the consensus package.  Objects live in an in-memory index; when
constructed over a :class:`~repro.storage.kvstore.KVStore` each insert is
also staged in the store's batch for its owner to write (what the paper's
evaluation calls "writing data into the database rather than into memory").
"""

from __future__ import annotations

from typing import Callable, Iterator, Protocol

from repro.common.errors import StorageError
from repro.storage.kvstore import KVStore


class StorableBlock(Protocol):
    """Minimal structural interface a block must expose."""

    @property
    def digest(self) -> bytes: ...

    @property
    def parent_link(self) -> bytes | None: ...


class BlockStore:
    """Digest-indexed store with parent traversal and optional persistence."""

    def __init__(
        self,
        kv: KVStore | None = None,
        serializer: Callable[[StorableBlock], bytes] | None = None,
    ) -> None:
        self._blocks: dict[bytes, StorableBlock] = {}
        self._kv = kv
        self._serializer = serializer
        if kv is not None and serializer is None:
            raise StorageError("a serializer is required when persisting blocks")

    def add(self, block: StorableBlock) -> None:
        """Insert ``block``; idempotent for identical digests."""
        digest = block.digest
        if digest in self._blocks:
            return
        self._blocks[digest] = block
        if self._kv is not None and self._serializer is not None:
            self._kv.stage(b"block:" + digest, self._serializer(block))

    def index(self, block: StorableBlock) -> None:
        """Insert a block read back from the store, without staging it again."""
        self._blocks.setdefault(block.digest, block)

    def get(self, digest: bytes) -> StorableBlock | None:
        return self._blocks.get(digest)

    def __contains__(self, digest: bytes) -> bool:
        return digest in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def parent_of(self, block: StorableBlock) -> StorableBlock | None:
        """The parent block, or None if unknown or genesis."""
        link = block.parent_link
        if link is None:
            return None
        return self._blocks.get(link)

    def chain_to_genesis(self, block: StorableBlock) -> Iterator[StorableBlock]:
        """Yield ``block`` and then each stored ancestor, newest first.

        Stops at the first missing parent rather than raising; callers that
        require completeness check the last yielded block themselves.
        """
        current: StorableBlock | None = block
        while current is not None:
            yield current
            current = self.parent_of(current)

    def is_ancestor(self, ancestor_digest: bytes, block: StorableBlock) -> bool:
        """True if the block with ``ancestor_digest`` is on ``block``'s branch."""
        for node in self.chain_to_genesis(block):
            if node.digest == ancestor_digest:
                return True
        return False

    def prune_below(self, keep: set[bytes]) -> int:
        """Drop every block whose digest is not in ``keep``; returns count.

        Used by the checkpoint manager to garbage-collect history.
        """
        doomed = [d for d in self._blocks if d not in keep]
        for digest in doomed:
            del self._blocks[digest]
            if self._kv is not None:
                self._kv.stage(b"block:" + digest, None)
        if self._kv is not None:
            self._kv.write_batch()
        return len(doomed)
