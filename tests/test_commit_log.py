"""One commit log shared by many ledgers gives every ledger its own answers.

A simulated consensus group hands one :class:`CommitLog` to all of its
ledgers, so a block's exactly-once answer is worked out once per group.
The property below drives k ledgers over one block tree with random
schedules — commits at random lags, conflicting branches, repeated and
re-proposed keys, snapshots and restores — once with every ledger on one
shared log and once with private logs, and holds each ledger to a
reference that keeps its own committed list and key set.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import SafetyViolation
from repro.consensus.block import Block, KeySet, Operation, genesis_block, make_child
from repro.consensus.blocktree import BlockTree
from repro.consensus.ledger import CommitLog, Ledger
from repro.crypto.hashing import digest_of


class ReferenceLedger:
    """The per-replica algorithm: own committed list, set and key set."""

    def __init__(self, tree: BlockTree, on_execute, on_commit_block) -> None:
        self._tree = tree
        self._on_execute = on_execute
        self._on_commit_block = on_commit_block
        self._committed = [tree.genesis.digest]
        self._committed_set = {tree.genesis.digest}
        self._executed_keys = KeySet()
        self.ops_committed = 0

    @property
    def committed_head(self) -> Block:
        return self._tree.get(self._committed[-1])

    @property
    def num_committed_blocks(self) -> int:
        return len(self._committed) - 1

    def is_committed(self, digest) -> bool:
        return digest in self._committed_set

    def committed_digests(self) -> list:
        return list(self._committed)

    def can_commit(self, block: Block) -> bool:
        if block.digest in self._committed_set:
            return True
        return self._tree.path_between(self._committed[-1], block) is not None

    def mark_committed(self, block: Block) -> None:
        if block.digest in self._committed_set:
            return
        head = self.committed_head
        if self._tree.parent_digest(block) != head.digest:
            raise SafetyViolation("restore out of order")
        self._committed.append(block.digest)
        self._committed_set.add(block.digest)
        for op in block.operations:
            if self._executed_keys.add(op._key):
                self.ops_committed += op.weight

    def install_snapshot(self, head: Block) -> None:
        if head.digest in self._committed_set:
            return
        if head.height <= self.committed_head.height and len(self._committed) > 1:
            raise SafetyViolation("snapshot below the committed head")
        self._tree.add(head)
        self._committed = [head.digest]
        self._committed_set = {head.digest}
        self._executed_keys.clear()

    def commit(self, block: Block) -> list[Block]:
        if block.digest in self._committed_set:
            return []
        path = self._tree.path_between(self._committed[-1], block)
        if path is None:
            if self._tree.missing_ancestor(block) is not None:
                raise ValueError("gap")
            raise SafetyViolation("conflict")
        for node in path:
            self._committed.append(node.digest)
            self._committed_set.add(node.digest)
            for op in node.operations:
                if self._executed_keys.add(op._key):
                    self.ops_committed += op.weight
                    self._on_execute(node, op)
            self._on_commit_block(node)
        return path


# ---------------------------------------------------------------------------
# Schedules


@st.composite
def block_trees(draw) -> list[Block]:
    """Genesis plus 4-14 blocks, mostly a chain, with forks off it.

    Keys come from 3 clients x 6 sequences, so blocks repeat keys within
    themselves and re-propose keys of other blocks; weights vary so a
    repeat at a different weight shows which weight counted.
    """
    blocks = [genesis_block()]
    for j in range(draw(st.integers(4, 14))):
        extend_tip = draw(st.booleans()) or draw(st.booleans())
        parent = blocks[-1] if extend_tip else draw(st.sampled_from(blocks))
        ops = tuple(
            Operation(client, seq, b"p", weight)
            for client, seq, weight in draw(
                st.lists(
                    st.tuples(st.integers(0, 2), st.integers(0, 5), st.integers(1, 3)),
                    max_size=4,
                )
            )
        )
        blocks.append(make_child(parent, 1, ops, digest_of(["qc", j]), proposer=j % 4))
    return blocks


ACTIONS = st.tuples(
    st.sampled_from(["commit", "commit", "commit", "sync", "snapshot", "restore"]),
    st.integers(0, 3),  # ledger
    st.integers(0, 99),  # block pick
)


class Group:
    """k ledgers (one shared log, or private logs) and their references.

    Each ledger's on-execute calls and commit-listener calls go, in
    order, into one event list, compared with its reference's.
    """

    def __init__(self, blocks: list[Block], k: int, withheld: set[int], shared: bool) -> None:
        self.blocks = blocks
        self.ledgers: list[Ledger] = []
        self.references: list[ReferenceLedger] = []
        self.events: list[list] = []
        self.expected: list[list] = []
        log = CommitLog(blocks[0].digest)
        for _ in range(k):
            events: list = []
            expected: list = []
            ledger = Ledger(self._tree(withheld), *_recorders(events))
            if shared:
                ledger.share_log(log)
            self.ledgers.append(ledger)
            self.references.append(ReferenceLedger(self._tree(withheld), *_recorders(expected)))
            self.events.append(events)
            self.expected.append(expected)

    def _tree(self, withheld: set[int]) -> BlockTree:
        tree = BlockTree(self.blocks[0])
        for j, block in enumerate(self.blocks[1:], start=1):
            if j not in withheld:
                tree.add(block)
        return tree

    def apply(self, action: str, i: int, pick: int) -> None:
        ledger, reference = self.ledgers[i], self.references[i]
        if action == "sync":
            block = self.blocks[pick % len(self.blocks)]
            ledger._tree.add(block)
            reference._tree.add(block)
            return
        if action == "restore":
            # Prefer a child of the head, so restores mostly succeed.
            head = reference.committed_head.digest
            children = [b for b in self.blocks if b.parent_link == head]
            pool = children or self.blocks
            block = pool[pick % len(pool)]
        else:
            block = self.blocks[pick % len(self.blocks)]
        # A replica holds the block it commits or restores; withheld
        # ancestors stay missing, so a commit above them is a gap.
        ledger._tree.add(block)
        reference._tree.add(block)
        method = {
            "commit": "commit",
            "snapshot": "install_snapshot",
            "restore": "mark_committed",
        }[action]
        assert _outcome(getattr(ledger, method), block) == _outcome(
            getattr(reference, method), block
        )

    def check(self) -> None:
        for i, (ledger, reference) in enumerate(zip(self.ledgers, self.references)):
            assert ledger.ops_committed == reference.ops_committed
            assert ledger.committed_digests() == reference.committed_digests()
            assert ledger.committed_head.digest == reference.committed_head.digest
            assert ledger.committed_height == reference.committed_head.height
            assert ledger.num_committed_blocks == reference.num_committed_blocks
            assert self.events[i] == self.expected[i]
            for block in self.blocks:
                assert ledger.is_committed(block.digest) == reference.is_committed(block.digest)
                assert ledger.can_commit(block) == reference.can_commit(block)


def _recorders(events: list):
    """An on-execute callback and a commit listener appending to ``events``."""

    def on_execute(block: Block, op: Operation) -> None:
        events.append(("execute", block.digest, op._key, op.weight))

    def on_commit_block(block: Block) -> None:
        events.append(("commit", block.digest))

    return on_execute, on_commit_block


def _outcome(method, block):
    """What a call returned (digests of a commit path) or raised."""
    try:
        result = method(block)
    except (SafetyViolation, ValueError) as exc:
        return type(exc).__name__
    if result is None:
        return None
    return [node.digest for node in result]


@settings(max_examples=200, deadline=None)
@given(
    blocks=block_trees(),
    k=st.integers(2, 4),
    withheld=st.sets(st.integers(1, 14), max_size=2),
    schedule=st.lists(ACTIONS, min_size=1, max_size=40),
)
def test_shared_and_private_logs_match_per_ledger_reference(blocks, k, withheld, schedule):
    for shared in (True, False):
        group = Group(blocks, k, withheld, shared)
        for action, i, pick in schedule:
            group.apply(action, i % k, pick)
            group.check()


# ---------------------------------------------------------------------------
# Detaching, spelled out


def _fork() -> tuple[list[Block], list[Block]]:
    """Two branches off genesis sharing one block, with re-proposed keys."""
    genesis = genesis_block()
    root = make_child(genesis, 1, (Operation(0, 0), Operation(0, 1)), digest_of("r"))
    left = make_child(root, 2, (Operation(0, 1), Operation(0, 2)), digest_of("a"))
    right = make_child(root, 3, (Operation(0, 2, weight=2),), digest_of("b"))
    return [genesis, root, left], [genesis, root, right]


def _ledger(blocks: list[Block], log: CommitLog) -> Ledger:
    tree = BlockTree(blocks[0])
    for block in blocks[1:]:
        tree.add(block)
    ledger = Ledger(tree)
    ledger.share_log(log)
    return ledger


def test_conflicting_commit_detaches_only_the_committer():
    left, right = _fork()
    log = CommitLog(left[0].digest)
    a, b, c = _ledger(left, log), _ledger(right, log), _ledger(left, log)
    a.commit(left[2])
    b.commit(right[2])
    c.commit(left[2])
    assert a._log is log and c._log is log
    assert b._log is not log
    assert log.digests == [block.digest for block in left]
    assert a.ops_committed == c.ops_committed == 3
    # (0, 2) was new at the right-hand block, at its own weight.
    assert b.ops_committed == 2 + 2
    assert b.committed_digests() == [block.digest for block in right]
    assert not a.is_committed(right[2].digest)
    assert b.is_committed(right[2].digest) and not b.is_committed(left[2].digest)


def test_recorded_answer_is_reused_not_recomputed():
    left, _ = _fork()
    log = CommitLog(left[0].digest)
    first, second = _ledger(left, log), _ledger(left, log)
    first.commit(left[2])
    # A block whose operations were all new records the block's own tuple.
    assert log.new_ops[1] is left[1].operations
    assert [op._key for op in log.new_ops[2]] == [(0, 2)]
    executed = []
    second.set_executor(lambda block, op: executed.append(op._key))
    second.commit(left[2])
    assert executed == [(0, 0), (0, 1), (0, 2)]
    assert second._log is log and len(log.digests) == 3


def test_snapshot_and_restore_leave_the_shared_log():
    left, _ = _fork()
    log = CommitLog(left[0].digest)
    restored, snapshotted, follower = (_ledger(left, log) for _ in range(3))
    restored.mark_committed(left[1])
    snapshotted.install_snapshot(left[1])
    follower.commit(left[2])
    assert restored._log is not log and snapshotted._log is not log
    assert follower._log is log and log.digests == [block.digest for block in left]
    assert restored.ops_committed == 2 and snapshotted.ops_committed == 0


def test_share_log_only_at_the_root():
    left, _ = _fork()
    ledger = _ledger(left, CommitLog(left[0].digest))
    ledger.commit(left[1])
    with pytest.raises(ValueError):
        ledger.share_log(CommitLog(left[0].digest))
