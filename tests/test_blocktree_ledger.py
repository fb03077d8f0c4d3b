"""Block tree traversal, virtual resolution, and ledger safety."""

from __future__ import annotations

import pytest

from repro.common.errors import SafetyViolation
from repro.consensus.block import Block, Operation, genesis_block, make_child
from repro.consensus.blocktree import BlockTree
from repro.consensus.ledger import Ledger
from repro.crypto.hashing import digest_of


def op(seq: int, weight: int = 1) -> Operation:
    return Operation(client_id=1, sequence=seq, payload=b"p", weight=weight)


def chain(tree: BlockTree, length: int, view: int = 1) -> list[Block]:
    blocks = []
    parent = tree.genesis
    for i in range(length):
        block = make_child(parent, view, (op(i),), digest_of(["qc", i]))
        tree.add(block)
        blocks.append(block)
        parent = block
    return blocks


class TestTree:
    def test_branch_to_genesis(self):
        tree = BlockTree(genesis_block())
        blocks = chain(tree, 3)
        branch = list(tree.branch(blocks[-1]))
        assert [b.height for b in branch] == [3, 2, 1, 0]

    def test_extends_self_and_ancestors(self):
        tree = BlockTree(genesis_block())
        blocks = chain(tree, 3)
        assert tree.extends(blocks[2], blocks[0].digest)
        assert tree.extends(blocks[2], blocks[2].digest)
        assert tree.extends(blocks[2], tree.genesis.digest)

    def test_conflicting_forks(self):
        tree = BlockTree(genesis_block())
        a = make_child(tree.genesis, 1, (op(0),), digest_of("qa"))
        b = make_child(tree.genesis, 2, (op(1),), digest_of("qb"))
        tree.add(a)
        tree.add(b)
        assert tree.conflicts(a, b)
        assert not tree.conflicts(a, a)

    def test_missing_ancestor_detection(self):
        tree = BlockTree(genesis_block())
        a = make_child(tree.genesis, 1, (op(0),), digest_of("qa"))
        b = make_child(a, 1, (op(1),), digest_of("qb"))
        tree.add(b)  # a was never added
        assert tree.missing_ancestor(b) == a.digest
        tree.add(a)
        assert tree.missing_ancestor(b) is None

    def test_virtual_resolution(self):
        tree = BlockTree(genesis_block())
        parent = make_child(tree.genesis, 1, (op(0),), digest_of("qp"))
        tree.add(parent)
        virtual = Block(
            parent_link=None,
            parent_view=1,
            view=2,
            height=2,
            operations=(op(1),),
            justify_digest=digest_of("qv"),
        )
        tree.add(virtual)
        assert tree.missing_ancestor(virtual) == virtual.digest
        tree.resolve_virtual_parent(virtual.digest, parent.digest)
        assert tree.parent(virtual) == parent
        assert tree.extends(virtual, tree.genesis.digest)

    def test_path_between(self):
        tree = BlockTree(genesis_block())
        blocks = chain(tree, 4)
        path = tree.path_between(blocks[0].digest, blocks[3])
        assert [b.height for b in path] == [2, 3, 4]
        assert tree.path_between(blocks[3].digest, blocks[3]) == []

    def test_path_between_missing_ancestor(self):
        tree = BlockTree(genesis_block())
        a = make_child(tree.genesis, 1, (op(0),), digest_of("qa"))
        tree.add(a)
        other = make_child(tree.genesis, 2, (op(1),), digest_of("qb"))
        assert tree.path_between(other.digest, a) is None

    def test_prune_keep(self):
        tree = BlockTree(genesis_block())
        blocks = chain(tree, 5)
        dropped = tree.prune_keep({blocks[4].digest, blocks[3].digest})
        assert dropped == 3
        assert blocks[4].digest in tree
        assert blocks[0].digest not in tree

    def test_add_idempotent(self):
        tree = BlockTree(genesis_block())
        a = make_child(tree.genesis, 1, (op(0),), digest_of("qa"))
        tree.add(a)
        tree.add(a)
        assert len(tree) == 2


class TestLedger:
    def test_commit_chain_in_order(self):
        tree = BlockTree(genesis_block())
        blocks = chain(tree, 3)
        executed: list[int] = []
        ledger = Ledger(tree, on_execute=lambda b, o: executed.append(o.sequence))
        committed = ledger.commit(blocks[2])
        assert [b.height for b in committed] == [1, 2, 3]
        assert executed == [0, 1, 2]
        assert ledger.committed_height == 3
        assert ledger.ops_committed == 3

    def test_idempotent_commit(self):
        tree = BlockTree(genesis_block())
        blocks = chain(tree, 2)
        ledger = Ledger(tree)
        ledger.commit(blocks[1])
        assert ledger.commit(blocks[1]) == []
        assert ledger.committed_height == 2

    def test_partial_then_full(self):
        tree = BlockTree(genesis_block())
        blocks = chain(tree, 4)
        ledger = Ledger(tree)
        ledger.commit(blocks[1])
        committed = ledger.commit(blocks[3])
        assert [b.height for b in committed] == [3, 4]

    def test_conflicting_commit_raises(self):
        tree = BlockTree(genesis_block())
        a = make_child(tree.genesis, 1, (op(0),), digest_of("qa"))
        b = make_child(tree.genesis, 2, (op(1),), digest_of("qb"))
        tree.add(a)
        tree.add(b)
        ledger = Ledger(tree)
        ledger.commit(a)
        with pytest.raises(SafetyViolation):
            ledger.commit(b)

    def test_gap_raises_value_error(self):
        tree = BlockTree(genesis_block())
        a = make_child(tree.genesis, 1, (op(0),), digest_of("qa"))
        b = make_child(a, 1, (op(1),), digest_of("qb"))
        tree.add(b)  # a missing
        ledger = Ledger(tree)
        assert not ledger.can_commit(b)
        with pytest.raises(ValueError):
            ledger.commit(b)

    @pytest.mark.parametrize("with_executor", [True, False], ids=["executor", "no-executor"])
    def test_exactly_once_execution(self, with_executor):
        tree = BlockTree(genesis_block())
        duplicate = op(7)
        a = make_child(tree.genesis, 1, (duplicate,), digest_of("qa"))
        # 7 repeats across blocks, 8 within one block.
        b = make_child(a, 1, (duplicate, op(8), op(8)), digest_of("qb"))
        c = make_child(b, 1, (op(9, weight=3),), digest_of("qc"))
        for block in (a, b, c):
            tree.add(block)
        executed: list[int] = []
        ledger = Ledger(
            tree,
            on_execute=(lambda blk, o: executed.append(o.sequence)) if with_executor else None,
        )
        ledger.commit(b)
        assert ledger.ops_committed == 2
        ledger.commit(c)
        assert ledger.ops_committed == 5
        assert executed == ([7, 8, 9] if with_executor else [])

    def test_weighted_ops_counted(self):
        tree = BlockTree(genesis_block())
        a = make_child(tree.genesis, 1, (op(0, weight=10),), digest_of("qa"))
        tree.add(a)
        ledger = Ledger(tree)
        ledger.commit(a)
        assert ledger.ops_committed == 10

    def test_commit_block_callback(self):
        tree = BlockTree(genesis_block())
        blocks = chain(tree, 2)
        seen: list[int] = []
        ledger = Ledger(tree, on_commit_block=lambda b: seen.append(b.height))
        ledger.commit(blocks[1])
        assert seen == [1, 2]

    def test_virtual_block_commit_after_resolution(self):
        tree = BlockTree(genesis_block())
        parent = make_child(tree.genesis, 1, (op(0),), digest_of("qp"))
        tree.add(parent)
        virtual = Block(
            parent_link=None,
            parent_view=1,
            view=2,
            height=2,
            operations=(op(1),),
            justify_digest=digest_of("qv"),
        )
        tree.add(virtual)
        ledger = Ledger(tree)
        assert not ledger.can_commit(virtual)
        tree.resolve_virtual_parent(virtual.digest, parent.digest)
        committed = ledger.commit(virtual)
        assert [b.height for b in committed] == [1, 2]
