"""Checkpoint-based recovery: snapshot restore and peer state transfer."""

from __future__ import annotations

import asyncio

import pytest

from repro.runtime.app import KVStateMachine
from repro.runtime.cluster import LocalCluster
from repro.runtime.node import Node


def run(coro):
    return asyncio.run(coro)


def make_dirs(tmp_path, n=4):
    return [str(tmp_path / f"node{i}") for i in range(n)]


async def until(predicate, what, timeout=20.0):
    deadline = asyncio.get_event_loop().time() + timeout
    while not predicate():
        if asyncio.get_event_loop().time() > deadline:
            raise TimeoutError(what)
        await asyncio.sleep(0.02)


class TestLedgerSnapshot:
    def test_install_snapshot_resets_frontier(self):
        from repro.consensus.block import genesis_block, make_child
        from repro.consensus.blocktree import BlockTree
        from repro.consensus.ledger import Ledger
        from repro.crypto.hashing import digest_of

        tree = BlockTree(genesis_block())
        head = make_child(genesis_block(), 3, (), digest_of("q"))
        ledger = Ledger(tree)
        ledger.install_snapshot(head)
        assert ledger.committed_head == head
        assert ledger.committed_height == 1
        # Future commits extend the snapshot head normally.
        child = make_child(head, 3, (), digest_of("q2"))
        tree.add(child)
        committed = ledger.commit(child)
        assert [b.height for b in committed] == [2]

    def test_snapshot_below_head_rejected(self):
        from repro.common.errors import SafetyViolation
        from repro.consensus.block import genesis_block, make_child
        from repro.consensus.blocktree import BlockTree
        from repro.consensus.ledger import Ledger
        from repro.crypto.hashing import digest_of

        tree = BlockTree(genesis_block())
        a = make_child(genesis_block(), 1, (), digest_of("a"))
        b = make_child(a, 1, (), digest_of("b"))
        tree.add(a)
        tree.add(b)
        ledger = Ledger(tree)
        ledger.commit(b)
        stale = make_child(genesis_block(), 2, (), digest_of("s"))
        with pytest.raises(SafetyViolation):
            ledger.install_snapshot(stale)


class TestPrunedHistoryRestart:
    def test_restart_after_checkpoint_pruning(self, tmp_path):
        """With aggressive checkpointing, a restart cannot replay from
        genesis; it must restore from the newest contiguous suffix."""

        async def main():
            dirs = make_dirs(tmp_path)
            async with LocalCluster(
                f=1,
                batch_size=2,
                data_dirs=dirs,
            ) as cluster:
                # Aggressive GC so history is pruned quickly.
                for node in cluster.nodes:
                    node.checkpoints._interval = 3
                    node.checkpoints._keep_window = 2
                for i in range(24):
                    await cluster.submit(
                        KVStateMachine.encode_set(b"k%02d" % i, b"v%02d" % i)
                    )
                await cluster.wait_for_height(8, timeout=20, quorum_only=False)
                node1 = cluster.nodes[1]
                assert node1.checkpoints.checkpoints_taken >= 1
                height_before = node1.committed_height
                digest_before = node1.app.state_digest()
            # Rebuild node 1 from its (pruned) directory.
            from repro.network.asyncio_net import AsyncioNetwork
            from repro.consensus.crypto_service import ThresholdCryptoService
            from repro.crypto.keys import KeyRegistry
            from repro.common.config import ClusterConfig

            config = ClusterConfig.for_f(1, batch_size=2)
            crypto = ThresholdCryptoService(KeyRegistry(4, 3, seed="0"))
            network = AsyncioNetwork()
            node = Node(1, config, network, crypto, data_dir=dirs[1])
            assert node.committed_height == height_before
            assert node.app.state_digest() == digest_before
            assert node.app.get(b"k00") == b"v00"  # app state survives pruning
            node.stop()
            await network.close()

        run(main())


class TestPeerStateTransfer:
    def test_fresh_node_bootstraps_from_peers(self, tmp_path):
        """A replica with an empty disk installs a quorum-backed snapshot."""

        async def main():
            dirs = make_dirs(tmp_path)
            async with LocalCluster(f=1, batch_size=4, data_dirs=dirs) as cluster:
                for i in range(12):
                    await cluster.submit(
                        KVStateMachine.encode_set(b"key%d" % i, b"val%d" % i)
                    )
                # The reference is taken only once nodes 0-2 have executed
                # all twelve keys and stand at one common height.
                peers = cluster.nodes[:3]
                await until(
                    lambda: len({node.committed_height for node in peers}) == 1
                    and all(
                        node.app.get(b"key%d" % i) == b"val%d" % i
                        for node in peers
                        for i in range(12)
                    ),
                    "nodes 0-2 never executed every key at one height",
                )
                target = peers[0].committed_height
                reference = peers[0].app.state_digest()

                # Node 3 loses its disk entirely.
                fresh_dir = str(tmp_path / "node3-fresh")
                cluster.crash(3)
                cluster._data_dirs[3] = fresh_dir
                node = await cluster.restart(3)
                assert node.committed_height == 0
                node.request_state_transfer()
                await until(
                    lambda: node.committed_height >= target,
                    "state transfer never reached the peers' height",
                )
                assert node.app.state_digest() == reference
                assert node.app.get(b"key0") == b"val0"

        run(main())

    def test_server_ignores_requests_from_ahead_peers(self, tmp_path):
        async def main():
            dirs = make_dirs(tmp_path)
            async with LocalCluster(f=1, batch_size=4, data_dirs=dirs) as cluster:
                await cluster.submit(b"")
                await cluster.wait_for_height(1, timeout=15)
                from repro.consensus.messages import StateTransferRequest

                node = cluster.nodes[1]
                sent_before = len(cluster.nodes[2]._st_responses)
                # Peer claims to be ahead: no response should be sent.
                node._on_message(2, StateTransferRequest(have_height=10_000))
                await asyncio.sleep(0.05)
                assert len(cluster.nodes[2]._st_responses) == sent_before

        run(main())
