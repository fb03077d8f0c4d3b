"""Durable replica recovery: crash a node, restart it from disk, rejoin."""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.runtime.app import KVStateMachine
from repro.runtime.cluster import LocalCluster
from repro.runtime.node import Node


def run(coro):
    return asyncio.run(coro)


def make_dirs(tmp_path, n=4):
    return [str(tmp_path / f"node{i}") for i in range(n)]


class TestColdRestart:
    def test_state_restored_from_disk(self, tmp_path):
        """Stop the whole cluster; a re-created node sees its old state."""

        async def main():
            dirs = make_dirs(tmp_path)
            async with LocalCluster(f=1, batch_size=4, data_dirs=dirs) as cluster:
                for i in range(6):
                    await cluster.submit(
                        KVStateMachine.encode_set(b"k%d" % i, b"v%d" % i)
                    )
                await cluster.wait_for_height(2, timeout=15, quorum_only=False)
                height_before = cluster.nodes[1].committed_height
                digest_before = cluster.nodes[1].app.state_digest()
                view_before = cluster.nodes[1].replica.cview
            # Everything shut down.  Rebuild node 1 from its directory.
            from repro.network.asyncio_net import AsyncioNetwork
            from repro.consensus.crypto_service import ThresholdCryptoService
            from repro.crypto.keys import KeyRegistry
            from repro.common.config import ClusterConfig

            config = ClusterConfig.for_f(1, batch_size=4)
            crypto = ThresholdCryptoService(KeyRegistry(4, 3, seed="0"))
            network = AsyncioNetwork()
            node = Node(1, config, network, crypto, data_dir=dirs[1])
            assert node.committed_height == height_before
            assert node.app.state_digest() == digest_before
            assert node._recovered_view == view_before
            assert node.app.get(b"k0") == b"v0"
            node.stop()
            await network.close()

        run(main())

    def test_fresh_directory_starts_clean(self, tmp_path):
        async def main():
            from repro.network.asyncio_net import AsyncioNetwork
            from repro.consensus.crypto_service import ThresholdCryptoService
            from repro.crypto.keys import KeyRegistry
            from repro.common.config import ClusterConfig

            config = ClusterConfig.for_f(1)
            crypto = ThresholdCryptoService(KeyRegistry(4, 3, seed="0"))
            network = AsyncioNetwork()
            node = Node(0, config, network, crypto, data_dir=str(tmp_path / "fresh"))
            assert node.committed_height == 0
            assert node._recovered_view is None
            node.stop()
            await network.close()

        run(main())


class TestRestartWritesNothing:
    @pytest.mark.parametrize("pruned", [False, True], ids=["full", "snapshot"])
    def test_restart_leaves_the_wal_unchanged(self, tmp_path, pruned):
        """Recovery indexes the blocks it reads back; it does not re-log them."""

        async def main():
            dirs = make_dirs(tmp_path)
            async with LocalCluster(f=1, batch_size=1, data_dirs=dirs, seed=1) as cluster:
                if pruned:
                    for node in cluster.nodes:
                        node.checkpoints._interval = 3
                        node.checkpoints._keep_window = 2
                for i in range(20):
                    await cluster.submit(
                        KVStateMachine.encode_set(b"k%02d" % i, b"v%02d" % i)
                    )
                await cluster.wait_for_height(20, timeout=20, quorum_only=False)
                old = cluster.nodes[1]
                assert (old.checkpoints.checkpoints_taken >= 1) == pruned
                wal = os.path.join(dirs[1], "wal.log")
                size, height = os.path.getsize(wal), old.committed_height
                node = await cluster.restart(1)
                assert os.path.getsize(wal) == size
                assert node.committed_height == height
                assert len(set(cluster.state_digests())) == 1

        run(main())


class TestLiveRejoin:
    def test_crashed_node_rejoins_and_catches_up(self, tmp_path):
        async def main():
            dirs = make_dirs(tmp_path)
            async with LocalCluster(
                f=1, batch_size=4, base_timeout=0.4, data_dirs=dirs
            ) as cluster:
                for i in range(6):
                    await cluster.submit(KVStateMachine.encode_add(b"acct", 1))
                await cluster.wait_for_height(2, timeout=15, quorum_only=False)
                # Crash a NON-leader; the cluster keeps going without it.
                cluster.crash(3)
                height_at_crash = cluster.nodes[3].committed_height
                for i in range(8):
                    await cluster.submit(KVStateMachine.encode_add(b"acct", 1))
                await cluster.wait_for_height(height_at_crash + 1, timeout=15)

                # Restart node 3 from disk; it must recover and catch up.
                node = await cluster.restart(3)
                assert node.committed_height >= height_at_crash
                target = max(n.committed_height for n in cluster.nodes[:3])
                deadline = asyncio.get_event_loop().time() + 20
                while node.committed_height < target:
                    if asyncio.get_event_loop().time() > deadline:
                        raise TimeoutError(
                            f"rejoined node stuck at {node.committed_height} < {target}"
                        )
                    # Keep a trickle of traffic flowing so catch-up
                    # messages (and new commits) reach the rejoiner.
                    await cluster.submit(KVStateMachine.encode_add(b"acct", 0))
                    await asyncio.sleep(0.05)
                assert node.app.balance(b"acct") == cluster.nodes[1].app.balance(b"acct")

        run(main())

    def test_recovered_ledger_refuses_forks(self, tmp_path):
        """mark_committed (the restore path) enforces chain linkage."""
        from repro.common.errors import SafetyViolation
        from repro.consensus.block import genesis_block, make_child
        from repro.consensus.blocktree import BlockTree
        from repro.consensus.ledger import Ledger
        from repro.crypto.hashing import digest_of

        tree = BlockTree(genesis_block())
        a = make_child(tree.genesis, 1, (), digest_of("qa"))
        orphan = make_child(a, 1, (), digest_of("qb"))
        tree.add(a)
        tree.add(orphan)
        ledger = Ledger(tree)
        with pytest.raises(SafetyViolation):
            ledger.mark_committed(orphan)  # skips height 1
        ledger.mark_committed(a)
        ledger.mark_committed(orphan)
        assert ledger.committed_height == 2
