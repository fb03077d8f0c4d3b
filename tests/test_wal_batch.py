"""Group commit: one WAL record per batch, one per committed block.

``KVStore.write_batch`` appends everything staged as one WAL record and
``put``/``delete`` are batches of one, so the log has a single record
format.  A live ``Node`` writes each committed block's record (the
block, its height and chain keys, the consensus state and the block's
application writes) as one batch.  A torn final record therefore drops
that whole block and nothing before it, and a checkpoint that freezes
the memtable right after the batch keeps the block's record.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.common.config import ClusterConfig
from repro.common.encoding import decode, encode
from repro.common.errors import StorageError
from repro.consensus.block import Operation, genesis_block, make_child
from repro.consensus.crypto_service import ThresholdCryptoService
from repro.crypto.hashing import digest_of
from repro.crypto.keys import KeyRegistry
from repro.network.asyncio_net import AsyncioNetwork
from repro.runtime.app import KVStateMachine
from repro.runtime.node import Node
from repro.storage.kvstore import KVStore
from repro.storage.wal import WriteAheadLog


def wal_records(directory) -> list:
    with WriteAheadLog(os.path.join(directory, "wal.log")) as wal:
        return [decode(record) for record in wal.replay()]


def chop(directory, count: int) -> None:
    """Cut ``count`` bytes off the end of the store's WAL (a torn write)."""
    path = os.path.join(directory, "wal.log")
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - count)


class TestRecordFormat:
    def test_every_record_is_a_list_of_pairs(self, tmp_path):
        with KVStore(directory=str(tmp_path)) as kv:
            kv.put(b"a", b"1")
            kv.delete(b"b")
            kv.stage(b"c", b"3")
            kv.stage(b"d", None)
            kv.stage(b"e", b"5")
            kv.write_batch()
            kv.write_batch()  # nothing staged: no record
        assert wal_records(str(tmp_path)) == [
            [[b"a", b"1"]],
            [[b"b", None]],
            [[b"c", b"3"], [b"d", None], [b"e", b"5"]],
        ]

    def test_staged_writes_are_read_at_once_and_durable_after_the_batch(self, tmp_path):
        kv = KVStore(directory=str(tmp_path))
        kv.put(b"k", b"old")
        kv.stage(b"k", b"new")
        kv.stage(b"gone", b"x")
        kv.stage(b"gone", None)
        assert kv.get(b"k") == b"new" and kv.get(b"gone") is None
        kv.write_batch()
        with KVStore(directory=str(tmp_path)) as reopened:  # kv never closed
            assert reopened.get(b"k") == b"new"
            assert reopened.get(b"gone") is None
        kv.close()

    def test_torn_final_batch_is_dropped_whole(self, tmp_path):
        with KVStore(directory=str(tmp_path)) as kv:
            kv.put(b"before", b"1")
            for key in (b"x", b"y", b"z"):
                kv.stage(key, b"v")
            kv.write_batch()
        chop(str(tmp_path), 2)
        with KVStore(directory=str(tmp_path)) as kv:
            assert kv.get(b"before") == b"1"
            assert [kv.get(key) for key in (b"x", b"y", b"z")] == [None, None, None]
            kv.put(b"after", b"2")  # goes after the intact records
        with KVStore(directory=str(tmp_path)) as kv:
            assert kv.get(b"before") == b"1" and kv.get(b"after") == b"2"
            assert kv.get(b"x") is None

    def test_single_pair_records_are_refused_in_words(self, tmp_path):
        # Logs written before batch records held one bare [key, value] per
        # record; keys of 2 bytes used to unpack into two ints.
        for key in (b"ab", b"key"):
            directory = str(tmp_path / key.decode())
            os.makedirs(directory)
            with WriteAheadLog(os.path.join(directory, "wal.log")) as wal:
                wal.append(encode([key, b"v"]))
            with pytest.raises(StorageError, match="predates batch records"):
                KVStore(directory=directory)


def _node(data_dir: str, checkpoint_interval: int = 5000) -> Node:
    config = ClusterConfig.for_f(1, checkpoint_interval=checkpoint_interval)
    crypto = ThresholdCryptoService(KeyRegistry(4, 3, seed="0"))
    return Node(1, config, AsyncioNetwork(), crypto, data_dir=data_dir)


def _commit(node: Node, parent, height: int):
    """Commit one single-write block on ``node``, as the ledger does."""
    op = Operation(client_id=100, sequence=height,
                   payload=KVStateMachine.encode_set(b"key%d" % height, b"v%d" % height))
    block = make_child(parent, height, (op,), digest_of(["justify", height]))
    node.replica.tree.add(block)
    node.replica.ledger.commit(block)
    return block


def _block_keys(block) -> list[bytes]:
    return [b"block:" + block.digest, b"chain:%012d" % block.height,
            b"app:key%d" % block.height]  # fmt: skip


class TestNodeGroupCommit:
    def test_one_record_per_committed_block(self, tmp_path):
        async def main():
            node = _node(str(tmp_path))
            before = len(wal_records(str(tmp_path)))
            first = _commit(node, genesis_block(), 1)
            _commit(node, first, 2)
            records = wal_records(str(tmp_path))[before:]
            assert len(records) == 2
            keys = {key for key, _ in records[0]}
            assert set(_block_keys(first)) | {b"meta:committed_height", b"meta:consensus"} == keys
            node.stop()

        asyncio.run(main())

    def test_torn_block_record_drops_that_block_only(self, tmp_path):
        async def main():
            node = _node(str(tmp_path))
            first = _commit(node, genesis_block(), 1)
            second = _commit(node, first, 2)
            node.kv._wal.close()  # the process dies: nothing more is written
            chop(str(tmp_path), 3)
            with KVStore(directory=str(tmp_path)) as kv:
                assert all(kv.get(key) is not None for key in _block_keys(first))
                assert all(kv.get(key) is None for key in _block_keys(second))
                assert kv.get(b"meta:committed_height") == b"1"

        asyncio.run(main())

    def test_checkpoint_freeze_keeps_the_block_record(self, tmp_path):
        async def main():
            node = _node(str(tmp_path), checkpoint_interval=1)
            block = _commit(node, genesis_block(), 1)
            assert node.checkpoints.checkpoints_taken == 1
            assert node.kv.num_runs == 1  # the checkpoint froze the memtable
            node.kv._wal.close()
            with KVStore(directory=str(tmp_path)) as kv:
                assert kv.get(b"block:" + block.digest) is not None
                assert kv.get(b"chain:%012d" % block.height) == block.digest
                assert kv.get(b"app:key1") == b"v1"
                assert kv.get(b"meta:committed_height") == b"1"
                assert kv.get(b"meta:consensus") is not None
                assert kv.get(b"meta:checkpoint_height") == b"1"

        asyncio.run(main())
