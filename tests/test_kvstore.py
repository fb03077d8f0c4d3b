"""The log-structured KV store: reads, writes, freezes, compaction,
crash recovery, and a hypothesis model check against a plain dict."""

from __future__ import annotations

import os
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.encoding import encode
from repro.common.errors import StorageError, StoreClosed
from repro.storage.kvstore import KVStore


class TestBasicOps:
    def test_put_get(self):
        store = KVStore()
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"

    def test_missing_key(self):
        assert KVStore().get(b"nope") is None

    def test_overwrite(self):
        store = KVStore()
        store.put(b"k", b"v1")
        store.put(b"k", b"v2")
        assert store.get(b"k") == b"v2"

    def test_delete(self):
        store = KVStore()
        store.put(b"k", b"v")
        store.delete(b"k")
        assert store.get(b"k") is None
        assert b"k" not in store

    def test_delete_missing_is_noop(self):
        store = KVStore()
        store.delete(b"ghost")
        assert store.get(b"ghost") is None

    def test_contains(self):
        store = KVStore()
        store.put(b"k", b"v")
        assert b"k" in store

    def test_empty_key_rejected(self):
        with pytest.raises(StorageError):
            KVStore().put(b"", b"v")

    def test_scan_prefix(self):
        store = KVStore()
        store.put(b"a:1", b"1")
        store.put(b"a:2", b"2")
        store.put(b"b:1", b"3")
        assert [k for k, _ in store.scan(b"a:")] == [b"a:1", b"a:2"]

    def test_scan_sorted_and_excludes_deleted(self):
        store = KVStore()
        store.put(b"z", b"1")
        store.put(b"a", b"2")
        store.put(b"m", b"3")
        store.delete(b"m")
        assert [k for k, _ in store.scan()] == [b"a", b"z"]

    def test_closed_store_rejects(self):
        store = KVStore()
        store.close()
        with pytest.raises(StoreClosed):
            store.put(b"k", b"v")


class TestFreezeCompact:
    def test_freeze_preserves_reads(self):
        store = KVStore(memtable_limit=64)
        for i in range(20):
            store.put(f"key-{i}".encode(), f"val-{i}".encode())
        assert store.num_runs > 0
        for i in range(20):
            assert store.get(f"key-{i}".encode()) == f"val-{i}".encode()

    def test_newest_run_wins(self):
        store = KVStore(memtable_limit=32)
        store.put(b"k", b"old")
        store.flush()
        store.put(b"k", b"new")
        store.flush()
        assert store.get(b"k") == b"new"

    def test_delete_shadows_frozen_value(self):
        store = KVStore()
        store.put(b"k", b"v")
        store.flush()
        store.delete(b"k")
        store.flush()
        assert store.get(b"k") is None

    def test_compaction_merges_runs(self):
        store = KVStore()
        for round_ in range(5):
            store.put(b"k", f"v{round_}".encode())
            store.flush()
        assert store.num_runs == 5
        store.compact()
        assert store.num_runs == 1
        assert store.get(b"k") == b"v4"

    def test_compaction_drops_tombstones(self):
        store = KVStore()
        store.put(b"k", b"v")
        store.flush()
        store.delete(b"k")
        store.flush()
        store.compact()
        assert store.get(b"k") is None
        assert store.num_runs <= 1

    def test_auto_compaction_trigger(self):
        store = KVStore(compaction_trigger=3)
        for i in range(4):
            store.put(f"k{i}".encode(), b"v")
            store.flush()
        assert store.num_runs < 4
        assert store.stats["compactions"] >= 1

    def test_stats(self):
        store = KVStore()
        store.put(b"a", b"1")
        store.get(b"a")
        store.delete(b"a")
        stats = store.stats
        assert stats["puts"] == 1 and stats["gets"] == 1 and stats["deletes"] == 1


class TestPersistence:
    def test_reopen_recovers_memtable_from_wal(self, tmp_path):
        directory = str(tmp_path / "db")
        store = KVStore(directory=directory)
        store.put(b"k1", b"v1")
        store.put(b"k2", b"v2")
        store.close()
        reopened = KVStore(directory=directory)
        assert reopened.get(b"k1") == b"v1"
        assert reopened.get(b"k2") == b"v2"

    def test_reopen_recovers_runs(self, tmp_path):
        directory = str(tmp_path / "db")
        store = KVStore(directory=directory, memtable_limit=32)
        for i in range(30):
            store.put(f"key-{i:03d}".encode(), f"v{i}".encode())
        store.close()
        reopened = KVStore(directory=directory)
        for i in range(30):
            assert reopened.get(f"key-{i:03d}".encode()) == f"v{i}".encode()

    def test_delete_survives_reopen(self, tmp_path):
        directory = str(tmp_path / "db")
        store = KVStore(directory=directory)
        store.put(b"k", b"v")
        store.flush()
        store.delete(b"k")
        store.close()
        reopened = KVStore(directory=directory)
        assert reopened.get(b"k") is None

    def test_compaction_removes_run_files(self, tmp_path):
        directory = str(tmp_path / "db")
        store = KVStore(directory=directory)
        for i in range(4):
            store.put(f"k{i}".encode(), b"v")
            store.flush()
        store.compact()
        import os

        run_files = [f for f in os.listdir(directory) if f.endswith(".sst")]
        assert len(run_files) == 1


class TestDamagedWalTail:
    """Writes made after recovering past a damaged WAL tail survive."""

    @staticmethod
    def _store_with_tail(tmp_path, tail: bytes) -> str:
        directory = str(tmp_path / "db")
        store = KVStore(directory=directory)
        store.put(b"a", b"1")
        store.put(b"b", b"2")
        store.close()
        with open(os.path.join(directory, "wal.log"), "ab") as wal:
            wal.write(tail)
        return directory

    def _check_later_writes_recover(self, directory: str) -> None:
        store = KVStore(directory=directory)
        assert store.get(b"a") == b"1"
        assert store.get(b"b") == b"2"
        store.put(b"c", b"3")
        store.close()
        reopened = KVStore(directory=directory)
        assert reopened.get(b"a") == b"1"
        assert reopened.get(b"b") == b"2"
        assert reopened.get(b"c") == b"3"
        reopened.close()

    def test_put_after_torn_record_survives_reopen(self, tmp_path):
        # A crash mid-append: a header and half of its payload.
        record = encode([b"z", b"26"])
        torn = struct.pack(">II", len(record), zlib.crc32(record)) + record[:3]
        self._check_later_writes_recover(self._store_with_tail(tmp_path, torn))

    def test_put_after_corrupt_crc_survives_reopen(self, tmp_path):
        record = encode([b"z", b"26"])
        corrupt = struct.pack(">II", len(record), zlib.crc32(record) ^ 1) + record
        self._check_later_writes_recover(self._store_with_tail(tmp_path, corrupt))
        with KVStore(directory=str(tmp_path / "db")) as store:
            assert store.get(b"z") is None


_ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "delete", "flush", "compact"]),
        st.binary(min_size=1, max_size=4),
        st.binary(max_size=6),
    ),
    max_size=60,
)


@settings(max_examples=50, deadline=None)
@given(_ops)
def test_property_matches_dict_model(ops):
    """The store must behave exactly like a dict, whatever the op mix."""
    store = KVStore(memtable_limit=48, compaction_trigger=3)
    model: dict[bytes, bytes] = {}
    for verb, key, value in ops:
        if verb == "put":
            store.put(key, value)
            model[key] = value
        elif verb == "delete":
            store.delete(key)
            model.pop(key, None)
        elif verb == "flush":
            store.flush()
        else:
            store.compact()
        assert store.get(key) == model.get(key)
    assert dict(store.scan()) == model
