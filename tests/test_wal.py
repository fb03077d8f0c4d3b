"""Write-ahead log: framing, replay, torn-record recovery."""

from __future__ import annotations

import os

import pytest

from repro.common.errors import StoreClosed
from repro.storage.wal import WriteAheadLog


class TestInMemory:
    def test_append_replay(self):
        wal = WriteAheadLog()
        wal.append(b"one")
        wal.append(b"two")
        assert list(wal.replay()) == [b"one", b"two"]

    def test_empty_replay(self):
        assert list(WriteAheadLog().replay()) == []

    def test_truncate(self):
        wal = WriteAheadLog()
        wal.append(b"x")
        wal.truncate()
        assert list(wal.replay()) == []
        assert wal.size_bytes() == 0

    def test_closed_rejects_ops(self):
        wal = WriteAheadLog()
        wal.close()
        with pytest.raises(StoreClosed):
            wal.append(b"x")

    def test_empty_record_roundtrip(self):
        wal = WriteAheadLog()
        wal.append(b"")
        wal.append(b"y")
        assert list(wal.replay()) == [b"", b"y"]

    def test_context_manager(self):
        with WriteAheadLog() as wal:
            wal.append(b"x")
        with pytest.raises(StoreClosed):
            wal.append(b"y")


class TestOnDisk:
    def test_persists_across_reopen(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            wal.append(b"alpha")
            wal.append(b"beta")
            wal.sync()
        with WriteAheadLog(path) as wal:
            assert list(wal.replay()) == [b"alpha", b"beta"]

    def test_torn_tail_discarded(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            wal.append(b"good-1")
            wal.append(b"good-2")
            wal.sync()
        # Simulate a crash mid-write: chop bytes off the last record.
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 3)
        with WriteAheadLog(path) as wal:
            assert list(wal.replay()) == [b"good-1"]

    def test_corrupt_record_stops_replay(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            wal.append(b"good")
            wal.append(b"willcorrupt")
            wal.sync()
        with open(path, "r+b") as fh:
            data = fh.read()
            index = data.index(b"willcorrupt")
            fh.seek(index)
            fh.write(b"X")
        with WriteAheadLog(path) as wal:
            assert list(wal.replay()) == [b"good"]

    def test_append_after_replay(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            wal.append(b"a")
        with WriteAheadLog(path) as wal:
            assert list(wal.replay()) == [b"a"]
            wal.append(b"b")
            assert list(wal.replay()) == [b"a", b"b"]

    def test_append_after_torn_tail_replays(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            wal.append(b"good")
            wal.append(b"torn")
            wal.sync()
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 2)
        with WriteAheadLog(path) as wal:
            assert list(wal.replay()) == [b"good"]
            assert wal.size_bytes() == 8 + len(b"good")
            wal.append(b"later")
            wal.sync()
        with WriteAheadLog(path) as wal:
            assert list(wal.replay()) == [b"good", b"later"]
