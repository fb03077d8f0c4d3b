"""A log-structured key-value store (the LevelDB substitute).

Architecture, a deliberately faithful miniature of LevelDB:

* writes are staged in a batch and an in-memory **memtable** (a dict); the
  batch goes to the WAL as one record (``put``/``delete`` are batches of one);
* when the memtable exceeds ``memtable_limit`` bytes it is frozen into an
  immutable **sorted run** (newest first) and the WAL is truncated;
* reads consult the memtable, then runs newest-to-oldest; a tombstone
  marker implements deletes;
* **compaction** merges all runs into one, dropping shadowed versions and
  tombstones;
* :meth:`recover` rebuilds the memtable by replaying the WAL, giving
  crash durability for writes that happened after the last freeze.

Runs live in memory but are snapshotted to disk (one file per run) when a
directory is supplied, so the store survives process restarts in the
asyncio runtime while staying allocation-cheap inside the DES.
"""

from __future__ import annotations

import bisect
import os
from typing import Iterator

from repro.common.encoding import decode, encode
from repro.common.errors import StorageError, StoreClosed
from repro.storage.wal import WriteAheadLog

_TOMBSTONE = b"\x00__repro_tombstone__"


class _SortedRun:
    """An immutable sorted mapping of key -> value-or-tombstone."""

    __slots__ = ("keys", "values")

    def __init__(self, items: dict[bytes, bytes]) -> None:
        self.keys: list[bytes] = sorted(items)
        self.values: list[bytes] = [items[k] for k in self.keys]

    def get(self, key: bytes) -> bytes | None:
        index = bisect.bisect_left(self.keys, key)
        if index < len(self.keys) and self.keys[index] == key:
            return self.values[index]
        return None

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        return zip(self.keys, self.values)

    def __len__(self) -> int:
        return len(self.keys)


class KVStore:
    """Log-structured KV store with WAL durability and compaction."""

    def __init__(
        self,
        directory: str | None = None,
        memtable_limit: int = 4 * 1024 * 1024,
        compaction_trigger: int = 8,
    ) -> None:
        if memtable_limit < 1:
            raise StorageError("memtable_limit must be positive")
        if compaction_trigger < 2:
            raise StorageError("compaction_trigger must be >= 2")
        self._dir = directory
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
        wal_path = os.path.join(directory, "wal.log") if directory else None
        self._wal = WriteAheadLog(wal_path)
        self._memtable: dict[bytes, bytes] = {}
        self._memtable_bytes = 0
        self._runs: list[_SortedRun] = []
        self._memtable_limit = memtable_limit
        self._compaction_trigger = compaction_trigger
        self._next_run_id = 0
        self._closed = False
        #: ``[key, value-or-None]`` pairs staged for the next WAL record.
        self._batch: list[list[bytes | None]] = []
        self._stats = {"puts": 0, "gets": 0, "deletes": 0, "freezes": 0, "compactions": 0}
        self._load_runs()
        self.recover()

    # ------------------------------------------------------------- public

    def put(self, key: bytes, value: bytes) -> None:
        """Durably write ``key -> value``, with anything already staged."""
        self.stage(key, value)
        self.write_batch()

    def stage(self, key: bytes, value: bytes | None) -> None:
        """Add ``key -> value`` (None deletes) to the batch; reads see it at once."""
        self._check_open()
        self._validate_key(key)
        if value is not None and value.startswith(_TOMBSTONE):
            raise StorageError("value collides with tombstone marker")
        self._insert(key, _TOMBSTONE if value is None else value)
        self._stats["deletes" if value is None else "puts"] += 1
        self._batch.append([key, value])

    def write_batch(self) -> None:
        """Append the staged writes to the WAL as one record, flushed to the OS.

        Recovery drops a torn record whole, so a batch is atomic.  No ``fsync``.
        """
        self._check_open()
        if self._batch:
            self._wal.append(encode(self._batch))
            self._batch = []
            self._maybe_freeze()

    def get(self, key: bytes) -> bytes | None:
        """Read the newest value for ``key`` or None if absent/deleted."""
        self._check_open()
        self._validate_key(key)
        self._stats["gets"] += 1
        if key in self._memtable:
            value = self._memtable[key]
            return None if value == _TOMBSTONE else value
        for run in reversed(self._runs):
            value = run.get(key)
            if value is not None:
                return None if value == _TOMBSTONE else value
        return None

    def delete(self, key: bytes) -> None:
        """Delete ``key`` (tombstone; space reclaimed at compaction)."""
        self.stage(key, None)
        self.write_batch()

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def scan(self, prefix: bytes = b"") -> Iterator[tuple[bytes, bytes]]:
        """Yield live (key, value) pairs with ``prefix``, in key order."""
        self._check_open()
        merged: dict[bytes, bytes] = {}
        for run in self._runs:
            for key, value in run.items():
                merged[key] = value
        merged.update(self._memtable)
        for key in sorted(merged):
            if key.startswith(prefix) and merged[key] != _TOMBSTONE:
                yield key, merged[key]

    def compact(self) -> None:
        """Merge all frozen runs into one, dropping dead versions."""
        self._check_open()
        if len(self._runs) <= 1:
            return
        merged: dict[bytes, bytes] = {}
        for run in self._runs:
            for key, value in run.items():
                merged[key] = value
        live = {k: v for k, v in merged.items() if v != _TOMBSTONE}
        old_files = list(range(self._next_run_id))
        self._runs = [_SortedRun(live)] if live else []
        self._stats["compactions"] += 1
        if self._dir is not None:
            for run_id in old_files:
                path = self._run_path(run_id)
                if os.path.exists(path):
                    os.remove(path)
            self._next_run_id = 0
            if self._runs:
                self._persist_run(self._runs[0])

    def flush(self) -> None:
        """Write the batch, then freeze the memtable (exposed for checkpoints)."""
        self.write_batch()
        if self._memtable:
            self._freeze()

    def recover(self) -> None:
        """Replay the WAL into the memtable (crash recovery)."""
        self._check_open()
        for record in self._wal.replay():
            pairs = decode(record)
            if pairs and not isinstance(pairs[0], list):
                raise StorageError("WAL predates batch records: wipe the data directory")
            for key, value in pairs:
                self._insert(key, _TOMBSTONE if value is None else value)

    @property
    def stats(self) -> dict[str, int]:
        return dict(self._stats)

    @property
    def num_runs(self) -> int:
        return len(self._runs)

    def close(self) -> None:
        if not self._closed:
            self.write_batch()
            self._wal.sync() if self._dir else None
            self._wal.close()
            self._closed = True

    def __enter__(self) -> "KVStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------ private

    def _insert(self, key: bytes, value: bytes) -> None:
        old = self._memtable.get(key)
        if old is not None:
            self._memtable_bytes -= len(key) + len(old)
        self._memtable[key] = value
        self._memtable_bytes += len(key) + len(value)

    def _maybe_freeze(self) -> None:
        if self._memtable_bytes >= self._memtable_limit:
            self._freeze()

    def _freeze(self) -> None:
        run = _SortedRun(self._memtable)
        self._runs.append(run)
        self._persist_run(run)
        self._memtable = {}
        self._memtable_bytes = 0
        self._wal.truncate()
        self._stats["freezes"] += 1
        if len(self._runs) >= self._compaction_trigger:
            self.compact()

    def _persist_run(self, run: _SortedRun) -> None:
        if self._dir is None:
            self._next_run_id += 1
            return
        path = self._run_path(self._next_run_id)
        self._next_run_id += 1
        payload = encode([[k, v] for k, v in run.items()])
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    def _load_runs(self) -> None:
        if self._dir is None:
            return
        run_ids = []
        for name in os.listdir(self._dir):
            if name.startswith("run-") and name.endswith(".sst"):
                run_ids.append(int(name[4:-4]))
        for run_id in sorted(run_ids):
            with open(self._run_path(run_id), "rb") as fh:
                items = decode(fh.read())
            self._runs.append(_SortedRun({k: v for k, v in items}))
            self._next_run_id = max(self._next_run_id, run_id + 1)

    def _run_path(self, run_id: int) -> str:
        assert self._dir is not None
        return os.path.join(self._dir, f"run-{run_id:06d}.sst")

    @staticmethod
    def _validate_key(key: bytes) -> None:
        if not isinstance(key, bytes) or not key:
            raise StorageError("keys must be non-empty bytes")

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosed("KV store is closed")
