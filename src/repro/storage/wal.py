"""Checksummed append-only write-ahead log.

Record framing: ``[4-byte length][4-byte CRC32][payload]``.  Replay stops
cleanly at the first torn or corrupt record and cuts the log back to the
end of the last intact one (the crash-recovery contract: a partially
written tail record is discarded, everything before it is intact, and
records appended afterwards follow intact data, so the next replay
reaches them).  Backed by a real file when given a path, or by an
in-memory buffer for simulations and tests.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from typing import BinaryIO, Iterator

from repro.common.errors import StoreClosed

_HEADER = struct.Struct(">II")


class WriteAheadLog:
    """Append-only log of opaque byte records."""

    def __init__(self, path: str | None = None) -> None:
        self._path = path
        self._file: BinaryIO
        if path is None:
            self._file = io.BytesIO()
        else:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            self._file = open(path, "a+b")
        self._closed = False

    @property
    def path(self) -> str | None:
        return self._path

    def append(self, record: bytes) -> None:
        """Append one record; framing and checksum are added here."""
        self._check_open()
        crc = zlib.crc32(record) & 0xFFFFFFFF
        self._file.seek(0, os.SEEK_END)
        self._file.write(_HEADER.pack(len(record), crc))
        self._file.write(record)

    def sync(self) -> None:
        """Flush to the OS (and disk where applicable)."""
        self._check_open()
        self._file.flush()
        if self._path is not None:
            os.fsync(self._file.fileno())

    def replay(self) -> Iterator[bytes]:
        """Yield every intact record from the start of the log.

        Stops (without raising) at the first truncated or corrupt record,
        mirroring standard WAL recovery semantics, and truncates the log
        there: appends go to the end of the file, so a torn record left
        in place would hide every record written after it.
        """
        self._check_open()
        self._file.seek(0)
        intact_end = 0
        while True:
            header = self._file.read(_HEADER.size)
            if not header:
                return
            if len(header) < _HEADER.size:
                break
            length, crc = _HEADER.unpack(header)
            payload = self._file.read(length)
            if len(payload) < length or (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
                break
            intact_end += _HEADER.size + length
            yield payload
        self._file.truncate(intact_end)

    def truncate(self) -> None:
        """Discard all records (after a checkpoint has superseded them)."""
        self._check_open()
        self._file.seek(0)
        self._file.truncate()

    def size_bytes(self) -> int:
        self._check_open()
        self._file.seek(0, os.SEEK_END)
        return self._file.tell()

    def close(self) -> None:
        if not self._closed:
            self._file.close()
            self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosed("write-ahead log is closed")

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
