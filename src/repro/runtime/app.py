"""The replicated application: a tiny key-value state machine.

Operations are canonical-encoded commands applied in commit order:

* ``["set", key, value]`` — write;
* ``["del", key]`` — delete;
* ``["add", key, delta]`` — integer increment (the bank example), which
  creates the account at 0 on first touch;
* ``["get", key]`` — ordered read: goes through consensus like a write
  (the ``reads="commit"`` client path) and returns the value.

:meth:`KVStateMachine.apply` returns the operation's *result bytes* —
empty for writes, the stored value for reads, the new balance for adds —
which is what replica replies digest and clients certify.

Every replica applying the same committed sequence reaches the same
state; :meth:`state_digest` lets tests and examples check that in one
comparison.
"""

from __future__ import annotations

from repro.common.encoding import decode, encode
from repro.common.errors import ReproError
from repro.consensus.block import Block, Operation
from repro.crypto.hashing import digest_of
from repro.storage.kvstore import KVStore


class AppError(ReproError):
    """An operation payload was malformed or inapplicable."""


class KVStateMachine:
    """Deterministic KV application; optionally persists via a KVStore.

    Writes are only staged in the store's batch; its owner writes the batch.
    """

    def __init__(self, store: KVStore | None = None) -> None:
        self._state: dict[bytes, bytes] = {}
        self._store = store
        self._applied = 0

    @property
    def applied(self) -> int:
        return self._applied

    @staticmethod
    def encode_set(key: bytes, value: bytes) -> bytes:
        return encode(["set", key, value])

    @staticmethod
    def encode_delete(key: bytes) -> bytes:
        return encode(["del", key])

    @staticmethod
    def encode_add(key: bytes, delta: int) -> bytes:
        return encode(["add", key, delta])

    def apply(self, block: Block, op: Operation) -> bytes:
        """Execution callback for :meth:`repro.consensus.ledger.Ledger`.

        Returns the operation's result bytes (what a replica's reply to
        the client commits to).
        """
        if not op.payload:
            self._applied += 1
            return b""  # no-op operation (the paper's Fig. 10h workload)
        try:
            command = decode(op.payload)
        except ReproError as exc:
            raise AppError(f"undecodable operation payload: {exc}") from exc
        if not isinstance(command, list) or not command:
            raise AppError("operation must decode to a non-empty list")
        verb = command[0]
        result = b""
        if verb == "set" and len(command) == 3:
            self._write(command[1], command[2])
        elif verb == "del" and len(command) == 2:
            self._state.pop(command[1], None)
            if self._store is not None:
                self._store.stage(b"app:" + command[1], None)
        elif verb == "add" and len(command) == 3:
            current = int.from_bytes(self._state.get(command[1], b"\0" * 8), "big", signed=True)
            updated = current + int(command[2])
            result = updated.to_bytes(8, "big", signed=True)
            self._write(command[1], result)
        elif verb == "get" and len(command) == 2:
            result = self._state.get(command[1], b"")
        else:
            raise AppError(f"unknown command {command[:1]!r}")
        self._applied += 1
        return result

    def _write(self, key: bytes, value: bytes) -> None:
        self._state[key] = value
        if self._store is not None:
            self._store.stage(b"app:" + key, value)

    def get(self, key: bytes) -> bytes | None:
        return self._state.get(key)

    def balance(self, key: bytes) -> int:
        raw = self._state.get(key)
        if raw is None:
            return 0
        return int.from_bytes(raw, "big", signed=True)

    def state_digest(self) -> bytes:
        """Order-independent digest of the full state."""
        return digest_of(sorted(self._state.items()))

    def install_entries(self, entries: "tuple[tuple[bytes, bytes], ...]") -> None:
        """Replace state with a snapshot's entries (state transfer)."""
        self._state = {}
        for key, value in entries:
            self._write(key, value)

    def entries(self) -> tuple[tuple[bytes, bytes], ...]:
        """Export the full state (serving a state transfer)."""
        return tuple(sorted(self._state.items()))

    def load_from_store(self) -> int:
        """Rebuild in-memory state from the backing store (recovery).

        Returns the number of keys loaded.  Requires a backing store.
        """
        if self._store is None:
            raise AppError("no backing store to recover from")
        count = 0
        for key, value in self._store.scan(b"app:"):
            self._state[key[len(b"app:"):]] = value
            count += 1
        return count
