"""Key→shard routing: the client-side half of the sharded runtime.

A sharded deployment runs G independent consensus groups; every command
belongs to exactly one of them, named by its *routing key* (for the
closed-loop workloads: the client's identity, standing for the data
partition that client's state lives in).  :class:`ShardRouter` is the
one deterministic map from keys to groups that every party — clients,
workload generators, and the groups' own misroute guards — must agree
on, so it is deliberately tiny and dependency-free:

* ``scheme="hash"`` (default) — an 8-byte BLAKE2b digest of the key,
  salted with ``seed``, reduced mod G.  Stable across processes and
  Python versions (unlike the builtin ``hash``, which is randomised),
  so parallel sweep workers and replica-side guards always agree.
* ``scheme="modulo"`` — ``int(key) % G`` for integer-like keys; the
  transparent placement tests and examples use.

The router lives in the client layer because routing is a *client*
responsibility: a correct client never sends a command to the wrong
group, and a group presented with a foreign command rejects rather than
commits it (see :class:`repro.shard.ShardedCluster`).
"""

from __future__ import annotations

import hashlib

from repro.common.encoding import encode
from repro.common.errors import ConfigError

ROUTER_SCHEMES = ("hash", "modulo")


class ShardRouter:
    """Deterministic key→shard map shared by clients and groups."""

    def __init__(self, shards: int, scheme: str = "hash", seed: int = 0) -> None:
        if shards < 1:
            raise ConfigError(f"ShardRouter.shards must be >= 1, got {shards}")
        if scheme not in ROUTER_SCHEMES:
            raise ConfigError(
                f"ShardRouter.scheme must be one of {ROUTER_SCHEMES}, got {scheme!r}"
            )
        self.shards = shards
        self.scheme = scheme
        self.seed = seed
        self._salt = encode(["shard-router", seed])
        # client id -> shard for the hash scheme, filled on first use: a
        # client's shard never changes, and every replica's misroute
        # guard asks once per operation it receives.
        self._client_shards: dict[int, int] = {}

    # ------------------------------------------------------------- routing

    def shard_of(self, key: bytes) -> int:
        """The shard owning ``key``; total and deterministic."""
        if self.shards == 1:
            return 0
        if self.scheme == "modulo":
            return int.from_bytes(key, "big") % self.shards
        digest = hashlib.blake2b(self._salt + key, digest_size=8).digest()
        return int.from_bytes(digest, "big") % self.shards

    @staticmethod
    def key_of_client(client_id: int) -> bytes:
        """Canonical routing key of a client identity."""
        return encode(["client", client_id])

    def shard_of_client(self, client_id: int) -> int:
        """The shard a client's commands belong to (key = its identity)."""
        if self.shards == 1:
            return 0
        if self.scheme == "modulo":
            return client_id % self.shards
        shard = self._client_shards.get(client_id)
        if shard is None:
            shard = self.shard_of(self.key_of_client(client_id))
            self._client_shards[client_id] = shard
        return shard

    # ------------------------------------------------------------ utilities

    def partition_clients(self, client_ids: list[int]) -> list[list[int]]:
        """Split client ids into per-shard lists (order preserved)."""
        groups: list[list[int]] = [[] for _ in range(self.shards)]
        for client_id in client_ids:
            groups[self.shard_of_client(client_id)].append(client_id)
        return groups

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardRouter(shards={self.shards}, scheme={self.scheme!r}, seed={self.seed})"
