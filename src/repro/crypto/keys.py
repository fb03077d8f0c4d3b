"""Key registry: the trusted-setup artifact shared by a cluster.

``tgen`` in the paper is run by a trusted dealer at setup time and
distributes per-replica key material.  :class:`KeyRegistry` plays that
dealer: it derives, from a single seed, the conventional signing keys and
the ``(t, n)`` threshold key set for all ``n`` replicas, and exposes the
verification operations replicas use on each other's messages.
"""

from __future__ import annotations

from typing import Sequence

from repro.common.errors import CryptoError
from repro.common.types import ReplicaId
from repro.crypto.signatures import Signature, SigningKey, VerifyKey
from repro.crypto.threshold import (
    PartialSignature,
    ThresholdSignature,
    ThresholdSigner,
    threshold_keygen,
)


class KeyRegistry:
    """All key material for one cluster, derived deterministically.

    In a real deployment each replica would hold only its own secrets plus
    everyone's public keys; here the registry holds everything (it doubles
    as the verification oracle for the simulated signature scheme — see
    :mod:`repro.crypto.signatures`).
    """

    def __init__(self, num_replicas: int, threshold: int, seed: bytes | str = b"cluster") -> None:
        if isinstance(seed, str):
            seed = seed.encode("utf-8")
        if num_replicas < 1:
            raise CryptoError(f"need at least one replica, got {num_replicas}")
        self._n = num_replicas
        self._signing_keys: list[SigningKey] = [
            SigningKey.from_seed(seed + b":replica:" + bytes([0]) + i.to_bytes(4, "big"))
            for i in range(num_replicas)
        ]
        self._verify_keys: list[VerifyKey] = [key.verify_key() for key in self._signing_keys]
        self._tpk, self._tsigners = threshold_keygen(threshold, num_replicas, seed)

    @property
    def num_replicas(self) -> int:
        return self._n

    @property
    def threshold(self) -> int:
        return self._tpk.t

    def signing_key(self, replica: ReplicaId) -> SigningKey:
        self._check(replica)
        return self._signing_keys[replica]

    def verify_key(self, replica: ReplicaId) -> VerifyKey:
        self._check(replica)
        return self._verify_keys[replica]

    def threshold_signer(self, replica: ReplicaId) -> ThresholdSigner:
        self._check(replica)
        return self._tsigners[replica]

    def sign(self, replica: ReplicaId, message: bytes) -> Signature:
        return self.signing_key(replica).sign(message)

    def verify(self, replica: ReplicaId, message: bytes, signature: Signature) -> None:
        """Verify a conventional signature; raises on failure."""
        self.signing_key(replica).verify(message, signature)

    def is_valid(self, replica: ReplicaId, message: bytes, signature: Signature) -> bool:
        try:
            self.verify(replica, message, signature)
        except CryptoError:
            return False
        return True

    def verify_batch(
        self, items: Sequence[tuple[ReplicaId, bytes, Signature]]
    ) -> list[int]:
        """Verify many conventional signatures; indices that fail.

        Conventional signatures have no aggregate structure, so this is a
        loop — the batch API exists so callers amortise the per-call
        bookkeeping and so cost models can charge batched work.
        """
        return [
            index
            for index, (replica, message, signature) in enumerate(items)
            if not self.is_valid(replica, message, signature)
        ]

    def verify_partials_batch(
        self, message: bytes, shares: Sequence[PartialSignature]
    ) -> list[int]:
        """Batch-verify threshold shares over one message; bad indices."""
        return self._tpk.verify_shares(message, shares)

    def partial_sign(self, replica: ReplicaId, message: bytes) -> PartialSignature:
        return self.threshold_signer(replica).sign(message)

    def verify_partial(self, message: bytes, share: PartialSignature) -> None:
        self._tpk.verify_share(message, share)

    def combine(self, message: bytes, shares: list[PartialSignature]) -> ThresholdSignature:
        return self._tpk.combine(message, shares)

    def verify_threshold(self, message: bytes, signature: ThresholdSignature) -> None:
        self._tpk.verify(message, signature)

    def _check(self, replica: ReplicaId) -> None:
        if not 0 <= replica < self._n:
            raise CryptoError(f"unknown replica id {replica} (cluster size {self._n})")
