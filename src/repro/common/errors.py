"""Exception hierarchy for the whole library.

Every subsystem raises subclasses of :class:`ReproError` so callers can
catch library failures without also swallowing programming errors such as
``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration was supplied."""


class WorkerCrashError(ReproError):
    """A worker process died mid-task (killed, out of memory, ...)."""


class EncodingError(ReproError):
    """A value could not be canonically encoded or decoded."""


class CryptoError(ReproError):
    """A cryptographic operation failed (bad key, bad signature, ...)."""


class InvalidSignature(CryptoError):
    """Signature verification failed."""


class InvalidShare(CryptoError):
    """A partial (threshold) signature share failed verification."""


class NotEnoughShares(CryptoError):
    """Fewer than ``t`` valid shares were supplied to ``tcombine``."""


class NetworkError(ReproError):
    """A transport-level failure (unknown peer, closed channel, ...)."""


class UnknownPeer(NetworkError):
    """A message was addressed to a peer the transport does not know."""


class StorageError(ReproError):
    """A storage-engine failure (corrupt record, closed store, ...)."""


class CorruptRecord(StorageError):
    """A persisted record failed its checksum or framing validation."""


class StoreClosed(StorageError):
    """An operation was attempted on a closed store."""


class ProtocolError(ReproError):
    """A consensus-protocol violation or malformed protocol message."""


class InvalidBlock(ProtocolError):
    """A block failed structural validation."""


class InvalidQC(ProtocolError):
    """A quorum certificate failed validation."""


class InvalidVote(ProtocolError):
    """A vote failed validation (bad signer, wrong view, bad digest...)."""


class SafetyViolation(ProtocolError):
    """An action would violate a safety rule; raised by defensive checks."""
