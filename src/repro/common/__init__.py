"""Common substrate: identifiers, errors, configuration, encoding, utilities.

Everything in this package is dependency-free and shared by every other
subsystem (crypto, network, storage, consensus, harness).
"""

from repro.common.errors import (
    ReproError,
    ConfigError,
    CryptoError,
    EncodingError,
    NetworkError,
    ProtocolError,
    StorageError,
)
from repro.common.types import (
    ClientId,
    Height,
    ReplicaId,
    View,
    quorum_size,
    max_faulty,
)

__all__ = [
    "ClientId",
    "ConfigError",
    "CryptoError",
    "EncodingError",
    "Height",
    "NetworkError",
    "ProtocolError",
    "ReplicaId",
    "ReproError",
    "StorageError",
    "View",
    "max_faulty",
    "quorum_size",
]
