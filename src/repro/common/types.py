"""Core identifier types and quorum arithmetic.

The whole library uses plain ``int`` new-types for replica ids, views and
heights so values remain cheap, hashable and trivially serialisable, while
still documenting intent at every call site.
"""

from __future__ import annotations

from typing import NewType

from repro.common.errors import ConfigError

ReplicaId = NewType("ReplicaId", int)
"""Index of a replica in ``range(n)``."""

ClientId = NewType("ClientId", int)
"""Index of a client; disjoint namespace from replica ids."""

View = NewType("View", int)
"""Monotonically increasing view number; views start at 1."""

Height = NewType("Height", int)
"""Block height; the genesis block has height 0."""

GENESIS_VIEW = View(0)
GENESIS_HEIGHT = Height(0)


def max_faulty(n: int) -> int:
    """Return ``f``, the number of Byzantine replicas tolerated by ``n``.

    BFT requires ``n >= 3f + 1``, so ``f = (n - 1) // 3``.
    """
    if n < 1:
        raise ConfigError(f"replica count must be positive, got {n}")
    return (n - 1) // 3


def quorum_size(n: int) -> int:
    """Return the quorum size ``n - f`` used for every QC in the paper."""
    return n - max_faulty(n)


def validate_bft_size(n: int, f: int) -> None:
    """Raise :class:`ConfigError` unless ``n >= 3f + 1``."""
    if f < 0:
        raise ConfigError(f"f must be non-negative, got {f}")
    if n < 3 * f + 1:
        raise ConfigError(f"n={n} cannot tolerate f={f} faults (need n >= {3 * f + 1})")
