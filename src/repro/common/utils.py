"""Small shared helpers with no better home."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")


def chunked(items: Sequence[T], size: int) -> Iterator[Sequence[T]]:
    """Yield consecutive slices of ``items`` of at most ``size`` elements.

    >>> [list(c) for c in chunked([1, 2, 3, 4, 5], 2)]
    [[1, 2], [3, 4], [5]]
    """
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    for start in range(0, len(items), size):
        yield items[start : start + size]


def first(iterable: Iterable[T], default: T | None = None) -> T | None:
    """Return the first element of ``iterable`` or ``default`` if empty."""
    for item in iterable:
        return item
    return default


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; returns 0.0 for an empty sequence."""
    if not values:
        return 0.0
    return sum(values) / len(values)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (``pct`` in [0, 100]).

    Returns 0.0 for an empty sequence.  Uses the nearest-rank definition,
    which is monotone and needs no interpolation.
    """
    if not values:
        return 0.0
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    ordered = sorted(values)
    if pct == 0.0:
        return ordered[0]
    rank = max(1, int(round(pct / 100.0 * len(ordered) + 0.5)) - 1)
    return ordered[min(rank, len(ordered) - 1)]
