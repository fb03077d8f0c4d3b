"""The discrete-event simulator core.

A :class:`Simulator` owns a priority queue of scheduled callbacks ordered
by (time, sequence).  The sequence number makes ordering total and
deterministic: two events scheduled for the same instant fire in the order
they were scheduled, on every run.

Hot-path design: the heap holds plain ``(time, seq, event)`` tuples, so
every sift comparison during push/pop is a C-level tuple compare on a
float and an int — the sequence number is unique, so the :class:`Event`
handle in the third slot is never compared.  The handle itself is a
``__slots__`` object that exists only to support O(1) tombstone
cancellation; cancelled events are skipped when popped.

Tombstones are cheap individually but a mass cancel (a view-change storm
rearming thousands of timers at once) can leave the heap mostly dead
weight, and every push/pop then sifts past entries that will never fire.
The simulator therefore counts live tombstones and compacts the heap in
place once more than half of a non-trivial queue is cancelled, which
bounds ``pending`` at roughly twice the live event count.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush
from typing import Callable

from repro.common.errors import ReproError

#: Queues smaller than this are never compacted: rebuilding a tiny heap
#: costs more than sifting past its tombstones.
_COMPACT_MIN = 256


class SimulationError(ReproError):
    """The simulation reached an invalid state (e.g. time went backwards)."""


class Event:
    """Cancel handle for one scheduled callback."""

    __slots__ = ("time", "seq", "callback", "cancelled", "label", "owner")

    def __init__(self, time: float, seq: int, callback: Callable[[], None], label: str = "") -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.label = label
        self.owner: "Simulator | None" = None

    def cancel(self) -> None:
        """Mark the event so the simulator skips it; idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        owner = self.owner
        if owner is not None:
            owner._note_cancelled()

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time}, seq={self.seq}, {self.label!r}{state})"


class Simulator:
    """A deterministic discrete-event scheduler.

    Typical use::

        sim = Simulator(seed=7)
        sim.schedule(1.0, lambda: print(sim.now))
        sim.run(until=10.0)
    """

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        self._seq = 0
        self._queue: list[tuple[float, int, Event]] = []
        self._rng = random.Random(seed)
        self._events_processed = 0
        self._running = False
        self._cancelled = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def rng(self) -> random.Random:
        """The simulation-wide seeded RNG; use for all randomness."""
        return self._rng

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._queue)

    def credit_events(self, count: int) -> None:
        """Credit ``count`` logical events beyond the heap pops.

        The network's batched delivery collapses same-instant deliveries
        on one link into a single heap event; it credits the remainder
        here so :attr:`events_processed` keeps counting deliveries
        individually, independent of how they were scheduled.
        """
        self._events_processed += count

    def _note_cancelled(self) -> None:
        # Called by Event.cancel().  Compact once tombstones dominate a
        # non-trivial queue; in-place (slice assignment + heapify) so the
        # local alias held by a running run() loop stays valid.
        self._cancelled += 1
        if self._cancelled >= _COMPACT_MIN and self._cancelled * 2 > len(self._queue):
            self._queue[:] = [entry for entry in self._queue if not entry[2].cancelled]
            heapify(self._queue)
            self._cancelled = 0

    def schedule(self, delay: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, label)
        event.owner = self
        heappush(self._queue, (time, seq, event))
        return event

    def schedule_at(self, time: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` at absolute simulated ``time``."""
        now = self._now
        delay = time - now
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        # ``now + (time - now)``, not ``time``: the same float as
        # ``schedule(delay)`` gives, so event order is unchanged.
        time = now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, label)
        event.owner = self
        heappush(self._queue, (time, seq, event))
        return event

    def call_soon(self, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` at the current instant (after queued peers)."""
        return self.schedule(0.0, callback, label)

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Process events until the queue drains or a bound is hit.

        ``until`` bounds simulated time (events later than it stay queued
        and time stops exactly at ``until``); ``max_events`` bounds work,
        protecting against accidental event storms.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        queue = self._queue
        try:
            processed_this_run = 0
            while queue:
                if max_events is not None and processed_this_run >= max_events:
                    break
                time, _, event = queue[0]
                if event.cancelled:
                    heappop(queue)
                    if self._cancelled > 0:
                        self._cancelled -= 1
                    continue
                if until is not None and time > until:
                    self._now = until
                    return
                heappop(queue)
                if time < self._now:
                    raise SimulationError(
                        f"event at t={time} popped after clock reached {self._now}"
                    )
                self._now = time
                event.callback()
                self._events_processed += 1
                processed_this_run += 1
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False

    def step(self) -> bool:
        """Process exactly one (non-cancelled) event; False if queue empty.

        Enforces the same monotonic-clock invariant as :meth:`run`: a
        popped event earlier than the current clock raises
        :class:`SimulationError` instead of silently rewinding time.
        """
        while self._queue:
            time, _, event = heappop(self._queue)
            if event.cancelled:
                if self._cancelled > 0:
                    self._cancelled -= 1
                continue
            if time < self._now:
                raise SimulationError(
                    f"event at t={time} popped after clock reached {self._now}"
                )
            self._now = time
            event.callback()
            self._events_processed += 1
            return True
        return False
