"""The sans-io boundary between protocol cores and their runtime.

A replica never touches a socket, an event loop, or a clock directly; it
talks to a :class:`NodeContext`.  Three implementations exist:

* :class:`repro.harness.des_runtime.DESContext` — discrete-event
  simulation with CPU cost accounting (drives every published figure);
* :class:`repro.runtime.node.AsyncioContext` — real asyncio execution;
* :class:`LocalContext` (below) — a synchronous, zero-delay context for
  unit tests: sends append to an outbox the test inspects, timers are
  manual.

Besides named timers, a context offers :meth:`NodeContext.coalesce`:
run a callback once the current burst of deliveries has arrived.  Its
default arms a named timer for the given window, which is what the DES
contexts and :class:`LocalContext` do; ``AsyncioContext`` instead runs
the callback at the end of the current event-loop pass, after every
frame that pass delivered.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable


class NodeContext(ABC):
    """Runtime services available to one replica."""

    @property
    @abstractmethod
    def now(self) -> float:
        """Current time in seconds (simulated or wall-clock)."""

    @abstractmethod
    def send(self, dst: int, payload: Any) -> None:
        """Send ``payload`` to replica/client ``dst`` (fire-and-forget)."""

    @abstractmethod
    def broadcast(self, payload: Any) -> None:
        """Send ``payload`` to every replica, including the sender.

        Self-delivery goes through the normal delivery path (loopback), so
        a leader processes its own proposals exactly like everyone else.
        """

    @abstractmethod
    def set_timer(self, name: str, delay: float, callback: Callable[[], None]) -> None:
        """Arm (or rearm) the named timer."""

    @abstractmethod
    def cancel_timer(self, name: str) -> None: ...

    def coalesce(self, name: str, window: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` once the current burst of deliveries is in.

        By default that is ``window`` seconds later, through the named
        timer, so ``cancel_timer(name)`` stops it.  A runtime that can
        tell when a burst has been delivered may run it sooner.
        """
        self.set_timer(name, window, callback)

    @abstractmethod
    def charge(self, seconds: float) -> None:
        """Account ``seconds`` of CPU work (no-op outside the DES)."""


class LocalContext(NodeContext):
    """Synchronous test context: explicit outbox, manually fired timers."""

    def __init__(self, replica_id: int, num_replicas: int) -> None:
        self.replica_id = replica_id
        self.num_replicas = num_replicas
        self.outbox: list[tuple[int, Any]] = []
        self.timers: dict[str, tuple[float, Callable[[], None]]] = {}
        self.cpu_charged = 0.0
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        self._now += seconds

    def send(self, dst: int, payload: Any) -> None:
        self.outbox.append((dst, payload))

    def broadcast(self, payload: Any) -> None:
        for dst in range(self.num_replicas):
            self.outbox.append((dst, payload))

    def set_timer(self, name: str, delay: float, callback: Callable[[], None]) -> None:
        self.timers[name] = (self._now + delay, callback)

    def cancel_timer(self, name: str) -> None:
        self.timers.pop(name, None)

    def charge(self, seconds: float) -> None:
        self.cpu_charged += seconds

    # -- test helpers -------------------------------------------------

    def drain(self) -> list[tuple[int, Any]]:
        """Return and clear the outbox."""
        out = self.outbox
        self.outbox = []
        return out

    def fire_timer(self, name: str) -> None:
        """Manually trigger a pending timer (tests drive time)."""
        deadline, callback = self.timers.pop(name)
        self._now = max(self._now, deadline)
        callback()
