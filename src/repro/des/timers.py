"""Named, restartable timers on top of the simulator.

BFT pacemakers constantly arm, reset and cancel view timers; a
:class:`TimerWheel` gives each logical timer a name and handles the
cancel-and-rearm choreography so protocol code stays declarative.
"""

from __future__ import annotations

from typing import Callable

from repro.des.simulator import Event, Simulator


class Timer:
    """A single restartable timer bound to a simulator."""

    def __init__(self, sim: Simulator, callback: Callable[[], None], label: str = "timer") -> None:
        self._sim = sim
        self._callback = callback
        self._label = label
        self._event: Event | None = None

    @property
    def armed(self) -> bool:
        return self._event is not None and not self._event.cancelled

    def start(self, delay: float) -> None:
        """(Re)arm the timer to fire ``delay`` seconds from now."""
        self.cancel()
        self._event = self._sim.schedule(delay, self._fire, label=self._label)

    def cancel(self) -> None:
        """Disarm without firing; safe to call when not armed."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()


class TimerWheel:
    """A set of named timers sharing one simulator."""

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._timers: dict[str, Timer] = {}

    def set(self, name: str, delay: float, callback: Callable[[], None]) -> None:
        """Arm (or rearm) the timer ``name`` to run ``callback`` later."""
        timer = self._timers.get(name)
        if timer is None:
            timer = Timer(self._sim, callback, label=name)
            self._timers[name] = timer
        else:
            timer._callback = callback
        timer.start(delay)

    def cancel(self, name: str) -> None:
        timer = self._timers.get(name)
        if timer is not None:
            timer.cancel()

    def cancel_all(self) -> None:
        for timer in self._timers.values():
            timer.cancel()
