"""Process model: a simulated machine with a busy CPU.

A :class:`Process` wraps a simulator handle and models a single-threaded
CPU: work charged with :meth:`charge` extends the time at which the
process can next act, and :meth:`run_when_free` schedules a callback
(a delivered message's handler) for when the CPU is free.  This is how
the DES reproduces the paper's observation that crypto and database
work — not just network hops — bound throughput.

Crashing a process makes it drop all future callbacks, which is exactly
the crash-failure model of the paper's view-change and rotating-leader
experiments.  Every callback a process schedules goes through one
alive-checking dispatcher, :meth:`dispatch`, bound with its arguments in
one :func:`functools.partial`: a crashed process's pending work is still
popped (and counted) when its time comes, and then does nothing.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from repro.des.simulator import Simulator


class Process:
    """One simulated machine: an id, a CPU, and an alive flag."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self._sim = sim
        self._name = name
        self._cpu_free_at = 0.0
        self._alive = True
        self._cpu_busy_total = 0.0
        self._cpu_label = f"{name}:cpu"

    @property
    def sim(self) -> Simulator:
        return self._sim

    @property
    def name(self) -> str:
        return self._name

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def cpu_busy_total(self) -> float:
        """Total CPU seconds this process has consumed."""
        return self._cpu_busy_total

    @property
    def now(self) -> float:
        return self._sim.now

    def crash(self) -> None:
        """Crash-stop: every subsequently firing callback becomes a no-op."""
        self._alive = False

    def recover(self) -> None:
        """Bring a crashed process back (used by churn experiments)."""
        self._alive = True
        self._cpu_free_at = max(self._cpu_free_at, self._sim.now)

    def charge(self, cpu_seconds: float) -> float:
        """Consume CPU time; returns the absolute time the work finishes.

        Work is serialised: if the CPU is already busy until T, new work
        occupies [T, T + cpu_seconds].
        """
        if cpu_seconds < 0:
            raise ValueError(f"cpu_seconds cannot be negative: {cpu_seconds}")
        start, now = self._cpu_free_at, self._sim._now
        if now > start:
            start = now
        self._cpu_free_at = start + cpu_seconds
        self._cpu_busy_total += cpu_seconds
        return self._cpu_free_at

    def dispatch(self, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` unless the process has crashed.

        The one liveness rule: every callback this process schedules, and
        every timer armed on its behalf, is ``partial(dispatch, ...)``.
        """
        if self._alive:
            callback(*args)

    def run_when_free(self, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` once the CPU is free (if alive).

        How a delivered message waits for a busy replica: no CPU is
        charged here, the handler charges its own work when it runs.
        """
        sim = self._sim
        free, now = self._cpu_free_at, sim._now
        sim.schedule_at(
            free if free > now else now, partial(self.dispatch, callback, *args), self._cpu_label
        )
