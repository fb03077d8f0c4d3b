"""Deterministic discrete-event simulation (DES) substrate.

The paper's evaluation ran on a 40-machine testbed.  We reproduce its
figures with a discrete-event simulator: replicas are
:class:`~repro.des.process.Process` objects, messages and timers are
events on a global priority queue, and simulated time advances in jumps.
Determinism (a seeded RNG, stable tie-breaking by sequence number) makes
every experiment exactly reproducible.
"""

from repro.des.simulator import Event, Simulator
from repro.des.process import Process
from repro.des.timers import Timer, TimerWheel

__all__ = [
    "Event",
    "Process",
    "Simulator",
    "Timer",
    "TimerWheel",
]
