"""The discrete-event simulator core, timers and processes."""

from __future__ import annotations

from functools import partial

import pytest

from repro.des.process import Process
from repro.des.simulator import SimulationError, Simulator
from repro.des.timers import Timer, TimerWheel


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order: list[str] = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self):
        sim = Simulator()
        order: list[int] = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_now_advances(self):
        sim = Simulator()
        seen: list[float] = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_run_until_stops_clock_exactly(self):
        sim = Simulator()
        fired: list[float] = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.run(until=2.0)
        assert sim.now == 2.0
        assert fired == []
        sim.run(until=10.0)
        assert fired == [5.0]

    def test_cancelled_events_skipped(self):
        sim = Simulator()
        fired: list[str] = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        sim.run()
        assert fired == []

    def test_events_scheduled_from_events(self):
        sim = Simulator()
        order: list[str] = []

        def first():
            order.append("first")
            sim.schedule(1.0, lambda: order.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "second"]
        assert sim.now == 2.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_max_events_bound(self):
        sim = Simulator()

        def rearm():
            sim.schedule(0.1, rearm)

        sim.schedule(0.1, rearm)
        sim.run(max_events=50)
        assert sim.events_processed == 50

    def test_determinism_across_runs(self):
        def run_once(seed: int) -> list[float]:
            sim = Simulator(seed=seed)
            log: list[float] = []

            def tick():
                log.append(sim.now + sim.rng.random())
                if len(log) < 10:
                    sim.schedule(sim.rng.uniform(0, 1), tick)

            sim.schedule(0.0, tick)
            sim.run()
            return log

        assert run_once(7) == run_once(7)
        assert run_once(7) != run_once(8)

    def test_step(self):
        sim = Simulator()
        fired: list[int] = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        assert sim.step()
        assert fired == [1]
        assert sim.step()
        assert not sim.step()

    @staticmethod
    def _inject_stale_event(sim: Simulator, time: float) -> None:
        # Corrupt the queue the way a scheduling bug would: an entry
        # behind the clock (schedule() itself refuses to create one).
        from heapq import heappush

        from repro.des.simulator import Event

        event = Event(time, sim._seq, lambda: None)
        heappush(sim._queue, (time, event.seq, event))

    def test_step_rejects_backwards_event(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.now == 2.0
        self._inject_stale_event(sim, 1.0)
        with pytest.raises(SimulationError):
            sim.step()

    def test_run_rejects_backwards_event(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run()
        self._inject_stale_event(sim, 1.0)
        with pytest.raises(SimulationError):
            sim.run()


class TestCompaction:
    """Mass-cancel storms must not grow the heap without bound."""

    def test_mass_cancel_compacts_heap(self):
        sim = Simulator()
        events = [sim.schedule(100.0 + i, lambda: None) for i in range(4000)]
        for event in events:
            event.cancel()
        # Without compaction all 4000 tombstones would sit in the queue
        # until popped; the >50% sweep keeps only a small residue.
        assert sim.pending < 300

    def test_view_change_storm_keeps_pending_bounded(self):
        # A view-change storm rearms timers over and over: each round
        # schedules a batch and cancels it.  pending must stay bounded
        # by the live set, not grow with the number of rounds.
        sim = Simulator()
        sim.schedule(1e9, lambda: None)  # one live event outlasting the storm
        peak = 0
        for _ in range(50):
            batch = [sim.schedule(1000.0, lambda: None) for _ in range(200)]
            for event in batch:
                event.cancel()
            peak = max(peak, sim.pending)
        assert sim.pending < 600
        assert peak < 600

    def test_compaction_preserves_behaviour(self):
        sim = Simulator()
        fired: list[int] = []
        for i in range(10):
            sim.schedule(5.0 + i * 0.001, lambda i=i: fired.append(i))
        doomed = [sim.schedule(50.0, lambda: fired.append(-1)) for _ in range(1000)]
        for event in doomed:
            event.cancel()
        sim.run()
        assert fired == list(range(10))

    def test_cancel_after_fire_is_harmless(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        event.cancel()
        event.cancel()
        assert sim.pending == 0


class TestTimers:
    def test_timer_fires(self):
        sim = Simulator()
        fired: list[float] = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        sim.run()
        assert fired == [1.0]

    def test_restart_supersedes(self):
        sim = Simulator()
        fired: list[float] = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        timer.start(3.0)
        sim.run()
        assert fired == [3.0]

    def test_cancel(self):
        sim = Simulator()
        fired: list[float] = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        timer.cancel()
        sim.run()
        assert fired == []
        assert not timer.armed

    def test_wheel_named_timers(self):
        sim = Simulator()
        fired: list[str] = []
        wheel = TimerWheel(sim)
        wheel.set("a", 1.0, lambda: fired.append("a"))
        wheel.set("b", 2.0, lambda: fired.append("b"))
        wheel.cancel("a")
        sim.run()
        assert fired == ["b"]

    def test_wheel_rearm_replaces_callback(self):
        sim = Simulator()
        fired: list[str] = []
        wheel = TimerWheel(sim)
        wheel.set("t", 1.0, lambda: fired.append("old"))
        wheel.set("t", 1.0, lambda: fired.append("new"))
        sim.run()
        assert fired == ["new"]


class TestProcess:
    def test_cpu_serialises_work(self):
        sim = Simulator()
        process = Process(sim, "p")
        end1 = process.charge(1.0)
        end2 = process.charge(2.0)
        assert end1 == pytest.approx(1.0)
        assert end2 == pytest.approx(3.0)
        assert process.cpu_busy_total == pytest.approx(3.0)

    def test_run_after_cpu(self):
        """Charged work, then ``run_when_free``: each callback runs when
        the work charged before it completes, in order."""
        sim = Simulator()
        process = Process(sim, "p")
        done: list[float] = []
        process.charge(0.5)
        process.run_when_free(lambda: done.append(sim.now))
        process.charge(0.5)
        process.run_when_free(lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(0.5), pytest.approx(1.0)]

    def test_crash_drops_callbacks(self):
        sim = Simulator()
        process = Process(sim, "p")
        done: list[float] = []
        process.charge(1.0)
        process.run_when_free(lambda: done.append(sim.now))
        sim.schedule(2.0, partial(process.dispatch, lambda: done.append(sim.now)))
        process.crash()
        sim.run()
        assert done == []
        assert not process.alive

    def test_recover(self):
        sim = Simulator()
        process = Process(sim, "p")
        process.crash()
        process.recover()
        done: list[float] = []
        process.charge(1.0)
        process.run_when_free(lambda: done.append(sim.now))
        sim.schedule(2.0, partial(process.dispatch, lambda: done.append(sim.now)))
        sim.run()
        assert done == [1.0, 2.0]

    def test_cpu_idle_gap(self):
        """An idle CPU starts new work at the current time, not where
        its last work ended."""
        sim = Simulator()
        process = Process(sim, "p")
        done: list[float] = []

        def work() -> None:
            process.charge(1.0)
            process.run_when_free(lambda: done.append(sim.now))

        sim.schedule(5.0, work)
        sim.run()
        assert done == [pytest.approx(6.0)]

    def test_negative_charge_rejected(self):
        sim = Simulator()
        process = Process(sim, "p")
        with pytest.raises(ValueError):
            process.charge(-1.0)


def _arm(entry: str):
    """Schedule one piece of work for replica 1 through ``entry``.

    Returns the replica's process, the simulator and the list the work
    appends to when it runs.  Every entry point a replica's work can take
    into the event queue is here: a network delivery (which waits for the
    CPU through :meth:`Process.run_when_free`), a send that waits for a
    busy CPU, and a named timer.
    """
    from repro.common.config import ClusterConfig, ExperimentConfig
    from repro.harness.des_runtime import DESCluster

    cluster = DESCluster(
        ExperimentConfig(cluster=ClusterConfig.for_f(1), seed=1), crypto_mode="null"
    )
    sim = cluster.sim
    process = cluster.processes[1]
    ran: list[float] = []

    def work() -> None:
        ran.append(sim.now)

    if entry == "delivery":
        cluster.replicas[1].on_message = lambda src, payload: work()
        cluster.network.send(0, 1, "hello")
    elif entry == "net-send":
        # Replica 1's CPU is busy, so its send leaves when the work ends.
        cluster.replicas[2].on_message = lambda src, payload: work()
        ctx = cluster.replicas[1].ctx
        ctx.charge(1.0)
        ctx.send(2, "hello")
    else:
        cluster.replicas[1].ctx.set_timer("probe", 1.0, work)
    return process, sim, ran


#: Every way replica work enters the queue: (heap pops when the replica
#: is crashed, heap pops when it is alive).  The delivery pops the
#: network's drain event, then the replica's CPU event; an alive busy
#: send adds the drain and the receiver's CPU event.
_ENTRIES = {
    "delivery": (2, 2),
    "net-send": (1, 3),
    "set_timer": (1, 1),
}


class TestCrashedProcessDropsWork:
    """One liveness rule at every entry: a crashed process's pending work
    is popped and counted, but does nothing; a recovered one's runs."""

    @pytest.mark.parametrize("entry", sorted(_ENTRIES))
    def test_crash_before_it_fires(self, entry):
        process, sim, ran = _arm(entry)
        process.crash()
        sim.run()
        assert ran == []
        assert sim.events_processed == _ENTRIES[entry][0]

    @pytest.mark.parametrize("entry", sorted(_ENTRIES))
    def test_recover_before_it_fires(self, entry):
        process, sim, ran = _arm(entry)
        process.crash()
        process.recover()
        sim.run()
        assert len(ran) == 1
        assert sim.events_processed == _ENTRIES[entry][1]
