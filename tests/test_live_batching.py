"""Intake coalescing: the live runtime proposes at the end of the loop pass.

``ClientService.schedule_propose`` asks its context to run the proposal
once the current burst of requests is in.  The simulator (and the unit
test context) waits ``ClientConfig.coalesce`` simulated seconds;
``AsyncioContext`` runs it at the end of the event-loop pass instead of
after a wall-clock window, and a cancelled or crashed node never runs it.
"""

from __future__ import annotations

import asyncio

from repro.client.config import ClientConfig
from repro.client.service import ClientService
from repro.consensus.context import LocalContext
from repro.runtime.app import KVStateMachine
from repro.runtime.cluster import LocalCluster
from repro.runtime.node import AsyncioContext

HOUR = 3600.0


class _NoTransport:
    def send(self, src, dst, payload):  # pragma: no cover - never called
        raise AssertionError("no sends expected")


def test_coalesce_runs_after_one_loop_pass_not_after_the_window():
    async def main():
        ctx = AsyncioContext(_NoTransport(), 0, 4)
        fired: list[str] = []
        ctx.coalesce("batch", HOUR, lambda: fired.append("batch"))
        assert fired == []  # never inline
        await asyncio.sleep(0)
        return fired

    assert asyncio.run(main()) == ["batch"]


def test_coalesce_runs_after_every_callback_of_the_same_pass():
    """Frames made ready by one ``select`` are all handled before it."""

    async def main():
        loop = asyncio.get_running_loop()
        ctx = AsyncioContext(_NoTransport(), 0, 4)
        order: list[str] = []

        def first_frame():
            order.append("frame-1")
            ctx.coalesce("batch", HOUR, lambda: order.append("propose"))

        loop.call_soon(first_frame)
        loop.call_soon(order.append, "frame-2")
        loop.call_soon(order.append, "frame-3")
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        return order

    assert asyncio.run(main()) == ["frame-1", "frame-2", "frame-3", "propose"]


def test_cancel_timer_stops_a_pending_coalesce():
    async def main():
        ctx = AsyncioContext(_NoTransport(), 0, 4)
        fired: list[str] = []
        ctx.coalesce("batch", HOUR, lambda: fired.append("batch"))
        ctx.cancel_timer("batch")
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        return fired

    assert asyncio.run(main()) == []


def test_rearming_coalesce_runs_the_callback_once():
    async def main():
        ctx = AsyncioContext(_NoTransport(), 0, 4)
        fired: list[int] = []
        ctx.coalesce("batch", HOUR, lambda: fired.append(1))
        ctx.coalesce("batch", HOUR, lambda: fired.append(2))
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        return fired

    assert asyncio.run(main()) == [2]


def _leader_with_recorded_proposals(cluster: LocalCluster):
    node = next(n for n in cluster.nodes if n.replica.is_leader())
    proposals: list[int] = []
    node.replica._maybe_propose = lambda: proposals.append(1)
    return node, proposals


def test_scheduled_proposal_runs_at_the_end_of_the_pass():
    async def main():
        async with LocalCluster(f=1, protocol="marlin") as cluster:
            node, proposals = _leader_with_recorded_proposals(cluster)
            node.client_service.schedule_propose()
            node.client_service.schedule_propose()  # debounced
            assert proposals == []
            await asyncio.sleep(0)
            return proposals, node.client_service._propose_armed

    proposals, armed = asyncio.run(main())
    assert proposals == [1]
    assert armed is False


def test_crashed_node_never_runs_its_scheduled_proposal():
    async def main():
        async with LocalCluster(f=1, protocol="marlin") as cluster:
            node, proposals = _leader_with_recorded_proposals(cluster)
            node.client_service.schedule_propose()
            node.crash()
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            return proposals

    assert asyncio.run(main()) == []


def test_tcp_cluster_certifies_a_burst_with_an_hour_long_window():
    """The window is simulated seconds; the live loop never waits on it."""

    async def main():
        config = ClientConfig(mode="real", coalesce=HOUR)
        async with LocalCluster(
            f=1, protocol="marlin", transport="tcp", batch_size=64, client_config=config
        ) as cluster:
            clients = [cluster.client() for _ in range(8)]
            certificates = await asyncio.gather(
                *(
                    client.submit(KVStateMachine.encode_set(b"burst-%d" % i, b"v"), timeout=30)
                    for i, client in enumerate(clients)
                )
            )
            return clients, certificates

    clients, certificates = asyncio.run(main())
    assert len(certificates) == 8
    assert all(len(c.replicas) >= 2 for c in certificates)
    assert sum(c.session.retransmits for c in clients) == 0


def test_local_context_keeps_the_window_as_a_timer():
    ctx = LocalContext(0, 4)
    fired: list[str] = []
    ctx.coalesce(ClientService.TIMER_COALESCE, 0.005, lambda: fired.append("batch"))
    deadline, _ = ctx.timers[ClientService.TIMER_COALESCE]
    assert deadline == 0.005
    assert fired == []
    ctx.fire_timer(ClientService.TIMER_COALESCE)
    assert fired == ["batch"]
    assert ctx.now == 0.005
