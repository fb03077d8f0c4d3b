"""Runtime bindings for :class:`~repro.client.session.ClientSession`.

The session itself is sans-io; this module supplies the two contexts
that put it on a wire:

* :class:`DESClientEndpoint` — one simulated client machine.  Its
  endpoint id *is* its client id (client ids start at
  ``num_replicas``, so they never collide with replica endpoints),
  which lets replicas address replies simply as ``send(op.client_id,
  reply)``.  Client egress is unshaped, like the workload hub: a client
  token stands for many physical machines, so it must not serialise
  behind one simulated NIC.
* :class:`LocalClient` — the same session over a live asyncio transport
  (:class:`~repro.network.asyncio_net.AsyncioNetwork` or TCP), with
  awaitable submit/read helpers for tests, examples and the CLI.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Callable

from repro.client.config import ClientConfig
from repro.client.service import SessionTable
from repro.client.session import ClientSession
from repro.consensus.context import NodeContext
from repro.des.timers import TimerWheel


class DESClientContext(NodeContext):
    """NodeContext for one simulated client endpoint (unshaped egress)."""

    def __init__(self, sim: Any, network: Any, endpoint: int, num_replicas: int) -> None:
        self._sim = sim
        self._network = network
        self._endpoint = endpoint
        self._n = num_replicas
        self._timers = TimerWheel(sim)

    @property
    def now(self) -> float:
        return self._sim.now

    def send(self, dst: int, payload: Any) -> None:
        self._network.send(self._endpoint, dst, payload)

    def broadcast(self, payload: Any) -> None:
        for dst in range(self._n):
            self._network.send(self._endpoint, dst, payload)

    def set_timer(self, name: str, delay: float, callback: Callable[[], None]) -> None:
        self._timers.set(name, delay, callback)

    def cancel_timer(self, name: str) -> None:
        self._timers.cancel(name)

    def charge(self, seconds: float) -> None:
        """Clients model many machines; no CPU accounting."""


class DESClientEndpoint:
    """One protocol client wired into a :class:`DESCluster`."""

    def __init__(
        self,
        cluster: Any,
        client_id: int,
        config: ClientConfig | None = None,
        *,
        weight: int = 1,
        on_result: Callable[[int, Any, float], None] | None = None,
    ) -> None:
        num_replicas = cluster.experiment.cluster.num_replicas
        if client_id < num_replicas:
            raise ValueError(
                f"client ids start at {num_replicas} (replica ids are below)"
            )
        self.client_id = client_id
        self.ctx = DESClientContext(
            cluster.sim, cluster.network, client_id, num_replicas
        )
        self.session = ClientSession(
            client_id,
            self.ctx,
            config or ClientConfig(mode="real"),
            num_replicas,
            cluster.experiment.cluster.f,
            weight=weight,
            on_result=on_result,
            rng=random.Random(cluster.experiment.seed * 1_000_003 + client_id),
        )
        observability = getattr(cluster, "observability", None)
        if observability is not None:
            observability.bind_client_session(self.session)
        cluster.network.register(client_id, self.session.on_message)
        cluster.network.set_unshaped(client_id)


class LocalClient:
    """An asyncio protocol client for a :class:`LocalCluster`.

    Registers itself on the cluster transport and exposes awaitable
    submit/read calls: ``await client.submit(op)`` resolves with the
    reply certificate once ``f + 1`` matching replies arrived, ``await
    client.read(key)`` with the (certified or lease-served) value.

    At most :attr:`SessionTable.DEPTH <repro.client.service.SessionTable.DEPTH>`
    commit-path requests are outstanding; further calls wait for a free
    slot.  A replica caches only that many of a client's replies, so a
    request older than all of them could not be answered once its reply
    was lost, and would be retransmitted until it timed out.
    """

    def __init__(
        self,
        cluster: Any,
        client_id: int = 10_000,
        config: ClientConfig | None = None,
    ) -> None:
        from repro.runtime.node import AsyncioContext

        num_replicas = cluster.config.num_replicas
        if client_id < num_replicas:
            raise ValueError(
                f"client ids start at {num_replicas} (replica ids are below)"
            )
        self.client_id = client_id
        self.ctx = AsyncioContext(cluster.network, client_id, num_replicas)
        self._waiters: dict[int, asyncio.Future] = {}
        self._slots = asyncio.Semaphore(SessionTable.DEPTH)
        #: Sequences that hold one of ``_slots`` until they finish.
        self._holding: set[int] = set()
        self.session = ClientSession(
            client_id,
            self.ctx,
            config or ClientConfig(mode="real"),
            num_replicas,
            cluster.config.f,
            on_result=self._on_result,
        )
        observability = getattr(cluster, "observability", None)
        if observability is not None:
            observability.bind_client_session(self.session)
        cluster.network.register(client_id, self.session.on_message)

    def _on_result(self, sequence: int, outcome: Any, latency: float) -> None:
        if sequence in self._holding:
            self._holding.discard(sequence)
            self._slots.release()
        future = self._waiters.pop(sequence, None)
        if future is not None and not future.done():
            future.set_result((outcome, latency))

    async def submit(self, op: bytes, timeout: float = 30.0) -> Any:
        """Submit a write; returns its ReplyCertificate."""
        return await self._commit_path(lambda: self.session.submit(op), timeout)

    async def read(self, key: bytes, timeout: float = 30.0) -> Any:
        """Read a key via the configured read path; returns the outcome.

        ``reads="commit"`` resolves with the ReplyCertificate of the
        ordered ``get``; ``reads="leader-lease"`` with the value bytes.
        """
        if self.session.config.reads == "commit":
            return await self._commit_path(lambda: self.session.read(key), timeout)
        return await self._await(self.session.read(key), timeout)

    async def _commit_path(self, issue: Callable[[], int], timeout: float) -> Any:
        """Issue a commit-path request once a slot is free; await its outcome.

        ``timeout`` covers the wait for the slot too.  The slot is held
        until the session finishes the request, not until this call
        gives up, since a timed-out request is still retransmitted.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        if self._slots.locked():  # a free slot skips wait_for's extra task
            await asyncio.wait_for(self._slots.acquire(), timeout)
        else:
            await self._slots.acquire()
        sequence = issue()
        self._holding.add(sequence)
        return await self._await(sequence, deadline - loop.time())

    async def _await(self, sequence: int, timeout: float) -> Any:
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiters[sequence] = future
        outcome, _ = await asyncio.wait_for(future, timeout)
        return outcome

    def close(self) -> None:
        self.ctx.cancel_all()
        for future in self._waiters.values():
            if not future.done():
                future.cancel()
        self._waiters.clear()
