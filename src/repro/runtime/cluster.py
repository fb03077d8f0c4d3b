"""LocalCluster: an n-node asyncio deployment in one process.

Used by the examples and the asyncio integration tests.  Supports the
in-process queue transport (default) or real TCP sockets on localhost.

Typical use::

    cluster = LocalCluster(f=1, protocol="marlin")
    async with cluster:
        await cluster.submit(b"payload")
        await cluster.wait_for_height(1)
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any

from repro.client.config import ClientConfig
from repro.client.runtime import LocalClient
from repro.common.config import ClusterConfig
from repro.consensus.crypto_service import ThresholdCryptoService
from repro.consensus.messages import ClientRequest
from repro.consensus.pipeline import PipelineConfig
from repro.crypto.keys import KeyRegistry
from repro.network.asyncio_net import AsyncioNetwork, TcpNetwork
from repro.runtime.node import Node


class LocalCluster:
    """All replicas of one BFT cluster running on the current event loop."""

    def __init__(
        self,
        f: int = 1,
        protocol: str = "marlin",
        transport: str = "queue",
        base_timeout: float = 1.0,
        batch_size: int | None = None,
        rotation_interval: float | None = None,
        data_dirs: list[str] | None = None,
        network_delay: float = 0.0,
        seed: int = 0,
        observability: Any | None = None,
        pipeline: PipelineConfig | None = None,
        client_config: ClientConfig | None = None,
        crypto: ThresholdCryptoService | None = None,
    ) -> None:
        # batch_size=None defers to the ClusterConfig default, keeping
        # repro.common.config the single source of truth for it.
        if batch_size is None:
            self.config = ClusterConfig.for_f(f, base_timeout=base_timeout)
        else:
            self.config = ClusterConfig.for_f(
                f, batch_size=batch_size, base_timeout=base_timeout
            )
        #: Optional repro.obs.observer.RunObservability shared by the
        #: transport and every node's replica.
        self.observability = observability
        self.pipeline = pipeline
        if crypto is None:
            # Key setup dominates construction cost; a sharded deployment
            # (repro.shard.ShardedLocalCluster) passes one shared service
            # so G same-shape groups pay it once.
            registry = KeyRegistry(
                self.config.num_replicas, self.config.quorum, seed=str(seed)
            )
            crypto = ThresholdCryptoService(registry)
        self.crypto = crypto
        if observability is not None:
            self.crypto.bind_metrics(observability.registry)
        if transport == "queue":
            self.network: AsyncioNetwork | TcpNetwork = AsyncioNetwork(
                delay=network_delay,
                seed=seed,
                metrics=observability.net if observability is not None else None,
            )
        elif transport == "tcp":
            self.network = TcpNetwork()
        else:
            raise ValueError(f"unknown transport {transport!r}")
        self._transport_kind = transport
        self.protocol = protocol
        self.rotation_interval = rotation_interval
        self._data_dirs = data_dirs
        self.client_config = client_config
        self.nodes: list[Node] = []
        self._client_seq = itertools.count()
        self._clients: list[LocalClient] = []
        self._started = False

    async def start(self) -> None:
        """Create nodes, bind the transport, and boot every replica."""
        for replica_id in range(self.config.num_replicas):
            data_dir = self._data_dirs[replica_id] if self._data_dirs else None
            node = Node(
                replica_id=replica_id,
                config=self.config,
                transport=self.network,
                crypto=self.crypto,
                protocol=self.protocol,
                data_dir=data_dir,
                rotation_interval=self.rotation_interval,
                observability=self.observability,
                pipeline=self.pipeline,
                client_config=self.client_config,
            )
            self.nodes.append(node)
        if self.observability is not None:
            self.observability.arm_auditor(
                [node.replica for node in self.nodes], self.network,
                self.config.num_replicas, self.config.quorum,
                qc_validator=self.crypto.qc_is_valid,
            )
        if isinstance(self.network, TcpNetwork):
            await self.network.start()
        for node in self.nodes:
            node.start()
        self._started = True
        await asyncio.sleep(0)

    async def stop(self) -> None:
        for client in self._clients:
            client.close()
        self._clients.clear()
        for node in self.nodes:
            node.stop()
        close = getattr(self.network, "close", None)
        if close is not None:
            await close()
        self._started = False

    async def __aenter__(self) -> "LocalCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    # ------------------------------------------------------------- clients

    def client(
        self, client_id: int | None = None, config: ClientConfig | None = None
    ) -> LocalClient:
        """Create a protocol client endpoint on this cluster's transport.

        Unlike :meth:`submit` (fire-and-forget broadcast), a
        :class:`LocalClient` runs the full client protocol: leader
        routing, retransmits, and ``f + 1``-matching reply certificates.
        Endpoint ids are allocated from 20_000 upward when not given.
        """
        if client_id is None:
            client_id = 20_000 + len(self._clients)
        local = LocalClient(self, client_id, config or self.client_config)
        self._clients.append(local)
        return local

    async def submit(self, payload: bytes, client_id: int = 10_000) -> int:
        """Submit one operation to the cluster; returns its sequence number.

        The request goes to every replica (non-leaders forward or hold),
        so it survives leader changes.
        """
        sequence = next(self._client_seq)
        request = ClientRequest(client_id=client_id, sequence=sequence, payload=payload)
        for node in self.nodes:
            node.replica.on_message(-1, request)
        await asyncio.sleep(0)
        return sequence

    # ------------------------------------------------------------ queries

    def committed_heights(self) -> list[int]:
        return [node.committed_height for node in self.nodes]

    async def wait_for_height(self, height: int, timeout: float = 30.0, quorum_only: bool = True) -> None:
        """Wait until replicas reach ``height`` (a quorum, or all)."""
        nodes = self.nodes
        needed = self.config.quorum if quorum_only else len(nodes)
        deadline = asyncio.get_event_loop().time() + timeout
        while True:
            reached = sum(1 for node in nodes if node.committed_height >= height)
            if reached >= needed:
                return
            if asyncio.get_event_loop().time() > deadline:
                raise TimeoutError(
                    f"only {reached}/{needed} nodes reached height {height}: "
                    f"{self.committed_heights()}"
                )
            await asyncio.sleep(0.01)

    def crash(self, replica_id: int) -> None:
        """Crash-stop one node (timers cancelled, messages ignored)."""
        self.nodes[replica_id].crash()

    async def restart(self, replica_id: int) -> Node:
        """Bring a crashed node back from its durable storage.

        The new node recovers its committed chain, application state and
        consensus variables from the data directory, re-registers on the
        transport (replacing the dead handler) and rejoins the cluster.
        Requires ``data_dirs`` to have been configured.
        """
        if self._data_dirs is None:
            raise ValueError("restart requires data_dirs")
        old = self.nodes[replica_id]
        old.crash()
        old.kv.close()
        node = Node(
            replica_id=replica_id,
            config=self.config,
            transport=self.network,
            crypto=self.crypto,
            protocol=self.protocol,
            data_dir=self._data_dirs[replica_id],
            rotation_interval=self.rotation_interval,
            observability=self.observability,
            pipeline=self.pipeline,
            client_config=self.client_config,
        )
        self.nodes[replica_id] = node
        node.start()
        await asyncio.sleep(0)
        return node

    def state_digests(self) -> list[bytes]:
        """Application state digest per node (equal on agreeing replicas)."""
        return [node.app.state_digest() for node in self.nodes]
