"""The asyncio runtime: live event-loop clusters, storage, the KV app."""

from __future__ import annotations

import asyncio
import gc
import os
import socket
import stat

import pytest

from repro.network import asyncio_net
from repro.runtime.app import AppError, KVStateMachine
from repro.runtime.cluster import LocalCluster
from repro.storage.kvstore import KVStore


def run(coro):
    return asyncio.run(coro)


class TestKVStateMachine:
    def _apply(self, app: KVStateMachine, payload: bytes) -> None:
        from repro.consensus.block import Operation, genesis_block

        app.apply(genesis_block(), Operation(client_id=1, sequence=app.applied, payload=payload))

    def test_set_get(self):
        app = KVStateMachine()
        self._apply(app, KVStateMachine.encode_set(b"k", b"v"))
        assert app.get(b"k") == b"v"

    def test_delete(self):
        app = KVStateMachine()
        self._apply(app, KVStateMachine.encode_set(b"k", b"v"))
        self._apply(app, KVStateMachine.encode_delete(b"k"))
        assert app.get(b"k") is None

    def test_add_creates_and_increments(self):
        app = KVStateMachine()
        self._apply(app, KVStateMachine.encode_add(b"acct", 10))
        self._apply(app, KVStateMachine.encode_add(b"acct", -3))
        assert app.balance(b"acct") == 7

    def test_noop_payload(self):
        app = KVStateMachine()
        self._apply(app, b"")
        assert app.applied == 1

    def test_malformed_payload(self):
        app = KVStateMachine()
        with pytest.raises(AppError):
            self._apply(app, b"\xff\xffgarbage")

    def test_unknown_command(self):
        from repro.common.encoding import encode

        app = KVStateMachine()
        with pytest.raises(AppError):
            self._apply(app, encode(["frobnicate", b"x"]))

    def test_state_digest_deterministic(self):
        a, b = KVStateMachine(), KVStateMachine()
        for app in (a, b):
            self._apply(app, KVStateMachine.encode_set(b"k1", b"v1"))
            self._apply(app, KVStateMachine.encode_set(b"k2", b"v2"))
        assert a.state_digest() == b.state_digest()

    def test_persists_to_store(self):
        store = KVStore()
        app = KVStateMachine(store=store)
        self._apply(app, KVStateMachine.encode_set(b"k", b"v"))
        assert store.get(b"app:k") == b"v"


class TestLocalCluster:
    def test_commit_and_agree(self):
        async def main():
            async with LocalCluster(f=1, protocol="marlin", batch_size=8) as cluster:
                for i in range(10):
                    await cluster.submit(KVStateMachine.encode_set(b"k%d" % i, b"v"))
                await cluster.wait_for_height(2, timeout=15)
                digests = cluster.state_digests()
                assert len(set(digests[:3])) == 1

        run(main())

    def test_hotstuff_protocol(self):
        async def main():
            async with LocalCluster(f=1, protocol="hotstuff", batch_size=8) as cluster:
                for i in range(5):
                    await cluster.submit(b"")
                await cluster.wait_for_height(1, timeout=15)

        run(main())

    def test_leader_crash_recovery(self):
        async def main():
            async with LocalCluster(
                f=1, protocol="marlin", batch_size=8, base_timeout=0.4
            ) as cluster:
                await cluster.submit(b"")
                await cluster.wait_for_height(1, timeout=15)
                cluster.crash(0)
                await asyncio.sleep(0.05)
                for i in range(5):
                    await cluster.submit(b"", client_id=11_000)
                before = max(cluster.committed_heights()[1:])
                deadline = asyncio.get_event_loop().time() + 20
                while True:
                    heights = cluster.committed_heights()[1:]
                    if min(heights) > before:
                        break
                    if asyncio.get_event_loop().time() > deadline:
                        raise TimeoutError(f"stuck at {heights}")
                    await cluster.submit(b"", client_id=11_001)
                    await asyncio.sleep(0.05)
                assert all(n.replica.cview >= 2 for n in cluster.nodes[1:])

        run(main())

    def test_network_delay_still_commits(self):
        async def main():
            async with LocalCluster(
                f=1, protocol="marlin", batch_size=8, network_delay=0.005
            ) as cluster:
                for i in range(5):
                    await cluster.submit(b"")
                await cluster.wait_for_height(1, timeout=15)

        run(main())

    def test_persistence_to_disk(self, tmp_path):
        async def main():
            dirs = [str(tmp_path / f"node{i}") for i in range(4)]
            async with LocalCluster(f=1, protocol="marlin", batch_size=4, data_dirs=dirs) as cluster:
                await cluster.submit(KVStateMachine.encode_set(b"durable", b"yes"))
                await cluster.wait_for_height(1, timeout=15)
            # After shutdown, node 1's store still holds the app state.
            reopened = KVStore(directory=dirs[1])
            assert reopened.get(b"app:durable") == b"yes"
            assert reopened.get(b"meta:committed_height") is not None
            reopened.close()

        run(main())

    def test_f2_cluster(self):
        async def main():
            async with LocalCluster(f=2, protocol="marlin", batch_size=8) as cluster:
                for i in range(5):
                    await cluster.submit(b"")
                await cluster.wait_for_height(1, timeout=20)

        run(main())


class TestTcpCluster:
    def test_tcp_transport_commits(self):
        async def main():
            async with LocalCluster(f=1, protocol="marlin", transport="tcp", batch_size=4) as cluster:
                for i in range(4):
                    await cluster.submit(b"")
                await cluster.wait_for_height(1, timeout=20)

        run(main())

    def test_seed_past_the_old_port_formula(self):
        # 29000 + seed % 1000 * 100 put seed 400's ports above 65535.
        async def main():
            async with LocalCluster(f=1, protocol="marlin", transport="tcp", batch_size=4, seed=400) as cluster:
                for i in range(4):
                    await cluster.submit(b"")
                await cluster.wait_for_height(1, timeout=20)

        run(main())

    def test_client_created_after_start_certifies(self):
        async def main():
            async with LocalCluster(f=1, protocol="marlin", transport="tcp") as cluster:
                client = cluster.client()
                certificate = await client.submit(KVStateMachine.encode_set(b"k", b"v"), timeout=20)
                assert len(certificate.replicas) >= cluster.config.f + 1
                assert client.session.retransmits == 0

        run(main())

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts sockets via /proc")
    def test_connections_only_between_endpoints_that_talk(self):
        clients, replicas = 64, 4

        async def main():
            before = _tcp_connection_ends()
            cluster = LocalCluster(f=1, protocol="marlin", transport="tcp", batch_size=64)
            endpoints = [cluster.client() for _ in range(clients)]
            async with cluster:
                certificates = await asyncio.gather(
                    *(
                        client.submit(KVStateMachine.encode_set(b"key-%d" % i, b"v"), timeout=30)
                        for i, client in enumerate(endpoints)
                    )
                )
                # Both ends of every loopback connection live in this process.
                connections = (_tcp_connection_ends() - before) // 2
            assert all(len(c.replicas) >= cluster.config.f + 1 for c in certificates)
            # Each client to each replica, each replica pair at most twice
            # (both replicas may dial at once); never client to client.
            assert connections <= clients * replicas + replicas * (replicas - 1)

        run(main())

    def test_bad_frames_close_only_their_link(self):
        hello = asyncio_net._HELLO.pack(asyncio_net._HELLO_MAGIC, 999_999)  # names no endpoint
        oversized = asyncio_net._FRAME.pack(asyncio_net.MAX_FRAME_BYTES + 1)
        garbage = b"\xff" * 16
        junk = [
            hello + oversized + garbage,
            hello + asyncio_net._FRAME.pack(len(garbage)) + garbage,
            hello + asyncio_net._FRAME.pack(len(garbage) + 1) + b"c" + garbage,
            garbage,  # no hello at all
        ]

        async def main():
            reports: list[dict] = []
            asyncio.get_running_loop().set_exception_handler(lambda loop, ctx: reports.append(ctx))
            async with LocalCluster(f=1, protocol="marlin", transport="tcp", batch_size=4) as cluster:
                port = cluster.network.port_of(0)
                for data in junk:
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                    writer.write(data)
                    # The replica reads the bad frame and hangs up.
                    assert await asyncio.wait_for(reader.read(), 5) == b""
                    writer.close()
                for i in range(4):
                    await cluster.submit(b"")
                await cluster.wait_for_height(1, timeout=20)
            gc.collect()
            assert not reports, [ctx.get("message") for ctx in reports]

        run(main())


def _tcp_connection_ends() -> int:
    """Connected IPv4 TCP sockets this process holds (listeners excluded)."""
    ends = 0
    for name in os.listdir("/proc/self/fd"):
        try:
            if not stat.S_ISSOCK(os.fstat(int(name)).st_mode):
                continue
            with socket.socket(fileno=os.dup(int(name))) as sock:
                if sock.family == socket.AF_INET and sock.type == socket.SOCK_STREAM:
                    sock.getpeername()  # raises on listeners
                    ends += 1
        except OSError:
            continue
    return ends
