"""Asyncio transports: in-process queues and TCP framing."""

from __future__ import annotations

import asyncio

import pytest

from repro.common.errors import NetworkError, UnknownPeer
from repro.network.asyncio_net import AsyncioNetwork, TcpNetwork


def run(coro):
    return asyncio.run(coro)


class TestAsyncioNetwork:
    def test_delivery(self):
        async def main():
            net = AsyncioNetwork()
            inbox: list[tuple[int, object]] = []
            net.register(0, lambda s, p: inbox.append((s, p)))
            net.register(1, lambda s, p: inbox.append((s, p)))
            net.send(0, 1, "hello")
            await asyncio.sleep(0.01)
            await net.close()
            assert inbox == [(0, "hello")]

        run(main())

    def test_fifo_per_pair(self):
        async def main():
            net = AsyncioNetwork()
            inbox: list[object] = []
            net.register(0, lambda s, p: None)
            net.register(1, lambda s, p: inbox.append(p))
            for i in range(20):
                net.send(0, 1, i)
            await asyncio.sleep(0.02)
            await net.close()
            assert inbox == list(range(20))

        run(main())

    def test_unknown_peer(self):
        async def main():
            net = AsyncioNetwork()
            net.register(0, lambda s, p: None)
            with pytest.raises(UnknownPeer):
                net.send(0, 9, "x")
            await net.close()

        run(main())

    def test_delay(self):
        async def main():
            net = AsyncioNetwork(delay=0.05)
            inbox: list[float] = []
            loop = asyncio.get_event_loop()
            start = loop.time()
            net.register(0, lambda s, p: None)
            net.register(1, lambda s, p: inbox.append(loop.time() - start))
            net.send(0, 1, "later")
            await asyncio.sleep(0.15)
            await net.close()
            assert inbox and inbox[0] >= 0.045

        run(main())

    def test_loss(self):
        async def main():
            net = AsyncioNetwork(loss_rate=0.5, seed=1)
            inbox: list[object] = []
            net.register(0, lambda s, p: None)
            net.register(1, lambda s, p: inbox.append(p))
            for i in range(100):
                net.send(0, 1, i)
            await asyncio.sleep(0.05)
            await net.close()
            assert 20 < len(inbox) < 80

        run(main())

    def test_send_after_close_is_noop(self):
        async def main():
            net = AsyncioNetwork()
            net.register(0, lambda s, p: None)
            net.register(1, lambda s, p: None)
            await net.close()
            net.send(0, 1, "dropped")  # must not raise

        run(main())


class TestTcpNetwork:
    def test_roundtrip(self):
        async def main():
            net = TcpNetwork(base_port=0)
            inbox: list[tuple[int, object]] = []
            net.register(0, lambda s, p: inbox.append((s, p)))
            net.register(1, lambda s, p: inbox.append((s, p)))
            await net.start()
            net.send(0, 1, {"k": "v"})
            net.send(1, 0, [1, 2, 3])
            await asyncio.sleep(0.1)
            await net.close()
            assert (0, {"k": "v"}) in inbox
            assert (1, [1, 2, 3]) in inbox

        run(main())

    def test_send_before_connect_raises(self):
        async def main():
            net = TcpNetwork(base_port=0)
            net.register(0, lambda s, p: None)
            net.register(1, lambda s, p: None)
            with pytest.raises(NetworkError):
                net.send(0, 1, "too early")

        run(main())

    def test_self_send(self):
        async def main():
            net = TcpNetwork(base_port=0)
            inbox: list[object] = []
            net.register(0, lambda s, p: inbox.append(p))
            await net.start()
            net.send(0, 0, "loopback")
            await asyncio.sleep(0.05)
            await net.close()
            assert inbox == ["loopback"]

        run(main())

    def test_large_frame(self):
        async def main():
            net = TcpNetwork(base_port=0)
            inbox: list[bytes] = []
            net.register(0, lambda s, p: None)
            net.register(1, lambda s, p: inbox.append(p))
            await net.start()
            blob = b"z" * 1_000_000
            net.send(0, 1, blob)
            for _ in range(100):
                if inbox:
                    break
                await asyncio.sleep(0.02)
            await net.close()
            assert inbox and inbox[0] == blob

        run(main())

    def test_os_assigned_ports_are_read_back(self):
        async def main():
            net = TcpNetwork(base_port=0)
            for endpoint in range(3):
                net.register(endpoint, lambda s, p: None)
            assert net.port_of(0) == 0  # unbound: any port
            await net.start()
            ports = [net.port_of(endpoint) for endpoint in range(3)]
            await net.close()
            assert all(ports) and len(set(ports)) == 3

        run(main())
