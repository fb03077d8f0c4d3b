"""The TCP read path: ``_Link.data_received`` cutting frames from a stream.

Most tests drive one accepted :class:`_Link` directly with a recording
transport, so chunk boundaries are chosen exactly; the rest run a live
:class:`TcpNetwork` over loopback.
"""

from __future__ import annotations

import asyncio
import logging
import random
import time

import pytest

from repro.network.asyncio_net import (
    _FRAME,
    _HELLO,
    _HELLO_MAGIC,
    MAX_FRAME_BYTES,
    TcpNetwork,
    _Link,
)
from tests.test_wire_golden import _samples


class RecordingTransport:
    def __init__(self) -> None:
        self.written: list[bytes] = []
        self.closed = False

    def write(self, data: bytes) -> None:
        self.written.append(data)

    def writelines(self, frames) -> None:
        self.written.extend(frames)

    def close(self) -> None:
        self.closed = True

    abort = close


def accepted_link(handler=None):
    """An accepted link of endpoint 0 and the list its deliveries land in."""
    inbox: list[tuple[int, object]] = []
    net = TcpNetwork()
    net.register(0, handler or (lambda src, payload: inbox.append((src, payload))))
    net._started = True  # as after start(): a stopped network aborts new links
    link = _Link(net, 0, None)
    link.connection_made(RecordingTransport())
    return net, link, inbox


def stream(messages, peer: int = 7) -> bytes:
    return _HELLO.pack(_HELLO_MAGIC, peer) + b"".join(
        TcpNetwork._encode_frame(message) for message in messages
    )


def feed(link: _Link, data: bytes, cuts) -> None:
    """Deliver ``data`` in chunks of the sizes ``cuts`` yields."""
    offset = 0
    while offset < len(data):
        size = next(cuts)
        link.data_received(data[offset : offset + size])
        offset += size


MESSAGES = list(_samples().values()) + [b"", [], {"k": [1, b"v"]}, b"x" * 5000]


def _sizes(rng: random.Random, low: int, high: int):
    while True:
        yield rng.randint(low, high)


@pytest.mark.parametrize(
    "cuts",
    [
        pytest.param(lambda rng: _sizes(rng, 1, 1), id="one-byte-at-a-time"),
        pytest.param(lambda rng: _sizes(rng, 1, 64), id="small-random-chunks"),
        pytest.param(lambda rng: _sizes(rng, 1, 3000), id="random-chunks"),
        pytest.param(lambda rng: _sizes(rng, 10**6, 10**6), id="whole-stream-in-one-chunk"),
    ],
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_any_split_delivers_the_same_messages_in_order(cuts, seed):
    net, link, inbox = accepted_link()
    feed(link, stream(MESSAGES), cuts(random.Random(seed)))
    assert inbox == [(7, message) for message in MESSAGES]
    assert [repr(payload) for _, payload in inbox] == [repr(m) for m in MESSAGES]
    assert not link.transport.closed
    assert net._links[(0, 7)] is link  # the hello adopted the connection
    assert not link._partial


def test_a_split_hello_waits_for_its_last_byte():
    net, link, inbox = accepted_link()
    data = stream([b"after the hello"])
    for byte in data[: _HELLO.size - 1]:
        link.data_received(bytes([byte]))
    assert link.peer is None and (0, 7) not in net._links
    link.data_received(data[_HELLO.size - 1 :])
    assert inbox == [(7, b"after the hello")]


def test_a_bad_frame_mid_chunk_delivers_the_frames_before_it_and_closes():
    net, link, inbox = accepted_link()
    bad = _FRAME.pack(3) + b"zzz"  # unknown marker
    data = stream([1, 2]) + bad + TcpNetwork._encode_frame(3)
    link.data_received(data)
    assert inbox == [(7, 1), (7, 2)]
    assert link.transport.closed
    link.connection_lost(None)
    assert (0, 7) not in net._links and link not in net._live


@pytest.mark.parametrize(
    "junk",
    [
        pytest.param(_FRAME.pack(0), id="empty-frame"),
        pytest.param(_FRAME.pack(5) + b"c\xff\xff\xff\xff", id="undecodable-codec-body"),
        pytest.param(_FRAME.pack(3) + b"eii", id="undecodable-encoding-body"),
    ],
)
def test_frame_errors_close_the_link(junk):
    _, link, inbox = accepted_link()
    link.data_received(stream([]) + junk + TcpNetwork._encode_frame("never"))
    assert inbox == [] and link.transport.closed


def test_an_over_cap_header_closes_before_any_body_arrives():
    _, link, inbox = accepted_link()
    link.data_received(stream([]) + _FRAME.pack(MAX_FRAME_BYTES + 1))
    assert link.transport.closed and inbox == []


def test_a_bad_hello_closes_the_link():
    net, link, inbox = accepted_link()
    link.data_received(b"\xff" * _HELLO.size + TcpNetwork._encode_frame(1))
    assert link.transport.closed and inbox == [] and not net._links


def test_a_handler_exception_is_logged_and_the_link_keeps_reading(caplog):
    seen: list[object] = []

    def handler(src, payload):
        seen.append(payload)
        if payload == "boom":
            raise RuntimeError("handler failed")

    _, link, _ = accepted_link(handler)
    with caplog.at_level(logging.ERROR, logger="repro.network.asyncio_net"):
        link.data_received(stream(["boom", "next"]))
        link.data_received(TcpNetwork._encode_frame("later"))
    assert seen == ["boom", "next", "later"]
    assert not link.transport.closed
    assert "failed on a message from 7" in caplog.text


def _assemble_seconds(mib: int) -> float:
    """Best of three: one ``mib`` MiB frame fed to a link in 4 KiB chunks."""
    blob = bytes(range(256)) * (mib * 1024 * 1024 // 256)
    data = stream([blob])
    best = float("inf")
    for _ in range(3):
        _, link, inbox = accepted_link()
        started = time.perf_counter()
        for offset in range(0, len(data), 4096):
            link.data_received(data[offset : offset + 4096])
        best = min(best, time.perf_counter() - started)
        assert inbox == [(7, blob)] and not link._partial
    return best


def test_an_8_mib_frame_in_4_kib_chunks_assembles_in_linear_time():
    two, eight = _assemble_seconds(2), _assemble_seconds(8)
    # Linear work grows 4x from 2 to 8 MiB.  Re-parsing the buffer on every
    # chunk grows 16x (about 0.04 s -> 0.76 s on a 2-core x86 container).
    assert eight < 8 * two + 0.05, (two, eight)


def test_frames_sent_during_the_dial_arrive_in_order_and_close_leaves_nothing():
    async def main():
        net = TcpNetwork()
        inbox: list[tuple[int, object]] = []
        for endpoint in range(3):
            net.register(endpoint, lambda src, payload: inbox.append((src, payload)))
        await net.start()
        for i in range(200):  # all queued before either dial completes
            net.send(1, 0, i)
            net.send(2, 0, -i)
        assert len(net._dials) == 2
        for _ in range(250):
            if len(inbox) == 400:
                break
            await asyncio.sleep(0.02)
        net.send(0, 1, "reply")  # rides the connection 1 dialled
        for _ in range(250):
            if len(inbox) == 401:
                break
            await asyncio.sleep(0.02)
        links = len(net._live)
        await net.close()
        others = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
        return inbox, links, net, others

    inbox, links, net, others = asyncio.run(main())
    assert [p for s, p in inbox if s == 1] == list(range(200))
    assert [p for s, p in inbox if s == 2] == [-i for i in range(200)]
    assert inbox[-1] == (0, "reply")
    assert links == 4  # two dialled ends and two accepted ends, no more
    assert not net._live and not net._links and not net._dials and not net._servers
    assert others == []


async def _wait_for_every_connection(server) -> None:
    """``Server.wait_closed`` as CPython 3.12 has it: it returns only once
    every connection the server accepted has been lost."""
    if server._waiters is None:
        return
    waiter = server._loop.create_future()
    server._waiters.append(waiter)
    await waiter


def test_close_ends_accepted_links_before_waiting_for_the_servers(monkeypatch):
    monkeypatch.setattr(asyncio.base_events.Server, "wait_closed", _wait_for_every_connection)

    async def main():
        net = TcpNetwork()
        inbox: list[tuple[int, object]] = []
        for endpoint in range(2):
            net.register(endpoint, lambda src, payload: inbox.append((src, payload)))
        await net.start()
        net.send(1, 0, "ping")
        for _ in range(250):
            if inbox:
                break
            await asyncio.sleep(0.02)
        links = len(net._live)
        await asyncio.wait_for(net.close(), timeout=5)
        return inbox, links, net

    inbox, links, net = asyncio.run(main())
    assert inbox == [(1, "ping")] and links == 2
    assert not net._live and not net._servers
