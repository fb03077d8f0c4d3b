"""Asyncio transports: in-process queues and TCP.

The DES answers "what would the testbed measure"; these transports answer
"does the protocol actually run concurrently".  Both present the same
:class:`~repro.network.transport.Transport` contract so the sans-io
protocol cores are reused unchanged.

* :class:`AsyncioNetwork` — each endpoint gets an ``asyncio.Queue`` and a
  pump task; delivery order between a pair of endpoints is FIFO, across
  pairs it is whatever the event loop does (a useful source of real
  interleavings for integration tests).  Optional delay/loss knobs let
  tests exercise timeouts.
* :class:`TcpNetwork` — length-prefixed frames over real sockets on
  localhost, with payloads pickled (trusted, same-process test context
  only).  Used by the TCP cluster example.
"""

from __future__ import annotations

import asyncio
import pickle
import random
import struct
from typing import Any, Callable

from repro.common.errors import NetworkError, UnknownPeer
from repro.network.message import Envelope, WireSizer
from repro.network.stats import TrafficStats
from repro.network.transport import DeliveryHandler, Transport

_FRAME = struct.Struct(">I")


class AsyncioNetwork(Transport):
    """In-process asyncio transport with optional delay and loss."""

    def __init__(
        self,
        delay: float = 0.0,
        jitter: float = 0.0,
        loss_rate: float = 0.0,
        seed: int = 0,
        metrics: Any | None = None,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise NetworkError("loss_rate must be in [0, 1)")
        self._delay = delay
        self._jitter = jitter
        self._loss_rate = loss_rate
        self._rng = random.Random(seed)
        self._handlers: dict[int, DeliveryHandler] = {}
        self._queues: dict[int, asyncio.Queue[tuple[int, Any]]] = {}
        self._pumps: dict[int, asyncio.Task[None]] = {}
        self._closed = False
        # Optional repro.obs.metrics.NetworkMetrics duck, same contract
        # the DES transport takes; sizes come from the shared WireSizer so
        # byte counters agree between the two runtimes.
        self._metrics = metrics
        self._sizer = WireSizer()
        # Same TrafficStats/tap surface the DES transport exposes, so the
        # complexity observatory and per-pair accounting work here too.
        self._stats = TrafficStats()
        self._recording = True
        self._taps: list[Callable[[Envelope], None]] = []

    @property
    def stats(self) -> TrafficStats:
        return self._stats

    def reset_stats(self) -> None:
        self._stats = TrafficStats()

    def set_recording(self, on: bool) -> None:
        """Pause/resume traffic accounting (warm-up exclusion)."""
        self._recording = on

    def add_tap(self, tap: Callable[[Envelope], None]) -> None:
        """Observe every delivered envelope (complexity accounting)."""
        self._taps.append(tap)

    def register(self, endpoint: int, handler: DeliveryHandler) -> None:
        self._handlers[endpoint] = handler
        if endpoint not in self._queues:
            self._queues[endpoint] = asyncio.Queue()
            self._pumps[endpoint] = asyncio.get_event_loop().create_task(
                self._pump(endpoint)
            )

    def send(self, src: int, dst: int, payload: Any) -> None:
        if self._closed:
            return
        queue = self._queues.get(dst)
        if queue is None:
            raise UnknownPeer(f"no endpoint registered for id {dst}")
        size = self._sizer.size_of(payload)
        if self._recording:
            self._stats.record(src, dst, size)
        if self._metrics is not None:
            self._metrics.sent(src, size)
        if self._loss_rate > 0.0 and self._rng.random() < self._loss_rate:
            if self._recording:
                self._stats.dropped += 1
            if self._metrics is not None:
                self._metrics.dropped(src)
            return
        if self._delay > 0.0 or self._jitter > 0.0:
            wait = self._delay + (self._rng.uniform(0, self._jitter) if self._jitter else 0.0)
            loop = asyncio.get_event_loop()
            loop.call_later(wait, queue.put_nowait, (src, payload, size))
        else:
            queue.put_nowait((src, payload, size))

    async def _pump(self, endpoint: int) -> None:
        queue = self._queues[endpoint]
        while True:
            src, payload, size = await queue.get()
            if self._metrics is not None:
                self._metrics.received(endpoint, size)
            if self._taps:
                envelope = Envelope(src, endpoint, payload, size, asyncio.get_event_loop().time())
                for tap in self._taps:
                    tap(envelope)
            handler = self._handlers.get(endpoint)
            if handler is not None:
                handler(src, payload)
            # Yield so long handler chains cannot starve other endpoints.
            await asyncio.sleep(0)

    async def close(self) -> None:
        self._closed = True
        for task in self._pumps.values():
            task.cancel()
        await asyncio.gather(*self._pumps.values(), return_exceptions=True)
        self._pumps.clear()


class TcpNetwork(Transport):
    """Length-prefixed frames over localhost TCP.

    Protocol messages travel in the canonical wire codec
    (:mod:`repro.network.codec`); payload types without a codec fall back
    to pickle (trusted, same-process test context only) — each frame is
    tagged with its encoding.

    Call :meth:`start` to bind every registered endpoint's server, then
    :meth:`connect_all` to dial the full mesh.  ``send`` before the dial
    completes raises :class:`NetworkError`.  Endpoint ``i`` listens on
    ``base_port + i``; with ``base_port=0`` the OS assigns every port and
    :meth:`port_of` reads it back once :meth:`start` has bound it.
    """

    def __init__(self, host: str = "127.0.0.1", base_port: int = 29000) -> None:
        self._host = host
        self._base_port = base_port
        self._handlers: dict[int, DeliveryHandler] = {}
        self._servers: dict[int, asyncio.AbstractServer] = {}
        self._writers: dict[tuple[int, int], asyncio.StreamWriter] = {}
        self._reader_tasks: list[asyncio.Task[None]] = []
        self._started = False

    def port_of(self, endpoint: int) -> int:
        """The port ``endpoint`` listens on (0 = any, before an OS-assigned bind)."""
        server = self._servers.get(endpoint)
        if server is not None:
            return server.sockets[0].getsockname()[1]
        return self._base_port + endpoint if self._base_port else 0

    def register(self, endpoint: int, handler: DeliveryHandler) -> None:
        self._handlers[endpoint] = handler

    async def start(self) -> None:
        """Bind one TCP server per registered endpoint."""
        for endpoint in self._handlers:
            server = await asyncio.start_server(
                lambda r, w, ep=endpoint: self._serve(ep, r, w),
                self._host,
                self.port_of(endpoint),
            )
            self._servers[endpoint] = server
        self._started = True

    async def connect_all(self) -> None:
        """Dial a connection for every ordered pair of endpoints."""
        if not self._started:
            raise NetworkError("start() must run before connect_all()")
        for src in self._handlers:
            for dst in self._handlers:
                if src == dst:
                    continue
                reader, writer = await asyncio.open_connection(self._host, self.port_of(dst))
                # First frame announces who we are.
                hello = b"p" + pickle.dumps(("hello", src))
                writer.write(_FRAME.pack(len(hello)) + hello)
                await writer.drain()
                self._writers[(src, dst)] = writer
                # The dialled socket is write-only; dst reads on its server side.
                _ = reader

    def send(self, src: int, dst: int, payload: Any) -> None:
        if src == dst:
            handler = self._handlers.get(dst)
            if handler is None:
                raise UnknownPeer(f"no endpoint {dst}")
            asyncio.get_event_loop().call_soon(handler, src, payload)
            return
        writer = self._writers.get((src, dst))
        if writer is None:
            raise NetworkError(f"no connection {src}->{dst}; call connect_all() first")
        frame = self._encode_frame(payload)
        writer.write(_FRAME.pack(len(frame)) + frame)

    @staticmethod
    def _encode_frame(payload: Any) -> bytes:
        from repro.network import codec

        if codec.supports(payload):
            return b"c" + codec.encode_message(payload)
        return b"p" + pickle.dumps(("msg", payload))

    @staticmethod
    def _decode_frame(body: bytes) -> tuple[str, Any]:
        from repro.network import codec

        marker, rest = body[:1], body[1:]
        if marker == b"c":
            return "msg", codec.decode_message(rest)
        return pickle.loads(rest)

    async def _serve(self, endpoint: int, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        peer: int | None = None
        try:
            while True:
                header = await reader.readexactly(_FRAME.size)
                (length,) = _FRAME.unpack(header)
                body = await reader.readexactly(length)
                kind, value = self._decode_frame(body)
                if kind == "hello":
                    peer = int(value)
                elif kind == "msg":
                    handler = self._handlers.get(endpoint)
                    if handler is not None and peer is not None:
                        handler(peer, value)
        except (asyncio.IncompleteReadError, ConnectionResetError, asyncio.CancelledError):
            pass
        finally:
            writer.close()

    async def close(self) -> None:
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()
        for server in self._servers.values():
            server.close()
            await server.wait_closed()
        self._servers.clear()
