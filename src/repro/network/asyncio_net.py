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
  localhost, one connection per pair of endpoints that talk, dialled by
  the pair's first send.  Used by the TCP cluster example.
"""

from __future__ import annotations

import asyncio
import logging
import random
import struct
from typing import Any, Callable

from repro.common import encoding
from repro.common.errors import EncodingError, NetworkError, UnknownPeer
from repro.network import codec
from repro.network.message import Envelope, WireSizer
from repro.network.stats import TrafficStats
from repro.network.transport import DeliveryHandler, Transport

log = logging.getLogger(__name__)

_FRAME = struct.Struct(">I")
# The dialler's first bytes: a magic and its endpoint id.
_HELLO = struct.Struct(">4sq")
_HELLO_MAGIC = b"MRLN"
#: Largest frame body a :class:`TcpNetwork` reader accepts, checked before
#: the body is read.  Real messages are far smaller: a 400-op block of
#: 100-byte payloads encodes to about 55 KB.
MAX_FRAME_BYTES = 16 * 1024 * 1024


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
    """One loopback TCP connection per pair of endpoints that talk.

    :meth:`start` binds a server per registered endpoint on an OS-assigned
    port (:meth:`port_of` reads it back); an endpoint registered later
    binds its own.  The first :meth:`send` between two endpoints dials
    them, buffering frames until the connection is up.  The dialler's
    first bytes are a hello naming it, and the accepting side answers over
    the same connection, so replicas reply to clients on the clients' own
    connections and clients, which never talk to each other, never connect.

    Frames are length-prefixed: protocol messages in the wire codec
    (:mod:`repro.network.codec`), other payloads in the canonical encoding
    (:mod:`repro.common.encoding`).  A frame above :data:`MAX_FRAME_BYTES`
    or a body that does not decode closes its link only.
    """

    def __init__(self, host: str = "127.0.0.1", base_port: int = 0) -> None:
        if base_port:
            raise NetworkError("TcpNetwork binds OS-assigned ports; base_port must be 0")
        self._host = host
        self._handlers: dict[int, DeliveryHandler] = {}
        self._servers: dict[int, asyncio.Task[asyncio.AbstractServer]] = {}
        self._writers: dict[tuple[int, int], asyncio.StreamWriter] = {}
        # Frames sent on a link whose dial is still in flight.
        self._pending: dict[tuple[int, int], list[bytes]] = {}
        self._tasks: set[asyncio.Task[None]] = set()
        self._started = False

    def port_of(self, endpoint: int) -> int:
        """The port ``endpoint`` listens on (0 before its server is bound)."""
        server = self._servers.get(endpoint)
        if server is None or not server.done():
            return 0
        return server.result().sockets[0].getsockname()[1]

    def register(self, endpoint: int, handler: DeliveryHandler) -> None:
        self._handlers[endpoint] = handler
        if self._started and endpoint not in self._servers:
            self._listen(endpoint)

    async def start(self) -> None:
        """Bind one TCP server per registered endpoint."""
        self._started = True
        for endpoint in self._handlers:
            self._listen(endpoint)
        await asyncio.gather(*self._servers.values())

    def _listen(self, endpoint: int) -> None:
        self._servers[endpoint] = asyncio.ensure_future(
            asyncio.start_server(
                lambda r, w, ep=endpoint: self._accept(ep, r, w), self._host, 0
            )
        )

    def send(self, src: int, dst: int, payload: Any) -> None:
        if src == dst:
            handler = self._handlers.get(dst)
            if handler is None:
                raise UnknownPeer(f"no endpoint {dst}")
            asyncio.get_event_loop().call_soon(handler, src, payload)
            return
        frame = self._encode_frame(payload)
        link = (src, dst)
        writer = self._writers.get(link)
        if writer is not None:
            writer.write(frame)
            return
        pending = self._pending.get(link)
        if pending is None:
            if dst not in self._servers:
                raise UnknownPeer(f"no listener for endpoint {dst}; call start() first")
            pending = self._pending[link] = []
            self._track(asyncio.ensure_future(self._dial(src, dst)))
        pending.append(frame)

    @staticmethod
    def _encode_frame(payload: Any) -> bytes:
        if codec.supports(payload):
            body = b"c" + codec.encode_message(payload)
        else:
            body = b"e" + encoding.encode(payload)
        if len(body) > MAX_FRAME_BYTES:
            raise NetworkError(f"{len(body)}-byte frame exceeds the {MAX_FRAME_BYTES}-byte cap")
        return _FRAME.pack(len(body)) + body

    @staticmethod
    def _decode_frame(body: bytes) -> Any:
        marker = body[:1]
        if marker == b"c":
            return codec.decode_message(body[1:])
        if marker == b"e":
            return encoding.decode(body[1:])
        raise EncodingError(f"unknown frame marker {marker!r}")

    def _track(self, task: asyncio.Task[None]) -> None:
        """Hold a link task until it ends, so :meth:`close` can cancel it."""
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _adopt(self, endpoint: int, peer: int, writer: asyncio.StreamWriter) -> None:
        """Make ``writer`` the link ``endpoint -> peer`` unless one exists."""
        link = (endpoint, peer)
        if link not in self._writers:
            self._writers[link] = writer
            writer.writelines(self._pending.pop(link, ()))

    async def _dial(self, src: int, dst: int) -> None:
        try:
            await asyncio.shield(self._servers[dst])  # a late endpoint may still be binding
            reader, writer = await asyncio.open_connection(self._host, self.port_of(dst))
        except OSError as exc:
            dropped = self._pending.pop((src, dst), ())
            log.warning("dial %d->%d failed (%s); %d frames dropped", src, dst, exc, len(dropped))
            return
        writer.write(_HELLO.pack(_HELLO_MAGIC, src))
        self._adopt(src, dst, writer)
        await self._read(src, dst, reader, writer)

    async def _accept(self, endpoint: int, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._track(asyncio.current_task())
        await self._read(endpoint, None, reader, writer)

    async def _read(
        self, endpoint: int, peer: int | None, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Deliver ``peer``'s frames to ``endpoint`` until the link ends.

        An accepted connection (``peer=None``) first reads the hello that
        names the dialler and adopts the connection as the way back to it.
        """
        try:
            if peer is None:
                magic, peer = _HELLO.unpack(await reader.readexactly(_HELLO.size))
                if magic != _HELLO_MAGIC:
                    raise EncodingError("connection opened without a hello")
                self._adopt(endpoint, peer, writer)
            while True:
                (length,) = _FRAME.unpack(await reader.readexactly(_FRAME.size))
                if length > MAX_FRAME_BYTES:
                    raise EncodingError(f"{length}-byte frame exceeds the {MAX_FRAME_BYTES}-byte cap")
                payload = self._decode_frame(await reader.readexactly(length))
                try:
                    self._handlers[endpoint](peer, payload)
                except Exception:
                    log.exception("endpoint %d failed on a message from %d", endpoint, peer)
        except EncodingError as exc:
            log.warning("link %d<-%s closed: %s", endpoint, peer, exc)
        except (asyncio.IncompleteReadError, ConnectionError, asyncio.CancelledError):
            # Only close() cancels a link task, and an accepted link's task
            # must end normally: asyncio's server callback reads its exception.
            pass
        finally:
            if self._writers.get((endpoint, peer)) is writer:
                del self._writers[(endpoint, peer)]
            writer.close()

    async def close(self) -> None:
        self._started = False
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        self._writers.clear()
        self._pending.clear()
        for bind in self._servers.values():
            server = await bind
            server.close()
            await server.wait_closed()
        self._servers.clear()
