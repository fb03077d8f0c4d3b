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
from typing import Any, Callable, Iterable

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
#: Largest frame body a :class:`TcpNetwork` link accepts, checked on the
#: frame header before any of the body is buffered.  Real messages are far
#: smaller: a 400-op block of 100-byte payloads encodes to about 55 KB.
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

    :meth:`start` binds each endpoint to an OS-assigned port.  The first
    :meth:`send` between two endpoints dials them; the dialler's hello
    names it and the accepting side answers on that connection, so
    clients, which never talk to each other, never connect.  Frames are
    length-prefixed codec messages or other payloads in the canonical
    encoding, each read by a :class:`_Link` protocol.
    """

    def __init__(self, host: str = "127.0.0.1", base_port: int = 0) -> None:
        if base_port:
            raise NetworkError("TcpNetwork binds OS-assigned ports; base_port must be 0")
        self._host = host
        self._handlers: dict[int, DeliveryHandler] = {}
        self._servers: dict[int, asyncio.Task[asyncio.AbstractServer]] = {}
        #: (endpoint, peer) -> the link ``endpoint`` writes to ``peer`` on.
        self._links: dict[tuple[int, int], _Link] = {}
        self._live: set[_Link] = set()  # every connected link, adopted or not
        self._dials: set[asyncio.Task[None]] = set()
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
        link = lambda: _Link(self, endpoint, None)
        self._servers[endpoint] = asyncio.ensure_future(
            asyncio.get_event_loop().create_server(link, self._host, 0)
        )

    def send(self, src: int, dst: int, payload: Any) -> None:
        if src == dst:
            handler = self._handlers.get(dst)
            if handler is None:
                raise UnknownPeer(f"no endpoint {dst}")
            asyncio.get_event_loop().call_soon(handler, src, payload)
            return
        frame = self._encode_frame(payload)
        (self._links.get((src, dst)) or self._connect(src, dst)).write(frame)

    def broadcast(self, src: int, dsts: Iterable[int], payload: Any) -> None:
        """Send ``payload`` to every endpoint in ``dsts``, encoding it once."""
        frame = None
        for dst in dsts:
            if dst == src:
                self.send(src, dst, payload)
                continue
            if frame is None:
                frame = self._encode_frame(payload)
            (self._links.get((src, dst)) or self._connect(src, dst)).write(frame)

    def _connect(self, src: int, dst: int) -> _Link:
        """The link ``src`` writes to ``dst`` on, dialled by this first send."""
        if dst not in self._servers:
            raise UnknownPeer(f"no listener for endpoint {dst}; call start() first")
        link = self._links[(src, dst)] = _Link(self, src, dst)
        dial = asyncio.ensure_future(self._dial(link))
        self._dials.add(dial)
        dial.add_done_callback(self._dials.discard)
        return link

    @staticmethod
    def _encode_frame(payload: Any) -> bytes:
        if codec.supports(payload):
            body = b"c" + codec.encode_message(payload)
        else:
            body = b"e" + encoding.encode(payload)
        if len(body) > MAX_FRAME_BYTES:
            raise NetworkError(f"{len(body)}-byte frame exceeds the {MAX_FRAME_BYTES}-byte cap")
        return _FRAME.pack(len(body)) + body

    async def _dial(self, link: _Link) -> None:
        try:
            await asyncio.shield(self._servers[link.peer])  # a late endpoint may still be binding
            port = self.port_of(link.peer)
            await asyncio.get_running_loop().create_connection(lambda: link, self._host, port)
        except OSError as exc:
            del self._links[(link.endpoint, link.peer)]
            log.warning("dial %d->%d failed (%s); %d frames dropped",
                        link.endpoint, link.peer, exc, len(link.queued))

    async def close(self) -> None:
        self._started = False
        for dial in self._dials:
            dial.cancel()
        await asyncio.gather(*self._dials, return_exceptions=True)
        servers = [await bind for bind in self._servers.values()]
        self._servers.clear()
        for server in servers:
            server.close()
        # A server's wait_closed() may wait for every connection it
        # accepted to be lost (it does from CPython 3.12), so end the
        # links first and let their connection_lost callbacks run.
        for link in list(self._live):
            link.transport.abort()
        await asyncio.sleep(0)
        for server in servers:
            await server.wait_closed()
        self._links.clear()


#: Frame body decoders by marker byte.
_BODY_DECODERS = {ord("c"): codec.decode_message, ord("e"): encoding.decode}


class _Link(asyncio.Protocol):
    """One :class:`TcpNetwork` connection, as ``endpoint`` sees it.

    ``write`` queues frames until the connection is up.  Received bytes
    wait in one ``bytearray`` until the hello or frame they start holds
    ``_need`` bytes, so any split costs linear time; then every whole frame
    goes to the endpoint's handler at once.  A bad hello, a header above
    :data:`MAX_FRAME_BYTES` or an undecodable body closes this link only.
    """

    def __init__(self, net: TcpNetwork, endpoint: int, peer: int | None) -> None:
        self.net = net
        self.endpoint = endpoint
        self.peer = peer
        self.transport: Any = None
        self._partial = bytearray()
        #: Bytes the hello or frame at the buffer's start needs.
        self._need = _HELLO.size if peer is None else _FRAME.size
        self.queued: list[bytes] = []
        self.write = self.queued.append  # transport.write once connected

    def connection_made(self, transport: Any) -> None:
        self.transport = transport
        if not self.net._started:  # accepted while close() ran
            transport.abort()
            return
        self.net._live.add(self)
        if self.peer is not None:
            transport.write(_HELLO.pack(_HELLO_MAGIC, self.endpoint))
        transport.writelines(self.queued)
        self.queued.clear()
        self.write = transport.write

    def connection_lost(self, exc: Exception | None) -> None:
        self.net._live.discard(self)
        if self.net._links.get((self.endpoint, self.peer)) is self:
            del self.net._links[(self.endpoint, self.peer)]

    def data_received(self, data: bytes, _header=_FRAME.unpack_from) -> None:
        partial = self._partial
        partial += data
        if len(partial) < self._need:
            return
        data = bytes(partial)
        size = len(data)
        offset = 0
        endpoint = self.endpoint
        try:
            if self.peer is None:  # ``_need`` held out for the whole hello
                magic, self.peer = _HELLO.unpack_from(data)
                if magic != _HELLO_MAGIC:
                    raise EncodingError("connection opened without a hello")
                self.net._links.setdefault((endpoint, self.peer), self)
                offset = _HELLO.size
            self._need = _FRAME.size
            while size - offset >= _FRAME.size:
                (length,) = _header(data, offset)
                if length > MAX_FRAME_BYTES:
                    raise EncodingError(f"{length}-byte frame exceeds the {MAX_FRAME_BYTES}-byte cap")
                start = offset + _FRAME.size
                if start + length > size:
                    self._need = _FRAME.size + length
                    break
                decoder = _BODY_DECODERS.get(data[start]) if length else None
                if decoder is None:
                    raise EncodingError(f"unknown frame marker {data[start:start + 1]!r}")
                payload = decoder(data[start + 1 : start + length])
                offset = start + length
                try:
                    self.net._handlers[endpoint](self.peer, payload)
                except Exception:
                    log.exception("endpoint %d failed on a message from %d", endpoint, self.peer)
        except EncodingError as exc:
            log.warning("link %d<-%s closed: %s", endpoint, self.peer, exc)
            self.transport.close()
            return
        del partial[:offset]
