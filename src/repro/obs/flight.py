"""Per-replica flight recorder: a bounded ring of protocol events.

Every replica in an observed run keeps the last ``capacity`` protocol
events — proposals, votes, QC formations, view entries, commits, client
admissions — in a preallocated ring.  Recording one event is a tuple
build and a list store, cheap enough to leave on by default (the DES
speed benchmark guards the overhead).

On a safety violation, liveness stall, replica crash, or on demand, the
rings are serialised into a **black box**: a canonical-codec payload
(:mod:`repro.common.encoding`) that is byte-identical across re-runs of
the same seed.  The codec has no float type, so timestamps travel as
integer microseconds; :func:`decode_blackbox` converts them back.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from repro.common.encoding import decode, encode

BLACKBOX_MAGIC = "marlin-blackbox-v1"

#: Event kinds, in the vocabulary the auditor and dump tooling share.
EV_PROPOSE = "propose"
EV_VOTE = "vote"
EV_QC = "qc"
EV_PHASE = "phase"
EV_VIEW = "view"
EV_TIMEOUT = "timeout"
EV_VIEW_CHANGE = "vc"
EV_COMMIT = "commit"
EV_ADMIT = "admit"
EV_SYNC = "sync"
# Client-path events (recorded by ClientSession when a run hands the
# session a flight ring) — a black box then embeds the client side of a
# violation window next to the replicas' protocol events.
EV_SUBMIT = "submit"
EV_RETRANSMIT = "retransmit"
EV_CERTIFIED = "certified"


class FlightEvent(NamedTuple):
    """One recorded protocol event (``height=-1`` / ``digest=b""`` = n/a)."""

    seq: int
    time: float
    kind: str
    view: int
    height: int
    digest: bytes
    detail: str


class FlightRecorder:
    """Bounded, allocation-light ring buffer of :class:`FlightEvent` s."""

    __slots__ = ("replica_id", "capacity", "_ring", "_count")

    def __init__(self, replica_id: int, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.replica_id = replica_id
        self.capacity = capacity
        self._ring: list[tuple | None] = [None] * capacity
        self._count = 0

    def record(
        self,
        time: float,
        kind: str,
        view: int,
        height: int = -1,
        digest: bytes = b"",
        detail: str = "",
    ) -> None:
        seq = self._count
        self._ring[seq % self.capacity] = (seq, time, kind, view, height, digest, detail)
        self._count = seq + 1

    def __len__(self) -> int:
        return min(self._count, self.capacity)

    @property
    def total_recorded(self) -> int:
        """Events ever recorded, including those the ring has evicted."""
        return self._count

    def events(self) -> list[FlightEvent]:
        """Retained events, oldest first."""
        count, capacity = self._count, self.capacity
        if count <= capacity:
            raw: Iterable[tuple | None] = self._ring[:count]
        else:
            head = count % capacity
            raw = self._ring[head:] + self._ring[:head]
        return [FlightEvent(*item) for item in raw if item is not None]

    def window(self, last: int | None = None, since: float | None = None) -> list[FlightEvent]:
        """The trailing ``last`` events, optionally only those at or after ``since``.

        One backward walk from the newest slot, oldest first in the
        result: it stops after ``last`` events or at the first event
        older than ``since`` (events are recorded in time order), so a
        read costs O(window), not O(capacity).
        """
        count, capacity = self._count, self.capacity
        stop = min(count, capacity)
        if last is not None:
            if last < 0:
                raise ValueError(f"flight window length must be >= 0, got {last}")
            stop = min(stop, last)
        ring = self._ring
        window: list[FlightEvent] = []
        for index in range(count - 1, count - 1 - stop, -1):
            item = ring[index % capacity]
            if since is not None and item[1] < since:
                break
            window.append(FlightEvent._make(item))
        window.reverse()
        return window


# ---------------------------------------------------------------------------
# Black-box serialisation

_US = 1_000_000


def _event_to_wire(event: FlightEvent) -> list:
    return [
        event.seq,
        round(event.time * _US),
        event.kind,
        event.view,
        event.height,
        event.digest,
        event.detail,
    ]


def _event_from_wire(item: list) -> FlightEvent:
    seq, time_us, kind, view, height, digest, detail = item
    return FlightEvent(seq, time_us / _US, kind, view, height, digest, detail)


def encode_blackbox(
    recorders: dict[int, FlightRecorder], meta: dict[str, object] | None = None
) -> bytes:
    """Serialise every recorder into one deterministic black-box payload.

    ``meta`` values must be canonical-codec encodable (int/str/bytes/bool/
    None/lists/dicts — no floats; convert times to int microseconds).
    """
    body = [
        BLACKBOX_MAGIC,
        dict(meta or {}),
        [
            [replica_id, [_event_to_wire(e) for e in recorder.events()]]
            for replica_id, recorder in sorted(recorders.items())
        ],
    ]
    return encode(body)


def decode_blackbox(data: bytes) -> tuple[dict, dict[int, list[FlightEvent]]]:
    """Inverse of :func:`encode_blackbox`: ``(meta, {replica_id: events})``."""
    magic, meta, per_replica = decode(data)
    if magic != BLACKBOX_MAGIC:
        raise ValueError(f"not a flight-recorder black box (magic {magic!r})")
    return meta, {
        replica_id: [_event_from_wire(item) for item in events]
        for replica_id, events in per_replica
    }


def write_blackbox(
    path: str, recorders: dict[int, FlightRecorder], meta: dict[str, object] | None = None
) -> bytes:
    """Write the black box to ``path``; returns the encoded payload."""
    payload = encode_blackbox(recorders, meta)
    with open(path, "wb") as fh:
        fh.write(payload)
    return payload


def read_blackbox(path: str) -> tuple[dict, dict[int, list[FlightEvent]]]:
    with open(path, "rb") as fh:
        return decode_blackbox(fh.read())
