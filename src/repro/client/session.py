"""Client-side session: ids, submission, retransmission, certificates.

One :class:`ClientSession` is one logical client (or, with ``weight > 1``,
a token standing for that many lockstep clients).  It follows the
HotStuff client contract:

* every command gets the next **monotonically increasing** sequence
  number; together with the client id this names the request everywhere
  (dedup tables, reply certificates, latency records);
* commands are canonically encoded — :func:`make_command` produces the
  one byte string every correct replica digests for this request;
* the request goes to the **believed leader** first; a reply timeout
  triggers retransmit-to-**all** with exponential backoff plus jitter
  (re-sending the *same* ``(client_id, seq)`` — the replica-side session
  table makes duplicates harmless);
* a result is accepted only with a :class:`~repro.client.collector.ReplyCertificate`
  — ``f + 1`` matching ``(seq, result_digest)`` replies.

The session is sans-io: it drives a :class:`~repro.consensus.context.NodeContext`
(``send``/``broadcast``/``set_timer``), so the same code runs over the
DES, over asyncio, and under synchronous unit tests via ``LocalContext``.
"""

from __future__ import annotations

import hashlib
import random
import struct
from typing import Any, Callable

from repro.client.collector import ReplyCollector
from repro.client.config import ClientConfig
from repro.client.tracker import LeaderTracker
from repro.common.encoding import encode
from repro.common.errors import EncodingError
from repro.consensus.context import NodeContext
from repro.consensus.messages import ClientReply, ClientRequest, ReadReply, ReadRequest
from repro.obs.flight import EV_CERTIFIED, EV_RETRANSMIT, EV_SUBMIT
from repro.obs.journey import CK_CERTIFIED, CK_RETRANSMIT, CK_ROUTED, CK_SUBMIT


def make_command(client_id: int, sequence: int, op: bytes) -> bytes:
    """Canonical encoding of one command; what replicas digest and log."""
    return encode([client_id, sequence, op])


# The canonical encoding of ``["reply", client_id, sequence, result]`` is
# a constant list-of-4 header and "reply" string, one tagged int64 per id,
# then the tagged result length and bytes (see repro.common.encoding).
# The constant part is hashed once; each digest copies that state and
# feeds the variable part as one struct pack plus the raw result.
_REPLY_PREFIX = hashlib.sha256(struct.pack(">BIBI", ord("l"), 4, ord("s"), 5) + b"reply")
_REPLY_FIELDS = struct.Struct(">BqBqBI")
_T_INT = ord("i")
_T_BYTES = ord("b")


def result_digest_of(
    client_id: int,
    sequence: int,
    result: bytes,
    _prefix=_REPLY_PREFIX,
    _pack=_REPLY_FIELDS.pack,
) -> bytes:
    """Digest a replica commits to when replying ``result`` for a request.

    Byte-identical to ``digest_of(["reply", client_id, sequence, result])``
    (pinned by ``tests/test_client.py``) at a third of the cost: every
    hub-model commit digests one reply per operation.
    """
    try:
        fields = _pack(_T_INT, client_id, _T_INT, sequence, _T_BYTES, len(result))
    except struct.error as exc:
        raise EncodingError(
            f"integer out of 64-bit range in reply ({client_id}, {sequence})"
        ) from exc
    state = _prefix.copy()
    state.update(fields)
    state.update(result)
    return state.digest()


#: fired as ``on_result(seq, certificate_or_value, latency_seconds)``.
ResultCallback = Callable[[int, Any, float], None]

TIMER_RETRY = "client-retry"


class ClientSession:
    """Sans-io protocol client bound to a runtime context."""

    def __init__(
        self,
        client_id: int,
        ctx: NodeContext,
        config: ClientConfig,
        num_replicas: int,
        f: int,
        *,
        weight: int = 1,
        on_result: ResultCallback | None = None,
        rng: random.Random | None = None,
        router: Any | None = None,
        shard: int | None = None,
    ) -> None:
        self.client_id = client_id
        self.ctx = ctx
        self.config = config
        self.num_replicas = num_replicas
        self.weight = weight
        self.on_result = on_result
        self.collector = ReplyCollector(f)
        # Shard-awareness: on a sharded deployment the session is bound
        # to the one group its identity routes to, and refuses to be
        # wired to any other (a mis-bound session would submit commands
        # the group's guard rejects; fail at construction instead).
        self.router = router
        self.shard = router.shard_of_client(client_id) if router is not None else shard
        if (
            router is not None
            and shard is not None
            and shard != self.shard
        ):
            raise ValueError(
                f"client {client_id} routes to shard {self.shard}, but the "
                f"session was bound to shard {shard}"
            )
        self.tracker = LeaderTracker(num_replicas, shard=self.shard)
        self.rng = rng if rng is not None else random.Random(0xC11E57 ^ client_id)

        # Optional run-level collectors, wired by the runtime binding
        # (see RunObservability.bind_client_session).  ``journey`` is set
        # only when this client id is sampled, so the per-request cost of
        # tracing is a None check on unsampled sessions.
        self.journey: Any | None = None
        self.flight: Any | None = None

        self._next_seq = 1
        #: seq -> outstanding write (retransmitted verbatim on timeout).
        self.inflight: dict[int, ClientRequest] = {}
        #: Most writes ever in flight at once.
        self._window = 1
        #: seq -> certified digest of the last ``_window`` certified writes,
        #: which late replies are checked against.
        self._certified_digests: dict[int, bytes] = {}
        #: seq -> outstanding leader-lease read.
        self.inflight_reads: dict[int, ReadRequest] = {}
        self._submitted_at: dict[int, float] = {}
        self._delay = config.retry_timeout

        # Counters the workload/benchmark layers aggregate.
        self.certified = 0
        self.retransmits = 0
        self.reads_served = 0
        self.redirects = 0

    # ---------------------------------------------------------- submission

    def next_sequence(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def submit(self, op: bytes) -> int:
        """Submit one write command; returns its sequence number."""
        seq = self.next_sequence()
        request = ClientRequest(
            client_id=self.client_id, sequence=seq, payload=op, weight=self.weight
        )
        self.inflight[seq] = request
        self._window = max(self._window, len(self.inflight))
        now = self.ctx.now
        self._submitted_at[seq] = now
        if self.journey is not None:
            self.journey.record(self.client_id, seq, CK_SUBMIT, now)
            if self.shard is not None:
                self.journey.record(self.client_id, seq, CK_ROUTED, now)
        if self.flight is not None:
            self.flight.record(now, EV_SUBMIT, -1, detail=str(seq))
        self._dispatch(request)
        self._arm_timer()
        return seq

    def read(self, key: bytes) -> int:
        """Submit one read; the path depends on ``config.reads``.

        ``"commit"`` orders the read through consensus as a ``get``
        command (full BFT linearizability).  ``"leader-lease"`` asks the
        believed leader, which serves from committed state only after a
        quorum view check — see docs/CLIENTS.md for the trust model.
        """
        if self.config.reads == "commit":
            return self.submit(encode(["get", key]))
        seq = self.next_sequence()
        # No reply certificate will close this sequence number.
        self.collector.discard(self.client_id, seq)
        request = ReadRequest(
            client_id=self.client_id, sequence=seq, key=key, weight=self.weight
        )
        self.inflight_reads[seq] = request
        self._submitted_at[seq] = self.ctx.now
        self._dispatch(request)
        self._arm_timer()
        return seq

    def _dispatch(self, request: Any) -> None:
        target = self.tracker.target()
        if target == LeaderTracker.BROADCAST:
            self._send_all(request)
        else:
            self.ctx.send(target, request)

    def _send_all(self, request: Any) -> None:
        for replica_id in range(self.num_replicas):
            self.ctx.send(replica_id, request)

    # --------------------------------------------------------------- inbox

    def on_message(self, src: int, payload: Any) -> None:
        """Feed one network delivery into the session."""
        if isinstance(payload, ClientReply):
            self._on_reply(payload)
        elif isinstance(payload, ReadReply):
            self._on_read_reply(payload)

    def _on_reply(self, reply: ClientReply) -> None:
        if reply.client_id != self.client_id:
            return
        self.tracker.observe(reply.view)
        digest = reply.result_digest or result_digest_of(
            self.client_id, reply.sequence, reply.result
        )
        if reply.sequence not in self.inflight:
            # A late reply: one that contradicts the certificate is
            # evidence of a faulty replica even though it changes nothing.
            certified = self._certified_digests.get(reply.sequence)
            if certified is not None and certified != digest:
                self.collector.mismatches += 1
            return
        certificate = self.collector.add(
            self.client_id,
            reply.sequence,
            reply.replica,
            digest,
            reply.view,
            result=reply.result,
        )
        if certificate is None:
            return
        self.inflight.pop(reply.sequence, None)
        digests = self._certified_digests
        digests[reply.sequence] = certificate.result_digest
        if len(digests) > self._window:
            del digests[next(iter(digests))]
        self.tracker.on_certified(certificate.view)
        self.certified += 1
        if self.journey is not None:
            self.journey.record(self.client_id, reply.sequence, CK_CERTIFIED, self.ctx.now)
        if self.flight is not None:
            self.flight.record(self.ctx.now, EV_CERTIFIED, -1, detail=str(reply.sequence))
        self._finish(reply.sequence, certificate)

    def _on_read_reply(self, reply: ReadReply) -> None:
        if reply.client_id != self.client_id:
            return
        self.tracker.observe(reply.view)
        request = self.inflight_reads.get(reply.sequence)
        if request is None:
            return
        if not reply.ok:
            # Redirect: the receiver was not the leader.  Re-aim at the
            # leader of the view it told us about (once per redirect, the
            # retry timer covers the case where that one is stale too).
            self.redirects += 1
            self.ctx.send(self.tracker.leader_of(self.tracker.view), request)
            return
        del self.inflight_reads[reply.sequence]
        self.reads_served += 1
        self._finish(reply.sequence, reply.value)

    def _finish(self, sequence: int, outcome: Any) -> None:
        submitted = self._submitted_at.pop(sequence, self.ctx.now)
        self._delay = self.config.retry_timeout
        if not self.inflight and not self.inflight_reads:
            self.ctx.cancel_timer(self._timer_name)
        if self.on_result is not None:
            self.on_result(sequence, outcome, self.ctx.now - submitted)

    # --------------------------------------------------------- retransmits

    @property
    def _timer_name(self) -> str:
        return f"{TIMER_RETRY}-{self.client_id}"

    def _arm_timer(self) -> None:
        delay = self._delay * (1.0 + self.rng.random() * self.config.jitter)
        self.ctx.set_timer(self._timer_name, delay, self._on_retry_timeout)

    def _on_retry_timeout(self) -> None:
        if not self.inflight and not self.inflight_reads:
            return
        self.tracker.on_timeout()
        now = self.ctx.now
        for request in self.inflight.values():
            self._send_all(request)
            self.retransmits += 1
            if self.journey is not None:
                self.journey.record(self.client_id, request.sequence, CK_RETRANSMIT, now)
            if self.flight is not None:
                self.flight.record(now, EV_RETRANSMIT, -1, detail=str(request.sequence))
        for read in self.inflight_reads.values():
            self._send_all(read)
            self.retransmits += 1
        self._delay = min(self._delay * self.config.backoff, self.config.max_backoff)
        self._arm_timer()
