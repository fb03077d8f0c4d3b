"""Replica-side client service: dedup, replies, reads, admission.

:class:`ClientService` is the piece of a replica that faces clients.  It
bolts onto a :class:`~repro.consensus.replica_base.ReplicaBase` (which
calls :meth:`intake` before its normal request path and exposes the
read/lease handlers through its dispatch table) and owns four concerns:

* **exactly-once** — a :class:`SessionTable` remembers, per client, the
  highest committed sequence and the replies of its recent requests.  A
  retransmitted, already-committed request is answered from that cache
  and *never* reaches the pool or the state machine again (the
  executed-key set of the ledger's commit log is the second, independent
  line of defence);
* **replies** — on every commit the service sends each operation's
  client a :class:`~repro.consensus.messages.ClientReply` carrying
  ``(view, seq, result_digest)``, the triple reply certificates are made
  of.  When an application executor is attached the digest commits to
  that operation's own execution result, and a request too old for the
  cache gets no reply rather than a made-up one; otherwise it is the
  deterministic request-derived digest every correct replica agrees on;
* **leader-lease reads** — a leader serves a read from committed state
  only after a quorum of replicas (``n - f``, itself included) confirms
  it still owns the current view (ReadIndex-style).  Non-leaders send a
  redirect carrying their view.  ``lease_duration`` lets one confirmed
  quorum check cover subsequent reads for that long;
* **admission control** — a bounded inflight window of weighted,
  admitted-but-uncommitted operations.  Beyond it, new requests are shed
  (silently dropped — the client's retransmit timer is the retry) and
  counted in ``client_requests_shed_total``.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.client.config import ClientConfig
from repro.client.session import result_digest_of
from repro.common.errors import UnknownPeer
from repro.consensus.block import Block, Operation
from repro.consensus.messages import (
    ClientReply,
    ClientRequest,
    LeaseAck,
    LeaseProbe,
    ReadReply,
    ReadRequest,
)
from repro.obs.journey import CK_EXECUTED

#: maps a committed operation to its result bytes.
ResultFn = Callable[[Block, Operation], bytes]
#: serves a key from committed application state.
ReadFn = Callable[[bytes], bytes]


class SessionTable:
    """Per-client committed progress and a cache of recent replies.

    Client sequences are monotonic, so the newest committed one tells
    which requests are done.  Replies are kept for a client's
    :attr:`DEPTH` most recently recorded requests (see :meth:`trim`), so a
    client with up to that many requests outstanding finds each one's own
    reply here.
    """

    #: Replies kept per client.
    DEPTH = 16

    def __init__(self) -> None:
        #: client -> highest committed seq.
        self._last: dict[int, int] = {}
        #: client -> seq -> (result, result digest), oldest first.
        self._replies: dict[int, dict[int, tuple[bytes, bytes]]] = {}
        self.replays = 0

    def committed(self, client_id: int, sequence: int) -> bool:
        """True if ``(client, seq)`` already committed (cache or older)."""
        last = self._last.get(client_id)
        return last is not None and sequence <= last

    def advance(self, client_id: int, sequence: int) -> bool:
        """Note ``(client, seq)`` committed; False if a newer one already is."""
        last = self._last.get(client_id)
        if last is not None and sequence < last:
            return False
        self._last[client_id] = sequence
        return True

    def record(self, client_id: int, sequence: int, result: bytes, digest: bytes) -> None:
        """Note a committed request and cache its reply until :meth:`trim`."""
        self.advance(client_id, sequence)
        self._replies.setdefault(client_id, {})[sequence] = (result, digest)

    def trim(self, client_id: int) -> None:
        """Keep only the client's :attr:`DEPTH` most recently recorded replies."""
        replies = self._replies.get(client_id)
        while replies is not None and len(replies) > self.DEPTH:
            del replies[next(iter(replies))]

    def cached_reply(self, client_id: int, sequence: int) -> tuple[bytes, bytes] | None:
        """(result, digest) of the request's reply, if it is still cached."""
        replies = self._replies.get(client_id)
        return replies.get(sequence) if replies is not None else None

    def last_sequence(self, client_id: int) -> int:
        return self._last.get(client_id, 0)

    def __len__(self) -> int:
        return len(self._last)


class ClientService:
    """Client-facing half of one replica (dedup/replies/reads/admission)."""

    TIMER_LEASE = "lease-probe"
    TIMER_COALESCE = "client-intake-coalesce"

    def __init__(
        self,
        replica: Any,
        config: ClientConfig | None = None,
        *,
        result_fn: ResultFn | None = None,
        read_fn: ReadFn | None = None,
        send_replies: bool = True,
        reply_size: int = 0,
    ) -> None:
        self.replica = replica
        self.config = config or ClientConfig()
        self.sessions = SessionTable()
        self.result_fn = result_fn
        self.read_fn = read_fn
        self.send_replies = send_replies
        self.reply_size = reply_size

        #: weighted admitted-but-uncommitted ops, per the admission window.
        self.inflight_weight = 0
        self._inflight: dict[tuple[int, int], int] = {}

        #: True while the intake-coalescing proposal is pending.
        self._propose_armed = False

        # Leader-lease read state.
        self._lease_view = 0
        self._lease_until = -1.0
        self._probe_nonce = 0
        self._probe_acks: set[int] = set()
        self._pending_reads: list[ReadRequest] = []

        # Counters (also mirrored into the obs registry when present).
        self.shed = 0
        self.replies_sent = 0
        self.reads_served = 0
        self.redirects_sent = 0
        self._shed_counter = None
        self._replay_counter = None

        registry = getattr(getattr(replica, "obs", None), "registry", None)
        if registry is not None:
            labels = {"replica": replica.id, "protocol": replica.protocol_name}
            self._shed_counter = registry.counter(
                "client_requests_shed_total",
                "Client requests dropped by the admission window",
                **labels,
            )
            self._replay_counter = registry.counter(
                "client_replays_total",
                "Duplicate requests answered from the session cache",
                **labels,
            )

    # ------------------------------------------------------------ install

    def install(self) -> "ClientService":
        """Hook into the replica: intake filter + commit listener."""
        self.replica.client_service = self
        self.replica.commit_listeners.append(self._on_commit)
        return self

    # ------------------------------------------------------------- intake

    def intake(self, src: int, request: ClientRequest) -> bool:
        """Pre-filter one client request; True means fully handled here.

        Order matters: the dedup check runs before admission, so a
        retransmit of a committed request is always answered (never shed)
        — otherwise a full window could starve a client of the reply it
        is retrying for.
        """
        key = (request.client_id, request.sequence)
        if self.sessions.committed(request.client_id, request.sequence):
            self.sessions.replays += 1
            if self._replay_counter is not None:
                self._replay_counter.inc()
            self._send_cached_reply(request)
            return True
        if key not in self._inflight:
            limit = self.config.max_inflight
            if limit is not None and self.inflight_weight + request.weight > limit:
                self.shed += 1
                if self._shed_counter is not None:
                    self._shed_counter.inc()
                return True  # shed: silence → the client's backoff retries
            self._inflight[key] = request.weight
            self.inflight_weight += request.weight
            obs = getattr(self.replica, "obs", None)
            if obs is not None and obs.enabled:
                obs.client_admitted(request.client_id, request.sequence)
        # Proceed down the normal pool/forward path even for an op that
        # is already admitted: its first copy may have been drained into
        # a proposal that died with its view, and the retransmit is the
        # only way it re-enters the new leader's pool.  While the op is
        # still queued the pool dedups it, and a double *commit* is
        # impossible anyway (ledger exactly-once + session table).
        return False

    def schedule_propose(self) -> None:
        """Debounced leader proposal once the current burst is in.

        Per-client requests arrive as individual messages; proposing on
        the first one would split a burst (which an aggregate batch
        submission would keep together) across several small blocks.
        The context's :meth:`~repro.consensus.context.NodeContext.coalesce`
        decides when the burst has settled into the pool: the simulator
        waits ``config.coalesce`` simulated seconds (the classic batching
        timer), the live runtime proposes at the end of the loop pass.
        """
        if self._propose_armed:
            return
        if self.config.coalesce <= 0:
            self.replica._maybe_propose()
            return
        self._propose_armed = True

        def fire() -> None:
            self._propose_armed = False
            self.replica._maybe_propose()

        self.replica.ctx.coalesce(self.TIMER_COALESCE, self.config.coalesce, fire)

    def _send_cached_reply(self, request: ClientRequest) -> None:
        cached = self.sessions.cached_reply(request.client_id, request.sequence)
        if cached is None:
            if self.result_fn is not None:
                # Too old for the cache.  Its result is gone, and f + 1
                # correct replicas answering a made-up one would certify it.
                return
            # No application: every result is empty, so this is the reply.
            cached = b"", result_digest_of(request.client_id, request.sequence, b"")
        self._emit_reply(request.client_id, request.sequence, *cached, request.weight)

    # ------------------------------------------------------------- commit

    def execute(self, block: Block, op: Operation) -> None:
        """Ledger executor wrapper: run the app, cache the real result.

        Installed via ``ledger.set_executor`` when an application is
        attached (the asyncio runtime); ``result_fn`` produces the result
        bytes.  The session table is fed *here*, under the ledger's
        exactly-once guard, so a cached reply always reflects a single
        application.
        """
        result = self.result_fn(block, op) if self.result_fn is not None else b""
        digest = result_digest_of(op.client_id, op.sequence, result)
        self.sessions.record(op.client_id, op.sequence, result, digest)

    def _on_commit(self, block: Block, now: float) -> None:
        # Journey "executed" checkpoint: charged once per request, on the
        # proposer (the replica whose reply path the client's certificate
        # clock started from).  Only sampled keys cost anything.
        journey = self.replica.obs.journey
        if journey is not None and block.proposer == self.replica.id:
            journey.record_ops(block.operations, CK_EXECUTED, now)
        for op in block.operations:
            key = (op.client_id, op.sequence)
            weight = self._inflight.pop(key, None)
            if weight is not None:
                self.inflight_weight -= weight
            if self.result_fn is None:
                # No application attached (DES replicas): the result is
                # empty and its digest request-derived — identical on
                # every correct replica, which is all certificates need.
                if not self.sessions.advance(op.client_id, op.sequence):
                    continue
                reply = b"", result_digest_of(op.client_id, op.sequence, b"")
            else:
                # The op's own result, cached by ``execute`` in this block
                # or, for an op re-proposed after it executed, in an earlier one.
                reply = self.sessions.cached_reply(*key)
                if reply is None:
                    continue
            self._emit_reply(op.client_id, op.sequence, *reply, op.weight)
        if self.result_fn is not None:
            # Trimmed only now, so a block holding more than DEPTH of one
            # client's ops still answers each of them.
            for client_id in {op.client_id for op in block.operations}:
                self.sessions.trim(client_id)

    def _emit_reply(
        self, client_id: int, sequence: int, result: bytes, digest: bytes, weight: int
    ) -> None:
        if not self.send_replies:
            return
        reply = ClientReply(
            client_id=client_id,
            sequence=sequence,
            replica=self.replica.id,
            result=result,
            result_digest=digest,
            view=self.replica.cview,
            weight=weight,
            reply_size=self.reply_size,
        )
        self.replies_sent += 1
        try:
            self.replica.ctx.send(client_id, reply)
        except UnknownPeer:
            # The submitter is not a registered client endpoint (e.g. a
            # test driving on_message directly); replies are best-effort.
            pass

    # -------------------------------------------------------------- reads

    def on_read_request(self, src: int, request: ReadRequest) -> None:
        replica = self.replica
        if not replica.is_leader():
            self.redirects_sent += 1
            replica.ctx.send(
                request.client_id,
                ReadReply(
                    client_id=request.client_id,
                    sequence=request.sequence,
                    replica=replica.id,
                    view=replica.cview,
                    ok=False,
                    weight=request.weight,
                ),
            )
            return
        now = replica.ctx.now
        if self._lease_view == replica.cview and now < self._lease_until:
            self._serve_read(request)
            return
        self._pending_reads.append(request)
        self._start_probe()

    def _start_probe(self) -> None:
        replica = self.replica
        self._probe_nonce += 1
        self._probe_acks = set()
        probe = LeaseProbe(
            leader=replica.id, view=replica.cview, nonce=self._probe_nonce
        )
        replica.ctx.broadcast(probe)

    def on_lease_probe(self, src: int, probe: LeaseProbe) -> None:
        replica = self.replica
        # Ack only if the prober really is the leader of *our* current
        # view — this is the check that makes a deposed leader unable to
        # assemble a quorum, and therefore unable to serve a stale read.
        if probe.view != replica.cview or replica.leader_of(probe.view) != probe.leader:
            return
        replica.ctx.send(
            src, LeaseAck(replica=replica.id, view=probe.view, nonce=probe.nonce)
        )

    def on_lease_ack(self, src: int, ack: LeaseAck) -> None:
        replica = self.replica
        if (
            ack.nonce != self._probe_nonce
            or ack.view != replica.cview
            or not replica.is_leader()
        ):
            return
        self._probe_acks.add(ack.replica)
        if len(self._probe_acks) < replica.config.quorum:
            return
        self._lease_view = replica.cview
        self._lease_until = replica.ctx.now + self.config.lease_duration
        pending, self._pending_reads = self._pending_reads, []
        for request in pending:
            self._serve_read(request)

    def _serve_read(self, request: ReadRequest) -> None:
        replica = self.replica
        value = self.read_fn(request.key) if self.read_fn is not None else b""
        self.reads_served += 1
        replica.ctx.send(
            request.client_id,
            ReadReply(
                client_id=request.client_id,
                sequence=request.sequence,
                replica=replica.id,
                view=replica.cview,
                value=value,
                ok=True,
                weight=request.weight,
            ),
        )

    def on_view_change(self) -> None:
        """Invalidate the lease and park queued reads on a view change."""
        self._lease_until = -1.0
        self._lease_view = 0
        # Queued reads at a deposed leader are redirected, not dropped.
        pending, self._pending_reads = self._pending_reads, []
        for request in pending:
            self.on_read_request(request.client_id, request)


def attach_client_services(
    cluster: Any,
    config: ClientConfig | None = None,
    *,
    result_fn: ResultFn | None = None,
    read_fn: ReadFn | None = None,
    send_replies: bool = True,
    reply_size: int = 0,
) -> list[ClientService]:
    """Install a :class:`ClientService` on every replica of a cluster.

    Works for any object exposing ``.replicas`` (DESCluster) or ``.nodes``
    with ``.replica`` attributes (LocalCluster).
    """
    replicas = getattr(cluster, "replicas", None)
    if replicas is None:
        replicas = [node.replica for node in cluster.nodes]
    services = []
    for replica in replicas:
        if not getattr(replica, "is_voter", True):
            continue  # learners hold no pool/crypto and never answer writes
        service = ClientService(
            replica,
            config,
            result_fn=result_fn,
            read_fn=read_fn,
            send_replies=send_replies,
            reply_size=reply_size,
        )
        services.append(service.install())
    return services
