"""The observability facade the runtimes hand to each replica.

Protocol code never touches the registry or tracer directly; it calls the
semantic hooks on its :class:`ReplicaObs` (``phase_begin``,
``qc_formed``, ``block_committed``, ...).  The default observer is
:data:`NULL_OBS`, whose hooks are all no-ops, so un-observed runs pay one
no-op method call per instrumented site and allocate nothing.

The observers are flat subscribers — :class:`JourneyObs`,
:class:`FlightRecordingObs` and :class:`ReplicaObs` (metrics + spans) —
each overriding only the hooks it records.  A replica carries the one
subscriber itself, or a :class:`FanOutObs` that resolved each hook to its
subscribers when it was built.

:class:`RunObservability` bundles one metrics registry, one tracer and
the network counters for a whole cluster run, plus the export helpers the
CLI uses (JSON snapshot, Prometheus text, Chrome trace).
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from functools import partial
from typing import Any

from repro.obs.audit import OnlineAuditor
from repro.obs.flight import (
    EV_ADMIT,
    EV_COMMIT,
    EV_PHASE,
    EV_PROPOSE,
    EV_QC,
    EV_SYNC,
    EV_TIMEOUT,
    EV_VIEW,
    EV_VIEW_CHANGE,
    EV_VOTE,
    FlightRecorder,
    write_blackbox,
)
from repro.obs.journey import (
    CK_ADMITTED,
    CK_COMMITTED,
    CK_PROPOSED,
    CK_QC_PREFIX,
    JourneyRecorder,
)
from repro.obs.metrics import Counter, Histogram, MetricsRegistry, NetworkMetrics
from repro.obs.tracer import LANE_VIEW, NullTracer, Span, Tracer

#: Phases whose spans nest inside a block's root span, in lifecycle order.
PHASES = ("prepare", "pre-commit", "commit")


class NullReplicaObs:
    """No-op observer; the default for un-observed replicas.

    Also the base of every subscriber: a subscriber overrides only the
    hooks it records, and the rest stay these no-ops.
    """

    enabled = False
    #: The run's journey recorder when a journey subscriber is attached.
    journey: JourneyRecorder | None = None

    def bind(self, ctx: Any) -> None: ...

    def message_handled(self, payload: Any) -> None: ...

    def vote_sent(self, phase: Any) -> None: ...

    def view_entered(self, view: int, reason: str) -> None: ...

    def view_timeout(self, view: int) -> None: ...

    def view_change_event(self, name: str, view: int, **meta: Any) -> None: ...

    def view_change_done(self, view: int) -> None: ...

    def sync_requested(self, attempt: int) -> None: ...

    def block_proposed(self, digest: bytes, view: int, height: int) -> None: ...

    def ops_proposed(self, block: Any) -> None: ...

    def phase_begin(self, digest: bytes, phase: str, view: int, height: int | None = None) -> None: ...

    def phase_end(self, digest: bytes, phase: str) -> None: ...

    def qc_formed(self, digest: bytes, phase: str, view: int, qc: Any = None) -> None: ...

    def block_committed(
        self, digest: bytes, height: int, num_ops: int, view: int = -1
    ) -> None: ...

    def client_admitted(self, client_id: int, sequence: int) -> None: ...


NULL_OBS = NullReplicaObs()


class ReplicaObs(NullReplicaObs):
    """Metrics + spans for one replica, labelled with its id and protocol."""

    enabled = True

    def __init__(
        self,
        registry: MetricsRegistry,
        tracer: Tracer,
        replica_id: int,
        protocol: str,
    ) -> None:
        self.registry = registry
        self.tracer = tracer
        self.replica = replica_id
        self.protocol = protocol
        self._now = lambda: 0.0

        def counter(name: str, help_text: str, **labels: Any) -> Counter:
            return registry.counter(
                name, help_text, replica=replica_id, protocol=protocol, **labels
            )

        self._messages = counter("replica_messages_handled_total", "Inbound messages dispatched")
        self._votes = counter("replica_votes_sent_total", "Votes sent (all phases)")
        self._proposals = counter("replica_proposals_sent_total", "Proposals broadcast as leader")
        self._views_entered = counter("replica_views_entered_total", "Views entered (any cause)")
        self._view_changes = counter(
            "replica_view_changes_total", "Timeout/failure-triggered view changes"
        )
        self._timeouts = counter("replica_view_timeouts_total", "Pacemaker timer expirations")
        self._syncs = counter("replica_sync_requests_total", "Block-sync fetches issued")
        self._commits = counter("replica_blocks_committed_total", "Blocks committed")
        self._ops = counter("replica_ops_committed_total", "Operations committed (weighted)")
        self._commit_latency = registry.histogram(
            "commit_latency_seconds",
            "First-seen to committed, per block",
            replica=replica_id,
            protocol=protocol,
        )
        self._phase_hist: dict[str, Histogram] = {}
        self._phase_start: dict[tuple[bytes, str], float] = {}
        self._msg_kind: dict[type, Counter] = {}

    # ------------------------------------------------------------- plumbing

    def bind(self, ctx: Any) -> None:
        """Adopt the replica's clock (DES simulated time or wall-clock)."""
        self._now = lambda: ctx.now

    def _phase_histogram(self, phase: str) -> Histogram:
        hist = self._phase_hist.get(phase)
        if hist is None:
            hist = self.registry.histogram(
                "phase_duration_seconds",
                "Per-phase duration of the block lifecycle",
                replica=self.replica,
                protocol=self.protocol,
                phase=phase,
            )
            self._phase_hist[phase] = hist
        return hist

    @staticmethod
    def _key(digest: bytes) -> str:
        return digest.hex()[:16]

    # ----------------------------------------------------- counter hooks

    def message_handled(self, payload: Any) -> None:
        self._messages.inc()
        kind = type(payload)
        counter = self._msg_kind.get(kind)
        if counter is None:
            counter = self.registry.counter(
                "replica_messages_by_kind_total",
                "Inbound messages by payload type",
                replica=self.replica,
                protocol=self.protocol,
                kind=kind.__name__,
            )
            self._msg_kind[kind] = counter
        counter.inc()

    def vote_sent(self, phase: Any) -> None:
        self._votes.inc()

    def sync_requested(self, attempt: int) -> None:
        self._syncs.inc()

    # -------------------------------------------------------- view spans

    def view_entered(self, view: int, reason: str) -> None:
        self._views_entered.inc()
        if reason == "timeout":
            self._view_changes.inc()
        now = self._now()
        previous = self.tracer.open_span(self.replica, "view-change", str(view - 1))
        if previous is not None:
            self.tracer.end(self.replica, "view-change", str(view - 1), now, superseded=True)
        self.tracer.begin(
            self.replica, "view-change", str(view), now, lane=LANE_VIEW,
            view=view, reason=reason,
        )

    def view_timeout(self, view: int) -> None:
        self._timeouts.inc()
        self.tracer.instant(self.replica, "view-timeout", self._now(), lane=LANE_VIEW, view=view)

    def view_change_event(self, name: str, view: int, **meta: Any) -> None:
        self.tracer.instant(
            self.replica, name, self._now(), lane=LANE_VIEW, view=view, **meta
        )

    def view_change_done(self, view: int) -> None:
        """Normal case resumed: close the view's view-change span."""
        span = self.tracer.end(self.replica, "view-change", str(view), self._now())
        if span is not None:
            self._phase_histogram("view-change").observe(span.duration)

    # --------------------------------------------------- lifecycle spans

    def _root(self, digest: bytes, view: int, height: int | None) -> Span:
        key = self._key(digest)
        span = self.tracer.open_span(self.replica, "block", key)
        if span is None:
            span = self.tracer.begin(
                self.replica, "block", key, self._now(), view=view, height=height
            )
        return span

    def block_proposed(self, digest: bytes, view: int, height: int) -> None:
        self._proposals.inc()
        self._root(digest, view, height)
        self.tracer.instant(
            self.replica, "propose", self._now(), key=self._key(digest),
            view=view, height=height,
        )

    def phase_begin(self, digest: bytes, phase: str, view: int, height: int | None = None) -> None:
        handle = (digest, phase)
        if handle in self._phase_start:
            return
        now = self._now()
        self._phase_start[handle] = now
        root = self._root(digest, view, height)
        self.tracer.begin(
            self.replica, phase, self._key(digest), now, parent=root, view=view
        )

    def phase_end(self, digest: bytes, phase: str) -> None:
        started = self._phase_start.pop((digest, phase), None)
        if started is None:
            return
        now = self._now()
        self._phase_histogram(phase).observe(now - started)
        self.tracer.end(self.replica, phase, self._key(digest), now)

    def qc_formed(self, digest: bytes, phase: str, view: int, qc: Any = None) -> None:
        self.tracer.instant(
            self.replica, f"qc:{phase}", self._now(), key=self._key(digest), view=view
        )

    def block_committed(
        self, digest: bytes, height: int, num_ops: int, view: int = -1
    ) -> None:
        self._commits.inc()
        self._ops.inc(num_ops)
        now = self._now()
        for phase in PHASES:
            started = self._phase_start.pop((digest, phase), None)
            if started is not None:
                self._phase_histogram(phase).observe(now - started)
                self.tracer.end(self.replica, phase, self._key(digest), now)
        root = self.tracer.end(
            self.replica, "block", self._key(digest), now, committed=True, ops=num_ops
        )
        if root is not None:
            self._commit_latency.observe(root.duration)


class FlightRecordingObs(NullReplicaObs):
    """Subscriber that records flight events and feeds the online auditor.

    ``message_handled`` is deliberately *not* recorded: the ring holds
    semantic protocol events, and skipping the per-message hot path keeps
    the recorder cheap enough to stay on.  ``ops_proposed`` is left to the
    journey layer (the ring keys on the block digest, :data:`EV_PROPOSE`),
    and ``phase_end`` to the spans.
    """

    enabled = True

    def __init__(self, recorder: FlightRecorder, auditor: OnlineAuditor | None = None) -> None:
        self.recorder = recorder
        self.auditor = auditor
        self._replica = recorder.replica_id
        self._now = lambda: 0.0

    def bind(self, ctx: Any) -> None:
        self._now = lambda: ctx.now

    def vote_sent(self, phase: Any) -> None:
        self.recorder.record(
            self._now(), EV_VOTE, -1, detail=getattr(phase, "value", "") or ""
        )

    def view_entered(self, view: int, reason: str) -> None:
        now = self._now()
        self.recorder.record(now, EV_VIEW, view, detail=reason)
        if self.auditor is not None:
            self.auditor.on_view_entered(self._replica, view, now)

    def view_timeout(self, view: int) -> None:
        self.recorder.record(self._now(), EV_TIMEOUT, view)

    def view_change_event(self, name: str, view: int, **meta: Any) -> None:
        self.recorder.record(self._now(), EV_VIEW_CHANGE, view, detail=name)

    def view_change_done(self, view: int) -> None:
        self.recorder.record(self._now(), EV_VIEW_CHANGE, view, detail="done")

    def sync_requested(self, attempt: int) -> None:
        self.recorder.record(self._now(), EV_SYNC, -1, detail=str(attempt))

    def block_proposed(self, digest: bytes, view: int, height: int) -> None:
        self.recorder.record(self._now(), EV_PROPOSE, view, height, digest)

    def phase_begin(self, digest: bytes, phase: str, view: int, height: int | None = None) -> None:
        now = self._now()
        h = -1 if height is None else height
        self.recorder.record(now, EV_PHASE, view, h, digest, phase)
        if self.auditor is not None and phase == "prepare":
            self.auditor.on_prepare(self._replica, digest, view, h, now)

    def qc_formed(self, digest: bytes, phase: str, view: int, qc: Any = None) -> None:
        now = self._now()
        height = qc.block.height if qc is not None else -1
        self.recorder.record(now, EV_QC, view, height, digest, phase)
        if self.auditor is not None:
            self.auditor.on_qc(self._replica, digest, phase, view, now, qc)

    def block_committed(
        self, digest: bytes, height: int, num_ops: int, view: int = -1
    ) -> None:
        now = self._now()
        self.recorder.record(now, EV_COMMIT, view, height, digest, str(num_ops))
        if self.auditor is not None:
            self.auditor.on_commit(self._replica, digest, height, view, now)

    def client_admitted(self, client_id: int, sequence: int) -> None:
        self.recorder.record(
            self._now(), EV_ADMIT, -1, detail=f"{client_id}:{sequence}"
        )


class JourneyObs(NullReplicaObs):
    """Subscriber that pins block-path checkpoints onto sampled journeys.

    Only the **proposing** replica learns the digest→sampled-ops mapping
    (via the :meth:`ops_proposed` hook, which fires where the full block
    is in scope), so phase/commit checkpoints are recorded exactly once
    per request — on the leader's critical path — even though every
    replica carries this subscriber.
    """

    enabled = True

    def __init__(self, journey: JourneyRecorder, replica_id: int) -> None:
        #: The run's shared :class:`~repro.obs.journey.JourneyRecorder`
        #: (``ClientService`` reads it off ``replica.obs`` for the
        #: executed-at-proposer checkpoint).
        self.journey = journey
        self.replica = replica_id
        #: digest -> sampled op keys of blocks *this* replica proposed.
        self._block_keys: dict[bytes, list[tuple[int, int]]] = {}
        self._now = lambda: 0.0

    def bind(self, ctx: Any) -> None:
        self._now = lambda: ctx.now

    def ops_proposed(self, block: Any) -> None:
        operations = getattr(block, "operations", None)
        if operations:
            keys = self.journey.sampled_keys(operations)
            if keys:
                self._block_keys[block.digest] = keys
                self.journey.record_keys(keys, CK_PROPOSED, self._now())

    def qc_formed(self, digest: bytes, phase: str, view: int, qc: Any = None) -> None:
        keys = self._block_keys.get(digest)
        if keys:
            self.journey.record_keys(keys, CK_QC_PREFIX + phase, self._now())

    def block_committed(
        self, digest: bytes, height: int, num_ops: int, view: int = -1
    ) -> None:
        keys = self._block_keys.pop(digest, None)
        if keys:
            self.journey.record_keys(keys, CK_COMMITTED, self._now())

    def client_admitted(self, client_id: int, sequence: int) -> None:
        if self.journey.sampled(client_id):
            self.journey.record(client_id, sequence, CK_ADMITTED, self._now())


#: Every hook a subscriber may override (``bind`` included).
_HOOKS = tuple(
    name for name, member in vars(NullReplicaObs).items()
    if callable(member) and not name.startswith("_")
)


def _fan(methods: tuple[Any, ...]) -> Any:
    def dispatch(*args: Any, **kwargs: Any) -> None:
        for method in methods:
            method(*args, **kwargs)

    return dispatch


class FanOutObs(NullReplicaObs):
    """Two or more subscribers behind one replica observer.

    Dispatch is resolved here, once: each hook becomes the bound method
    of the one subscriber that overrides it, a loop over the several
    that do (in subscriber order), or stays the inherited no-op when
    none does.
    """

    enabled = True

    def __init__(self, subscribers: list[NullReplicaObs]) -> None:
        self.subscribers = subscribers
        self.journey = next((s.journey for s in subscribers if s.journey is not None), None)
        for hook in _HOOKS:
            noop = getattr(NullReplicaObs, hook)
            methods = tuple(
                getattr(s, hook) for s in subscribers if getattr(type(s), hook) is not noop
            )
            if len(methods) == 1:
                setattr(self, hook, methods[0])
            elif methods:
                setattr(self, hook, _fan(methods))


class RunObservability:
    """One registry + tracer + network counters for a whole cluster run.

    Each switch adds one replica subscriber.  ``journey`` takes a
    :class:`~repro.obs.journey.JourneyRecorder`: every replica gets a
    :class:`JourneyObs` feeding that one shared recorder, and client
    layers (:class:`~repro.client.session.ClientSession` via
    :meth:`bind_client_session`, the workload pools) record the
    client-side checkpoints into it.  ``flight=True`` adds a per-replica
    :class:`FlightRecorder` behind a :class:`FlightRecordingObs`;
    ``audit=True`` additionally streams those events through an
    :class:`OnlineAuditor` (and implies ``flight``), which
    :meth:`arm_auditor` connects to the cluster.  ``metrics=False`` drops
    the :class:`ReplicaObs` metrics/span subscriber, so a flight-only run
    pays just the ring append per event — the mode the DES speed
    benchmark's overhead guard measures.
    """

    def __init__(
        self,
        trace: bool = True,
        flight: bool = False,
        audit: bool = False,
        metrics: bool = True,
        flight_capacity: int = 4096,
        journey: JourneyRecorder | None = None,
    ) -> None:
        self.registry = MetricsRegistry()
        self.tracer: Tracer = Tracer() if trace else NullTracer()
        self._metrics_enabled = metrics
        self.net = NetworkMetrics(self.registry) if metrics else None
        self.flight = flight or audit
        self.flight_capacity = flight_capacity
        self.recorders: dict[int, FlightRecorder] = {}
        self.auditor: OnlineAuditor | None = OnlineAuditor() if audit else None
        if self.auditor is not None:
            self.auditor.recorders = self.recorders
        self.journey = journey if journey is not None and journey.enabled else None

    @property
    def metrics_enabled(self) -> bool:
        return self._metrics_enabled

    def journey_only(self) -> bool:
        """True when this layer carries nothing but a journey recorder.

        The one observability shape a sharded run accepts: the recorder
        is shared across groups (journey keys are globally unique), while
        registries/tracers/rings are inherently per-group.
        """
        return (
            self.journey is not None
            and not self._metrics_enabled
            and not self.flight
            and isinstance(self.tracer, NullTracer)
        )

    def replica_obs(self, replica_id: int, protocol: str) -> NullReplicaObs:
        """:data:`NULL_OBS`, the one subscriber, or a :class:`FanOutObs`
        over them in the order journey, flight, metrics."""
        subscribers: list[NullReplicaObs] = []
        if self.journey is not None:
            subscribers.append(JourneyObs(self.journey, replica_id))
        if self.flight:
            recorder = FlightRecorder(replica_id, self.flight_capacity)
            self.recorders[replica_id] = recorder
            subscribers.append(FlightRecordingObs(recorder, self.auditor))
        if self._metrics_enabled:
            subscribers.append(ReplicaObs(self.registry, self.tracer, replica_id, protocol))
        if not subscribers:
            return NULL_OBS
        if len(subscribers) == 1:
            return subscribers[0]
        return FanOutObs(subscribers)

    def arm_auditor(
        self, replicas: Iterable[Any], network: Any, num_replicas: int, quorum: int,
        qc_validator: Callable[[Any], bool] | None = None,
    ) -> None:
        """Connect the online auditor to a built cluster; a no-op without ``audit``.

        Sizes the auditor to the cluster, taps the transport when it has
        ``add_tap``, and appends one commit listener to every replica
        (learners included) after the listeners the runtime installed.
        """
        auditor = self.auditor
        if auditor is None:
            return
        auditor.configure(num_replicas, quorum, qc_validator=qc_validator)
        add_tap = getattr(network, "add_tap", None)
        if add_tap is not None:
            add_tap(auditor.tap)
        for replica in replicas:
            replica.commit_listeners.append(partial(auditor.on_commit_block, replica.id))

    def client_recorder(self, endpoint_id: int) -> FlightRecorder:
        """A flight ring for one client endpoint, included in black boxes.

        Client endpoint ids start above the replica range, so the rings
        share the ``recorders`` map (and therefore every
        :meth:`write_blackbox` dump) without collisions.
        """
        recorder = self.recorders.get(endpoint_id)
        if recorder is None:
            recorder = FlightRecorder(endpoint_id, self.flight_capacity)
            self.recorders[endpoint_id] = recorder
        return recorder

    def bind_client_session(self, session: Any) -> None:
        """Wire one protocol client session into this run's collectors.

        Gives the session the journey recorder when its client id is
        sampled (the session then records submit/retransmit/certified
        checkpoints) and, when the flight layer is armed, a client-path
        flight ring so black-box dumps embed the client side of a
        violation window.
        """
        journey = self.journey
        if journey is not None and journey.sampled(session.client_id):
            session.journey = journey
        if self.flight:
            session.flight = self.client_recorder(session.client_id)

    def finish(self, ts: float) -> None:
        self.tracer.finish(ts)

    # ---------------------------------------------------------- audit layer

    def audit_report(self) -> dict[str, Any]:
        """The auditor's structured report (empty shape when audit is off)."""
        if self.auditor is None:
            return {"ok": True, "events_audited": 0, "violations": [], "violations_by_kind": {}}
        return self.auditor.report()

    def write_blackbox(self, path: str, meta: dict[str, Any] | None = None) -> bytes:
        """Dump every replica's flight ring to a deterministic black box."""
        return write_blackbox(path, self.recorders, meta)

    # -------------------------------------------------------------- exports

    def snapshot(self) -> dict[str, Any]:
        """Per-replica series plus the cluster-wide aggregation."""
        return {
            "per_replica": self.registry.snapshot(),
            "cluster": self.registry.aggregate(drop_labels=("replica",)).snapshot(),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    def write_chrome_trace(self, path: str) -> None:
        self.tracer.write_chrome_trace(path)

    def phase_latency_summary(self) -> dict[str, dict[str, float]]:
        """Cluster-wide {phase: {count, mean, p50, p99}} from the histograms."""
        merged = self.registry.aggregate(drop_labels=("replica", "protocol"))
        out: dict[str, dict[str, float]] = {}
        for name, series_list in merged.snapshot()["histograms"].items():
            if name != "phase_duration_seconds":
                continue
            for series in series_list:
                phase = series["labels"].get("phase", "?")
                out[phase] = {
                    "count": series["count"],
                    "mean": series["mean"],
                    "p50": series["p50"],
                    "p99": series["p99"],
                }
        return out
