"""End-to-end request journeys: sampling, recording, critical-path analysis.

A **journey** is the life of one client command, keyed by
``(client_id, sequence)`` — the identity that already travels inside
every wire message (``ClientRequest``, request batches, ``ReplyBatch``
op keys, ``ClientReply``) and inside every ``Operation._key``.  Because
that identity is ubiquitous, the trace context needs **zero wire-format
changes**: the sample bit is re-derived anywhere from ``(seed,
client_id)``, so enabling tracing never changes a message size, a
network event, or the simulated schedule.  The DES speed benchmark's
event-count invariance gate (``bench_journey_overhead.py``) enforces
exactly that: the observer must never steer.

Instrumented layers append **checkpoints** ``(label, time)``:

* client side — ``submit``, ``routed`` (sharded runs), ``retransmit``
  (annotation), ``certified`` (the f+1 reply certificate);
* replica intake — ``admitted`` (real client mode, via
  ``client_admitted``);
* the proposing leader — ``proposed``, ``qc:<phase>`` per phase QC,
  ``committed``, ``executed`` (reply emission).

The critical-path analyzer sorts each journey's first occurrence of
every checkpoint by time and charges the gap *ending* at a checkpoint to
that checkpoint's stage.  Because the chain is contiguous from
``submit`` to ``certified``, per-journey stage durations telescope to the
end-to-end latency **exactly**; the aggregate waterfall checks the
weaker, distribution-level invariant that the per-stage p50 sum
reconciles with the end-to-end p50 (the
:class:`~repro.harness.metrics.LatencyRecorder` numbers) within a few
percent.

Sampling is deterministic and seed-derived: ``crc32(seed:client_id)``
against the rate threshold, never Python's salted ``hash()`` and never
an RNG draw (which would perturb the event stream).  Same seed → the
same sampled client set → a byte-identical journey blob
(:func:`journeys_blob`, canonical codec, integer-microsecond
timestamps) across runs and across ``jobs=`` fan-outs.
"""

from __future__ import annotations

import heapq
import json
import zlib
from array import array
from typing import TYPE_CHECKING, Any, Iterable

from repro.common.encoding import encode

if TYPE_CHECKING:  # the harness package imports back into repro.obs
    from repro.harness.metrics import LatencyRecorder

JOURNEY_MAGIC = "marlin-journeys-v1"

#: Checkpoint labels, in causal order along the request's critical path.
CK_SUBMIT = "submit"
CK_ROUTED = "routed"
CK_ADMITTED = "admitted"
CK_PROPOSED = "proposed"
CK_QC_PREFIX = "qc:"  # qc:prepare, qc:commit, qc:pre-commit, ...
CK_COMMITTED = "committed"
CK_EXECUTED = "executed"
CK_CERTIFIED = "certified"
#: Annotation, not a critical-path checkpoint (it marks a resend, not a
#: stage boundary).
CK_RETRANSMIT = "retransmit"

#: Stage charged to the latency gap that *ends* at each checkpoint.
STAGE_OF_CHECKPOINT = {
    CK_ROUTED: "routing",
    CK_ADMITTED: "net_to_leader",
    CK_PROPOSED: "leader_staging",
    CK_COMMITTED: "commit_apply",
    CK_EXECUTED: "execution",
    CK_CERTIFIED: "reply_fanin",
}

#: Causal rank per checkpoint — the tie-breaker when two checkpoints
#: carry the same simulated timestamp (common in the DES, where several
#: handlers run at one instant).
_RANK = {
    CK_SUBMIT: 0,
    CK_ROUTED: 1,
    CK_ADMITTED: 2,
    CK_PROPOSED: 3,
    "qc:pre-prepare": 4,
    "qc:prepare": 5,
    "qc:pre-commit": 6,
    "qc:commit": 7,
    CK_COMMITTED: 9,
    CK_EXECUTED: 10,
    CK_CERTIFIED: 11,
}
_RANK_UNKNOWN_QC = 8

_SAMPLE_SPACE = 10_000  # sampling resolution: basis points


def stage_of(checkpoint: str) -> str:
    """The waterfall stage name for the gap ending at ``checkpoint``."""
    if checkpoint.startswith(CK_QC_PREFIX):
        return "consensus_" + checkpoint[len(CK_QC_PREFIX):]
    return STAGE_OF_CHECKPOINT.get(checkpoint, checkpoint)


def _rank(checkpoint: str) -> int:
    known = _RANK.get(checkpoint)
    if known is not None:
        return known
    return _RANK_UNKNOWN_QC if checkpoint.startswith(CK_QC_PREFIX) else 12


def sample_bit(seed: int, client_id: int, threshold: int) -> bool:
    """Deterministic, seed-derived sample decision for one client.

    ``threshold`` is the sampling rate in basis points (0..10000).  The
    hash is :func:`zlib.crc32` — stable across processes and Python
    versions, unlike the salted builtin ``hash`` — so every layer of the
    stack (client pools, replica observers, shard groups, sweep workers)
    independently derives the *same* bit without any wire propagation.
    """
    if threshold >= _SAMPLE_SPACE:
        return True
    if threshold <= 0:
        return False
    return zlib.crc32(b"%d:%d" % (seed, client_id)) % _SAMPLE_SPACE < threshold


class JourneyRecorder:
    """Collects checkpoint events for every sampled request.

    One recorder serves a whole run — on a sharded deployment the single
    instance is shared by every group (journey keys are globally unique,
    clients route to exactly one group).  Recording is an ``O(1)`` dict
    append with no allocation beyond the event tuple; there are no timer
    or network interactions, so the simulated schedule is untouched.
    """

    __slots__ = ("seed", "rate", "enabled", "_threshold", "_sampled", "_events")

    def __init__(self, seed: int, rate: float = 1.0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample rate must be in [0, 1], got {rate}")
        self.seed = seed
        self.rate = rate
        self._threshold = int(round(rate * _SAMPLE_SPACE))
        #: False when the rate rounds to zero — callers then skip all
        #: journey plumbing entirely (the ~0%-overhead disabled mode).
        self.enabled = self._threshold > 0
        self._sampled: dict[int, bool] = {}
        self._events: dict[tuple[int, int], list[tuple[str, float]]] = {}

    # ---------------------------------------------------------- recording

    def sampled(self, client_id: int) -> bool:
        """Whether this client's requests are traced (memoized)."""
        bit = self._sampled.get(client_id)
        if bit is None:
            bit = sample_bit(self.seed, client_id, self._threshold)
            self._sampled[client_id] = bit
        return bit

    def record(self, client_id: int, sequence: int, checkpoint: str, when: float) -> None:
        """Append one checkpoint; the caller has already sample-checked."""
        key = (client_id, sequence)
        events = self._events.get(key)
        if events is None:
            events = []
            self._events[key] = events
        events.append((checkpoint, when))

    def record_ops(self, operations: Iterable[Any], checkpoint: str, when: float) -> None:
        """Record one checkpoint for every sampled op of a block/batch.

        Hot path — runs once per proposed/committed block over all its
        operations, so the memo and event dicts are walked inline rather
        than through :meth:`sampled`/:meth:`record` (two saved method
        calls per op, which is measurable at paper-scale batch sizes).
        """
        memo = self._sampled
        events_map = self._events
        seed = self.seed
        threshold = self._threshold
        event = (checkpoint, when)
        for op in operations:
            client_id = op.client_id
            bit = memo.get(client_id)
            if bit is None:
                bit = sample_bit(seed, client_id, threshold)
                memo[client_id] = bit
            if bit:
                key = op._key
                events = events_map.get(key)
                if events is None:
                    events = events_map[key] = []
                events.append(event)

    def record_keys(
        self, keys: Iterable[tuple[int, int]], checkpoint: str, when: float
    ) -> None:
        """Record one checkpoint for already-sampled journey keys.

        The per-block leader loops (proposed/qc/committed) pre-filter
        once via :meth:`sampled_keys`; this appends to each journey with
        no further sampling work — one method call per block, not per op.
        """
        events_map = self._events
        event = (checkpoint, when)
        for key in keys:
            events = events_map.get(key)
            if events is None:
                events = events_map[key] = []
            events.append(event)

    def sampled_keys(self, operations: Iterable[Any]) -> list[tuple[int, int]]:
        """The ``(client, seq)`` keys of the sampled ops, memo walked inline."""
        memo = self._sampled
        seed = self.seed
        threshold = self._threshold
        keys = []
        for op in operations:
            client_id = op.client_id
            bit = memo.get(client_id)
            if bit is None:
                bit = sample_bit(seed, client_id, threshold)
                memo[client_id] = bit
            if bit:
                keys.append(op._key)
        return keys

    # ----------------------------------------------------------- readouts

    def __len__(self) -> int:
        return len(self._events)

    def journeys(self) -> list[tuple[tuple[int, int], list[tuple[str, float]]]]:
        """All journeys, key-sorted, each journey's events in causal order."""
        return [
            (key, sorted(events, key=lambda e: (e[1], _rank(e[0]), e[0])))
            for key, events in sorted(self._events.items())
        ]


# ---------------------------------------------------------------------------
# Critical-path analysis


def decompose(events: list[tuple[str, float]]) -> tuple[list[tuple[str, float]], float] | None:
    """One journey's ``([(stage, duration), ...], end_to_end)`` breakdown.

    Takes the earliest occurrence of each checkpoint (re-proposals after
    a failed view leave duplicates), truncates the chain at ``certified``
    (a straggling proposer may execute after the client already holds its
    certificate — that work is off the critical path), and charges each
    gap to the stage of the checkpoint that ends it.  Returns ``None``
    for incomplete journeys (no submit or no certificate yet).
    """
    first: dict[str, float] = {}
    for label, when in events:
        if label == CK_RETRANSMIT:
            continue
        known = first.get(label)
        if known is None or when < known:
            first[label] = when
    submitted = first.get(CK_SUBMIT)
    certified = first.get(CK_CERTIFIED)
    if submitted is None or certified is None:
        return None
    points = sorted(
        ((label, when) for label, when in first.items() if when <= certified),
        key=lambda item: (item[1], _rank(item[0]), item[0]),
    )
    if points[0][0] != CK_SUBMIT or points[-1][0] != CK_CERTIFIED:
        return None
    stages: list[tuple[str, float]] = []
    previous = submitted
    for label, when in points[1:]:
        stages.append((stage_of(label), when - previous))
        previous = when
    return stages, certified - submitted


def _stage_order_key(stage: str) -> tuple[int, str]:
    for checkpoint, name in STAGE_OF_CHECKPOINT.items():
        if name == stage:
            return (_rank(checkpoint), stage)
    if stage.startswith("consensus_"):
        return (_rank(CK_QC_PREFIX + stage[len("consensus_"):]), stage)
    return (13, stage)


def _walk(recorder: JourneyRecorder, window_start: float):
    """One pass over the raw event store, in journey-key order.

    Yields ``(key, events, outcome)`` for every journey: ``outcome`` is
    ``False`` when the journey was submitted before ``window_start``,
    ``None`` when :func:`decompose` finds it incomplete, and otherwise
    ``(submitted, stages, e2e)``.  Nothing is copied or sorted but the
    keys: :func:`decompose` takes the earliest occurrence of each
    checkpoint, so it reads a journey's events in any order.
    """
    store = recorder._events
    for key in sorted(store):
        events = store[key]
        submitted = min((t for label, t in events if label == CK_SUBMIT), default=None)
        if submitted is not None and submitted < window_start:
            yield key, events, False
            continue
        breakdown = decompose(events)
        if breakdown is None:
            yield key, events, None
        else:
            yield key, events, (submitted, *breakdown)


def build_waterfall(
    recorder: JourneyRecorder,
    end_to_end: LatencyRecorder | float | None = None,
    window_start: float = 0.0,
) -> dict[str, Any]:
    """Aggregate the sampled journeys into a latency waterfall.

    Per stage: weighted ``count/mean/p50/p90/p99`` over every complete
    journey submitted at or after ``window_start`` (pass the warm-up
    boundary so the waterfall matches the run's measurement window).
    ``end_to_end`` — the run's :class:`LatencyRecorder` (or its p50) —
    anchors the reconciliation block: the sum of per-stage p50s must
    land within a few percent of the recorder's end-to-end p50, the
    invariant the CI latency smoke asserts.

    One :func:`_walk` over the store appends each stage's durations, in
    journey-key order, to a flat ``array('d')``: one float per stage per
    complete journey.  Each stage is then read out through its own
    :class:`LatencyRecorder`, freed before the next is built.
    """
    from repro.harness.metrics import LatencyRecorder

    def readout(durations: array) -> LatencyRecorder:
        rec = LatencyRecorder()
        rec.samples.append_batch(0.0, 1, durations)
        return rec

    stage_durations: dict[str, array] = {}
    journey_e2e = array("d")
    complete = incomplete = windowed_out = retransmits = 0
    for _key, events, outcome in _walk(recorder, window_start):
        retransmits += sum(1 for label, _ in events if label == CK_RETRANSMIT)
        if outcome is False:
            windowed_out += 1
            continue
        if outcome is None:
            incomplete += 1
            continue
        _submitted, stages, e2e = outcome
        complete += 1
        journey_e2e.append(e2e)
        for stage, duration in stages:
            durations = stage_durations.get(stage)
            if durations is None:
                durations = stage_durations[stage] = array("d")
            durations.append(duration)

    stages_out: dict[str, dict[str, float]] = {}
    stage_sum_p50 = 0.0
    for stage in sorted(stage_durations, key=_stage_order_key):
        rec = readout(stage_durations.pop(stage))
        p50 = rec.p50()
        stage_sum_p50 += p50
        stages_out[stage] = {
            "count": rec.count,
            "mean": rec.mean(),
            "p50": p50,
            "p90": rec.p90(),
            "p99": rec.p99(),
        }
        del rec  # before the next stage's readout is built

    rec = readout(journey_e2e)
    del journey_e2e
    reconciliation: dict[str, float] = {
        "journey_p50": rec.p50(),
        "journey_mean": rec.mean(),
        "journey_p99": rec.p99(),
        "stage_sum_p50": stage_sum_p50,
    }
    reference = end_to_end.p50() if isinstance(end_to_end, LatencyRecorder) else end_to_end
    if reference is not None:
        reconciliation["recorder_p50"] = reference
        if reference > 0.0:
            reconciliation["error"] = abs(stage_sum_p50 - reference) / reference

    return {
        "seed": recorder.seed,
        "sample_rate": recorder.rate,
        "journeys": {
            "sampled": len(recorder),
            "complete": complete,
            "incomplete": incomplete,
            "windowed_out": windowed_out,
            "retransmits": retransmits,
        },
        "stages": stages_out,
        "end_to_end": reconciliation,
    }


def waterfall_json(waterfall: dict[str, Any]) -> str:
    """Canonical JSON for a waterfall — byte-identical for identical runs."""
    return json.dumps(waterfall, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Deterministic exports

_US = 1_000_000


def journeys_blob(recorder: JourneyRecorder) -> bytes:
    """The sampled journey set as one canonical-codec payload.

    Keys sorted, events in causal order, timestamps as integer
    microseconds (the codec has no float type) — the byte string is the
    determinism fingerprint the tests compare across runs and across
    ``jobs=`` fan-outs.
    """
    body = [
        JOURNEY_MAGIC,
        {"seed": recorder.seed, "rate_bp": recorder._threshold},
        [
            [client_id, sequence, [[label, round(when * _US)] for label, when in events]]
            for (client_id, sequence), events in recorder.journeys()
        ],
    ]
    return encode(body)


def slowest_journeys(
    recorder: JourneyRecorder, k: int, window_start: float = 0.0
) -> list[tuple[tuple[int, int], float, list[tuple[str, float]]]]:
    """The ``k`` slowest complete journeys: ``(key, e2e, checkpoints)``.

    Checkpoints are the deduplicated, time-ordered chain the analyzer
    used (earliest occurrence per label, truncated at ``certified``).
    Ties break on the journey key so the pick is deterministic; ``k <= 0``
    picks none.  The pick is made during one :func:`_walk`, holding ``k``
    candidates at a time.
    """
    candidates = (
        (key, outcome) for key, _events, outcome in _walk(recorder, window_start) if outcome
    )
    slowest = heapq.nsmallest(k, candidates, key=lambda item: (-item[1][2], item[0]))
    picked = []
    for key, (submitted, stages, e2e) in slowest:
        chain = [(CK_SUBMIT, submitted)]
        cursor = submitted
        for stage, duration in stages:
            cursor += duration
            chain.append((stage, cursor))
        picked.append((key, e2e, chain))
    return picked


def chrome_trace(
    recorder: JourneyRecorder, k: int = 10, window_start: float = 0.0
) -> dict[str, Any]:
    """Chrome ``trace_event`` JSON for the ``k`` slowest journeys.

    One complete ("X") event per stage, ``pid`` = client id, ``tid`` =
    sequence — load the file at ``chrome://tracing`` / Perfetto to see
    where each slow request's time went.
    """
    trace_events: list[dict[str, Any]] = []
    for (client_id, sequence), e2e, chain in slowest_journeys(recorder, k, window_start):
        # Chain entries after ``submit`` are already stage names.
        for (_label, start), (stage, end) in zip(chain, chain[1:]):
            trace_events.append(
                {
                    "name": stage,
                    "cat": "journey",
                    "ph": "X",
                    "ts": round(start * _US),
                    "dur": round((end - start) * _US),
                    "pid": client_id,
                    "tid": sequence,
                    "args": {"e2e_ms": round(e2e * 1000, 3)},
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str, recorder: JourneyRecorder, k: int = 10, window_start: float = 0.0
) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(recorder, k, window_start), fh, indent=1, sort_keys=True)
