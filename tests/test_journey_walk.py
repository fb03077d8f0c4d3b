"""The one-pass journey analysis against the sort-everything reference.

``build_waterfall`` and ``slowest_journeys`` walk the recorder's raw
event store once, in key order, and feed each journey to ``decompose``
as recorded.  The reference kept here is the analysis they replace,
verbatim: it builds the key-sorted, causally sorted copy of every
journey (``journeys()``), keeps one ``LatencyRecorder`` per stage alive
together and ranks every complete journey.  A hypothesis property holds
both to the same output over stores with duplicate checkpoints,
retransmits, equal timestamps, unknown ``qc:`` phases, missing
``submit``/``certified`` checkpoints, chains that do not start at
``submit`` and submits on both sides of the window start.  A memory test
bounds the waterfall's transient allocation against the store itself.
"""

from __future__ import annotations

import gc
import tracemalloc

from hypothesis import given, settings, strategies as st

from repro.harness.metrics import LatencyRecorder
from repro.obs.journey import (
    CK_ADMITTED,
    CK_CERTIFIED,
    CK_COMMITTED,
    CK_EXECUTED,
    CK_PROPOSED,
    CK_RETRANSMIT,
    CK_ROUTED,
    CK_SUBMIT,
    CK_QC_PREFIX,
    JourneyRecorder,
    _rank,
    _stage_order_key,
    build_waterfall,
    chrome_trace,
    decompose,
    slowest_journeys,
    waterfall_json,
)

# ---------------------------------------------------------------------------
# Reference: the analysis before the one-pass walk, kept verbatim.


def reference_journeys(recorder):
    return [
        (key, sorted(events, key=lambda e: (e[1], _rank(e[0]), e[0])))
        for key, events in sorted(recorder._events.items())
    ]


def reference_build_waterfall(recorder, end_to_end=None, window_start=0.0):
    stage_recorders: dict[str, LatencyRecorder] = {}
    journey_e2e = LatencyRecorder()
    complete = incomplete = windowed_out = retransmits = 0
    for _key, events in reference_journeys(recorder):
        retransmits += sum(1 for label, _ in events if label == CK_RETRANSMIT)
        submitted = min((t for label, t in events if label == CK_SUBMIT), default=None)
        if submitted is not None and submitted < window_start:
            windowed_out += 1
            continue
        breakdown = decompose(events)
        if breakdown is None:
            incomplete += 1
            continue
        stages, e2e = breakdown
        complete += 1
        journey_e2e.record(submitted, e2e)
        for stage, duration in stages:
            rec = stage_recorders.get(stage)
            if rec is None:
                rec = stage_recorders[stage] = LatencyRecorder()
            rec.record(submitted, duration)

    stages_out: dict[str, dict[str, float]] = {}
    stage_sum_p50 = 0.0
    for stage in sorted(stage_recorders, key=_stage_order_key):
        rec = stage_recorders[stage]
        p50 = rec.p50()
        stage_sum_p50 += p50
        stages_out[stage] = {
            "count": rec.count,
            "mean": rec.mean(),
            "p50": p50,
            "p90": rec.p90(),
            "p99": rec.p99(),
        }

    reconciliation: dict[str, float] = {
        "journey_p50": journey_e2e.p50(),
        "journey_mean": journey_e2e.mean(),
        "journey_p99": journey_e2e.p99(),
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


def reference_slowest_journeys(recorder, k, window_start=0.0):
    ranked = []
    for key, events in reference_journeys(recorder):
        submitted = min((t for label, t in events if label == CK_SUBMIT), default=None)
        if submitted is not None and submitted < window_start:
            continue
        breakdown = decompose(events)
        if breakdown is None:
            continue
        stages, e2e = breakdown
        chain = [(CK_SUBMIT, submitted)]
        cursor = submitted
        for stage, duration in stages:
            cursor += duration
            chain.append((stage, cursor))
        ranked.append((e2e, key, chain))
    ranked.sort(key=lambda item: (-item[0], item[1]))
    return [(key, e2e, chain) for e2e, key, chain in ranked[:k]]


# ---------------------------------------------------------------------------
# Generated stores

#: The causal chain a request walks, one optional checkpoint each.
CHAIN = [
    CK_SUBMIT,
    CK_ROUTED,
    CK_ADMITTED,
    CK_PROPOSED,
    "qc:pre-prepare",
    "qc:prepare",
    "qc:pre-commit",
    "qc:commit",
    CK_QC_PREFIX + "unknown",
    CK_COMMITTED,
    CK_EXECUTED,
    CK_CERTIFIED,
]
#: Every label a stray event may carry, including the retransmit
#: annotation and a label the analyzer has no stage for.
LABELS = st.sampled_from(CHAIN + [CK_RETRANSMIT, CK_QC_PREFIX + "late", "other"])
#: Tenths: coarse enough that equal timestamps are common, and inexact in
#: binary, so a different summation order would show in the means.
TIMES = st.integers(0, 60).map(lambda tenths: tenths / 10)


@st.composite
def journeys(draw):
    events = []
    when = draw(TIMES)
    for label in CHAIN:
        if draw(st.booleans()):
            events.append((label, when))
        when += draw(st.integers(0, 3)) / 10
    events += draw(st.lists(st.tuples(LABELS, TIMES), max_size=4))
    return draw(st.permutations(events))


KEYS = st.tuples(st.integers(0, 5), st.integers(1, 6))
STORES = st.dictionaries(KEYS, journeys(), max_size=24)


def recorder_of(store) -> JourneyRecorder:
    recorder = JourneyRecorder(seed=3)
    for (client, seq), events in store.items():
        for label, when in events:
            recorder.record(client, seq, label, when)
    return recorder


class TestOnePassMatchesReference:
    @given(
        store=STORES,
        window_start=TIMES,
        end_to_end=st.none() | st.floats(0.0, 5.0),
        k=st.integers(0, 8),
    )
    @settings(max_examples=400, deadline=None)
    def test_waterfall_and_slowest_match(self, store, window_start, end_to_end, k):
        recorder = recorder_of(store)
        expected = reference_build_waterfall(recorder, end_to_end, window_start)
        waterfall = build_waterfall(recorder, end_to_end, window_start)
        assert waterfall == expected
        assert waterfall_json(waterfall) == waterfall_json(expected)
        assert slowest_journeys(recorder, k, window_start) == reference_slowest_journeys(
            recorder, k, window_start
        )

    @given(store=STORES, window_start=TIMES)
    @settings(max_examples=100, deadline=None)
    def test_end_to_end_recorder_anchor(self, store, window_start):
        recorder = recorder_of(store)
        anchor = LatencyRecorder()
        anchor.record(1.0, 0.25)
        anchor.record(2.0, 0.5)
        assert build_waterfall(recorder, anchor, window_start) == reference_build_waterfall(
            recorder, anchor, window_start
        )

    def test_chrome_trace_of_slowest(self):
        store = {
            (1, 1): [(CK_SUBMIT, 0.0), (CK_PROPOSED, 0.1), (CK_CERTIFIED, 0.5)],
            (2, 1): [(CK_CERTIFIED, 0.9), (CK_SUBMIT, 0.4), (CK_COMMITTED, 0.6)],
            (0, 7): [(CK_SUBMIT, 0.1), (CK_CERTIFIED, 0.6)],
        }
        recorder = recorder_of(store)
        trace = chrome_trace(recorder, k=2)
        assert [(e["pid"], e["tid"]) for e in trace["traceEvents"]] == [
            (0, 7),
            (1, 1),
            (1, 1),
        ]
        assert [key for key, _e2e, _chain in slowest_journeys(recorder, 2)] == [
            (0, 7),
            (1, 1),
        ]


# ---------------------------------------------------------------------------
# Memory

#: Journeys in the synthetic store: the size of the store a
#: 2048-real-client, 15 simulated-second traced run records.
JOURNEYS = 20_000
#: Requests per simulated block; block checkpoints share one event tuple,
#: as the leader's ``record_keys`` does.
BLOCK = 200


def synthetic_recorder() -> JourneyRecorder:
    """Marlin-shaped journeys: per-client submit/admitted/certified, the
    block checkpoints shared between the requests a block carries."""
    recorder = JourneyRecorder(seed=1)
    clients = 2048
    keys = [(i % clients, 1 + i // clients) for i in range(JOURNEYS)]
    for first in range(0, JOURNEYS, BLOCK):
        block = keys[first:first + BLOCK]
        start = first * 0.00075
        for offset, (client, seq) in enumerate(block):
            submitted = start + offset * 1e-5
            recorder.record(client, seq, CK_SUBMIT, submitted)
            recorder.record(client, seq, CK_ADMITTED, submitted + 0.0101 + offset * 1e-6)
        proposed = start + 0.05
        recorder.record_keys(block, CK_PROPOSED, proposed)
        recorder.record_keys(block, "qc:prepare", proposed + 0.1003)
        recorder.record_keys(block, "qc:commit", proposed + 0.2011)
        recorder.record_keys(block, CK_COMMITTED, proposed + 0.2012)
        recorder.record_keys(block, CK_EXECUTED, proposed + 0.2015)
        for offset, (client, seq) in enumerate(block):
            recorder.record(client, seq, CK_CERTIFIED, proposed + 0.25 + offset * 3e-6)
    return recorder


def test_waterfall_transient_is_a_fraction_of_the_store():
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        recorder = synthetic_recorder()
        store, _ = tracemalloc.get_traced_memory()
        store -= before
        gc.collect()
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        waterfall = build_waterfall(recorder, window_start=0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert waterfall["journeys"]["complete"] == JOURNEYS
    transient = peak - baseline
    assert transient < 0.4 * store, (
        f"build_waterfall peaked {transient / 2**20:.2f} MiB over a "
        f"{store / 2**20:.2f} MiB journey store ({transient / store:.0%})"
    )
