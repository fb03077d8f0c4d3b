"""Every replica observer at once, pinned byte for byte.

One small marlin run with a leader crash carries all three replica
subscribers — journeys, the flight ring with its online auditor, and
metrics with spans — plus the Chrome tracer.  No benchmark workload turns
them all on together, so this golden is what proves a change to the hook
dispatch moved no output: the metrics JSON, the Chrome trace, the black
box, the audit report, the journey waterfall and the commit trace.
Update the values only together with an explanation of what an observer
now records differently.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.common.encoding import encode
from repro.harness.des_runtime import DESCluster
from repro.harness.scenarios import _experiment
from repro.harness.workload import ClosedLoopClients
from repro.obs.journey import JourneyRecorder, build_waterfall, waterfall_json
from repro.obs.observer import (
    NULL_OBS,
    FanOutObs,
    FlightRecordingObs,
    JourneyObs,
    NullReplicaObs,
    ReplicaObs,
    RunObservability,
)

GOLDEN = {
    "events_processed": 995,
    "commit_trace_rows": 42,
    "journeys": 832,
    "events_audited": 135,
    "violations_by_kind": {"duplicate-execution": 192},
    "metrics_json": "a1a3f24757a277b3f7dcb1840a0c9e90ba403ebea44ef4de42511d4c08d848b8",
    "chrome_trace": "47e4f864171acd8eea5cfad41c55dcd9c6289484bafdb5989c46709818df528e",
    "blackbox": "50457ad04e6b5d094a8592c8d9c5ede507e94d048ebb3973c51b3efd9fcd9c63",
    "audit_report": "82710d0963136ee80bf49b4e311f1cd4e82b695ec9f31b18597d94a9f98a3d9d",
    "waterfall": "afdee2e41e777d46bb7d842474a0ffb06ca3ef3e1ec93d60c99acefd28e99825",
    "commit_trace": "bf041ef74ac54d5c9ce7c623570890f9ca36e9eddd04613415d4d0eafb1dc54f",
}


def run_observed(
    trace: bool = True,
    flight: bool = True,
    audit: bool = True,
    metrics: bool = True,
    journey: bool = True,
) -> tuple[RunObservability, DESCluster, ClosedLoopClients]:
    """marlin f=1, 64 clients on every replica, leader crash at 1 s, run to 4 s."""
    obs = RunObservability(
        trace=trace,
        flight=flight,
        audit=audit,
        metrics=metrics,
        journey=JourneyRecorder(1, rate=1.0) if journey else None,
    )
    cluster = DESCluster(
        _experiment(1, seed=1, batch=2000, base_timeout=0.5),
        protocol="marlin",
        crypto_mode="null",
        observability=obs,
    )
    pool = ClosedLoopClients(cluster, num_clients=64, token_weight=1, target="all")
    cluster.start()
    cluster.sim.schedule(0.01, pool.start)
    cluster.crash_at(0, 1.0)
    cluster.run(until=4.0)
    obs.finish(cluster.sim.now)
    return obs, cluster, pool


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_full_observer_stack_is_byte_identical(tmp_path):
    obs, cluster, pool = run_observed()
    report = obs.audit_report()
    measured = {
        "events_processed": cluster.sim.events_processed,
        "commit_trace_rows": len(cluster.commit_trace()),
        "journeys": len(obs.journey),
        "events_audited": report["events_audited"],
        "violations_by_kind": report["violations_by_kind"],
        "metrics_json": _sha(obs.to_json().encode()),
        "chrome_trace": _sha(obs.tracer.chrome_trace().encode()),
        "blackbox": _sha(obs.write_blackbox(str(tmp_path / "run.blackbox"))),
        "audit_report": _sha(json.dumps(report, sort_keys=True).encode()),
        "waterfall": _sha(waterfall_json(build_waterfall(obs.journey, pool.latency)).encode()),
        "commit_trace": _sha(encode(cluster.commit_trace())),
    }
    assert measured == GOLDEN


# ---------------------------------------------------------------------------
# Dispatch: subscribers are independent, and resolution happens once.

COMBOS = [
    (journey, flight, metrics)
    for journey in (False, True)
    for flight in (False, True)
    for metrics in (False, True)
]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Each subscriber's output for every on/off combination of the three.

    The flight ring runs without its auditor here: the auditor validates
    QCs through the cluster's crypto service, whose cache-hit counter is
    in the metrics registry, so it is a second consumer of the crypto
    layer rather than of the hooks.  The golden above pins it.
    """
    tmp = tmp_path_factory.mktemp("obs")
    out = {}
    for journey, flight, metrics in COMBOS:
        obs, cluster, pool = run_observed(
            trace=metrics, flight=flight, audit=False, metrics=metrics, journey=journey
        )
        entry = {"commit_trace": encode(cluster.commit_trace())}
        if metrics:
            entry["metrics"] = (obs.to_json(), obs.tracer.chrome_trace())
        if flight:
            path = str(tmp / f"{journey}-{metrics}.blackbox")
            entry["flight"] = obs.write_blackbox(path)
        if journey:
            entry["journey"] = waterfall_json(build_waterfall(obs.journey, pool.latency))
        out[journey, flight, metrics] = entry
    return out


@pytest.mark.parametrize("combo", COMBOS, ids=lambda c: "-".join(
    name for name, on in zip(("journey", "flight", "metrics"), c) if on
) or "none")
def test_each_subscriber_matches_its_solo_run(outputs, combo):
    entry = outputs[combo]
    solo = {
        "journey": outputs[True, False, False],
        "flight": outputs[False, True, False],
        "metrics": outputs[False, False, True],
    }
    assert entry["commit_trace"] == outputs[False, False, False]["commit_trace"]
    for name, on in zip(("journey", "flight", "metrics"), combo):
        assert (name in entry) == on
        if on:
            assert entry[name] == solo[name][name]


def _observability(journey: bool, flight: bool, metrics: bool) -> RunObservability:
    return RunObservability(
        trace=False,
        flight=flight,
        metrics=metrics,
        journey=JourneyRecorder(1, rate=1.0) if journey else None,
    )


def test_no_subscriber_is_the_null_observer():
    obs = _observability(False, False, False).replica_obs(0, "marlin")
    assert obs is NULL_OBS
    assert obs.journey is None


@pytest.mark.parametrize(
    "combo, cls",
    [
        ((True, False, False), JourneyObs),
        ((False, True, False), FlightRecordingObs),
        ((False, False, True), ReplicaObs),
    ],
)
def test_one_subscriber_is_returned_unwrapped(combo, cls):
    run = _observability(*combo)
    obs = run.replica_obs(0, "marlin")
    assert type(obs) is cls
    assert obs.journey is run.journey


def test_fan_out_resolves_each_hook_once():
    run = _observability(True, True, False)
    obs = run.replica_obs(0, "marlin")
    assert isinstance(obs, FanOutObs)
    journey, flight = obs.subscribers
    assert obs.journey is run.journey
    # No subscriber overrides these: the inherited no-op, nothing bound.
    for hook in ("message_handled", "phase_end"):
        assert hook not in vars(obs)
        assert getattr(type(obs), hook) is getattr(NullReplicaObs, hook)
    # One subscriber overrides each of these: its bound method, unwrapped.
    assert obs.ops_proposed == journey.ops_proposed
    assert obs.vote_sent == flight.vote_sent
    # Both override these: one loop that calls them in subscriber order.
    for hook in ("bind", "qc_formed", "block_committed", "client_admitted"):
        assert hook in vars(obs)
        assert getattr(obs, hook) not in (getattr(journey, hook), getattr(flight, hook))
