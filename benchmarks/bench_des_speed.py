#!/usr/bin/env python3
"""CI smoke benchmark: raw DES core speed, guarded against regression.

Runs one fixed normal-case scenario (marlin, f=1, 512 closed-loop
clients, null crypto, 40 simulated seconds — ~20k events) several times
and reports the best events/sec and sim-seconds-per-wall-second.  The
event count is asserted against the committed baseline exactly: it is a
pure function of the scenario, so any drift means simulator behaviour
changed, not just its speed.

The wall-clock guard compares against ``benchmarks/BENCH_DES_SPEED.json``
and fails if events/sec drops more than ``--tolerance`` (default 20%)
below the recorded baseline.  The baseline is machine-dependent; after an
intentional change (or on new hardware) regenerate it with::

    python benchmarks/bench_des_speed.py --write-baseline

Run:  python benchmarks/bench_des_speed.py          (~10 s)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.common.config import ClusterConfig, ExperimentConfig
from repro.harness.des_runtime import DESCluster
from repro.harness.report import format_table
from repro.harness.workload import ClosedLoopClients

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_DES_SPEED.json"

# The fixed scenario.  Keep in lockstep with the committed baseline: any
# change here invalidates it (the guard catches this via the event count).
SCENARIO = {
    "protocol": "marlin",
    "f": 1,
    "clients": 512,
    "token_weight": 1,
    "target": "all",
    "batch": 400,
    "base_timeout": 120.0,
    "max_timeout": 240.0,
    "seed": 1,
    "crypto": "null",
    "warmup": 3.0,
    "sim_time": 40.0,
}

# The sharded scenario for the ``--des-jobs`` section: a G=4 run that the
# process-parallel engine decomposes one consensus group per worker.
SHARDED_SCENARIO = {
    "protocol": "marlin",
    "f": 1,
    "shards": 4,
    "clients": 256,
    "token_weight": 1,
    "base_timeout": 120.0,
    "max_timeout": 240.0,
    "seed": 1,
    "crypto": "null",
    "warmup": 3.0,
    "sim_time": 15.0,
}


def run_once(flight: bool = False) -> tuple[int, float, float]:
    """One timed run; returns (events_processed, sim_seconds, wall_seconds).

    ``flight=True`` attaches a flight-recorder-only observability layer
    (no metrics, no tracer) — the configuration whose overhead must stay
    low enough to leave the recorder on by default.
    """
    cluster_cfg = ClusterConfig.for_f(
        SCENARIO["f"],
        batch_size=SCENARIO["batch"],
        base_timeout=SCENARIO["base_timeout"],
        max_timeout=SCENARIO["max_timeout"],
    )
    experiment = ExperimentConfig(cluster=cluster_cfg, seed=SCENARIO["seed"])
    observability = None
    if flight:
        from repro.obs.observer import RunObservability

        observability = RunObservability(trace=False, flight=True, metrics=False)
    cluster = DESCluster(
        experiment,
        protocol=SCENARIO["protocol"],
        crypto_mode=SCENARIO["crypto"],
        observability=observability,
    )
    pool = ClosedLoopClients(
        cluster,
        num_clients=SCENARIO["clients"],
        request_size=150,
        reply_size=150,
        token_weight=SCENARIO["token_weight"],
        target=SCENARIO["target"],
        warmup=SCENARIO["warmup"],
    )
    cluster.start()
    cluster.sim.schedule(0.01, pool.start)
    start = time.perf_counter()
    cluster.run(until=SCENARIO["sim_time"])
    wall = time.perf_counter() - start
    cluster.assert_safety()
    return cluster.sim.events_processed, cluster.sim.now, wall


def measure(rounds: int, flight: bool = False) -> dict:
    """Best-of-``rounds`` measurement of the fixed scenario."""
    best = None
    events = None
    for _ in range(rounds):
        ev, sim_seconds, wall = run_once(flight=flight)
        if events is None:
            events = ev
        elif ev != events:
            raise RuntimeError(
                f"non-deterministic event count: {ev} != {events}"
            )
        if best is None or wall < best[1]:
            best = (sim_seconds, wall)
    sim_seconds, wall = best
    return {
        "events": events,
        "wall_seconds": round(wall, 4),
        "events_per_sec": round(events / wall, 1),
        "sim_seconds_per_wall_second": round(sim_seconds / wall, 2),
    }


def run_sharded_once(jobs: int) -> tuple[dict[int, int], str, float]:
    """One timed G=4 sharded run on the decomposed engine.

    Returns (per-group event counts, commit-trace SHA-256, wall seconds).
    The wall clock includes worker start-up for ``jobs > 1`` — that cost
    is real and must be amortised by the parallel speedup.
    """
    import hashlib

    from repro.common.encoding import encode
    from repro.shard.parallel import ParallelShardedCluster
    from repro.shard.config import ShardConfig

    cluster_cfg = ClusterConfig.for_f(
        SHARDED_SCENARIO["f"],
        base_timeout=SHARDED_SCENARIO["base_timeout"],
        max_timeout=SHARDED_SCENARIO["max_timeout"],
    )
    experiment = ExperimentConfig(cluster=cluster_cfg, seed=SHARDED_SCENARIO["seed"])
    engine = ParallelShardedCluster(
        experiment,
        shard=ShardConfig(
            shards=SHARDED_SCENARIO["shards"],
            router_seed=SHARDED_SCENARIO["seed"],
        ),
        protocol=SHARDED_SCENARIO["protocol"],
        crypto_mode=SHARDED_SCENARIO["crypto"],
        jobs=jobs,
    )
    start = time.perf_counter()
    engine.run_workload(
        num_clients=SHARDED_SCENARIO["clients"],
        sim_time=SHARDED_SCENARIO["sim_time"],
        token_weight=SHARDED_SCENARIO["token_weight"],
        warmup=SHARDED_SCENARIO["warmup"],
    )
    wall = time.perf_counter() - start
    sha = hashlib.sha256(encode(engine.commit_trace())).hexdigest()
    return engine.per_group_events(), sha, wall


def measure_sharded(jobs: int, rounds: int) -> dict:
    """Best-of-``rounds`` measurement of the sharded scenario."""
    best_wall = None
    events = None
    sha = None
    for _ in range(rounds):
        ev, digest, wall = run_sharded_once(jobs)
        if events is None:
            events, sha = ev, digest
        elif ev != events or digest != sha:
            raise RuntimeError(
                f"non-deterministic sharded run at jobs={jobs}: "
                f"{ev} / {digest} != {events} / {sha}"
            )
        if best_wall is None or wall < best_wall:
            best_wall = wall
    total = sum(events.values())
    return {
        "jobs": jobs,
        "per_group_events": events,
        "events": total,
        "trace_sha256": sha,
        "wall_seconds": round(best_wall, 4),
        "events_per_sec": round(total / best_wall, 1),
    }


def sharded_section(jobs: int, rounds: int) -> tuple[dict, list[str]]:
    """Run the G=4 scenario at jobs=1 and jobs=N; gate determinism.

    The two runs must agree on every per-group event count and on the
    commit-trace SHA — the parallel engine's contract is byte-identity,
    not statistical equivalence.  Speedup is reported informationally:
    on a single hardware core the spawn workers cannot win.
    """
    failures: list[str] = []
    serial = measure_sharded(1, rounds)
    parallel = measure_sharded(jobs, rounds)
    if parallel["per_group_events"] != serial["per_group_events"]:
        failures.append(
            f"des-jobs={jobs} per-group event counts diverged: "
            f"{parallel['per_group_events']} != {serial['per_group_events']}"
        )
    if parallel["trace_sha256"] != serial["trace_sha256"]:
        failures.append(
            f"des-jobs={jobs} commit trace diverged: "
            f"{parallel['trace_sha256']} != {serial['trace_sha256']}"
        )
    speedup = serial["wall_seconds"] / parallel["wall_seconds"]
    rows = [
        ["events (all groups)", f"{serial['events']:,}"],
        ["jobs=1 wall clock", f"{serial['wall_seconds']:.3f} s"],
        [f"jobs={jobs} wall clock", f"{parallel['wall_seconds']:.3f} s"],
        ["wall-clock speedup", f"{speedup:.2f}x"],
        ["traces identical", "yes" if not failures else "NO"],
    ]
    print(format_table(
        f"Sharded DES (marlin, G={SHARDED_SCENARIO['shards']}, "
        f"{SHARDED_SCENARIO['clients']} clients, "
        f"{SHARDED_SCENARIO['sim_time']:.0f} sim s)",
        ["metric", "value"], rows,
    ))
    summary = {
        "scenario": SHARDED_SCENARIO,
        "serial": serial,
        "parallel": parallel,
        "speedup": round(speedup, 3),
    }
    return summary, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rounds", type=int, default=5, help="timed repetitions (best-of)"
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.20,
        help="allowed events/sec drop vs baseline (fraction, default 0.20)",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="record this run as the new baseline instead of gating",
    )
    parser.add_argument(
        "--flight-tolerance", type=float, default=0.10,
        help="allowed events/sec overhead of the flight recorder "
             "(fraction vs this run's recorder-off speed, default 0.10)",
    )
    parser.add_argument(
        "--skip-flight", action="store_true",
        help="skip the flight-recorder overhead guard",
    )
    parser.add_argument(
        "--des-jobs", type=int, default=0, metavar="N",
        help="also run the G=4 sharded scenario at jobs=1 and jobs=N and "
             "gate byte-identity of the two runs (0 = skip)",
    )
    args = parser.parse_args()

    run = measure(args.rounds)
    rows = [
        ["events processed", f"{run['events']:,}"],
        ["best wall clock", f"{run['wall_seconds']:.3f} s"],
        ["events/sec", f"{run['events_per_sec']:,.0f}"],
        ["sim s / wall s", f"{run['sim_seconds_per_wall_second']:.1f}"],
    ]
    print(format_table("DES core speed (marlin, f=1, 512 clients, 40 sim s)",
                       ["metric", "value"], rows))

    sharded_summary = None
    sharded_failures: list[str] = []
    if args.des_jobs > 0:
        sharded_summary, sharded_failures = sharded_section(
            args.des_jobs, max(1, args.rounds // 2)
        )

    if args.write_baseline:
        # Carry the baseline lineage forward: the history list keeps
        # every replaced events/sec figure so speed claims stay auditable
        # across machine changes.
        history: list[dict] = []
        try:
            old = json.loads(BASELINE_PATH.read_text())
        except (OSError, ValueError):
            old = None
        if old is not None:
            prior = old.get("history", [])
            history.extend(prior if isinstance(prior, list) else [prior])
            history.append({
                "replaced_events_per_sec": old.get("events_per_sec"),
                "replaced_events": old.get("events"),
                "note": "baseline replaced by --write-baseline; absolute "
                        "events/sec figures are machine- and load-dependent, "
                        "compare only within one recording",
            })
        baseline = {"scenario": SCENARIO, **run, "history": history}
        if sharded_summary is not None:
            sharded_summary = dict(sharded_summary)
            sharded_summary["note"] = (
                "wall-clock speedup of jobs=N over jobs=1 requires N hardware "
                "cores; on fewer cores the spawn workers time-slice one core "
                "and the section only evidences byte-identical determinism"
            )
            baseline["sharded"] = sharded_summary
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 1 if sharded_failures else 0

    failures = list(sharded_failures)
    try:
        baseline = json.loads(BASELINE_PATH.read_text())
    except (OSError, ValueError) as exc:
        print(f"FAIL: cannot read baseline {BASELINE_PATH}: {exc}", file=sys.stderr)
        return 1

    if run["events"] != baseline["events"]:
        failures.append(
            f"event count {run['events']} != baseline {baseline['events']} "
            "— simulator behaviour changed, regenerate the baseline deliberately"
        )
    floor = baseline["events_per_sec"] * (1.0 - args.tolerance)
    delta = run["events_per_sec"] / baseline["events_per_sec"] - 1
    print(
        f"events/sec vs baseline {baseline['events_per_sec']:,.0f}: {delta * 100:+.1f}% "
        f"(floor at -{args.tolerance * 100:.0f}%)"
    )
    if run["events_per_sec"] < floor:
        failures.append(
            f"events/sec {run['events_per_sec']:,.0f} fell more than "
            f"{args.tolerance * 100:.0f}% below baseline {baseline['events_per_sec']:,.0f}"
        )

    if not args.skip_flight:
        # Flight-recorder overhead guard: same scenario, same rounds,
        # recorder armed.  Compared against *this run's* recorder-off
        # speed, not the committed baseline, so the guard is
        # machine-independent.  The event count must not move at all —
        # the recorder observes the simulation, it must never steer it.
        flight_run = measure(args.rounds, flight=True)
        if flight_run["events"] != run["events"]:
            failures.append(
                f"flight recorder changed the event count: "
                f"{flight_run['events']} != {run['events']}"
            )
        overhead = 1.0 - flight_run["events_per_sec"] / run["events_per_sec"]
        print(
            f"flight recorder overhead: {overhead * 100:+.1f}% "
            f"({flight_run['events_per_sec']:,.0f} vs {run['events_per_sec']:,.0f} ev/s, "
            f"cap {args.flight_tolerance * 100:.0f}%)"
        )
        if overhead > args.flight_tolerance:
            failures.append(
                f"flight recorder costs {overhead * 100:.1f}% events/sec, "
                f"over the {args.flight_tolerance * 100:.0f}% budget"
            )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("OK: DES core speed within tolerance of the recorded baseline")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
