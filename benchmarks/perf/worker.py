"""Run one workload in this process and print one JSON record.

``run.py`` starts a fresh interpreter per workload so that peak RSS is
the workload's own high-water mark and a crash or hang costs one
workload, not the run.  The record goes to the last line of stdout.

Two passes exist.  The *timed* pass repeats the workload with tracing
off and reports every end-to-end metric as the median over repetitions.
The *traced* pass runs one untraced and one profiled repetition, then
reads work counters and runs the direct probes; it reports per-layer
metrics only and never feeds an end-to-end number.
"""

from __future__ import annotations

import argparse
import cProfile
import datetime
import json
import os
import resource
import statistics
import sys
import time
from typing import Any

MIN_REPS = 3


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def summarise(values: list[float]) -> dict[str, Any]:
    """Median, quartiles and count of one metric's repetitions."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _check_exact(reps: list[Any]) -> list[str]:
    """Simulated results must not differ between repetitions of one seed."""
    first = reps[0].exact
    return [
        f"simulated results differ between repetitions: rep {i} {rep.exact} != rep 0 {first}"
        for i, rep in enumerate(reps[1:], start=1)
        if rep.exact != first
    ]


def timed_pass(workload: Any, args: argparse.Namespace) -> dict[str, Any]:
    reps = []
    started = time.perf_counter()
    while True:
        reps.append(workload.rep(args.seed, args.scale))
        if args.reps is not None:
            if len(reps) >= args.reps:
                break
            continue
        elapsed = time.perf_counter() - started
        # Start another repetition only while at least half of it fits.
        if len(reps) >= MIN_REPS and elapsed + 0.5 * elapsed / len(reps) > args.seconds:
            break
    errors = [error for rep in reps for error in rep.errors] + _check_exact(reps)
    samples = {
        "host_cpu_s": [rep.cpu_s for rep in reps],
        "ops_per_s": [rep.ops_per_s for rep in reps],
        "p50_ms": [rep.p50_ms for rep in reps],
        "tail_ms": [rep.tail_ms for rep in reps],
    }
    metrics = {name: summarise(values) for name, values in samples.items()}
    for name in reps[0].exact:
        if name in metrics:
            metrics[name]["exact"] = True
    info = {
        "host_wall_s": summarise([rep.wall_s for rep in reps]),
        "host_cpu_ms_per_op": summarise([rep.cpu_s / max(rep.ops, 1) * 1e3 for rep in reps]),
        "ops_per_rep": reps[0].ops,
        "exact": reps[0].exact,
    }
    return {
        "reps": len(reps),
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "errors": errors,
        "metrics": metrics,
        "info": info,
    }


def traced_pass(workload: Any, args: argparse.Namespace) -> dict[str, Any]:
    import layers
    import probes

    untraced = workload.rep(args.seed, args.scale)
    profiler = cProfile.Profile()
    traced = workload.rep(args.seed, args.scale, profiler)
    errors = untraced.errors + traced.errors + _check_exact([untraced, traced])
    values = layers.attribute(profiler, traced.wall_s, traced.ops)
    values["trace.overhead_ratio"] = traced.cpu_s / untraced.cpu_s
    values.update(workload.counts(args.seed, args.scale, traced, untraced))
    values.update(probes.run_all(args.scale, args.tmp))
    return {
        "reps": 1,
        "attempted": untraced.attempted,
        "failed": untraced.failed,
        "errors": errors,
        "metrics": {name: {"value": value, "n": 1} for name, value in values.items()},
        "info": {"ops_per_rep": traced.ops, "exact": traced.exact},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, help="checkout whose src/ is measured")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--reps", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--t0", type=float, required=True, help="launcher's time.monotonic()")
    parser.add_argument("--tmp", required=True, help="scratch directory inside the checkout")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    started = _now()
    sys.path.insert(0, os.path.join(args.root, "src"))
    import workloads

    workload = workloads.build(args.tmp)[args.workload]
    try:
        workload.warm_up(args.seed)
        setup_s = time.monotonic() - args.t0
        record: dict[str, Any] = {"workload": args.workload, "setup_s": setup_s}
        if not args.setup_only:
            if args.trace:
                record.update(traced_pass(workload, args))
            else:
                record.update(timed_pass(workload, args))
                peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                record["metrics"]["host_peak_rss_mb"] = {"value": peak_kib / 1024.0, "n": 1}
            record.update(
                seed=args.seed,
                trace=args.trace,
                scale=args.scale,
                params=workload.params(args.scale),
                started=started,
                ended=_now(),
            )
    except workloads.BenchError as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 3
    finally:
        if os.path.isdir(args.tmp) and not os.listdir(args.tmp):
            os.rmdir(args.tmp)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
