#!/usr/bin/env python3
"""The perf benchmark: six workloads, end-to-end metrics, layer attribution.

Usage (from the repository root)::

    python benchmarks/perf/run.py                      # all workloads, timed pass
    python benchmarks/perf/run.py --trace --out r.json  # plus the traced pass
    python benchmarks/perf/run.py --workload des_f1 --seed 7 --seconds 12 --trace 0
    python benchmarks/perf/run.py --smoke               # everything at 1/20 size
    python benchmarks/perf/run.py --compare A.json B.json
    python benchmarks/perf/run.py --pairs 10 PARENT_CHECKOUT CHANGE_CHECKOUT

Metric names, units, directions and bounds live in ``BENCHMARK.json`` at
the repository root; see ``README.md`` beside this file for what each
workload and metric means.  With a single ``--workload`` the last line of
stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``).

This file only launches ``worker.py`` subprocesses and formats their
records; it never imports ``repro``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from worker import summarise  # stdlib-only at import time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

SMOKE_SCALE = 0.05
#: One invocation must end within the contract's 180 s; leave headroom.
RUN_DEADLINE_S = 170.0
SETUP_TIMEOUT_S = 45.0
SETUP_LAUNCHES = 3


def load_spec() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# launching workers


def launch(
    root: Path,
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    scale: float,
    reps: int | None,
    setup_only: bool,
    timeout: float,
) -> dict[str, Any]:
    """One worker subprocess; its record, or ``{"failure": reason}``."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--root", str(root),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--scale", str(scale),
        "--tmp", str(root / ".bench_tmp"),
        "--t0", repr(time.monotonic()),
    ]  # fmt: skip
    if reps is not None:
        command += ["--reps", str(reps)]
    if setup_only:
        command.append("--setup-only")
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=max(timeout, 1.0), cwd=root
        )
    except subprocess.TimeoutExpired:
        return {"failure": f"{workload}: no result within the {timeout:.0f} s hard timeout"}
    if done.returncode != 0:
        tail = " | ".join(done.stderr.strip().splitlines()[-3:])
        return {"failure": f"{workload}: worker exited with code {done.returncode}: {tail}"}
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"failure": f"{workload}: worker printed no record"}


def run_workload(
    root: Path, workload: str, seed: int, seconds: float, trace: int, scale: float, reps: int | None
) -> dict[str, Any]:
    """One pass over one workload, under the invocation's deadline.

    The timed pass launches the worker ``SETUP_LAUNCHES`` times — all but
    the last stop after set-up — and reports the median set-up time.
    """
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups = []
    if not trace:
        for _ in range(SETUP_LAUNCHES - 1):
            cold = launch(root, workload, seed, seconds, 0, scale, reps, True, SETUP_TIMEOUT_S)
            if "failure" in cold:
                return cold
            setups.append(cold["setup_s"])
    record = launch(
        root, workload, seed, seconds, trace, scale, reps, False, deadline - time.monotonic()
    )
    if "failure" in record or trace:
        return record
    setups.append(record["setup_s"])
    record["metrics"]["setup_s"] = summarise(setups)
    return record


def is_correct(record: dict[str, Any]) -> bool:
    return "failure" not in record and not record["errors"] and record["failed"] == 0


def failed_frac(record: dict[str, Any]) -> float:
    """failed / attempted; any failed correctness check makes it 1."""
    if "failure" in record or record["errors"]:
        return 1.0
    return record["failed"] / record["attempted"]


# ---------------------------------------------------------------------------
# describing and printing a result set


def describe_host(root: Path) -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=root, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "commit": commit or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.platform(),
    }


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _short(entry: dict[str, Any] | None) -> str:
    """median [q1..q3] n=N of one metric; a single sample prints alone."""
    if entry is None:
        return "n/a"
    if entry.get("n", 1) < 2:
        return f"{entry['value']:.5g}"
    return f"{entry['value']:.5g} [{entry['q1']:.5g}..{entry['q3']:.5g}] n={entry['n']}"


def print_results(results: dict[str, Any], spec: dict[str, Any]) -> None:
    """The human-readable tables, from the same records the JSON holds."""
    print(
        f"# perf benchmark  commit={results['commit']}  python={results['python']}  "
        f"nproc={results['nproc']}  seed={results['seed']}  scale={results['scale']}"
    )
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, passes in results["workloads"].items():
        for kind in ("timed", "traced"):
            record = passes.get(kind)
            if record is None:
                continue
            print(f"\n## {name} ({kind} pass)")
            if "failure" in record:
                print(f"FAILED: {record['failure']}\nfailed_frac = 1")
                continue
            print(f"params: {json.dumps(record['params'], sort_keys=True)}")
            print(
                f"repetitions={record['reps']}  attempted={record['attempted']}  "
                f"failed={record['failed']}  failed_frac={failed_frac(record):g}"
            )
            for error in record["errors"]:
                print(f"CORRECTNESS: {error}")
            listed = spec["end_to_end"] if kind == "timed" else spec["per_layer"]
            for metric in listed:
                entry = record["metrics"].get(metric["name"])
                print(f"  {metric['name']:34} {_short(entry)}  {units[metric['name']]}")
            for key, entry in record.get("info", {}).items():
                if isinstance(entry, dict) and "value" in entry:
                    print(f"  ({key:34}) {_short(entry)}")


def contract_line(record: dict[str, Any], spec: dict[str, Any], trace: int) -> str:
    """The single-workload result object the benchmark contract asks for."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for metric in listed:
        entry = record["metrics"].get(metric["name"])
        # A layer metric a workload does not exercise reads 0 (see README).
        value = entry["value"] if entry is not None else 0.0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return json.dumps(
        {
            "correct": is_correct(record),
            "attempted": record["attempted"],
            # A failed correctness check fails every request of the run.
            "failed": record["attempted"] if record["errors"] else record["failed"],
            "metrics": metrics,
        }
    )


# ---------------------------------------------------------------------------
# --compare and --pairs


def _worse_by(metric: dict[str, Any], base: float, other: float) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    change = (other - base) / abs(base) if base else float(other != base)
    return change if metric["better"] == "lower" else -change


def _spread(entry: dict[str, Any]) -> float:
    if entry.get("n", 1) < 2 or not entry["value"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(entry["value"])


def judge(metric: dict[str, Any], a: dict[str, Any], b: dict[str, Any], same_inputs: bool) -> str:
    worse = _worse_by(metric, a["value"], b["value"])
    if a.get("exact") and b.get("exact") and same_inputs:
        if a["value"] == b["value"]:
            return "ok"
        return "regressed" if worse > 0 else "changed"
    if worse > metric["bound"]:
        return "regressed"
    if max(_spread(a), _spread(b)) > metric["bound"]:
        return "unresolved"
    return "ok"


def compare(path_a: str, path_b: str, spec: dict[str, Any]) -> int:
    """Every (end-to-end metric, workload): A, B, ratio and verdict."""
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    same_inputs = (a["seed"], a["scale"]) == (b["seed"], b["scale"])
    print(f"A = {path_a} (commit {a['commit']})\nB = {path_b} (commit {b['commit']})")
    print(f"{'workload':13} {'metric':18} {'A median [q1..q3]':34} {'B median [q1..q3]':34} "
          f"{'B/A':>8}  verdict")
    verdicts: list[str] = []
    for name in a["workloads"]:
        rec_a = a["workloads"][name].get("timed")
        rec_b = b["workloads"].get(name, {}).get("timed")
        if rec_a is None or rec_b is None:
            continue
        frac_a, frac_b = failed_frac(rec_a), failed_frac(rec_b)
        verdict = "ok" if frac_b <= frac_a else "regressed"
        verdicts.append(verdict)
        print(f"{name:13} {'failed_frac':18} {frac_a:<34g} {frac_b:<34g} {'':>8}  {verdict}")
        if "failure" in rec_a or "failure" in rec_b:
            continue
        exact_a, exact_b = rec_a["info"]["exact"], rec_b["info"]["exact"]
        if same_inputs and exact_a:
            differing = sorted(k for k in exact_a if exact_a[k] != exact_b.get(k))
            verdict = "changed: " + ",".join(differing) if differing else "ok"
            verdicts.append(verdict.split(":")[0])
            print(f"{name:13} {'sim_exact':18} {len(exact_a)} simulated values{'':48} {'':>8}  {verdict}")
        for metric in spec["end_to_end"]:
            ea = rec_a["metrics"][metric["name"]]
            eb = rec_b["metrics"][metric["name"]]
            verdict = judge(metric, ea, eb, same_inputs)
            verdicts.append(verdict)
            ratio = eb["value"] / ea["value"] if ea["value"] else float("nan")
            print(f"{name:13} {metric['name']:18} {_short(ea):34} {_short(eb):34} "
                  f"{ratio:8.4f}  {verdict}")
    counts = {v: verdicts.count(v) for v in ("ok", "changed", "unresolved", "regressed")}
    print("summary (ratios are B over base A): " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    return 1 if counts["regressed"] or counts["unresolved"] or counts["changed"] else 0


def pairs(args: argparse.Namespace, spec: dict[str, Any], names: list[str]) -> int:
    """Interleave N runs of two checkouts; report medians and win share.

    Both sides run this file's benchmark code against their own ``src/``,
    alternating which goes first; pair ``i`` uses ``seed + i`` on both.
    """
    count = int(args.pairs[0])
    roots = [Path(p).resolve() for p in args.pairs[1:]]
    if count < 10:
        print("--pairs needs N >= 10 for a win share to mean anything", file=sys.stderr)
        return 2
    values: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for i in range(count):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for name in names:
            pair: dict[int, dict[str, Any]] = {}
            for side in order:
                print(f"pair {i + 1}/{count} {name} {'AB'[side]}", file=sys.stderr)
                pair[side] = run_workload(
                    roots[side], name, args.seed + i, args.seconds, 0, 1.0, args.reps
                )
            if not (is_correct(pair[0]) and is_correct(pair[1])):
                print(f"pair {i + 1} {name}: a side failed; pair dropped", file=sys.stderr)
                continue
            for metric in spec["end_to_end"]:
                values.setdefault((name, metric["name"]), []).append(
                    (pair[0]["metrics"][metric["name"]]["value"],
                     pair[1]["metrics"][metric["name"]]["value"])
                )  # fmt: skip
    print(f"A = {roots[0]}\nB = {roots[1]}\n{count} pairs, alternating order")
    print(f"{'workload':13} {'metric':18} {'A median [q1..q3]':34} {'B median [q1..q3]':34} "
          f"{'B/A':>8} {'B wins':>7}  verdict")
    by_name = {m["name"]: m for m in spec["end_to_end"]}
    for (name, metric_name), rows in values.items():
        metric = by_name[metric_name]
        side_a = summarise([row[0] for row in rows])
        side_b = summarise([row[1] for row in rows])
        wins = sum(1 for x, y in rows if _worse_by(metric, x, y) < 0)
        losses = sum(1 for x, y in rows if _worse_by(metric, x, y) > 0)
        gap = abs(side_b["value"] - side_a["value"])
        if wins >= 0.9 * count and gap > side_a["q3"] - side_a["q1"]:
            verdict = "gain"
        elif losses >= 0.9 * count and _worse_by(metric, side_a["value"], side_b["value"]) > metric["bound"]:
            verdict = "regressed"
        else:
            verdict = judge(metric, side_a, side_b, False)
        print(f"{name:13} {metric_name:18} {_short(side_a):34} {_short(side_b):34} "
              f"{side_b['value'] / side_a['value']:8.4f} {wins:>3}/{len(rows):<3}  {verdict}")
    return 0


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="timed length of one pass (default: run_seconds)")
    parser.add_argument("--reps", type=int, help="exact repetition count, instead of --seconds")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="traced pass: per-layer metrics (with --workload: only those)")
    parser.add_argument("--smoke", action="store_true", help="every workload at ~1/20 size, both passes")
    parser.add_argument("--out", help="write the full result set as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--pairs", nargs=3, metavar=("N", "CHECKOUT_A", "CHECKOUT_B"))
    args = parser.parse_args()

    spec = load_spec()
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no src/repro under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    known = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        print(f"run.py: unknown workload {args.workload!r}; pick from {known}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else known
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.pairs:
        return pairs(args, spec, names)

    scale = SMOKE_SCALE if args.smoke else 1.0
    reps = 2 if args.smoke and args.reps is None else args.reps
    # One workload runs the one pass --trace names (the contract's call);
    # the whole set runs the timed pass, plus the traced one on request.
    if args.workload:
        kinds = ["traced" if args.trace else "timed"]
    else:
        kinds = ["timed", "traced"] if args.trace or args.smoke else ["timed"]
    results: dict[str, Any] = {
        "benchmark": "benchmarks/perf",
        **describe_host(ROOT),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": scale,
        "started": _now(),
        "workloads": {},
    }
    for name in names:
        results["workloads"][name] = {
            kind: run_workload(ROOT, name, args.seed, args.seconds, int(kind == "traced"), scale, reps)
            for kind in kinds
        }
    results["ended"] = _now()
    print_results(results, spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
        print(f"\nwrote {args.out}")
    records = [r for passes in results["workloads"].values() for r in passes.values()]
    if len(records) == 1 and "failure" not in records[0]:
        print(contract_line(records[0], spec, args.trace))
    return 0 if all(is_correct(r) for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
