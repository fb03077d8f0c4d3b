"""Command-line interface: run paper experiments from a shell.

Usage (installed, or ``python -m repro``):

    python -m repro curve      --protocol marlin --f 1
    python -m repro point      --protocol hotstuff --f 2 --clients 16384
    python -m repro peak       --f 1
    python -m repro viewchange --f 1 --unhappy
    python -m repro rotate     --crashed 3
    python -m repro table1     --f 2
    python -m repro fuzz       --seed 7 --protocol chained-marlin
    python -m repro trace      --protocol marlin --n 4 --out trace.json
    python -m repro metrics    --protocol marlin --f 1 --json metrics.json
    python -m repro client     --protocol marlin --clients 64 --reads leader-lease
    python -m repro shard      --shards 4 --clients 16384
    python -m repro latency    --protocol marlin --clients 512 --json waterfall.json

Every command prints a small report; exit code 0 means the run completed
and passed the safety audit.  ``--log-level debug`` surfaces the
replicas' structured logs on stderr.
"""

from __future__ import annotations

import argparse
import sys

from repro.harness.report import format_table, ktx, ms
from repro.obs.log import LOG_LEVELS, configure_cli_logging, get_logger

log = get_logger("repro.cli")


def _cmd_point(args: argparse.Namespace) -> None:
    from repro.api import PipelineConfig, Scenario, load_point

    observability = None
    if args.metrics_out:
        from repro.api import RunObservability

        observability = RunObservability(trace=False)
    pipeline = PipelineConfig() if args.batching else None
    result = load_point(
        Scenario(
            protocol=args.protocol, f=args.f, clients=args.clients,
            sim_time=args.sim_time, warmup=args.warmup, pipeline=pipeline,
        ),
        observability=observability,
    )
    print(f"{args.protocol} f={args.f}: {result.as_row()}")
    if result.phase_latency:
        for phase, stats in sorted(result.phase_latency.items()):
            print(
                f"  {phase:<12} mean={stats['mean'] * 1000:7.2f} ms  "
                f"p50={stats['p50'] * 1000:7.2f} ms  "
                f"p99={stats['p99'] * 1000:7.2f} ms  (n={int(stats['count'])})"
            )
    if observability is not None:
        observability.write_json(args.metrics_out)
        log.info("wrote %s", args.metrics_out)


def _cmd_curve(args: argparse.Namespace) -> None:
    from repro.api import Scenario, peak_at_latency_cap, throughput_curve

    curve = throughput_curve(
        Scenario(protocol=args.protocol, f=args.f, sim_time=args.sim_time),
        jobs=args.jobs,
        use_cache=not args.no_cache,
    )
    rows = [
        [str(p.clients), ktx(p.throughput_tps), ms(p.mean_latency), ms(p.p99_latency)]
        for p in curve
    ]
    print(
        format_table(
            f"throughput vs latency ({args.protocol}, f={args.f})",
            ["clients", "ktx/s", "lat ms", "p99 ms"],
            rows,
        )
    )
    print(f"\npeak @ latency cap: {ktx(peak_at_latency_cap(curve))} ktx/s")
    if args.csv:
        import csv

        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["protocol", "f", "clients", "throughput_tps", "mean_latency_s", "p99_latency_s"]
            )
            for p in curve:
                writer.writerow(
                    [args.protocol, args.f, p.clients, f"{p.throughput_tps:.1f}",
                     f"{p.mean_latency:.6f}", f"{p.p99_latency:.6f}"]
                )
        log.info("wrote %s", args.csv)


def _cmd_peak(args: argparse.Namespace) -> None:
    from repro.api import Scenario, peak_throughput

    rows = []
    peaks: dict[str, float] = {}
    for protocol in ("marlin", "hotstuff"):
        peak, _ = peak_throughput(
            Scenario(protocol=protocol, f=args.f, sim_time=args.sim_time),
            jobs=args.jobs,
            use_cache=not args.no_cache,
            strategy=args.strategy,
        )
        peaks[protocol] = peak
        rows.append([protocol, ktx(peak)])
    print(format_table(f"peak throughput (f={args.f})", ["protocol", "ktx/s"], rows))
    if args.save:
        from repro.harness.results import ResultStore

        store = ResultStore(meta={"experiment": "peak", "f": str(args.f)})
        store.record_many(f"peak.f{args.f}", peaks)
        store.save(args.save)
        log.info("wrote %s", args.save)


def _cmd_compare(args: argparse.Namespace) -> None:
    from repro.harness.results import ResultStore, compare

    before = ResultStore.load(args.before)
    after = ResultStore.load(args.after)
    deltas = compare(before, after, tolerance=args.tolerance)
    if not deltas:
        print(f"no changes beyond {args.tolerance * 100:.0f}% tolerance "
              f"({len(after)} metrics compared)")
        return
    for delta in deltas:
        print(delta.render())
    raise SystemExit(1)


def _cmd_viewchange(args: argparse.Namespace) -> None:
    from repro.api import view_change_latency

    result = view_change_latency(args.protocol, args.f, force_unhappy=args.unhappy)
    print(
        f"{args.protocol} ({result.path}) f={args.f}: "
        f"view change latency {ms(result.latency)} ms "
        f"(views crossed: {result.views_crossed})"
    )


def _cmd_rotate(args: argparse.Namespace) -> None:
    from repro.api import rotating_leader_throughput

    rows = []
    for protocol in ("marlin", "hotstuff"):
        point = rotating_leader_throughput(
            protocol, f=args.f, crashed=args.crashed, clients=args.clients,
            sim_time=args.sim_time,
        )
        rows.append([protocol, ktx(point.throughput_tps), ms(point.mean_latency)])
    print(
        format_table(
            f"rotating leaders, {args.crashed} crashed (f={args.f})",
            ["protocol", "ktx/s", "lat ms"],
            rows,
        )
    )


def _cmd_table1(args: argparse.Namespace) -> None:
    from repro.api import measure_view_change_cost
    from repro.harness.analytical import TABLE_I

    rows = [
        [row.protocol, row.vc_communication, row.vc_authenticators, row.vc_phases]
        for row in TABLE_I
    ]
    print(format_table("Table I (analytical)", ["protocol", "vc comm", "vc auth", "phases"], rows))
    measured = []
    for label, protocol, unhappy in (
        ("marlin-happy", "marlin", False),
        ("marlin-unhappy", "marlin", True),
        ("hotstuff", "hotstuff", False),
        ("fast-hotstuff", "fast-hotstuff", False),
    ):
        cost = measure_view_change_cost(protocol, args.f, force_unhappy=unhappy)
        measured.append(
            [
                label,
                str(cost.n),
                str(cost.vc_messages),
                str(cost.vc_bytes),
                str(cost.vc_authenticators),
                f"{cost.vc_authenticators / cost.n:.1f}",
                str(cost.phases_to_commit),
            ]
        )
    print(
        format_table(
            f"Table I (measured): view-change-only cost of a leader crash (f={args.f})",
            ["variant", "n", "vc msgs", "vc bytes", "vc auth", "auth/n", "phases"],
            measured,
        )
    )


def _cmd_trace(args: argparse.Namespace) -> None:
    from repro.api import Scenario, traced_run

    f = max(1, (args.n - 1) // 3)
    cluster, obs = traced_run(
        Scenario(protocol=args.protocol, f=f, seed=args.seed),
        sim_time=args.sim_time,
        crash_leader_at=args.crash_at,
        force_unhappy=args.unhappy,
    )
    obs.write_chrome_trace(args.out)
    committed = [
        s for s in obs.tracer.spans_named("block") if s.meta.get("committed")
    ]
    n = cluster.experiment.cluster.num_replicas
    print(
        f"{args.protocol} n={n} f={f} seed={args.seed}: "
        f"{len(obs.tracer.spans)} spans, {len(obs.tracer.instants)} instants, "
        f"{len(committed)} committed block spans"
    )
    for phase, stats in sorted(obs.phase_latency_summary().items()):
        print(
            f"  {phase:<12} mean={stats['mean'] * 1000:7.2f} ms  "
            f"p99={stats['p99'] * 1000:7.2f} ms  (n={int(stats['count'])})"
        )
    print(f"wrote {args.out} (open it at https://ui.perfetto.dev)")
    if args.text:
        print(obs.tracer.render_text(limit=args.limit))


def _cmd_metrics(args: argparse.Namespace) -> None:
    from repro.api import RunObservability, Scenario, load_point

    obs = RunObservability(trace=False)
    result = load_point(
        Scenario(
            protocol=args.protocol, f=args.f, clients=args.clients,
            sim_time=args.sim_time, warmup=args.warmup,
        ),
        observability=obs,
    )
    print(f"{args.protocol} f={args.f}: {result.as_row()}")
    cluster_view = obs.registry.aggregate(drop_labels=("replica",)).snapshot()
    rows = []
    for name, series_list in sorted(cluster_view["counters"].items()):
        total = sum(series["value"] for series in series_list)
        rows.append([name, f"{int(total)}"])
    print(format_table("cluster counters", ["metric", "total"], rows))
    if result.phase_latency:
        phase_rows = [
            [phase, f"{s['mean'] * 1000:.2f}", f"{s['p50'] * 1000:.2f}",
             f"{s['p99'] * 1000:.2f}", str(int(s["count"]))]
            for phase, s in sorted(result.phase_latency.items())
        ]
        print(
            format_table(
                "phase latency", ["phase", "mean ms", "p50 ms", "p99 ms", "n"], phase_rows
            )
        )
    if args.json:
        obs.write_json(args.json)
        log.info("wrote %s", args.json)
    if args.prom:
        with open(args.prom, "w") as fh:
            fh.write(obs.registry.render_prometheus())
        log.info("wrote %s", args.prom)


def _cmd_client(args: argparse.Namespace) -> None:
    from repro.api import ClientConfig
    from repro.harness.des_runtime import DESCluster
    from repro.harness.scenarios import _experiment
    from repro.harness.workload import ClosedLoopClients

    config = ClientConfig(
        mode="real",
        reads=args.reads,
        retry_timeout=args.retry_timeout,
        max_inflight=args.max_inflight,
    )
    base_timeout = 2.0 if args.crash_leader_at is not None else 120.0
    experiment = _experiment(
        args.f, seed=args.seed, base_timeout=base_timeout, max_timeout=240.0
    )
    cluster = DESCluster(experiment, protocol=args.protocol, crypto_mode="null")
    pool = ClosedLoopClients(
        cluster,
        num_clients=args.clients,
        token_weight=1,
        target="leader",
        warmup=args.warmup,
        mode="real",
        client_config=config,
    )
    cluster.start()
    cluster.sim.schedule(0.01, pool.start)
    if args.crash_leader_at is not None:
        cluster.crash_at(0, args.crash_leader_at)  # replica 0 leads view 1
    cluster.run(until=args.sim_time)
    cluster.assert_safety()
    summary = pool.summary()
    duration = args.sim_time - args.warmup
    print(
        f"{args.protocol} f={args.f}: {args.clients} protocol clients, "
        f"reads={args.reads}"
        + (f", leader crashed at {args.crash_leader_at:.1f}s" if args.crash_leader_at else "")
    )
    rows = [
        ["throughput", f"{pool.throughput.throughput(duration=duration):.1f} tx/s"],
        ["mean latency", f"{ms(summary['mean_latency'])} ms"],
        ["p99 latency", f"{ms(summary['p99_latency'])} ms"],
        ["certified", str(pool.certified)],
        ["retransmits", str(pool.retransmits)],
        ["replays (dedup)", str(pool.replays)],
        ["shed (admission)", str(pool.shed)],
        ["reply mismatches", str(pool.reply_mismatches)],
        ["blocks committed", str(max(r.stats["blocks_committed"] for r in cluster.replicas))],
    ]
    print(format_table("client path", ["metric", "value"], rows))


def _cmd_audit(args: argparse.Namespace) -> None:
    from repro.harness.audit import SWEEP_SIZES, audited_run, complexity_sweep

    report = audited_run(
        protocol=args.protocol,
        n=args.n,
        sim_time=args.sim_time,
        seed=args.seed,
        byzantine=args.byzantine,
        dump=args.dump,
        dump_dir=args.dump_dir,
    )
    print(report.render())
    sweep = None
    if not args.skip_sweep:
        sizes = sorted(set([s for s in SWEEP_SIZES if s <= args.n] + [args.n]))
        sweep = complexity_sweep(
            args.protocol, sizes=sizes, seed=args.seed, max_slope=args.max_slope
        )
        print()
        print(sweep.render())
    if args.json:
        import json

        artifact = {"run": report.to_dict()}
        if sweep is not None:
            artifact["sweep"] = sweep.to_dict()
        with open(args.json, "w") as fh:
            json.dump(artifact, fh, indent=2, sort_keys=True)
        log.info("wrote %s", args.json)
    if args.byzantine != "none":
        # Fault-injection mode: success means the auditor caught the attack.
        if report.audit["ok"]:
            print(f"audit FAILED to detect the injected {args.byzantine}")
            raise SystemExit(1)
        print(f"auditor detected the injected {args.byzantine}")
        return
    failed = not report.ok or (sweep is not None and not sweep.linear)
    if failed:
        raise SystemExit(1)


def _cmd_adversary(args: argparse.Namespace) -> None:
    """``repro adversary``: scenario × protocol × seed campaign grid.

    Exit 0 iff every cell lands where its scenario expects it: violations
    detected exactly where declared, zero false positives elsewhere.
    ``--list`` enumerates the scenario and behaviour registries instead.
    """
    from repro.adversary import behavior_kinds, list_scenarios, run_campaign

    if args.list:
        print("scenarios:")
        for name, summary in list_scenarios().items():
            print(f"  {name:30} {summary}")
        print()
        print("behaviors:")
        for name, summary in behavior_kinds().items():
            print(f"  {name:30} {summary}")
        return

    result = run_campaign(
        scenarios=args.scenario or None,
        protocols=tuple(args.protocols),
        seeds=tuple(args.seeds),
        n=args.n,
        sim_time=args.sim_time,
        crypto=args.crypto,
        learners=args.learners,
        jobs=args.jobs,
        use_cache=args.cache,
    )
    print(result.render())
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(
                result.to_dict(include_reports=args.reports),
                fh, indent=2, sort_keys=True,
            )
        log.info("wrote %s", args.json)
    if not result.ok:
        raise SystemExit(1)


def _cmd_shard(args: argparse.Namespace) -> None:
    """``repro shard``: G key-routed consensus groups, audited per group.

    ``--jobs N`` runs the groups across N processes instead of one shared
    simulator.  Both engines feed one report, so the two outputs are
    byte-identical — diffing them is the cheapest end-to-end determinism
    check, and CI does exactly that.
    """
    from repro.harness.scenarios import _experiment, _token_weight
    from repro.shard import ShardConfig

    shard = ShardConfig(shards=args.shards, router=args.router, router_seed=args.seed)
    experiment = _experiment(
        args.f, seed=args.seed, base_timeout=120.0, max_timeout=240.0
    )
    options = dict(
        shard=shard,
        protocol=args.protocol,
        crypto_mode="null",
        audit=True,
        metrics=bool(args.metrics_out),
    )
    workload = dict(
        num_clients=args.clients,
        token_weight=_token_weight(args.clients),
        warmup=args.warmup,
    )
    if args.jobs > 1:
        from repro.shard.parallel import ParallelShardedCluster

        parallel = ParallelShardedCluster(experiment, jobs=args.jobs, **options)
        parallel.run_workload(sim_time=args.sim_time, **workload)
        results = parallel.group_results
    else:
        from repro.harness.workload import ShardedClosedLoopClients
        from repro.shard import ShardedCluster
        from repro.shard.cluster import read_group

        sharded = ShardedCluster(experiment, **options)
        pool = ShardedClosedLoopClients(sharded, **workload)
        sharded.start()
        sharded.sim.schedule(0.01, pool.start)
        sharded.run(until=args.sim_time)
        sharded.assert_safety()
        results = [read_group(g, sub) for g, sub in zip(sharded.groups, pool.pools)]
    _print_shard_report(args, results)


def _print_shard_report(args: argparse.Namespace, results: list) -> None:
    """Table, aggregate line, ``--metrics-out`` dump and audit exit code,
    from either engine's per-group :class:`~repro.shard.cluster.GroupResult`."""
    from repro.shard.cluster import merged_latency, merged_metrics_snapshot

    duration = args.sim_time - args.warmup
    per_shard_tps = [
        result.pool_ops / duration if duration > 0 else 0.0 for result in results
    ]
    rows = []
    for result, tps in zip(results, per_shard_tps):
        latency = merged_latency([result], window_start=args.warmup)
        report = result.audit_report or {"ok": True, "violations": []}
        rows.append(
            [
                str(result.shard_id),
                str(result.num_clients),
                ktx(tps),
                ms(latency.mean() if result.latency_samples else 0.0),
                str(result.misrouted_ops),
                "OK" if report["ok"] else f"{len(report['violations'])} violations",
            ]
        )
    merged = merged_latency(results, window_start=args.warmup)
    print(
        format_table(
            f"sharded run ({args.protocol}, G={args.shards}, f={args.f} per group)",
            ["shard", "clients", "ktx/s", "lat ms", "misrouted", "audit"],
            rows,
        )
    )
    print(
        f"\naggregate: {ktx(sum(per_shard_tps))} ktx/s  "
        f"lat(mean)={ms(merged.mean())} ms  lat(p99)={ms(merged.p99())} ms"
    )
    if args.metrics_out:
        import json

        snapshot = merged_metrics_snapshot(
            (r.shard_id, r.registry) for r in results if r.registry is not None
        )
        with open(args.metrics_out, "w") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
        log.info("wrote %s", args.metrics_out)
    violations = sum(
        len(r.audit_report.get("violations", [])) for r in results if r.audit_report
    )
    if violations:
        print(f"online audit: {violations} violation(s)")
        raise SystemExit(1)


def _cmd_latency(args: argparse.Namespace) -> None:
    from repro.api import Scenario, latency_breakdown
    from repro.obs.journey import slowest_journeys, waterfall_json, write_chrome_trace

    scenario = Scenario(
        protocol=args.protocol,
        f=args.f,
        clients=args.clients,
        sim_time=args.sim_time,
        warmup=args.warmup,
        seed=args.seed,
        shards=args.shards,
    )
    result, recorder = latency_breakdown(scenario, sample_rate=args.sample)
    waterfall = result.waterfall or {}
    stages = waterfall.get("stages", {})
    rows = [
        [
            stage,
            str(int(stats["count"])),
            ms(stats["mean"]),
            ms(stats["p50"]),
            ms(stats["p90"]),
            ms(stats["p99"]),
        ]
        for stage, stats in stages.items()  # already in causal stage order
    ]
    print(
        format_table(
            f"latency waterfall ({args.protocol}, f={args.f}, "
            f"{args.clients} clients, sample={args.sample:g})",
            ["stage", "n", "mean ms", "p50 ms", "p90 ms", "p99 ms"],
            rows,
        )
    )
    counts = waterfall.get("journeys", {})
    e2e = waterfall.get("end_to_end", {})
    print(
        f"\njourneys: {counts.get('sampled', 0)} sampled, "
        f"{counts.get('complete', 0)} complete in window, "
        f"{counts.get('retransmits', 0)} retransmits"
    )
    print(
        f"end-to-end: journey p50 {ms(e2e.get('journey_p50', 0.0))} ms, "
        f"stage-sum p50 {ms(e2e.get('stage_sum_p50', 0.0))} ms, "
        f"recorder p50 {ms(e2e.get('recorder_p50', 0.0))} ms"
        + (f", error {e2e['error'] * 100:.2f}%" if "error" in e2e else "")
    )
    slow = slowest_journeys(recorder, args.slowest, window_start=args.warmup)
    if slow:
        print(f"\nslowest {len(slow)} request(s):")
        for (client_id, sequence), total, chain in slow:
            top = max(
                (
                    (stage, end - start)
                    for (_l, start), (stage, end) in zip(chain, chain[1:])
                ),
                key=lambda item: item[1],
                default=("?", 0.0),
            )
            print(
                f"  client {client_id} seq {sequence}: {ms(total)} ms "
                f"(worst stage: {top[0]}, {ms(top[1])} ms)"
            )
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(waterfall_json(waterfall))
        log.info("wrote %s", args.json)
    if args.chrome_out:
        write_chrome_trace(
            args.chrome_out, recorder, k=args.slowest, window_start=args.warmup
        )
        log.info("wrote %s", args.chrome_out)
    if args.check is not None:
        error = e2e.get("error")
        if error is None:
            print("\nreconciliation: FAILED (no end-to-end reference recorded)")
            raise SystemExit(1)
        verdict = "OK" if error <= args.check else "FAILED"
        print(
            f"\nreconciliation: {verdict} "
            f"(stage-sum p50 within {error * 100:.2f}% of end-to-end p50, "
            f"tolerance {args.check * 100:.0f}%)"
        )
        if error > args.check:
            raise SystemExit(1)


def _cmd_fuzz(args: argparse.Namespace) -> None:
    from repro.adversary import fuzz_schedule

    report = fuzz_schedule(args.seed, protocol=args.protocol, f=args.f, sim_time=args.sim_time)
    print(f"fuzz seed={report.seed} protocol={report.protocol}")
    for event in report.events or ["(no adversarial events drawn)"]:
        print(f"  {event}")
    print(f"  committed heights: {report.committed_heights}")
    print(f"  ops committed    : {report.ops_committed}")
    print(f"  max view         : {report.max_view}")
    print(f"  safety           : {'OK' if report.safety_ok else 'VIOLATED'}")
    if not report.safety_ok:
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Marlin (DSN 2022) reproduction experiments",
    )
    parser.add_argument(
        "--log-level",
        default="warning",
        choices=LOG_LEVELS,
        help="stderr logging level for the run (default: warning)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, protocol: bool = True) -> None:
        if protocol:
            p.add_argument(
                "--protocol",
                default="marlin",
                choices=[
                    "marlin",
                    "hotstuff",
                    "chained-marlin",
                    "chained-hotstuff",
                    "fast-hotstuff",
                    "insecure",
                ],
            )
        p.add_argument("--f", type=int, default=1, help="fault tolerance (n = 3f+1)")
        p.add_argument("--sim-time", type=float, default=22.0)

    p = sub.add_parser("point", help="one closed-loop load point")
    common(p)
    p.add_argument("--clients", type=int, default=16384)
    p.add_argument("--warmup", type=float, default=7.0)
    p.add_argument(
        "--batching",
        action="store_true",
        help="enable vote batching and proposal pipelining (PipelineConfig defaults)",
    )
    p.add_argument(
        "--metrics-out",
        default=None,
        help="write the run's metrics registry (per-replica + cluster) to this JSON file",
    )
    p.set_defaults(func=_cmd_point)

    def add_sweep_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs", type=int, default=1,
            help="worker processes for the sweep (results identical to serial)",
        )
        p.add_argument(
            "--no-cache", action="store_true",
            help="skip the on-disk result cache ($REPRO_CACHE_DIR or ~/.cache/repro-marlin)",
        )

    p = sub.add_parser("curve", help="throughput-latency sweep (Fig. 10a-f)")
    add_sweep_args(p)
    common(p)
    p.add_argument("--csv", default=None, help="also write the curve to a CSV file")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("peak", help="peak throughput, both protocols (Fig. 10g)")
    add_sweep_args(p)
    p.add_argument(
        "--strategy", choices=("sweep", "bisect"), default="sweep",
        help="client-grid search: linear sweep (paper methodology) or bisection",
    )
    common(p, protocol=False)
    p.add_argument("--save", default=None, help="write metrics to a JSON result store")
    p.set_defaults(func=_cmd_peak)

    p = sub.add_parser("compare", help="diff two result stores (regression check)")
    p.add_argument("before")
    p.add_argument("after")
    p.add_argument("--tolerance", type=float, default=0.05)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("viewchange", help="view-change latency (Fig. 10i)")
    common(p)
    p.add_argument("--unhappy", action="store_true", help="force the pre-prepare path")
    p.set_defaults(func=_cmd_viewchange)

    p = sub.add_parser("rotate", help="rotating leaders under crashes (Fig. 10j)")
    common(p, protocol=False)
    p.set_defaults(f=3)
    p.add_argument("--crashed", type=int, default=0)
    p.add_argument("--clients", type=int, default=24576)
    p.set_defaults(func=_cmd_rotate)

    p = sub.add_parser("table1", help="complexity table, analytical + measured")
    common(p, protocol=False)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("trace", help="export a Chrome-trace of one observed run")
    p.add_argument(
        "--protocol",
        default="marlin",
        choices=[
            "marlin", "hotstuff", "chained-marlin", "chained-hotstuff",
            "fast-hotstuff", "insecure",
        ],
    )
    p.add_argument("--n", type=int, default=4, help="cluster size (f = (n-1)//3)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--sim-time", type=float, default=5.0)
    p.add_argument("--out", default="trace.json", help="Chrome trace_event output path")
    p.add_argument(
        "--crash-at", type=float, default=None,
        help="crash the view-1 leader at this time to capture a view change",
    )
    p.add_argument("--unhappy", action="store_true", help="force the pre-prepare path")
    p.add_argument("--text", action="store_true", help="also print the plain-text trace")
    p.add_argument("--limit", type=int, default=None, help="cap the text trace's rows")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("metrics", help="run one load point and report its metrics")
    common(p)
    p.add_argument("--clients", type=int, default=4096)
    p.add_argument("--warmup", type=float, default=7.0)
    p.add_argument("--json", default=None, help="write the metrics snapshot to JSON")
    p.add_argument("--prom", default=None, help="write Prometheus text exposition")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser(
        "client", help="drive real protocol clients (sessions + reply certificates)"
    )
    common(p)
    p.set_defaults(sim_time=12.0)
    p.add_argument("--clients", type=int, default=64)
    p.add_argument("--warmup", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--reads", choices=("commit", "leader-lease"), default="commit",
        help="read path: through consensus, or leader-served after a quorum check",
    )
    p.add_argument(
        "--retry-timeout", type=float, default=2.0,
        help="client reply timeout before the first retransmit-to-all",
    )
    p.add_argument(
        "--max-inflight", type=int, default=None,
        help="per-replica admission window (weighted ops); omit to disable shedding",
    )
    p.add_argument(
        "--crash-leader-at", type=float, default=None,
        help="crash the view-1 leader at this time to exercise client redirection",
    )
    p.set_defaults(func=_cmd_client)

    p = sub.add_parser(
        "audit", help="audited run: flight recorder, invariants, linearity verdict"
    )
    p.add_argument(
        "--protocol",
        default="marlin",
        choices=[
            "marlin", "hotstuff", "chained-marlin", "chained-hotstuff",
            "fast-hotstuff", "insecure",
        ],
    )
    p.add_argument("--n", type=int, default=4, help="cluster size (any n >= 4)")
    p.add_argument("--sim-time", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--byzantine", choices=("none", "equivocator", "reply-forger"), default="none",
        help="inject one faulty replica; exit 0 iff the auditor detects it",
    )
    p.add_argument(
        "--dump", choices=("never", "on-violation", "always"), default="on-violation",
        help="when to write the black-box flight-recorder dump",
    )
    p.add_argument("--dump-dir", default=None, help="directory for black-box dumps")
    p.add_argument(
        "--skip-sweep", action="store_true",
        help="skip the wide-n complexity sweep (empirical Table 1)",
    )
    p.add_argument(
        "--max-slope", type=float, default=1.3,
        help="log-log slope bound for the linearity verdict",
    )
    p.add_argument("--json", default=None, help="write the machine-readable report here")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser(
        "adversary",
        help="Byzantine campaign: scenario x protocol x seed verdict matrix",
    )
    p.add_argument(
        "--list", action="store_true",
        help="list registered scenarios and behaviors, then exit",
    )
    p.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="run only this scenario (repeatable; default: all)",
    )
    p.add_argument(
        "--protocols", nargs="+",
        default=["marlin", "hotstuff", "fast-hotstuff", "insecure"],
        help="protocols to grid over",
    )
    p.add_argument(
        "--seeds", nargs="+", type=int, default=[1, 2], help="seeds to grid over"
    )
    p.add_argument("--n", type=int, default=4, help="voting replicas per cell")
    p.add_argument("--sim-time", type=float, default=12.0)
    p.add_argument(
        "--crypto", choices=("null", "threshold", "multisig"), default="null"
    )
    p.add_argument(
        "--learners", type=int, default=0,
        help="non-voting learner replicas appended to each cell's cluster",
    )
    p.add_argument("--jobs", type=int, default=1, help="worker processes for cells")
    p.add_argument(
        "--cache", action="store_true",
        help="reuse / populate the shared result cache for cells",
    )
    p.add_argument("--json", default=None, help="write the verdict matrix here")
    p.add_argument(
        "--reports", action="store_true",
        help="embed each cell's full checker report in the JSON artifact",
    )
    p.set_defaults(func=_cmd_adversary)

    p = sub.add_parser(
        "shard", help="G consensus groups over one simulator, key-routed clients"
    )
    common(p)
    p.add_argument("--shards", type=int, default=4, help="consensus groups (G)")
    p.add_argument(
        "--router", choices=("hash", "modulo"), default="hash",
        help="key->shard scheme (see docs/SHARDING.md)",
    )
    p.add_argument("--clients", type=int, default=16384, help="global client population")
    p.add_argument("--warmup", type=float, default=7.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--metrics-out",
        default=None,
        help="write per-shard metric views plus the cluster aggregate to this JSON file",
    )
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the simulation itself (per-group "
        "decomposition); output is byte-identical to --jobs 1",
    )
    p.set_defaults(func=_cmd_shard)

    p = sub.add_parser(
        "latency", help="request-journey tracing: critical-path latency waterfall"
    )
    common(p)
    p.add_argument("--clients", type=int, default=512)
    p.add_argument("--warmup", type=float, default=7.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--sample", type=float, default=1.0,
        help="fraction of clients traced (deterministic, seed-derived)",
    )
    p.add_argument("--shards", type=int, default=1, help="consensus groups (G)")
    p.add_argument("--json", default=None, help="write the waterfall JSON here")
    p.add_argument(
        "--chrome-out", default=None,
        help="write a Chrome trace_event file of the slowest journeys",
    )
    p.add_argument(
        "--slowest", type=int, default=5,
        help="how many slowest journeys to list/export",
    )
    p.add_argument(
        "--check", type=float, default=None, metavar="TOL",
        help="exit 1 unless stage-sum p50 reconciles with end-to-end p50 within TOL",
    )
    p.set_defaults(func=_cmd_latency)

    p = sub.add_parser("fuzz", help="one randomly-adversarial schedule")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser(
        "explore", help="safety hunt over adversarial message interleavings"
    )
    common(p)
    p.add_argument("--schedules", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_explore)

    return parser


def _cmd_explore(args: argparse.Namespace) -> None:
    from repro.harness.des_runtime import PROTOCOLS
    from repro.harness.explorer import explore

    replica_cls = PROTOCOLS[args.protocol]
    results = explore(replica_cls, schedules=args.schedules, base_seed=args.seed)
    views = max(r.max_view for r in results)
    commits = sum(max(r.committed_heights) for r in results)
    print(
        f"{args.schedules} adversarial schedules of {args.protocol}: all safe. "
        f"(max view reached {views}, {commits} total committed heights, "
        f"{sum(r.dropped for r in results)} messages dropped)"
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_cli_logging(args.log_level)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
