"""Canned experiments, one per figure in the paper's evaluation.

Each function builds a fresh :class:`~repro.harness.des_runtime.DESCluster`
with the paper's testbed parameters (40 ms injected latency, 200 Mbps
shaped links, 1 Gbps NICs, 16-core machines, LevelDB-style persistence),
runs the workload, audits safety, and returns plain data the benchmark
modules format into paper-versus-measured tables.

Crypto note: throughput scenarios run the ``null`` crypto service (exact
quorum logic, no arithmetic) with the **threshold** cost model charging
simulated CPU — the protocols behave identically, the simulation just
avoids Python big-int work.  Logic and adversarial tests elsewhere use
the real threshold scheme.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from repro.common.config import ClusterConfig, ExperimentConfig
from repro.common.errors import ConfigError
from repro.harness.des_runtime import DESCluster
from repro.harness.metrics import RunResult
from repro.harness.workload import ClosedLoopClients
from repro.obs.complexity import CostCell

DEFAULT_MAX_BATCH = 30000
"""Natural batching cap (weighted ops per block).

Large enough that bandwidth, not the cap, bounds saturation throughput,
yet small enough that a saturated leader keeps several blocks in flight
rather than sweeping the whole client population into one lockstep block.
"""

LATENCY_CAP = 1.0
"""Peak-throughput methodology: the paper's Fig. 10a-f curves end near
1000 ms; "peak" is the throughput reached at this latency."""


def _experiment(f: int, seed: int = 0, batch: int | None = None, **cluster_kwargs) -> ExperimentConfig:
    cluster = ClusterConfig.for_f(
        f, batch_size=batch if batch is not None else DEFAULT_MAX_BATCH, **cluster_kwargs
    )
    return ExperimentConfig(cluster=cluster, seed=seed)


def _token_weight(clients: int, max_tokens: int = 384) -> int:
    return max(1, clients // max_tokens)


# ---------------------------------------------------------------------------
# Fig. 10a-10f: throughput vs latency


def _load_point(
    protocol: str,
    f: int,
    clients: int,
    sim_time: float = 22.0,
    warmup: float = 7.0,
    request_size: int = 150,
    reply_size: int = 150,
    seed: int = 1,
    observability=None,
    pipeline=None,
    crypto: str = "null",
    client=None,
    cluster=None,
    shard=None,
    des_jobs: int = 1,
    adversary=None,
) -> RunResult:
    """One closed-loop load point for one protocol at one cluster size.

    Failure-free methodology: the view timer is set far above any block
    interval so the stable leader is never deposed mid-measurement (the
    paper's throughput experiments are failure-free; view changes are
    measured separately in Fig. 10i/10j).

    Pass a :class:`~repro.obs.observer.RunObservability` to collect
    per-replica metrics and per-phase latency histograms; the result's
    ``phase_latency`` field is then populated from them.  Pass a
    :class:`~repro.client.ClientConfig` with ``mode="real"`` to drive
    the load through genuine protocol clients instead of the hub model.
    Pass a :class:`~repro.common.config.ClusterConfig` as ``cluster`` to
    override the derived per-group shape, and a
    :class:`~repro.shard.ShardConfig` as ``shard`` to run G groups and
    report aggregate (plus per-shard) throughput.
    """
    result, _ = _load_point_ex(
        protocol,
        f,
        clients,
        sim_time=sim_time,
        warmup=warmup,
        request_size=request_size,
        reply_size=reply_size,
        seed=seed,
        observability=observability,
        pipeline=pipeline,
        crypto=crypto,
        client=client,
        cluster=cluster,
        shard=shard,
        des_jobs=des_jobs,
        adversary=adversary,
    )
    return result


def _load_point_ex(
    protocol: str,
    f: int,
    clients: int,
    sim_time: float = 22.0,
    warmup: float = 7.0,
    request_size: int = 150,
    reply_size: int = 150,
    seed: int = 1,
    observability=None,
    pipeline=None,
    crypto: str = "null",
    client=None,
    cluster=None,
    shard=None,
    des_jobs: int = 1,
    adversary=None,
) -> tuple[RunResult, DESCluster]:
    """:func:`_load_point` that also returns the finished cluster.

    The parallel sweep workers use the cluster to fingerprint the commit
    trace (via ``commit_trace()``), so serial and multi-process runs can
    be proven identical.  With ``shard.shards > 1`` the returned cluster
    is a :class:`~repro.shard.ShardedCluster` and the result carries
    aggregate metrics plus ``per_shard_tps``.  ``des_jobs > 1`` runs the
    sharded point on the process-parallel engine
    (:mod:`repro.shard.parallel`) instead — same numbers, the groups'
    simulators advance across worker processes.

    ``adversary`` injects Byzantine behaviour into the run: an
    :class:`~repro.adversary.behaviors.AdversaryConfig` or the name of a
    registered scenario (whose config is used; its verdict expectations
    only apply to campaigns).  Adversaries require the single-group
    topology — a misbehaving replica inside one group of a sharded
    topology is a different experiment with its own harness.  Note the
    default failure-free timeouts are deliberately enormous; adversarial
    measurements normally pass an explicit ``cluster`` config with a
    realistic ``base_timeout`` so view changes can actually happen.
    """
    cluster_config = cluster
    if cluster_config is not None:
        experiment = ExperimentConfig(cluster=cluster_config, seed=seed)
    else:
        experiment = _experiment(f, seed=seed, base_timeout=120.0, max_timeout=240.0)
    adversary_config = None
    if adversary is not None:
        if shard is not None and shard.shards > 1:
            raise ConfigError("adversary injection requires the single-group topology")
        from repro.adversary.behaviors import AdversaryConfig
        from repro.adversary.scenarios import get_scenario

        adversary_config = (
            get_scenario(adversary).adversary
            if isinstance(adversary, str)
            else adversary
        )
        if not isinstance(adversary_config, AdversaryConfig):
            raise ConfigError(
                f"adversary must be an AdversaryConfig or scenario name, "
                f"got {type(adversary).__name__}"
            )
    if des_jobs > 1 and (shard is None or shard.shards < 2):
        raise ConfigError(
            "des_jobs > 1 decomposes the run per consensus group; "
            "it requires a sharded topology (shards >= 2)"
        )
    if shard is not None and shard.shards > 1:
        return _sharded_load_point(
            experiment,
            shard,
            protocol=protocol,
            clients=clients,
            sim_time=sim_time,
            warmup=warmup,
            request_size=request_size,
            reply_size=reply_size,
            observability=observability,
            pipeline=pipeline,
            crypto=crypto,
            client=client,
            des_jobs=des_jobs,
        )
    cluster = DESCluster(
        experiment,
        protocol=protocol,
        crypto_mode=crypto,
        observability=observability,
        pipeline=pipeline,
    )
    if adversary_config is not None:
        from repro.adversary.behaviors import apply_adversary

        apply_adversary(cluster, adversary_config, seed=seed)
    clients_pool = ClosedLoopClients(
        cluster,
        num_clients=clients,
        request_size=request_size,
        reply_size=reply_size,
        token_weight=_token_weight(clients),
        target="leader",
        warmup=warmup,
        mode=client.mode if client is not None else "hub",
        client_config=client,
    )
    cluster.start()
    cluster.sim.schedule(0.01, clients_pool.start)
    cluster.run(until=sim_time)
    cluster.assert_safety()
    phase_latency = None
    if observability is not None:
        observability.finish(cluster.sim.now)
        phase_latency = observability.phase_latency_summary()
    summary = clients_pool.summary()
    duration = sim_time - warmup
    result = RunResult(
        clients=clients,
        throughput_tps=clients_pool.throughput.throughput(duration=duration),
        mean_latency=summary["mean_latency"],
        p50_latency=summary["p50_latency"],
        p99_latency=summary["p99_latency"],
        blocks_committed=max(r.stats["blocks_committed"] for r in cluster.replicas),
        sim_time=sim_time,
        phase_latency=phase_latency,
        p90_latency=clients_pool.latency.p90(),
        p999_latency=clients_pool.latency.p999(),
    )
    journey = getattr(observability, "journey", None)
    if journey is not None:
        from repro.obs.journey import build_waterfall

        result.waterfall = build_waterfall(
            journey, end_to_end=clients_pool.latency, window_start=warmup
        )
    return result, cluster


def _sharded_load_point(
    experiment: ExperimentConfig,
    shard,
    protocol: str,
    clients: int,
    sim_time: float,
    warmup: float,
    request_size: int,
    reply_size: int,
    observability,
    pipeline,
    crypto: str,
    client,
    des_jobs: int = 1,
):
    """One closed-loop load point over G independent groups.

    Same methodology as the unsharded point — equal per-group cluster
    shape, the global client population routed by key — with aggregate
    throughput summed and latency percentiles computed over the merged
    weighted samples.  ``des_jobs > 1`` runs the groups on the
    process-parallel engine (:mod:`repro.shard.parallel`); the numbers
    are byte-identical either way.

    Registries, tracers and flight rings are per-group; the one
    observability shape a sharded point accepts is a bare journey
    recorder, shared across groups by design (journey keys are globally
    unique).
    """
    from repro.shard.cluster import ShardedCluster
    from repro.harness.workload import ShardedClosedLoopClients

    if observability is not None and not observability.journey_only():
        raise ConfigError(
            "observability collectors are per-group on a sharded run; "
            "drop observability (journey-only layers are allowed) or set "
            "shard.shards == 1"
        )
    journey = observability.journey if observability is not None else None
    workload = dict(
        num_clients=clients,
        request_size=request_size,
        reply_size=reply_size,
        token_weight=_token_weight(clients),
        target="leader",
        warmup=warmup,
        mode=client.mode if client is not None else "hub",
        client_config=client,
    )
    duration = sim_time - warmup
    if des_jobs > 1:
        from repro.shard.parallel import ParallelShardedCluster

        sharded = ParallelShardedCluster(
            experiment,
            shard=shard,
            protocol=protocol,
            crypto_mode=crypto,
            pipeline=pipeline,
            jobs=des_jobs,
            journey=journey,
        )
        sharded.run_workload(sim_time=sim_time, **workload)
        per_shard_tps = sharded.per_shard_tps(duration)
        latency = sharded.merged_latency(window_start=warmup)
        blocks = sharded.blocks_committed
    else:
        sharded = ShardedCluster(
            experiment,
            shard=shard,
            protocol=protocol,
            crypto_mode=crypto,
            pipeline=pipeline,
            journey=journey,
        )
        pool = ShardedClosedLoopClients(sharded, **workload)
        sharded.start()
        sharded.sim.schedule(0.01, pool.start)
        sharded.run(until=sim_time)
        sharded.assert_safety()
        per_shard_tps = [
            sub.throughput.throughput(duration=duration) if sub is not None else 0.0
            for sub in pool.pools
        ]
        latency = pool.merged_latency()
        blocks = sum(
            max(r.stats["blocks_committed"] for r in group.cluster.replicas)
            for group in sharded.groups
        )
    result = RunResult(
        clients=clients,
        throughput_tps=sum(per_shard_tps),
        mean_latency=latency.mean(),
        p50_latency=latency.p50(),
        p99_latency=latency.p99(),
        blocks_committed=blocks,
        sim_time=sim_time,
        shards=shard.shards,
        per_shard_tps=per_shard_tps,
        p90_latency=latency.p90(),
        p999_latency=latency.p999(),
    )
    if journey is not None:
        from repro.obs.journey import build_waterfall

        result.waterfall = build_waterfall(
            journey, end_to_end=latency, window_start=warmup
        )
    return result, sharded


def _latency_breakdown(
    protocol: str = "marlin",
    f: int = 1,
    clients: int = 512,
    sim_time: float = 22.0,
    warmup: float = 7.0,
    seed: int = 1,
    sample_rate: float = 1.0,
    request_size: int = 150,
    reply_size: int = 150,
    crypto: str = "null",
    client=None,
    cluster=None,
    shard=None,
    pipeline=None,
    des_jobs: int = 1,
):
    """One load point with request-journey tracing armed.

    Runs :func:`_load_point_ex` carrying a journey-only observability
    layer — a seed-derived deterministic sample of the client population
    gets every lifecycle checkpoint recorded (submit → routed → admitted
    → proposed → qc → committed → executed → certified) — and returns
    ``(result, recorder, cluster)``.  ``result.waterfall`` holds the
    critical-path decomposition; the recorder keeps the raw journeys for
    Chrome-trace export and slowest-request inspection.  Works sharded
    (``shard.shards > 1``): the one recorder is shared across groups.
    """
    from repro.obs.journey import JourneyRecorder
    from repro.obs.observer import RunObservability

    recorder = JourneyRecorder(seed, rate=sample_rate)
    observability = RunObservability(trace=False, metrics=False, journey=recorder)
    result, finished = _load_point_ex(
        protocol,
        f,
        clients,
        sim_time=sim_time,
        warmup=warmup,
        request_size=request_size,
        reply_size=reply_size,
        seed=seed,
        observability=observability,
        pipeline=pipeline,
        crypto=crypto,
        client=client,
        cluster=cluster,
        shard=shard,
        des_jobs=des_jobs,
    )
    return result, recorder, finished


def _traced_scenario(
    protocol: str,
    f: int = 1,
    seed: int = 1,
    sim_time: float = 5.0,
    clients: int = 32,
    crash_leader_at: float | None = None,
    force_unhappy: bool = False,
    observability=None,
    pipeline=None,
):
    """A short, fully observed run for trace export (``repro trace``).

    Runs the protocol at light load over the paper's testbed profile —
    every block lifecycle and (with ``crash_leader_at``) a view change
    lands in the returned observability's tracer.  Deterministic: the
    same arguments produce byte-identical Chrome-trace exports.

    Returns ``(cluster, observability)``.
    """
    from repro.obs.observer import RunObservability

    if observability is None:
        observability = RunObservability()
    base_timeout = 0.5 if crash_leader_at is not None else 60.0
    experiment = _experiment(f, seed=seed, batch=2000, base_timeout=base_timeout)
    cluster = DESCluster(
        experiment,
        protocol=protocol,
        crypto_mode="null",
        force_unhappy=force_unhappy,
        observability=observability,
        pipeline=pipeline,
    )
    pool = ClosedLoopClients(
        cluster, num_clients=clients, token_weight=1, target="all", warmup=0.0
    )
    cluster.start()
    cluster.sim.schedule(0.01, pool.start)
    if crash_leader_at is not None:
        cluster.crash_at(0, crash_leader_at)  # replica 0 leads view 1
    cluster.run(until=sim_time)
    cluster.assert_safety()
    observability.finish(cluster.sim.now)
    return cluster, observability


def _throughput_latency_curve(
    protocol: str,
    f: int,
    client_counts: list[int],
    latency_cap: float = LATENCY_CAP,
    jobs: int = 1,
    use_cache: bool = False,
    cache_dir=None,
    **kwargs,
) -> list[RunResult]:
    """Sweep the client population, stopping once latency exceeds the cap.

    The paper's Fig. 10a-f plots stop around 1000 ms; the sweep keeps the
    first point past the cap so the cap crossing can be interpolated.

    ``jobs`` fans the (independent, deterministic) points across worker
    processes; ``use_cache`` reuses on-disk results keyed by scenario +
    code fingerprint.  Both produce output byte-identical to the plain
    serial sweep.  Runs that carry an observability layer stay serial —
    collectors are process-local.
    """
    observability = kwargs.get("observability")
    if (jobs > 1 or use_cache) and observability is None:
        from repro.harness.parallel import ResultCache, SweepExecutor

        task = {"protocol": protocol, "f": f, **kwargs}
        task.pop("observability", None)
        cache = ResultCache(cache_dir) if use_cache else None
        with SweepExecutor(jobs=jobs, cache=cache) as executor:
            return executor.run_curve(task, client_counts, latency_cap)
    if jobs > 1 and observability is not None:
        warnings.warn(
            "observability collectors are process-local; running the sweep serially",
            RuntimeWarning,
            stacklevel=2,
        )
    results: list[RunResult] = []
    for clients in client_counts:
        point = _load_point(protocol, f, clients, **kwargs)
        results.append(point)
        if point.mean_latency > latency_cap:
            break
    return results


def peak_at_latency_cap(curve: list[RunResult], latency_cap: float = LATENCY_CAP) -> float:
    """Throughput (tx/s) where the curve crosses ``latency_cap``.

    Linear interpolation between the last point under the cap and the
    first point over it makes the figure grid-independent; if the whole
    curve sits under the cap the last point's throughput is returned.
    """
    under = [p for p in curve if p.mean_latency <= latency_cap and p.throughput_tps > 0]
    over = [p for p in curve if p.mean_latency > latency_cap]
    if not under:
        return 0.0
    last = max(under, key=lambda p: p.mean_latency)
    if not over:
        return max(p.throughput_tps for p in under)
    first_over = min(over, key=lambda p: p.mean_latency)
    span = first_over.mean_latency - last.mean_latency
    if span <= 0:
        return last.throughput_tps
    fraction = (latency_cap - last.mean_latency) / span
    interpolated = last.throughput_tps + fraction * (
        first_over.throughput_tps - last.throughput_tps
    )
    return max(interpolated, max(p.throughput_tps for p in under))


def _peak_throughput(
    protocol: str,
    f: int,
    client_counts: list[int] | None = None,
    latency_cap: float = LATENCY_CAP,
    jobs: int = 1,
    use_cache: bool = False,
    cache_dir=None,
    strategy: str = "sweep",
    **kwargs,
) -> tuple[float, list[RunResult]]:
    """Peak throughput (Fig. 10g/10h methodology) plus the raw curve.

    ``strategy="sweep"`` walks the client grid linearly (the default, and
    the paper's methodology); ``strategy="bisect"`` binary-searches the
    grid for the latency-cap crossing — closed-loop latency is monotone
    in the client population — evaluating ``jobs`` probes per round.
    """
    if strategy not in ("sweep", "bisect"):
        raise ConfigError(f"strategy must be 'sweep' or 'bisect', got {strategy!r}")
    if client_counts is None:
        client_counts = default_client_sweep(f)
    if strategy == "bisect":
        from repro.harness.parallel import ResultCache, SweepExecutor, bisect_peak

        task = {"protocol": protocol, "f": f, **kwargs}
        task.pop("observability", None)
        cache = ResultCache(cache_dir) if use_cache else None
        with SweepExecutor(jobs=jobs, cache=cache) as executor:
            curve = bisect_peak(executor, task, client_counts, latency_cap)
        return peak_at_latency_cap(curve, latency_cap), curve
    curve = _throughput_latency_curve(
        protocol,
        f,
        client_counts,
        latency_cap,
        jobs=jobs,
        use_cache=use_cache,
        cache_dir=cache_dir,
        **kwargs,
    )
    return peak_at_latency_cap(curve, latency_cap), curve


# ---------------------------------------------------------------------------
# Deprecated public aliases (use repro.api)


def _deprecated(old: str, new: str) -> None:
    warnings.warn(
        f"repro.harness.scenarios.{old} is deprecated; use repro.api.{new}",
        DeprecationWarning,
        stacklevel=3,
    )


def run_load_point(*args, **kwargs) -> RunResult:
    """Deprecated: use :func:`repro.api.load_point`."""
    _deprecated("run_load_point", "load_point")
    return _load_point(*args, **kwargs)


def run_traced_scenario(*args, **kwargs):
    """Deprecated: use :func:`repro.api.traced_run`."""
    _deprecated("run_traced_scenario", "traced_run")
    return _traced_scenario(*args, **kwargs)


def throughput_latency_curve(*args, **kwargs) -> list[RunResult]:
    """Deprecated: use :func:`repro.api.throughput_curve`."""
    _deprecated("throughput_latency_curve", "throughput_curve")
    return _throughput_latency_curve(*args, **kwargs)


def peak_throughput(*args, **kwargs) -> tuple[float, list[RunResult]]:
    """Deprecated: use :func:`repro.api.peak_throughput`."""
    _deprecated("peak_throughput", "peak_throughput")
    return _peak_throughput(*args, **kwargs)


def default_client_sweep(f: int) -> list[int]:
    """A geometric client sweep sized to the cluster's expected capacity."""
    if f <= 1:
        return [1024, 4096, 16384, 32768, 65536, 98304, 131072]
    if f <= 3:
        return [1024, 4096, 16384, 32768, 65536, 98304]
    if f <= 5:
        return [512, 2048, 8192, 16384, 32768, 49152]
    if f <= 10:
        return [512, 2048, 8192, 16384, 24576]
    return [256, 1024, 4096, 8192, 16384]


# ---------------------------------------------------------------------------
# Fig. 10i: view-change latency


@dataclass
class ViewChangeResult:
    """Timing of one leader-crash view change."""

    protocol: str
    f: int
    path: str  # "happy", "unhappy", or "hotstuff"
    vc_start: float
    first_commit: float
    views_crossed: int

    @property
    def latency(self) -> float:
        return self.first_commit - self.vc_start


def view_change_latency(
    protocol: str,
    f: int,
    force_unhappy: bool = False,
    seed: int = 3,
    crash_time: float = 3.0,
) -> ViewChangeResult:
    """Crash the leader and time view-change-start to first commit.

    Matches the paper's measurement: "from the point when a replica
    starts the view change to the point when the first block is
    committed after the view change".
    """
    experiment = _experiment(f, seed=seed, batch=4000, base_timeout=0.5)
    cluster = DESCluster(
        experiment, protocol=protocol, crypto_mode="null", force_unhappy=force_unhappy
    )
    pool = ClosedLoopClients(
        cluster, num_clients=64, token_weight=1, target="all", warmup=0.0
    )
    cluster.start()
    cluster.sim.schedule(0.01, pool.start)
    cluster.crash_at(0, crash_time)  # replica 0 leads view 1
    alive = cluster.replicas[1:]

    def commits_after_view_change() -> list[float]:
        # A commit between the crash and the view change (the crashed
        # leader's last block finishing) does not end the measurement.
        entered = [r.view_entered_at for r in alive if r.cview >= 2]
        if not entered:
            return []
        vc_start = min(entered)
        return [
            when for rid, _, _, when in cluster.auditor.commits if when > vc_start and rid != 0
        ]

    cluster.run_until(lambda: bool(commits_after_view_change()), crash_time + 30.0)
    cluster.assert_safety()
    post = commits_after_view_change()
    if not post:
        raise RuntimeError(f"{protocol} never committed after the view change")
    vc_start = min(r.view_entered_at for r in alive if r.cview >= 2)
    first_commit = min(post)
    views = max(r.cview for r in alive)
    path = "hotstuff" if protocol == "hotstuff" else ("unhappy" if force_unhappy else "happy")
    return ViewChangeResult(
        protocol=protocol,
        f=f,
        path=path,
        vc_start=vc_start,
        first_commit=first_commit,
        views_crossed=views - 1,
    )


# ---------------------------------------------------------------------------
# Fig. 10j: rotating leaders under crash failures


def rotating_leader_throughput(
    protocol: str,
    f: int = 3,
    crashed: int = 0,
    clients: int = 8192,
    rotation_interval: float = 1.0,
    sim_time: float = 25.0,
    warmup: float = 5.0,
    seed: int = 4,
    batch: int = 8000,
) -> RunResult:
    """Peak throughput with periodic leader rotation and crashed replicas.

    Following the paper: rotate leaders on a 1 s timer (Spinning-style)
    and crash ``crashed`` replicas at the start of the run.  Batches are
    capped lower than in the stable-leader experiments so a view change
    plus several commits fit comfortably inside one rotation period.
    """
    experiment = _experiment(f, seed=seed, batch=batch)
    cluster = DESCluster(
        experiment,
        protocol=protocol,
        crypto_mode="null",
        rotation_interval=rotation_interval,
        forward_requests=False,
    )
    pool = ClosedLoopClients(
        cluster,
        num_clients=clients,
        token_weight=_token_weight(clients),
        target="all",
        warmup=warmup,
    )
    cluster.start()
    cluster.sim.schedule(0.01, pool.start)
    # Crash the last `crashed` replicas so view 1's leader (replica 0)
    # still boots the system, mirroring "crash at the beginning".
    for index in range(crashed):
        cluster.crash_at(experiment.cluster.num_replicas - 1 - index, 0.2)
    cluster.run(until=sim_time)
    cluster.assert_safety()
    summary = pool.summary()
    return RunResult(
        clients=clients,
        throughput_tps=pool.throughput.throughput(duration=sim_time - warmup),
        mean_latency=summary["mean_latency"],
        p50_latency=summary["p50_latency"],
        p99_latency=summary["p99_latency"],
        blocks_committed=max(r.stats["blocks_committed"] for r in cluster.replicas),
        sim_time=sim_time,
        p90_latency=pool.latency.p90(),
        p999_latency=pool.latency.p999(),
    )


# ---------------------------------------------------------------------------
# Normal-case message complexity (per committed block)


@dataclass
class NormalCaseCost:
    """Measured steady-state cost per committed block."""

    protocol: str
    f: int
    n: int
    blocks: int
    messages_per_block: float
    bytes_per_block: float
    authenticators_per_block: float


def measure_normal_case_cost(
    protocol: str, f: int = 1, seed: int = 6, sim_time: float = 12.0, warmup: float = 4.0
) -> NormalCaseCost:
    """Count protocol messages per committed block at steady state.

    Client request/reply traffic is excluded; the counters cover the
    consensus messages only, so event-driven Marlin should show ~4n per
    block (prepare + commit broadcasts and votes), HotStuff ~6n, and the
    chained variants ~2n.

    The attribution runs through the
    :class:`~repro.obs.complexity.ComplexityObservatory` — the same
    instrument ``repro audit`` uses — so the benchmark tables and the
    audit verdicts always read from one counter.
    """
    from repro.obs.complexity import ComplexityObservatory

    experiment = _experiment(f, seed=seed, batch=400, base_timeout=60.0)
    cluster = DESCluster(experiment, protocol=protocol, crypto_mode="null")
    pool = ClosedLoopClients(cluster, num_clients=512, token_weight=4, warmup=warmup)
    observatory = ComplexityObservatory(num_replicas=experiment.cluster.num_replicas)
    observatory.disarm()  # warm-up is excluded from the attribution
    cluster.network.add_tap(observatory.tap)
    counters = {"blocks": 0}

    def on_commit(block, when) -> None:
        if observatory.armed and block.operations:
            counters["blocks"] += 1

    cluster.replicas[1].commit_listeners.append(on_commit)
    cluster.start()
    cluster.sim.schedule(0.01, pool.start)
    cluster.sim.schedule(warmup, observatory.arm)
    cluster.run(until=sim_time)
    cluster.assert_safety()
    blocks = max(counters["blocks"], 1)
    consensus = observatory.consensus
    return NormalCaseCost(
        protocol=protocol,
        f=f,
        n=experiment.cluster.num_replicas,
        blocks=counters["blocks"],
        messages_per_block=consensus.messages / blocks,
        bytes_per_block=consensus.bytes / blocks,
        authenticators_per_block=consensus.authenticators / blocks,
    )


# ---------------------------------------------------------------------------
# Table I: measured view-change cost


@dataclass
class ViewChangeCost:
    """Measured communication/authenticator cost of one view change.

    The ``vc_*`` fields count only the view-change-specific message
    types (VIEW-CHANGE, PRE-PREPARE, aggregate new-view), isolating the
    linear-vs-quadratic contrast from the normal-case traffic that also
    falls inside the measurement window.
    """

    protocol: str
    f: int
    n: int
    messages: int
    bytes_total: int
    authenticators: int
    phases_to_commit: int
    vc_messages: int = 0
    vc_bytes: int = 0
    vc_authenticators: int = 0


def measure_view_change_cost(
    protocol: str, f: int, force_unhappy: bool = False, seed: int = 5
) -> ViewChangeCost:
    """Count messages/bytes/authenticators of a leader-crash view change.

    Traffic is measured from the moment the first correct replica enters
    the new view until the first post-crash commit, through the
    :class:`~repro.obs.complexity.ComplexityObservatory` tap; client
    request/reply traffic is excluded.  The ``vc_*`` fields read the
    observatory's per-type rows for the three view-change message
    classes, so they keep exactly the old ad-hoc counter semantics.
    """
    from repro.obs.complexity import ComplexityObservatory

    experiment = _experiment(f, seed=seed, batch=4000, base_timeout=0.5)
    cluster = DESCluster(
        experiment, protocol=protocol, crypto_mode="null", force_unhappy=force_unhappy
    )
    pool = ClosedLoopClients(cluster, num_clients=32, token_weight=1, target="all")
    observatory = ComplexityObservatory(num_replicas=experiment.cluster.num_replicas)
    observatory.disarm()  # pre-crash traffic is excluded
    cluster.network.add_tap(observatory.tap)
    cluster.start()
    cluster.sim.schedule(0.01, pool.start)
    crash_time = 3.0
    cluster.crash_at(0, crash_time)
    cluster.sim.schedule_at(crash_time, observatory.arm)
    cluster.run_until(
        lambda: any(
            when > crash_time and rid != 0 for rid, _, _, when in cluster.auditor.commits
        ),
        crash_time + 30.0,
    )
    cluster.assert_safety()
    if protocol == "hotstuff":
        phases = 3
    elif force_unhappy:
        phases = 3
    else:
        phases = 2
    consensus = observatory.consensus
    vc = CostCell()
    for name in ("ViewChangeMsg", "PrePrepareMsg", "AggregateNewView"):
        cell = observatory.per_type.get(name)
        if cell is not None:
            vc.messages += cell.messages
            vc.bytes += cell.bytes
            vc.authenticators += cell.authenticators
    return ViewChangeCost(
        protocol=protocol,
        f=f,
        n=experiment.cluster.num_replicas,
        messages=consensus.messages,
        bytes_total=consensus.bytes,
        authenticators=consensus.authenticators,
        phases_to_commit=phases,
        vc_messages=vc.messages,
        vc_bytes=vc.bytes,
        vc_authenticators=vc.authenticators,
    )
