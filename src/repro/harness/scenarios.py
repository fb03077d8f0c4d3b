"""Canned experiments, one per figure in the paper's evaluation.

:class:`Scenario` describes one closed-loop load point declaratively and
:func:`run_point` runs it; every load-point entry of :mod:`repro.api`
goes through that one function.  The figure-level helpers below build a
fresh :class:`~repro.harness.des_runtime.DESCluster` with the paper's
testbed parameters (40 ms injected latency, 200 Mbps shaped links,
1 Gbps NICs, 16-core machines, LevelDB-style persistence), run the
workload, audit safety, and return plain data the benchmark modules
format into paper-versus-measured tables.

Crypto note: throughput scenarios run the ``null`` crypto service (exact
quorum logic, no arithmetic) with the **threshold** cost model charging
simulated CPU — the protocols behave identically, the simulation just
avoids Python big-int work.  Logic and adversarial tests elsewhere use
the real threshold scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING

from repro.common.config import ClusterConfig, ExperimentConfig
from repro.common.errors import ConfigError
from repro.harness.des_runtime import PROTOCOLS, DESCluster
from repro.harness.metrics import RunResult
from repro.harness.workload import ClosedLoopClients
from repro.obs.complexity import ComplexityObservatory, CostCell

if TYPE_CHECKING:  # Scenario's field types; imported lazily where used
    from repro.adversary import AdversaryConfig
    from repro.client import ClientConfig
    from repro.consensus.pipeline import PipelineConfig
    from repro.shard import ShardConfig

DEFAULT_MAX_BATCH = 30000
"""Natural batching cap (weighted ops per block).

Large enough that bandwidth, not the cap, bounds saturation throughput,
yet small enough that a saturated leader keeps several blocks in flight
rather than sweeping the whole client population into one lockstep block.
"""

LATENCY_CAP = 1.0
"""Peak-throughput methodology: the paper's Fig. 10a-f curves end near
1000 ms; "peak" is the throughput reached at this latency."""


_CRYPTO_MODES = ("null", "threshold", "multisig")


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """One experiment described declaratively (all fields keyword-only).

    The single entry-point object of the facade: it composes the four
    config surfaces — :class:`ClusterConfig` (replica shape),
    :class:`ClientConfig` (client protocol), :class:`PipelineConfig`
    (batching/pipelining) and :class:`ShardConfig` (topology) — plus the
    run parameters, and every facade function consumes it.  Fields an
    entry point does not use (e.g. ``clients`` for :func:`traced_run`,
    which has its own light-load default) are simply ignored by it.

    Construction validates every field and raises
    :class:`~repro.common.errors.ConfigError` naming the offending one.
    Derive variants with :meth:`with_overrides`::

        base = Scenario(protocol="marlin", f=1)
        wide = base.with_overrides(f=5, clients=16384)
        sharded = base.with_overrides(shards=4)
    """

    #: "marlin", "hotstuff", "chained-marlin", "chained-hotstuff",
    #: "fast-hotstuff" or "insecure".
    protocol: str = "marlin"
    #: Fault tolerance; each consensus group has ``3f + 1`` replicas.
    f: int = 1
    #: Closed-loop client population for load points.
    clients: int = 4096
    #: Simulation seed (same seed, same trace).
    seed: int = 1
    #: Simulated run length / measurement warm-up, in seconds.
    sim_time: float = 22.0
    warmup: float = 7.0
    #: Client request/reply payload sizes, in bytes.
    request_size: int = 150
    reply_size: int = 150
    #: Crypto service: "null" (cost-model timing; the throughput
    #: methodology), "threshold" or "multisig" (real arithmetic).
    crypto: str = "null"
    #: Batching/pipelining knobs; None reproduces the unbatched seed
    #: behaviour exactly.
    pipeline: PipelineConfig | None = field(default=None)
    #: Client subsystem knobs; None (or ``mode="hub"``) reproduces the
    #: aggregate hub-client load model of the paper's evaluation, while
    #: ``ClientConfig(mode="real")`` drives the same population through
    #: genuine protocol clients (sessions, retransmits, reply
    #: certificates) over the simulated network.
    client: "ClientConfig | None" = field(default=None)
    #: Explicit per-group replica shape.  None derives the paper-testbed
    #: shape from ``f``; when given it is authoritative and ``f`` must
    #: either be left at its default or agree with ``cluster.f``.
    cluster: ClusterConfig | None = field(default=None)
    #: Topology: how many independent consensus groups, and how keys
    #: route to them.  ``shards=G`` is sugar for ``shard=ShardConfig(
    #: shards=G)``; give ``shard`` explicitly for router knobs.
    shard: "ShardConfig | None" = field(default=None)
    shards: int = 1
    #: Worker processes for the simulation itself (not the sweep): with
    #: ``des_jobs > 1`` a sharded load point runs each consensus group as
    #: one task on that many spawn workers via
    #: :class:`repro.shard.parallel.ParallelShardedCluster`, with results
    #: byte-identical to ``des_jobs=1``.  Requires ``shards >= 2``.
    des_jobs: int = 1
    #: Byzantine adversary injected into the run: the name of a
    #: registered scenario from :mod:`repro.adversary.scenarios` (e.g.
    #: ``"forking-attack"``) or an explicit
    #: :class:`~repro.adversary.behaviors.AdversaryConfig`.  Requires the
    #: single-group topology.  ``None`` (the default) is the
    #: failure-free run every benchmark number comes from.
    adversary: "str | AdversaryConfig | None" = field(default=None)

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigError(
                f"Scenario.protocol must be one of {sorted(PROTOCOLS)}, "
                f"got {self.protocol!r}"
            )
        if self.f < 1:
            raise ConfigError(f"Scenario.f must be >= 1, got {self.f}")
        if self.clients < 1:
            raise ConfigError(f"Scenario.clients must be >= 1, got {self.clients}")
        if self.warmup < 0:
            raise ConfigError(f"Scenario.warmup must be >= 0, got {self.warmup}")
        if self.sim_time <= self.warmup:
            raise ConfigError(
                f"Scenario.sim_time must exceed warmup "
                f"({self.warmup}), got {self.sim_time}"
            )
        if self.request_size < 0:
            raise ConfigError(
                f"Scenario.request_size must be >= 0, got {self.request_size}"
            )
        if self.reply_size < 0:
            raise ConfigError(
                f"Scenario.reply_size must be >= 0, got {self.reply_size}"
            )
        if self.crypto not in _CRYPTO_MODES:
            raise ConfigError(
                f"Scenario.crypto must be one of {_CRYPTO_MODES}, got {self.crypto!r}"
            )
        if self.shards < 1:
            raise ConfigError(f"Scenario.shards must be >= 1, got {self.shards}")
        if self.shard is not None and self.shards != 1 and self.shards != self.shard.shards:
            raise ConfigError(
                f"Scenario.shards ({self.shards}) contradicts "
                f"Scenario.shard.shards ({self.shard.shards}); set one of them"
            )
        if self.des_jobs < 1:
            raise ConfigError(f"Scenario.des_jobs must be >= 1, got {self.des_jobs}")
        if self.des_jobs > 1 and self.resolved_shard().shards < 2:
            raise ConfigError(
                "Scenario.des_jobs > 1 parallelises per consensus group; "
                "set shards >= 2 (an unsharded run has nothing to decompose)"
            )
        if self.cluster is not None and self.f != 1 and self.f != self.cluster.f:
            raise ConfigError(
                f"Scenario.f ({self.f}) contradicts Scenario.cluster.f "
                f"({self.cluster.f}); the explicit cluster is authoritative"
            )
        if self.adversary is not None:
            from repro.adversary import AdversaryConfig, get_scenario

            if isinstance(self.adversary, str):
                try:
                    get_scenario(self.adversary)
                except ValueError as exc:
                    raise ConfigError(f"Scenario.adversary: {exc}") from exc
            elif not isinstance(self.adversary, AdversaryConfig):
                raise ConfigError(
                    f"Scenario.adversary must be a scenario name or an "
                    f"AdversaryConfig, got {type(self.adversary).__name__}"
                )
            if self.resolved_shard().shards > 1:
                raise ConfigError(
                    "Scenario.adversary requires the single-group topology "
                    "(shards == 1)"
                )

    def with_overrides(self, **overrides) -> "Scenario":
        """A copy with the given fields replaced (and re-validated).

        Unknown names raise :class:`~repro.common.errors.ConfigError`
        naming the field, so typos fail loudly instead of silently
        returning an unchanged scenario.
        """
        known = {spec.name for spec in fields(self)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise ConfigError(
                f"Scenario has no field(s) {', '.join(map(repr, unknown))}; "
                f"known fields: {', '.join(sorted(known))}"
            )
        return replace(self, **overrides)

    def resolved_shard(self) -> "ShardConfig":
        """The effective topology (``shard`` wins over the sugar field)."""
        from repro.shard import ShardConfig

        if self.shard is not None:
            return self.shard
        return ShardConfig(shards=self.shards)


def _experiment(f: int, seed: int = 0, batch: int | None = None, **cluster_kwargs) -> ExperimentConfig:
    cluster = ClusterConfig.for_f(
        f, batch_size=batch if batch is not None else DEFAULT_MAX_BATCH, **cluster_kwargs
    )
    return ExperimentConfig(cluster=cluster, seed=seed)


def _token_weight(clients: int, max_tokens: int = 384) -> int:
    return max(1, clients // max_tokens)


# ---------------------------------------------------------------------------
# Fig. 10a-10f: throughput vs latency


def run_point(scenario: Scenario, observability=None) -> tuple[RunResult, DESCluster]:
    """Run one closed-loop load point; returns ``(result, cluster)``.

    Failure-free methodology: unless ``scenario.cluster`` is given, the
    view timer is set far above any block interval so the stable leader
    is never deposed mid-measurement (the paper's throughput experiments
    are failure-free; view changes are measured separately in Fig.
    10i/10j).  Adversarial measurements normally pass an explicit
    ``cluster`` with a realistic ``base_timeout`` so view changes can
    actually happen.

    Pass a :class:`~repro.obs.observer.RunObservability` to collect
    per-replica metrics and per-phase latency histograms; the result's
    ``phase_latency`` field is then populated from them.  The returned
    cluster lets callers fingerprint the commit trace (via
    ``commit_trace()``), so serial and multi-process runs can be proven
    identical.  With more than one shard it is a
    :class:`~repro.shard.ShardedCluster` (or, with ``des_jobs > 1``, the
    process-parallel engine) and the result carries aggregate metrics
    plus ``per_shard_tps``.
    """
    if scenario.cluster is not None:
        experiment = ExperimentConfig(cluster=scenario.cluster, seed=scenario.seed)
    else:
        experiment = _experiment(
            scenario.f, seed=scenario.seed, base_timeout=120.0, max_timeout=240.0
        )
    if scenario.resolved_shard().shards > 1:
        return _run_sharded(scenario, experiment, observability)
    cluster = DESCluster(
        experiment,
        protocol=scenario.protocol,
        crypto_mode=scenario.crypto,
        observability=observability,
        pipeline=scenario.pipeline,
    )
    if scenario.adversary is not None:
        from repro.adversary.behaviors import apply_adversary
        from repro.adversary.scenarios import get_scenario

        adversary = scenario.adversary
        if isinstance(adversary, str):
            # A named scenario contributes its config; its verdict
            # expectations only apply to campaigns.
            adversary = get_scenario(adversary).adversary
        apply_adversary(cluster, adversary, seed=scenario.seed)
    pool = ClosedLoopClients(cluster, **_workload(scenario))
    cluster.start()
    cluster.sim.schedule(0.01, pool.start)
    cluster.run(until=scenario.sim_time)
    cluster.assert_safety()
    phase_latency = None
    if observability is not None:
        observability.finish(cluster.sim.now)
        phase_latency = observability.phase_latency_summary()
    summary = pool.summary()
    result = RunResult(
        clients=scenario.clients,
        throughput_tps=pool.throughput.throughput(duration=scenario.sim_time - scenario.warmup),
        mean_latency=summary["mean_latency"],
        p50_latency=summary["p50_latency"],
        p99_latency=summary["p99_latency"],
        blocks_committed=max(r.stats["blocks_committed"] for r in cluster.replicas),
        sim_time=scenario.sim_time,
        phase_latency=phase_latency,
        p90_latency=pool.latency.p90(),
        p999_latency=pool.latency.p999(),
    )
    journey = getattr(observability, "journey", None)
    if journey is not None:
        from repro.obs.journey import build_waterfall

        result.waterfall = build_waterfall(
            journey, end_to_end=pool.latency, window_start=scenario.warmup
        )
    return result, cluster


def _workload(scenario: Scenario) -> dict:
    """The closed-loop client population of a load point."""
    client = scenario.client
    return dict(
        num_clients=scenario.clients,
        request_size=scenario.request_size,
        reply_size=scenario.reply_size,
        token_weight=_token_weight(scenario.clients),
        target="leader",
        warmup=scenario.warmup,
        mode=client.mode if client is not None else "hub",
        client_config=client,
    )


def _run_sharded(scenario: Scenario, experiment: ExperimentConfig, observability):
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
    shard = scenario.resolved_shard()
    sim_time, warmup = scenario.sim_time, scenario.warmup
    duration = sim_time - warmup
    engine = dict(
        shard=shard,
        protocol=scenario.protocol,
        crypto_mode=scenario.crypto,
        pipeline=scenario.pipeline,
        journey=journey,
    )
    if scenario.des_jobs > 1:
        from repro.shard.parallel import ParallelShardedCluster

        sharded = ParallelShardedCluster(experiment, jobs=scenario.des_jobs, **engine)
        sharded.run_workload(sim_time=sim_time, **_workload(scenario))
        per_shard_tps = sharded.per_shard_tps(duration)
        latency = sharded.merged_latency(window_start=warmup)
        blocks = sharded.blocks_committed
    else:
        sharded = ShardedCluster(experiment, **engine)
        pool = ShardedClosedLoopClients(sharded, **_workload(scenario))
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
        clients=scenario.clients,
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


def _load_point_ex(protocol: str, f: int, clients: int, observability=None, **fields):
    """:func:`run_point` over loose arguments: ``fields`` are :class:`Scenario` fields.

    The entry point of a sweep task (see :mod:`repro.harness.parallel`).
    """
    scenario = Scenario(protocol=protocol, f=f, clients=clients, **fields)
    return run_point(scenario, observability)


def _latency_breakdown(scenario: Scenario, sample_rate: float = 1.0):
    """One load point with request-journey tracing armed.

    Runs :func:`run_point` carrying a journey-only observability layer —
    a seed-derived deterministic sample of the client population gets
    every lifecycle checkpoint recorded (submit → routed → admitted →
    proposed → qc → committed → executed → certified) — and returns
    ``(result, recorder, cluster)``.  ``result.waterfall`` holds the
    critical-path decomposition; the recorder keeps the raw journeys for
    Chrome-trace export and slowest-request inspection.  Works sharded:
    the one recorder is shared across groups.
    """
    from repro.obs.journey import JourneyRecorder
    from repro.obs.observer import RunObservability

    recorder = JourneyRecorder(scenario.seed, rate=sample_rate)
    observability = RunObservability(trace=False, metrics=False, journey=recorder)
    result, finished = run_point(scenario, observability)
    return result, recorder, finished


def _traced_scenario(
    scenario: Scenario,
    sim_time: float = 5.0,
    clients: int = 32,
    crash_leader_at: float | None = None,
    force_unhappy: bool = False,
    observability=None,
):
    """A short, fully observed run for trace export (``repro trace``).

    Runs ``scenario.protocol`` at light load over the paper's testbed
    profile — every block lifecycle and (with ``crash_leader_at``) a view
    change lands in the returned observability's tracer.  Only the
    scenario's ``protocol``, ``f``, ``seed`` and ``pipeline`` apply.
    Deterministic: the same arguments produce byte-identical
    Chrome-trace exports.

    Returns ``(cluster, observability)``.
    """
    from repro.obs.observer import RunObservability

    if observability is None:
        observability = RunObservability()
    base_timeout = 0.5 if crash_leader_at is not None else 60.0
    experiment = _experiment(
        scenario.f, seed=scenario.seed, batch=2000, base_timeout=base_timeout
    )
    cluster = DESCluster(
        experiment,
        protocol=scenario.protocol,
        crypto_mode="null",
        force_unhappy=force_unhappy,
        observability=observability,
        pipeline=scenario.pipeline,
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
# Table I: one steady-state and one leader-crash cost procedure
#
# Every Table I number — the per-protocol rows below, the wide-n sweep of
# :func:`repro.harness.audit.complexity_sweep` and ``repro table1`` —
# comes from these two procedures.  Each wires a disarmed
# :class:`~repro.obs.complexity.ComplexityObservatory` to a fresh cluster,
# arms it at the start of the measurement window, and returns what it
# attributed; client request/reply traffic is excluded.

#: The message classes only a view change sends.
_VIEW_CHANGE_TYPES = ("ViewChangeMsg", "PrePrepareMsg", "AggregateNewView")

#: When replica 0, view 1's leader, crashes in a leader-crash measurement.
_CRASH_TIME = 3.0

#: Protocols whose commit rule is HotStuff's three-chain.
_THREE_PHASE = ("hotstuff", "chained-hotstuff")


def _observatory(cluster: DESCluster) -> ComplexityObservatory:
    observatory = ComplexityObservatory(num_replicas=cluster.experiment.cluster.num_replicas)
    observatory.disarm()  # traffic before the window is excluded
    cluster.network.add_tap(observatory.tap)
    return observatory


def _steady_state_cost(
    protocol: str,
    experiment: ExperimentConfig,
    clients: int,
    token_weight: int,
    warmup: float,
    sim_time: float,
) -> tuple[int, CostCell]:
    """Consensus traffic after ``warmup`` under a stable leader.

    Returns ``(blocks, consensus)``: the non-empty blocks replica 1
    committed inside the window, and the consensus traffic attributed
    over it.
    """
    cluster = DESCluster(experiment, protocol=protocol, crypto_mode="null")
    pool = ClosedLoopClients(
        cluster, num_clients=clients, token_weight=token_weight, warmup=warmup
    )
    observatory = _observatory(cluster)
    blocks = 0

    def on_commit(block, when) -> None:
        nonlocal blocks
        if observatory.armed and block.operations:
            blocks += 1

    cluster.replicas[1].commit_listeners.append(on_commit)
    cluster.start()
    cluster.sim.schedule(0.01, pool.start)
    cluster.sim.schedule(warmup, observatory.arm)
    cluster.run(until=sim_time)
    cluster.assert_safety()
    return blocks, observatory.consensus


def _leader_crash_cost(
    protocol: str,
    experiment: ExperimentConfig,
    force_unhappy: bool = False,
) -> tuple[CostCell, CostCell, bool]:
    """Traffic from a leader crash until the view change commits.

    Replica 0 (view 1's leader) crashes at ``_CRASH_TIME``, when the
    observatory arms.  The run stops at the first survivor commit made
    at or after the moment a quorum of survivors had entered view 2 or
    later: a commit QC for a pre-crash block can land after the crash
    but before any view change, and stopping on it would measure no
    view change at all.

    Returns ``(consensus, view_change, pre_prepared)``: all consensus
    traffic in the window, the :data:`_VIEW_CHANGE_TYPES` share of it,
    and whether a PRE-PREPARE was sent (Marlin's unhappy path).
    """
    cluster = DESCluster(
        experiment, protocol=protocol, crypto_mode="null", force_unhappy=force_unhappy
    )
    pool = ClosedLoopClients(cluster, num_clients=32, token_weight=1, target="all")
    observatory = _observatory(cluster)
    cluster.start()
    cluster.sim.schedule(0.01, pool.start)
    cluster.crash_at(0, _CRASH_TIME)
    cluster.sim.schedule_at(_CRASH_TIME, observatory.arm)
    survivors = cluster.replicas[1:]
    needed = experiment.cluster.quorum - 1
    deadline = _CRASH_TIME + 30.0
    cluster.run_until(lambda: sum(1 for r in survivors if r.cview >= 2) >= needed, deadline)
    # run_until steps in 0.05 s slices, so a survivor may already have
    # committed inside the slice in which the quorum formed: select by
    # commit time, not by list position.
    entered = sorted(r.view_entered_at for r in survivors if r.cview >= 2)
    quorum_at = entered[needed - 1] if len(entered) >= needed else deadline
    commits = cluster.auditor.commits
    if not cluster.run_until(
        lambda: any(rid != 0 and when >= quorum_at for rid, _, _, when in commits), deadline
    ):
        raise RuntimeError(f"{protocol} never committed after the view change")
    cluster.assert_safety()
    view_change = CostCell()
    for name in _VIEW_CHANGE_TYPES:
        cell = observatory.per_type.get(name)
        if cell is not None:
            view_change.messages += cell.messages
            view_change.bytes += cell.bytes
            view_change.authenticators += cell.authenticators
    pre_prepared = "PrePrepareMsg" in observatory.per_type
    return observatory.consensus, view_change, pre_prepared


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
    """Count consensus messages per committed block at steady state.

    Event-driven Marlin shows ~5n per block (prepare + commit + decide
    broadcasts and two vote rounds), HotStuff ~7n, and the chained
    variants fewer still.
    """
    experiment = _experiment(f, seed=seed, batch=400, base_timeout=60.0)
    blocks, consensus = _steady_state_cost(
        protocol, experiment, clients=512, token_weight=4, warmup=warmup, sim_time=sim_time
    )
    rounds = max(blocks, 1)
    return NormalCaseCost(
        protocol=protocol,
        f=f,
        n=experiment.cluster.num_replicas,
        blocks=blocks,
        messages_per_block=consensus.messages / rounds,
        bytes_per_block=consensus.bytes / rounds,
        authenticators_per_block=consensus.authenticators / rounds,
    )


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

    ``phases_to_commit`` is Table I's phase count: 3 for HotStuff's
    three-chain, or when the window carried a PRE-PREPARE (Marlin's
    unhappy path); 2 otherwise.
    """
    experiment = _experiment(f, seed=seed, batch=4000, base_timeout=0.5)
    consensus, vc, pre_prepared = _leader_crash_cost(protocol, experiment, force_unhappy)
    return ViewChangeCost(
        protocol=protocol,
        f=f,
        n=experiment.cluster.num_replicas,
        messages=consensus.messages,
        bytes_total=consensus.bytes,
        authenticators=consensus.authenticators,
        phases_to_commit=3 if protocol in _THREE_PHASE or pre_prepared else 2,
        vc_messages=vc.messages,
        vc_bytes=vc.bytes,
        vc_authenticators=vc.authenticators,
    )
