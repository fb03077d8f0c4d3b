"""repro.api — the stable public facade.

Everything a paper-reproduction script, notebook or CI job should need
lives here under names that will not churn:

* :class:`Scenario` — keyword-only experiment description shared by the
  entry points, replacing the loose ``f/seed/batch/**cluster_kwargs``
  threading of the old harness functions.
* :func:`load_point` / :func:`throughput_curve` / :func:`peak_throughput`
  — the Fig. 10 throughput/latency methodology.
* :func:`traced_run` — a short, fully observed run for trace export.
* Re-exports of the configuration, runtime, and observability types the
  above produce and consume.

The old ``repro.harness.scenarios`` entry points still work but emit
:class:`DeprecationWarning`; new code should import from here::

    from repro.api import Scenario, load_point

    result = load_point(Scenario(protocol="marlin", f=1, clients=4096))
    print(result.as_row())
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from repro.adversary import (
    ADVERSARY_SCENARIOS,
    get_scenario as _get_adversary_scenario,
)
from repro.adversary import (
    AdversaryConfig,
    AdversaryScenario,
    BehaviorSpec,
    CampaignResult,
    CellResult,
    SafetyChecker,
    SafetyReport,
    apply_adversary,
    behavior_kinds,
    run_campaign,
)
from repro.client import ClientConfig, ClientSession, ReplyCertificate
from repro.client.router import ShardRouter
from repro.common.config import (
    ClusterConfig,
    ExperimentConfig,
    MachineProfile,
    NetworkProfile,
)
from repro.common.errors import ConfigError
from repro.consensus.pipeline import PipelineConfig
from repro.harness.audit import (
    AuditReport,
    ComplexitySweep,
    audited_run,
    complexity_sweep,
)
from repro.harness.des_runtime import DESCluster, PROTOCOLS
from repro.harness.metrics import RunResult
from repro.harness.scenarios import (
    DEFAULT_MAX_BATCH,
    LATENCY_CAP,
    NormalCaseCost,
    ViewChangeCost,
    ViewChangeResult,
    _latency_breakdown,
    _load_point,
    _peak_throughput,
    _throughput_latency_curve,
    _traced_scenario,
    default_client_sweep,
    measure_normal_case_cost,
    measure_view_change_cost,
    peak_at_latency_cap,
    rotating_leader_throughput,
    view_change_latency,
)
from repro.harness.parallel import ResultCache, SweepExecutor, code_fingerprint
from repro.harness.workload import ClosedLoopClients, ShardedClosedLoopClients
from repro.obs.complexity import ComplexityObservatory, SlopeFit
from repro.obs.flight import FlightRecorder, read_blackbox
from repro.obs.journey import JourneyRecorder
from repro.obs.observer import RunObservability
from repro.runtime.cluster import LocalClient, LocalCluster
from repro.runtime.node import Node
from repro.shard import ShardConfig, ShardedCluster, ShardedLocalCluster

__all__ = [
    "ADVERSARY_SCENARIOS",
    "AdversaryConfig",
    "AdversaryScenario",
    "AuditReport",
    "BehaviorSpec",
    "CampaignResult",
    "CellResult",
    "ClientConfig",
    "ClientSession",
    "ClosedLoopClients",
    "ClusterConfig",
    "ComplexityObservatory",
    "ComplexitySweep",
    "DEFAULT_MAX_BATCH",
    "DESCluster",
    "ExperimentConfig",
    "FlightRecorder",
    "JourneyRecorder",
    "LATENCY_CAP",
    "LocalClient",
    "LocalCluster",
    "MachineProfile",
    "NetworkProfile",
    "Node",
    "NormalCaseCost",
    "PipelineConfig",
    "ReplyCertificate",
    "ResultCache",
    "RunObservability",
    "RunResult",
    "SafetyChecker",
    "SafetyReport",
    "Scenario",
    "ShardConfig",
    "ShardRouter",
    "ShardedClosedLoopClients",
    "ShardedCluster",
    "ShardedLocalCluster",
    "SlopeFit",
    "SweepExecutor",
    "ViewChangeCost",
    "ViewChangeResult",
    "apply_adversary",
    "audited_run",
    "behavior_kinds",
    "code_fingerprint",
    "complexity_sweep",
    "default_client_sweep",
    "latency_breakdown",
    "load_point",
    "measure_normal_case_cost",
    "measure_view_change_cost",
    "peak_at_latency_cap",
    "peak_throughput",
    "read_blackbox",
    "restart_replica",
    "rotating_leader_throughput",
    "run_campaign",
    "throughput_curve",
    "traced_run",
    "trigger_state_transfer",
    "view_change_latency",
]


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
            if isinstance(self.adversary, str):
                try:
                    _get_adversary_scenario(self.adversary)
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
        if self.shard is not None:
            return self.shard
        return ShardConfig(shards=self.shards)


def _topology_kwargs(scenario: Scenario) -> dict:
    """The cluster/shard kwargs a scenario adds to a harness call.

    Only present when non-default, so unsharded task dicts (and thus
    sweep-cache keys) keep their established shape.
    """
    extra: dict = {}
    if scenario.cluster is not None:
        extra["cluster"] = scenario.cluster
    shard = scenario.resolved_shard()
    if shard.shards > 1:
        extra["shard"] = shard
    if scenario.des_jobs != 1:
        # Part of sweep-cache keys (task dicts are the payload), so a
        # des_jobs=4 point never aliases a des_jobs=1 one even though
        # the engines are proven byte-identical.
        extra["des_jobs"] = scenario.des_jobs
    if scenario.adversary is not None:
        # Also part of sweep-cache keys: an adversarial point must never
        # alias its failure-free twin.
        extra["adversary"] = scenario.adversary
    return extra


def load_point(scenario: Scenario, *, observability: RunObservability | None = None) -> RunResult:
    """Run one closed-loop load point (Fig. 10a-f methodology).

    With ``scenario.shards > 1`` the point runs G independent groups
    over one simulator and the result reports aggregate throughput,
    merged latency percentiles, and ``per_shard_tps``.
    """
    return _load_point(
        scenario.protocol,
        scenario.f,
        scenario.clients,
        sim_time=scenario.sim_time,
        warmup=scenario.warmup,
        request_size=scenario.request_size,
        reply_size=scenario.reply_size,
        seed=scenario.seed,
        observability=observability,
        pipeline=scenario.pipeline,
        crypto=scenario.crypto,
        client=scenario.client,
        **_topology_kwargs(scenario),
    )


def latency_breakdown(
    scenario: Scenario, *, sample_rate: float = 1.0
) -> tuple[RunResult, JourneyRecorder]:
    """Run one load point with end-to-end request-journey tracing.

    A deterministic, seed-derived ``sample_rate`` fraction of the client
    population is traced through its full lifecycle (submit → routing →
    admission → propose → per-phase QCs → commit → execution → reply
    certificate).  Returns ``(result, recorder)``: ``result.waterfall``
    carries the per-stage latency decomposition with the stage-sum
    reconciliation against the end-to-end recorder, and the
    :class:`JourneyRecorder` keeps the raw journeys for
    :func:`repro.obs.journey.slowest_journeys` /
    :func:`repro.obs.journey.write_chrome_trace`.  Works sharded.
    """
    result, recorder, _cluster = _latency_breakdown(
        scenario.protocol,
        f=scenario.f,
        clients=scenario.clients,
        sim_time=scenario.sim_time,
        warmup=scenario.warmup,
        seed=scenario.seed,
        sample_rate=sample_rate,
        request_size=scenario.request_size,
        reply_size=scenario.reply_size,
        crypto=scenario.crypto,
        client=scenario.client,
        pipeline=scenario.pipeline,
        **_topology_kwargs(scenario),
    )
    return result, recorder


def traced_run(
    scenario: Scenario,
    *,
    clients: int = 32,
    sim_time: float = 5.0,
    crash_leader_at: float | None = None,
    force_unhappy: bool = False,
    observability: RunObservability | None = None,
) -> tuple[DESCluster, RunObservability]:
    """Run a short, fully observed scenario for trace export.

    Light-load by design (``clients``/``sim_time`` default low and are
    separate from the scenario's throughput-oriented fields); returns
    ``(cluster, observability)`` with the tracer populated.
    """
    return _traced_scenario(
        scenario.protocol,
        f=scenario.f,
        seed=scenario.seed,
        sim_time=sim_time,
        clients=clients,
        crash_leader_at=crash_leader_at,
        force_unhappy=force_unhappy,
        observability=observability,
        pipeline=scenario.pipeline,
    )


def throughput_curve(
    scenario: Scenario,
    client_counts: list[int] | None = None,
    *,
    latency_cap: float = LATENCY_CAP,
    observability: RunObservability | None = None,
    jobs: int = 1,
    use_cache: bool = False,
    cache_dir: str | None = None,
) -> list[RunResult]:
    """Sweep client counts until mean latency crosses ``latency_cap``.

    ``jobs`` runs the independent points across that many worker
    processes and ``use_cache`` reuses on-disk results (keyed by scenario
    and code fingerprint; see :mod:`repro.harness.parallel`).  Either
    way the returned curve is byte-identical to the serial sweep.
    """
    if client_counts is None:
        client_counts = default_client_sweep(scenario.f)
    return _throughput_latency_curve(
        scenario.protocol,
        scenario.f,
        client_counts,
        latency_cap,
        jobs=jobs,
        use_cache=use_cache,
        cache_dir=cache_dir,
        observability=observability,
        sim_time=scenario.sim_time,
        warmup=scenario.warmup,
        request_size=scenario.request_size,
        reply_size=scenario.reply_size,
        seed=scenario.seed,
        pipeline=scenario.pipeline,
        crypto=scenario.crypto,
        client=scenario.client,
        **_topology_kwargs(scenario),
    )


def peak_throughput(
    scenario: Scenario,
    client_counts: list[int] | None = None,
    *,
    latency_cap: float = LATENCY_CAP,
    jobs: int = 1,
    use_cache: bool = False,
    cache_dir: str | None = None,
    strategy: str = "sweep",
) -> tuple[float, list[RunResult]]:
    """Peak throughput at the latency cap, plus the raw curve.

    ``strategy="bisect"`` binary-searches the client grid for the cap
    crossing instead of sweeping it linearly (valid because closed-loop
    latency is monotone in the population); combine with ``jobs`` for
    parallel probing.
    """
    return _peak_throughput(
        scenario.protocol,
        scenario.f,
        client_counts,
        latency_cap,
        jobs=jobs,
        use_cache=use_cache,
        cache_dir=cache_dir,
        strategy=strategy,
        sim_time=scenario.sim_time,
        warmup=scenario.warmup,
        request_size=scenario.request_size,
        reply_size=scenario.reply_size,
        seed=scenario.seed,
        pipeline=scenario.pipeline,
        crypto=scenario.crypto,
        client=scenario.client,
        **_topology_kwargs(scenario),
    )


# ---------------------------------------------------------------------------
# Recovery surface (asyncio runtime)


async def restart_replica(cluster: LocalCluster, replica_id: int) -> Node:
    """Crash-recover one replica of a :class:`LocalCluster` from disk.

    Facade over :meth:`LocalCluster.restart` so scripted churn scenarios
    never import ``repro.runtime.node`` internals.  Requires the cluster
    to have been built with ``data_dirs``.
    """
    return await cluster.restart(replica_id)


def trigger_state_transfer(cluster: LocalCluster, replica_id: int) -> None:
    """Make one replica fetch a checkpoint + chain suffix from its peers.

    The replica asks the cluster for the latest stable checkpoint and
    replays forward — the path a node far behind the commit frontier
    (e.g. after a long partition) uses to catch up without full WAL
    replay.
    """
    cluster.nodes[replica_id].request_state_transfer()
