"""repro.api — the stable public facade.

Everything a paper-reproduction script, notebook or CI job should need
lives here under names that will not churn:

* :class:`Scenario` — keyword-only experiment description shared by the
  entry points (defined in :mod:`repro.harness.scenarios`, which runs it
  with :func:`~repro.harness.scenarios.run_point`; re-exported here).
* :func:`load_point` / :func:`throughput_curve` / :func:`peak_throughput`
  — the Fig. 10 throughput/latency methodology.
* :func:`traced_run` — a short, fully observed run for trace export.
* Re-exports of the configuration, runtime, and observability types the
  above produce and consume.

Scripts should import from here::

    from repro.api import Scenario, load_point

    result = load_point(Scenario(protocol="marlin", f=1, clients=4096))
    print(result.as_row())
"""

from __future__ import annotations

import warnings
from dataclasses import fields

from repro.adversary import (
    ADVERSARY_SCENARIOS,
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
from repro.harness.des_runtime import DESCluster
from repro.harness.metrics import RunResult
from repro.harness.scenarios import (
    DEFAULT_MAX_BATCH,
    LATENCY_CAP,
    NormalCaseCost,
    Scenario,
    ViewChangeCost,
    ViewChangeResult,
    _latency_breakdown,
    _traced_scenario,
    default_client_sweep,
    measure_normal_case_cost,
    measure_view_change_cost,
    peak_at_latency_cap,
    rotating_leader_throughput,
    run_point,
    view_change_latency,
)
from repro.harness.parallel import ResultCache, SweepExecutor, bisect_peak, code_fingerprint
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


def load_point(scenario: Scenario, *, observability: RunObservability | None = None) -> RunResult:
    """Run one closed-loop load point (Fig. 10a-f methodology).

    With ``scenario.shards > 1`` the point runs G independent groups
    over one simulator and the result reports aggregate throughput,
    merged latency percentiles, and ``per_shard_tps``.
    """
    return run_point(scenario, observability)[0]


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
    result, recorder, _cluster = _latency_breakdown(scenario, sample_rate)
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
        scenario,
        sim_time=sim_time,
        clients=clients,
        crash_leader_at=crash_leader_at,
        force_unhappy=force_unhappy,
        observability=observability,
    )


def _sweep_task(scenario: Scenario) -> dict:
    """A sweep task: the scenario's fields, which are also its cache key."""
    return {spec.name: getattr(scenario, spec.name) for spec in fields(scenario)}


def _default_grid(scenario: Scenario) -> list[int]:
    """The default client sweep, sized to the cluster that actually runs."""
    cluster = scenario.cluster
    return default_client_sweep(cluster.f if cluster is not None else scenario.f)


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

    The paper's Fig. 10a-f plots stop around 1000 ms; the sweep keeps the
    first point past the cap so the cap crossing can be interpolated.

    ``jobs`` runs the independent points across that many worker
    processes and ``use_cache`` reuses on-disk results (keyed by scenario
    and code fingerprint; see :mod:`repro.harness.parallel`).  Either
    way the returned curve is byte-identical to the serial sweep.  Runs
    that carry an observability layer stay serial — collectors are
    process-local.
    """
    if client_counts is None:
        client_counts = _default_grid(scenario)
    if (jobs > 1 or use_cache) and observability is None:
        cache = ResultCache(cache_dir) if use_cache else None
        with SweepExecutor(jobs=jobs, cache=cache) as executor:
            return executor.run_curve(_sweep_task(scenario), client_counts, latency_cap)
    if jobs > 1:
        warnings.warn(
            "observability collectors are process-local; running the sweep serially",
            RuntimeWarning,
            stacklevel=2,
        )
    results: list[RunResult] = []
    for clients in client_counts:
        point, _cluster = run_point(scenario.with_overrides(clients=clients), observability)
        results.append(point)
        if point.mean_latency > latency_cap:
            break
    return results


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
    """Peak throughput at the latency cap (Fig. 10g/10h), plus the raw curve.

    ``strategy="sweep"`` walks the client grid linearly (the default, and
    the paper's methodology); ``strategy="bisect"`` binary-searches the
    grid for the cap crossing instead — valid because closed-loop latency
    is monotone in the population — evaluating ``jobs`` probes per round.
    """
    if strategy not in ("sweep", "bisect"):
        raise ConfigError(f"strategy must be 'sweep' or 'bisect', got {strategy!r}")
    if client_counts is None:
        client_counts = _default_grid(scenario)
    if strategy == "bisect":
        cache = ResultCache(cache_dir) if use_cache else None
        with SweepExecutor(jobs=jobs, cache=cache) as executor:
            curve = bisect_peak(executor, _sweep_task(scenario), client_counts, latency_cap)
    else:
        curve = throughput_curve(
            scenario,
            client_counts,
            latency_cap=latency_cap,
            jobs=jobs,
            use_cache=use_cache,
            cache_dir=cache_dir,
        )
    return peak_at_latency_cap(curve, latency_cap), curve


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
