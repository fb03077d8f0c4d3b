"""Many independent consensus groups in one discrete-event simulator.

Marlin's linearity makes one group O(n) per block; the scale-out story
("millions of users", LinBFT-style amortization) runs G such groups side
by side and routes every command to exactly one of them by key.
:class:`ShardedCluster` is that deployment shape for the DES runtime:

* **one shared** :class:`~repro.des.simulator.Simulator` advances all
  groups in a single event loop, so a sharded run is one deterministic
  trace, not G loosely-coupled ones;
* **one shared crypto service** — all groups have the same shape
  ``(n, quorum)``, so they pay one key setup instead of G (the
  refactor that makes per-group state cheap to instantiate);
* **per-group everything else** — each :class:`ShardGroup` owns its
  :class:`~repro.network.simnet.SimNetwork` (endpoint ids never collide
  across groups and messages physically cannot cross shards), replicas,
  ledger, :class:`~repro.harness.invariants.CommitAuditor`, optional
  online auditor, and optional
  :class:`~repro.obs.complexity.ComplexityObservatory` tap.

Routing discipline is enforced, not assumed: with
``ShardConfig.reject_misrouted`` (the default) every group screens
inbound client traffic through the shared
:class:`~repro.client.router.ShardRouter` and *rejects* commands whose
key routes elsewhere — counted in :attr:`ShardGroup.misrouted_ops`,
never silently committed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.client.router import ShardRouter
from repro.common.config import ExperimentConfig
from repro.consensus.messages import ClientRequest, ClientRequestBatch
from repro.consensus.pipeline import PipelineConfig
from repro.des.simulator import Simulator
from repro.harness.des_runtime import DESCluster
from repro.harness.metrics import LatencyRecorder
from repro.network.simnet import shard_net_rng
from repro.obs.complexity import ComplexityObservatory
from repro.obs.observer import RunObservability
from repro.shard.config import ShardConfig


def make_misroute_guard(
    router: ShardRouter, shard_id: int, group: "ShardGroup"
) -> Callable[[int, int, Any], Any]:
    """The misroute filter installed on every replica of one group.

    Client traffic whose routing key maps to a different shard is
    stripped (batches) or dropped (single requests) and counted on
    ``group``; protocol traffic passes untouched.  Installed by
    :func:`build_group`, so the serial :class:`ShardedCluster` and the
    process-parallel engine in :mod:`repro.shard.parallel` enforce
    identical discipline.
    """

    def guard(replica_id: int, src: int, payload: Any) -> Any:
        if isinstance(payload, ClientRequest):
            if router.shard_of_client(payload.client_id) == shard_id:
                return payload
            group.misrouted_ops += payload.weight
            group.misrouted_messages += 1
            return None
        if isinstance(payload, ClientRequestBatch):
            native = tuple(
                op
                for op in payload.operations
                if router.shard_of_client(op.client_id) == shard_id
            )
            if len(native) == len(payload.operations):
                return payload
            group.misrouted_ops += sum(
                op.weight
                for op in payload.operations
                if router.shard_of_client(op.client_id) != shard_id
            )
            group.misrouted_messages += 1
            if not native:
                return None
            return ClientRequestBatch(operations=native)
        return payload

    return guard


@dataclass
class ShardGroup:
    """One consensus group of a sharded deployment."""

    shard_id: int
    cluster: DESCluster
    #: Per-group online observability (auditor) when the run is audited.
    observability: RunObservability | None = None
    #: Per-group complexity tap when the run observes message complexity.
    observatory: ComplexityObservatory | None = None
    #: Weighted count of client operations this group refused because
    #: their routing key belongs to a different shard.
    misrouted_ops: int = 0
    #: How many inbound messages the guard dropped or rewrote.
    misrouted_messages: int = field(default=0, repr=False)


def build_group(
    experiment: ExperimentConfig,
    shard: ShardConfig,
    router: ShardRouter,
    shard_id: int,
    protocol: str,
    crypto_mode: str,
    pipeline: PipelineConfig | None,
    sim: Simulator | None,
    crypto: Any | None,
    audit: bool,
    metrics: bool,
    journey: Any | None,
) -> ShardGroup:
    """One consensus group of a sharded deployment, ready to start.

    Both engines build their groups here.  Each group gets its own
    :class:`RunObservability` (so metric label spaces and auditors stay
    group-local) but shares the one ``journey`` recorder passed in —
    (client, seq) keys are globally unique, and one request's checkpoints
    must land in one place regardless of which group served it.  With
    G > 1 the group's network draws jitter from its own
    :func:`shard_net_rng` stream, which decouples its event sequence from
    every other group's.  ``sim=None`` and ``crypto=None`` give the group
    a private simulator and crypto service, as a worker process needs.
    """
    observability = (
        RunObservability(trace=False, metrics=metrics, audit=audit, journey=journey)
        if audit or metrics or journey is not None
        else None
    )
    group = ShardGroup(shard_id=shard_id, cluster=None)  # type: ignore[arg-type]
    group.cluster = DESCluster(
        experiment,
        protocol=protocol,
        crypto_mode=crypto_mode,
        observability=observability,
        pipeline=pipeline,
        sim=sim,
        crypto=crypto,
        inbound_filter=(
            make_misroute_guard(router, shard_id, group)
            if shard.reject_misrouted
            else None
        ),
        net_rng=(
            shard_net_rng(experiment.seed, shard_id) if shard.shards > 1 else None
        ),
    )
    group.observability = observability
    return group


def merged_metrics_snapshot(registries: Iterable[tuple[int, Any]]) -> dict[str, Any]:
    """Per-shard metric views plus the cluster-wide aggregate.

    ``registries`` yields ``(shard_id, registry)`` pairs in shard order.
    ``shards`` maps each shard id to its registry's snapshot — per-group
    label spaces never mix, which is what keeps identically named series
    (every group has ``blocks_committed_total``) from colliding.
    ``cluster`` is the one merged view: every group's series imported
    under an extra ``shard=<gid>`` label, then aggregated with
    ``shard``/``replica`` dropped, so each cluster series is exactly the
    sum of the per-shard ones.
    """
    from repro.obs.metrics import MetricsRegistry

    shards: dict[str, Any] = {}
    combined = MetricsRegistry()
    for shard_id, registry in registries:
        shards[str(shard_id)] = registry.snapshot()
        combined.merge_from(registry, shard=shard_id)
    return {
        "shards": shards,
        "cluster": combined.aggregate(drop_labels=("shard", "replica")).snapshot(),
    }


@dataclass
class GroupResult:
    """Read-outs of one consensus group after a run."""

    shard_id: int
    events_processed: int
    commit_trace: list[list[Any]]
    blocks_committed: int
    ops_committed: int
    misrouted_ops: int
    num_clients: int
    pool_ops: int
    latency_samples: list[tuple[float, float, int]]
    audit_report: dict[str, Any] | None = None
    registry: Any | None = field(default=None, repr=False)


def read_group(group: ShardGroup, pool: Any | None) -> GroupResult:
    """Package one finished group and its client sub-pool (or ``None``).

    Both engines read their groups out through here, so ``repro shard``
    renders one report from either.  On the serial engine the groups
    share one simulator, so ``events_processed`` is that simulator's
    total rather than the group's own.
    """
    cluster = group.cluster
    observability = group.observability
    return GroupResult(
        shard_id=group.shard_id,
        events_processed=cluster.sim.events_processed,
        commit_trace=cluster.commit_trace(),
        blocks_committed=max(
            replica.stats["blocks_committed"] for replica in cluster.replicas
        ),
        ops_committed=cluster.total_ops_committed(),
        misrouted_ops=group.misrouted_ops,
        num_clients=pool.num_clients if pool is not None else 0,
        pool_ops=pool.throughput.ops if pool is not None else 0,
        latency_samples=list(pool.latency.samples) if pool is not None else [],
        audit_report=(
            observability.audit_report()
            if observability is not None and observability.auditor is not None
            else None
        ),
        registry=(
            observability.registry
            if observability is not None and observability.metrics_enabled
            else None
        ),
    )


def merged_latency(
    results: Iterable[GroupResult], window_start: float = 0.0
) -> LatencyRecorder:
    """All groups' weighted samples in one recorder, shard order."""
    merged = LatencyRecorder(window_start=window_start)
    for result in results:
        merged.samples.extend(tuple(sample) for sample in result.latency_samples)
    return merged


class ShardedCluster:
    """G independent consensus groups over one shared simulator.

    The constructor mirrors :class:`~repro.harness.des_runtime.DESCluster`
    where the concepts coincide; ``shard`` carries the topology.  With
    ``ShardConfig()`` (one shard) the behaviour — including the event
    trace — matches a lone ``DESCluster`` with a guard installed.

    With G > 1 every group's network draws jitter from its own
    deterministic per-group stream (:func:`shard_net_rng`) instead of the
    shared simulator RNG.  That decouples the groups' event sequences
    from interleaving order, which is what lets the process-parallel
    engine (:mod:`repro.shard.parallel`) reproduce this serial run byte
    for byte.
    """

    def __init__(
        self,
        experiment: ExperimentConfig,
        shard: ShardConfig | None = None,
        protocol: str = "marlin",
        crypto_mode: str = "null",
        pipeline: PipelineConfig | None = None,
        audit: bool = False,
        observe_complexity: bool = False,
        metrics: bool = False,
        journey: Any | None = None,
    ) -> None:
        self.experiment = experiment
        self.shard = shard if shard is not None else ShardConfig()
        self.protocol = protocol
        self.router: ShardRouter = self.shard.make_router()
        self.sim = Simulator(seed=experiment.seed)
        cluster = experiment.cluster
        self.journey = journey
        # One key setup for all G same-shape groups.
        self.crypto = DESCluster._make_crypto(
            crypto_mode, cluster.num_replicas, cluster.quorum
        )
        self.groups: list[ShardGroup] = []
        for shard_id in range(self.shard.shards):
            group = build_group(
                experiment,
                self.shard,
                self.router,
                shard_id,
                protocol=protocol,
                crypto_mode=crypto_mode,
                pipeline=pipeline,
                sim=self.sim,
                crypto=self.crypto,
                audit=audit,
                metrics=metrics,
                journey=journey,
            )
            if observe_complexity:
                observatory = ComplexityObservatory(num_replicas=cluster.num_replicas)
                observatory.disarm()
                group.cluster.network.add_tap(observatory.tap)
                group.observatory = observatory
            self.groups.append(group)

    # ------------------------------------------------------------- routing

    @property
    def shards(self) -> int:
        return self.shard.shards

    @property
    def misrouted_rejected(self) -> int:
        """Weighted operations rejected across all groups."""
        return sum(group.misrouted_ops for group in self.groups)

    # ------------------------------------------------------------- control

    def start(self) -> None:
        """Boot every replica of every group at t=0."""
        for group in self.groups:
            group.cluster.start()

    def run(self, until: float) -> None:
        self.sim.run(until=until)

    def run_until(
        self, predicate: Callable[[], bool], deadline: float, step: float = 0.05
    ) -> bool:
        """Advance shared simulated time until ``predicate()`` or ``deadline``."""
        while self.sim.now < deadline:
            if predicate():
                return True
            self.sim.run(until=min(self.sim.now + step, deadline))
        return predicate()

    def crash(self, shard_id: int, replica_id: int) -> None:
        """Crash-stop one replica of one group."""
        self.groups[shard_id].cluster.crash(replica_id)

    def crash_at(self, shard_id: int, replica_id: int, time: float) -> None:
        self.sim.schedule_at(time, lambda: self.crash(shard_id, replica_id))

    # ---------------------------------------------------------- observatory

    def arm_observatories(self) -> None:
        for group in self.groups:
            if group.observatory is not None:
                group.observatory.arm()

    def disarm_observatories(self) -> None:
        for group in self.groups:
            if group.observatory is not None:
                group.observatory.disarm()

    # ------------------------------------------------------------ readouts

    def committed_heights(self) -> list[list[int]]:
        """Per-shard committed heights, one inner list per group."""
        return [group.cluster.committed_heights() for group in self.groups]

    def ops_committed_per_shard(self) -> list[int]:
        return [group.cluster.total_ops_committed() for group in self.groups]

    def total_ops_committed(self) -> int:
        """Aggregate committed operations across all groups."""
        return sum(self.ops_committed_per_shard())

    def assert_safety(self) -> None:
        """Raise if any group committed conflicting blocks."""
        for group in self.groups:
            group.cluster.assert_safety()

    def commit_trace(self) -> list[list[Any]]:
        """Flattened deterministic commit history across all groups.

        ``[[shard, replica_id, height, digest, repr(when)], ...]`` —
        groups in shard order, each group's commits in commit order.
        The shape the determinism tests fingerprint for byte-identity.
        """
        trace: list[list[Any]] = []
        for group in self.groups:
            for row in group.cluster.commit_trace():
                trace.append([group.shard_id, *row])
        return trace

    def metrics_snapshot(self) -> dict[str, Any]:
        """Per-shard metric views plus the cluster-wide aggregate
        (see :func:`merged_metrics_snapshot`)."""
        return merged_metrics_snapshot(
            (group.shard_id, group.observability.registry)
            for group in self.groups
            if group.observability is not None
            and group.observability.metrics_enabled
        )

    def audit_reports(self) -> list[dict[str, Any]]:
        """One online-audit report per group (empty when not audited)."""
        return [
            group.observability.audit_report()
            for group in self.groups
            if group.observability is not None
        ]

    def audit_violations(self) -> int:
        """Total online-auditor violations across all audited groups."""
        return sum(len(report.get("violations", [])) for report in self.audit_reports())
