"""Process-parallel sharded simulation: one sweep task per consensus group.

The serial :class:`~repro.shard.ShardedCluster` advances all G groups in
ONE simulator, so a sharded run gets no multi-core benefit.  The groups
never exchange simulator events, though — client routing is resolved
before injection and each group owns a private
:class:`~repro.network.simnet.SimNetwork` — so a G-group run is G
independent deterministic tasks.  :class:`ParallelShardedCluster` hands
them to the repo's one process engine,
:class:`~repro.harness.parallel.SweepExecutor` (``kind="shard_group"``),
and merges the per-group results in shard order.

A parallel run is **byte-identical** to the serial one (per-group event
counts, commit-trace SHAs, ``journeys_blob``) because both engines give
every group its own :func:`~repro.network.simnet.shard_net_rng` jitter
stream, the crypto service is a pure function of the cluster shape (each
task rebuilds an identical one), and every cross-group read-out is
assembled in shard order.  Only the ``crypto_qc_cache_*`` counters
differ: the serial engine shares one QC-verification cache across
groups.  Speedup needs multiple cores; see EXPERIMENTS.md ("Parallel
DES").
"""

from __future__ import annotations

from typing import Any

from repro.common.config import ExperimentConfig
from repro.common.errors import ConfigError
from repro.shard.cluster import (
    GroupResult,
    build_group,
    merged_latency,
    read_group,
)
from repro.shard.config import ShardConfig

__all__ = ["GroupResult", "ParallelShardedCluster"]


def _eval_group(task: dict[str, Any]) -> dict[str, Any]:
    """Sweep task ``kind="shard_group"``: build, run and read out one group.

    The same code runs in a spawn worker (``jobs > 1``) and inline
    (``jobs == 1``).  Safety is asserted before the result ships.
    """
    from repro.harness.workload import ClosedLoopClients
    from repro.obs.journey import JourneyRecorder

    shard, shard_id = task["shard"], task["shard_id"]
    journey = JourneyRecorder(*task["journey"]) if task["journey"] else None
    group = build_group(
        task["experiment"],
        shard,
        shard.make_router(),
        shard_id,
        sim=None,
        crypto=None,
        journey=journey,
        **task["group"],
    )
    cluster = group.cluster
    client_ids = list(task["client_ids"])
    workload = task["workload"]
    pool = None
    if client_ids:
        pool = ClosedLoopClients(
            cluster,
            num_clients=len(client_ids) * workload["token_weight"],
            client_ids=client_ids,
            shard=shard_id,
            **workload,
        )
    cluster.start()
    if pool is not None:
        cluster.sim.schedule_at(task["start_at"], pool.start)
    cluster.sim.run(until=task["sim_time"])
    cluster.assert_safety()
    return {
        "group": read_group(group, pool),
        "journey_events": journey._events if journey is not None else {},
    }


class ParallelShardedCluster:
    """G independent consensus groups across ``jobs`` worker processes.

    Construction mirrors :class:`~repro.shard.ShardedCluster`; the run
    happens in :meth:`run_workload`, because worker processes cannot be
    handed live callbacks — the workload shape ships to them as data and
    each group is built worker-side.  Afterwards the instance holds one
    :class:`GroupResult` per group and offers the serial engine's
    read-outs, assembled in shard order.  ``jobs == 1`` runs every group
    task inline, which is the reference the equivalence tests compare
    ``jobs == 4`` against.  A worker's exception surfaces with its own
    type.
    """

    def __init__(
        self,
        experiment: ExperimentConfig,
        shard: ShardConfig | None = None,
        protocol: str = "marlin",
        crypto_mode: str = "null",
        pipeline: Any | None = None,
        jobs: int = 1,
        journey: Any | None = None,
        audit: bool = False,
        metrics: bool = False,
    ) -> None:
        self.experiment = experiment
        self.shard = shard if shard is not None else ShardConfig()
        if self.shard.shards < 2:
            raise ConfigError(
                "the parallel engine decomposes per consensus group; "
                "shard.shards must be >= 2 (an unsharded run has nothing "
                "to parallelise)"
            )
        if jobs < 1:
            raise ConfigError(f"des_jobs must be >= 1, got {jobs}")
        self.jobs = min(jobs, self.shard.shards)
        self.journey = journey if journey is not None and journey.enabled else None
        self.router = self.shard.make_router()
        self._group = dict(
            protocol=protocol,
            crypto_mode=crypto_mode,
            pipeline=pipeline,
            audit=audit,
            metrics=metrics,
        )
        self.group_results: list[GroupResult] = []

    def run_workload(
        self,
        num_clients: int,
        sim_time: float,
        request_size: int | None = None,
        reply_size: int | None = None,
        token_weight: int = 1,
        target: str = "leader",
        warmup: float = 0.0,
        mode: str = "hub",
        client_config: Any | None = None,
        start_at: float = 0.01,
    ) -> None:
        """Run the standard sharded closed-loop workload to ``sim_time``.

        Client partitioning matches
        :class:`~repro.harness.workload.ShardedClosedLoopClients` token
        for token: global ids start at ``num_replicas + 1`` and the
        shared router assigns each to exactly one group.
        """
        from repro.harness.parallel import SweepExecutor

        if self.group_results:
            raise ConfigError("this engine already ran; build a fresh one")
        if num_clients < 1:
            raise ConfigError("need at least one client")
        if token_weight < 1:
            raise ConfigError("token_weight must be >= 1")
        base = self.experiment.cluster.num_replicas + 1
        partition = self.router.partition_clients(
            [base + i for i in range(max(1, num_clients // token_weight))]
        )
        journey = self.journey
        workload = dict(
            request_size=request_size,
            reply_size=reply_size,
            token_weight=token_weight,
            target=target,
            warmup=warmup,
            mode=mode,
            client_config=client_config,
        )
        tasks = [
            {
                "kind": "shard_group",
                "experiment": self.experiment,
                "shard": self.shard,
                "shard_id": shard_id,
                "group": self._group,
                "journey": (journey.seed, journey.rate) if journey is not None else None,
                "client_ids": tuple(partition[shard_id]),
                "workload": workload,
                "start_at": start_at,
                "sim_time": sim_time,
            }
            for shard_id in range(self.shard.shards)
        ]
        # Uncached: per-group registries are not JSON.
        with SweepExecutor(jobs=self.jobs) as executor:
            values = executor.run_tasks(tasks)
        self.group_results = [value["group"] for value in values]
        if journey is not None:
            for value in values:
                journey._events.update(value["journey_events"])

    # ------------------------------------------------------------ readouts

    def commit_trace(self) -> list[list[Any]]:
        """Flattened commit history, identical to the serial engine's."""
        return [
            [result.shard_id, *row]
            for result in self.group_results
            for row in result.commit_trace
        ]

    def per_group_events(self) -> dict[int, int]:
        """Events processed by each group's simulator."""
        return {r.shard_id: r.events_processed for r in self.group_results}

    def total_ops_committed(self) -> int:
        return sum(result.ops_committed for result in self.group_results)

    @property
    def blocks_committed(self) -> int:
        return sum(result.blocks_committed for result in self.group_results)

    def per_shard_tps(self, duration: float) -> list[float]:
        if duration <= 0:
            return [0.0 for _ in self.group_results]
        return [result.pool_ops / duration for result in self.group_results]

    def merged_latency(self, window_start: float = 0.0) -> Any:
        return merged_latency(self.group_results, window_start)
