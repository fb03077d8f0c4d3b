"""The six workloads of the perf benchmark.

Every workload exposes the same four calls the worker drives:

* ``params(scale)`` — the scenario parameters at that size, recorded in
  every result file;
* ``warm_up(seed)`` — one short run, part of set-up (imports, key
  generation, code paths touched once);
* ``rep(seed, scale, profiler)`` — one timed repetition through the
  public facade, returning a :class:`Rep`; with a profiler the timed
  region (and only it) runs under cProfile;
* ``counts(seed, scale, rep, untraced)`` — per-layer work counters read
  from public surfaces after the traced repetition (host-time ratios
  come from the untraced one).

``scale`` shrinks a workload for ``--smoke`` and the warm-up; 1.0 is the
size every published number uses.  Sizes were tuned on the 2-core
container to ~2.5 CPU-s per repetition.
"""

from __future__ import annotations

import asyncio
import gc
import math
import os
import resource
import shutil
import socket
import stat
import statistics
import struct
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any

from repro.api import (
    DEFAULT_MAX_BATCH,
    ClientConfig,
    ClosedLoopClients,
    ClusterConfig,
    DESCluster,
    ExperimentConfig,
    JourneyRecorder,
    LocalCluster,
    RunObservability,
    Scenario,
    ShardConfig,
    ShardedClosedLoopClients,
    ShardedCluster,
    latency_breakdown,
    load_point,
    run_campaign,
    view_change_latency,
)
from repro.runtime.app import KVStateMachine

#: A request not certified within this many seconds (simulated for
#: ``des_*``, wall for ``rt_tcp``) counts as failed.
LATENCY_LIMIT_S = 5.0

WARM_UP_SCALE = 0.03


class BenchError(Exception):
    """A named harness failure (port block busy, fd limit, stuck cluster)."""


@dataclass
class Rep:
    """What one repetition measured."""

    cpu_s: float
    wall_s: float
    #: Certified operations in the measurement window (grid cells for
    #: ``des_faults``): the denominator of every per-op ratio.
    ops: int
    ops_per_s: float
    p50_ms: float
    #: p99 in simulated time; p95 on ``rt_tcp``, whose wall-clock p99 moves
    #: four times as much between identical runs.
    tail_ms: float
    attempted: int
    failed: int
    #: Failed correctness checks, by name; any entry fails the run.
    errors: list[str] = field(default_factory=list)
    #: Simulated-time results: must be bit-identical across repetitions.
    exact: dict[str, float] = field(default_factory=dict)
    #: Whatever ``counts`` needs from this repetition.
    extra: dict[str, Any] = field(default_factory=dict)


class Measured:
    """Times a region in CPU and wall seconds, optionally under cProfile."""

    def __init__(self, profiler: Any | None) -> None:
        self._profiler = profiler
        self.cpu_s = 0.0
        self.wall_s = 0.0

    def __enter__(self) -> "Measured":
        gc.collect()
        if self._profiler is not None:
            self._profiler.enable()
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, *exc: object) -> None:
        self.cpu_s = time.process_time() - self._cpu0
        self.wall_s = time.perf_counter() - self._wall0
        if self._profiler is not None:
            self._profiler.disable()


def _percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _late_share(result: Any) -> float:
    """Lower bound on the share of certified requests over the latency
    limit, from the percentile ladder a ``RunResult`` carries."""
    ladder = (
        (result.p50_latency, 0.5),
        (result.p90_latency, 0.1),
        (result.p99_latency, 0.01),
        (result.p999_latency, 0.001),
    )
    for latency, share in ladder:
        if latency > LATENCY_LIMIT_S:
            return share
    return 0.0


def _scaled_times(sim_time: float, warmup: float, scale: float) -> tuple[float, float]:
    """Shrink a (sim_time, warmup) pair, keeping a measurable window."""
    if scale >= 1.0:
        return sim_time, warmup
    small_warmup = max(1.0, warmup * max(scale, 0.2))
    return small_warmup + max(1.0, (sim_time - warmup) * scale), small_warmup


def _events_processed(clusters: list[Any]) -> int:
    """Simulator events of finished DES groups (which may share one simulator)."""
    return sum(sim.events_processed for sim in {id(c.sim): c.sim for c in clusters}.values())


def _replica_counts(clusters: list[Any]) -> dict[str, float]:
    """Consensus, crypto, network and des counters of finished DES groups."""
    blocks = sum(max(r.stats["blocks_committed"] for r in c.replicas) for c in clusters)
    ops = sum(c.total_ops_committed() for c in clusters)
    handled = sum(r.stats["messages_handled"] for c in clusters for r in c.replicas)
    messages = sum(c.network.stats.messages for c in clusters)
    wire_bytes = sum(c.network.stats.bytes for c in clusters)
    services = {id(c.crypto): c.crypto for c in clusters}.values()
    lookups = sum(s.qc_cache_hits + s.qc_cache_misses for s in services)
    return {
        "des.events_per_op": _events_processed(clusters) / max(ops, 1),
        "network.msgs_per_op": messages / max(ops, 1),
        "network.bytes_per_op": wire_bytes / max(ops, 1),
        "consensus.ops_per_block": ops / max(blocks, 1),
        "consensus.msgs_handled_per_block": handled / max(blocks, 1),
        "consensus.views_entered": max(
            r.stats["views_entered"] for c in clusters for r in c.replicas
        ),
        "consensus.view_changes": max(
            r.stats["view_changes"] for c in clusters for r in c.replicas
        ),
        "crypto.qc_cache_hit_ratio": (
            sum(s.qc_cache_hits for s in services) / lookups if lookups else 0.0
        ),
    }


def _client_counts(pools: list[Any]) -> dict[str, float]:
    real = [p for p in pools if p is not None and p.mode == "real"]
    return {
        "client.retransmits": sum(p.retransmits for p in real),
        "client.reply_mismatches": sum(p.reply_mismatches for p in real),
        "client.requests_shed": sum(p.shed for p in real),
    }


class DesLoad:
    """A failure-free closed-loop load point through ``repro.api``."""

    #: ``load_point`` or ``latency_breakdown`` (journey tracing armed).
    traced_journeys = False

    def __init__(self, name: str, **scenario: Any) -> None:
        self.name = name
        self._scenario = scenario

    def scenario(self, seed: int, scale: float, **overrides: Any) -> Scenario:
        fields = dict(self._scenario)
        fields["sim_time"], fields["warmup"] = _scaled_times(
            fields["sim_time"], fields["warmup"], scale
        )
        fields.update(overrides)
        return Scenario(seed=seed, **fields)

    def params(self, scale: float) -> dict[str, Any]:
        scenario = self.scenario(0, scale)
        out = {
            "entry_point": "latency_breakdown" if self.traced_journeys else "load_point",
            "loop": "closed, one outstanding request per client",
        }
        for key in ("protocol", "f", "clients", "sim_time", "warmup", "crypto", "shards"):
            out[key] = getattr(scenario, key)
        out["client_mode"] = scenario.client.mode if scenario.client else "hub"
        return out

    def run(self, scenario: Scenario) -> Any:
        if self.traced_journeys:
            result, _recorder = latency_breakdown(scenario, sample_rate=1.0)
            return result
        return load_point(scenario)

    def warm_up(self, seed: int) -> None:
        self.run(self.scenario(seed, WARM_UP_SCALE))

    def rep(self, seed: int, scale: float, profiler: Any | None = None) -> Rep:
        scenario = self.scenario(seed, scale)
        with Measured(profiler) as timed:
            result = self.run(scenario)
        return self._rep_of(result, scenario, timed)

    def _rep_of(self, result: Any, scenario: Scenario, timed: Measured) -> Rep:
        window = scenario.sim_time - scenario.warmup
        ops = round(result.throughput_tps * window)
        errors = []
        if ops <= 0:
            errors.append("no request certified in the measurement window")
        late = math.ceil(_late_share(result) * ops)
        if late:
            errors.append(f"certified latency above {LATENCY_LIMIT_S} simulated s")
        return Rep(
            cpu_s=timed.cpu_s,
            wall_s=timed.wall_s,
            ops=ops,
            ops_per_s=result.throughput_tps,
            p50_ms=result.p50_latency * 1e3,
            tail_ms=result.p99_latency * 1e3,
            attempted=max(ops, 1),
            failed=late,
            errors=errors,
            exact={
                "ops_per_s": result.throughput_tps,
                "p50_ms": result.p50_latency * 1e3,
                "tail_ms": result.p99_latency * 1e3,
                "mean_ms": result.mean_latency * 1e3,
                "blocks_committed": result.blocks_committed,
            },
        )

    # The facade's RunResult carries no event, message or cache counters,
    # so the same scenario is rebuilt from the exported cluster classes
    # and checked to reproduce the facade's simulated results exactly.
    def counts(self, seed: int, scale: float, rep: Rep, untraced: Rep) -> dict[str, float]:
        scenario = self.scenario(seed, scale)
        experiment = ExperimentConfig(
            cluster=ClusterConfig.for_f(
                scenario.f,
                batch_size=DEFAULT_MAX_BATCH,
                base_timeout=120.0,
                max_timeout=240.0,
            ),
            seed=seed,
        )
        recorder = JourneyRecorder(seed, rate=1.0) if self.traced_journeys else None
        pool_kwargs = dict(
            num_clients=scenario.clients,
            request_size=scenario.request_size,
            reply_size=scenario.reply_size,
            token_weight=max(1, scenario.clients // 384),
            target="leader",
            warmup=scenario.warmup,
            mode=scenario.client.mode if scenario.client else "hub",
            client_config=scenario.client,
        )
        cpu0 = time.process_time()
        if scenario.shards > 1:
            deployment = ShardedCluster(
                experiment,
                shard=ShardConfig(shards=scenario.shards),
                protocol=scenario.protocol,
                crypto_mode=scenario.crypto,
                journey=recorder,
            )
            pool = ShardedClosedLoopClients(deployment, **pool_kwargs)
            clusters = [group.cluster for group in deployment.groups]
            pools = pool.pools
        else:
            observability = (
                RunObservability(trace=False, metrics=False, journey=recorder)
                if recorder is not None
                else None
            )
            deployment = DESCluster(
                experiment,
                protocol=scenario.protocol,
                crypto_mode=scenario.crypto,
                observability=observability,
            )
            pool = ClosedLoopClients(deployment, **pool_kwargs)
            clusters = [deployment]
            pools = [pool]
        deployment.start()
        deployment.sim.schedule(0.01, pool.start)
        deployment.run(until=scenario.sim_time)
        deployment.assert_safety()
        cpu = time.process_time() - cpu0
        summary = pool.summary()
        rebuilt = {
            "p50_ms": summary["p50_latency"] * 1e3,
            "tail_ms": summary["p99_latency"] * 1e3,
            "mean_ms": summary["mean_latency"] * 1e3,
        }
        for key, value in rebuilt.items():
            if value != rep.exact[key]:
                raise BenchError(
                    f"{self.name}: rebuilt scenario disagrees with the facade "
                    f"on {key}: {value!r} != {rep.exact[key]!r}"
                )
        out = _replica_counts(clusters)
        out.update(_client_counts(pools))
        out["des.events_per_cpu_s"] = _events_processed(clusters) / cpu
        out["obs.journeys_recorded"] = len(recorder) if recorder is not None else 0
        return out


class DesRealObs(DesLoad):
    traced_journeys = True


class DesF1(DesLoad):
    """``des_f1`` plus the untimed HotStuff run of the same scenario."""

    def counts(self, seed: int, scale: float, rep: Rep, untraced: Rep) -> dict[str, float]:
        out = super().counts(seed, scale, rep, untraced)
        hotstuff = load_point(self.scenario(seed, scale, protocol="hotstuff"))
        out["consensus.p50_vs_hotstuff"] = rep.p50_ms / (hotstuff.p50_latency * 1e3)
        return out


class DesShard4(DesLoad):
    """``des_shard4`` plus the process-parallel engine, measured in wall."""

    def counts(self, seed: int, scale: float, rep: Rep, untraced: Rep) -> dict[str, float]:
        out = super().counts(seed, scale, rep, untraced)
        scenario = self.scenario(seed, scale, des_jobs=2)
        walls = []
        for _ in range(2):
            start = time.perf_counter()
            result = load_point(scenario)
            walls.append(time.perf_counter() - start)
            if result.p50_latency * 1e3 != rep.exact["p50_ms"]:
                raise BenchError("des_shard4: des_jobs=2 disagrees with the serial run")
        # A near-empty run of the same topology is all worker boot.
        start = time.perf_counter()
        load_point(scenario.with_overrides(sim_time=0.2, warmup=0.1))
        out["des.parallel_boot_s"] = time.perf_counter() - start
        out["des.parallel_speedup_jobs2"] = untraced.wall_s / min(walls)
        return out


class DesFaults:
    """The adversary grid, the two Fig. 10i view changes, and one
    leader crash under load for the service-level view of the outage."""

    name = "des_faults"
    crash_at = 3.0
    crash_clients = 64

    def _sizes(self, scale: float) -> dict[str, Any]:
        if scale >= 1.0:
            return {"scenarios": None, "seeds": 2, "crash_run_until": 8.0}
        # One attack the grid must detect, against all four protocols.
        return {"scenarios": ["forking-attack"], "seeds": 1, "crash_run_until": 5.0}

    def params(self, scale: float) -> dict[str, Any]:
        sizes = self._sizes(scale)
        return {
            "entry_point": "run_campaign + view_change_latency + leader crash under load",
            "grid": "7 scenarios x 4 protocols x 2 seeds"
            if sizes["scenarios"] is None
            else f"{sizes['scenarios']} x 4 protocols x 1 seed",
            "grid_seeds": "seed .. seed+%d" % (sizes["seeds"] - 1),
            "crash_run": {
                "f": 1,
                "clients": self.crash_clients,
                "crash_leader_at": self.crash_at,
                "sim_time": sizes["crash_run_until"],
                "base_timeout": 0.5,
            },
            "loop": "closed, one outstanding request per client",
        }

    def warm_up(self, seed: int) -> None:
        run_campaign(scenarios=["forking-attack"], seeds=(seed,), jobs=1, use_cache=False)
        self._view_change(seed, force_unhappy=False)

    # ``view_change_latency`` stops at the first commit after the crash; on
    # ~2 % of seeds (42, 116, 209, ... on the unhappy path) that commit
    # precedes the view change and the call raises instead of measuring.
    # Walk to the next seed that measures: still a function of ``seed`` alone.
    @staticmethod
    def _view_change(seed: int, force_unhappy: bool) -> Any:
        for attempt in range(16):
            try:
                return view_change_latency(
                    "marlin", 1, force_unhappy=force_unhappy, seed=seed + 7919 * attempt
                )
            except RuntimeError as exc:
                if "never committed after the view change" not in str(exc):
                    raise
        raise BenchError(f"des_faults: no view change measured in 16 seeds from {seed}")

    def _crash_run(self, seed: int, until: float) -> tuple[Any, Any]:
        experiment = ExperimentConfig(
            cluster=ClusterConfig.for_f(1, batch_size=4000, base_timeout=0.5), seed=seed
        )
        cluster = DESCluster(experiment, protocol="marlin", crypto_mode="null")
        pool = ClosedLoopClients(
            cluster, num_clients=self.crash_clients, token_weight=1, target="all", warmup=0.0
        )
        cluster.start()
        cluster.sim.schedule(0.01, pool.start)
        cluster.crash_at(0, self.crash_at)  # replica 0 leads view 1
        cluster.run(until=until)
        cluster.assert_safety()
        return cluster, pool

    def rep(self, seed: int, scale: float, profiler: Any | None = None) -> Rep:
        sizes = self._sizes(scale)
        with Measured(profiler) as timed:
            grid_cpu0 = time.process_time()
            campaign = run_campaign(
                scenarios=sizes["scenarios"],
                seeds=tuple(seed + i for i in range(sizes["seeds"])),
                jobs=1,
                use_cache=False,
            )
            grid_cpu = time.process_time() - grid_cpu0
            happy = self._view_change(seed, force_unhappy=False)
            unhappy = self._view_change(seed, force_unhappy=True)
            cluster, pool = self._crash_run(seed, sizes["crash_run_until"])
        cells = len(campaign.cells)
        bad = campaign.missed() + campaign.unexpected()
        errors = [f"{c.scenario}/{c.protocol}/seed {c.seed}: {c.verdict}" for c in bad]
        samples = sorted(latency for _, latency, _ in pool.latency.samples)
        if not samples:
            raise BenchError("des_faults: the crash run certified nothing")
        late = sum(1 for latency in samples if latency > LATENCY_LIMIT_S)
        if late:
            errors.append(f"{late} crash-run requests above {LATENCY_LIMIT_S} simulated s")
        # The 64 clients certify in lockstep, so a fixed horizon would
        # quantise the rate by whole batches; end at the last certificate.
        ops_per_s = len(samples) / max(when for when, _, _ in pool.latency.samples)
        p50_ms = _percentile(samples, 50.0) * 1e3
        tail_ms = _percentile(samples, 99.0) * 1e3
        verdicts = [c.verdict for c in campaign.cells]
        return Rep(
            cpu_s=timed.cpu_s,
            wall_s=timed.wall_s,
            ops=cells,
            ops_per_s=ops_per_s,
            p50_ms=p50_ms,
            tail_ms=tail_ms,
            attempted=cells,
            failed=len(bad),
            errors=errors,
            exact={
                "ops_per_s": ops_per_s,
                "p50_ms": p50_ms,
                "tail_ms": tail_ms,
                "vc_happy_ms": happy.latency * 1e3,
                "vc_unhappy_ms": unhappy.latency * 1e3,
                "detected": verdicts.count("violation-detected"),
                "safe": verdicts.count("safe"),
            },
            extra={"grid_cpu_s": grid_cpu, "cluster": cluster, "pool": pool},
        )

    def counts(self, seed: int, scale: float, rep: Rep, untraced: Rep) -> dict[str, float]:
        out = _replica_counts([rep.extra["cluster"]])
        out.update(_client_counts([rep.extra["pool"]]))
        out["consensus.vc_happy_ms"] = rep.exact["vc_happy_ms"]
        out["consensus.vc_unhappy_ms"] = rep.exact["vc_unhappy_ms"]
        out["adversary.cells_per_cpu_s"] = rep.ops / untraced.extra["grid_cpu_s"]
        return out


def _abort_connections_on_close() -> None:
    """Make every connected TCP socket of this process reset on close.

    One ``rt_tcp`` cluster is ~1.3k loopback connections.  Closed normally,
    each leaves a TIME_WAIT socket on an ephemeral port for a minute, and
    whatever then binds a fixed port in that range (the tier-1 TCP tests
    do) fails with EADDRINUSE.  SO_LINGER with a zero timeout closes with
    a reset and leaves nothing behind.  The sockets are found through
    ``/proc/self/fd`` because the transport does not expose them.
    """
    linger = struct.pack("ii", 1, 0)
    for name in os.listdir("/proc/self/fd"):
        try:
            if not stat.S_ISSOCK(os.fstat(int(name)).st_mode):
                continue
            with socket.socket(fileno=os.dup(int(name))) as sock:
                if sock.family == socket.AF_INET and sock.type == socket.SOCK_STREAM:
                    sock.getpeername()  # raises on listeners: only connections
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, linger)
        except (OSError, ValueError):
            continue


class RtTcp:
    """``LocalCluster`` over loopback TCP under closed-loop KV writes."""

    name = "rt_tcp"
    clients = 32
    first_client_id = 100
    ops_per_client = 120
    warm_ops_per_client = 8
    value = b"v" * 100
    lag_tick_s = 0.005

    def __init__(self, tmp_root: str) -> None:
        self._tmp_root = tmp_root

    def _ops_per_client(self, scale: float) -> int:
        return max(4, round(self.ops_per_client * scale))

    def params(self, scale: float) -> dict[str, Any]:
        return {
            "entry_point": "LocalCluster",
            "protocol": "marlin",
            "f": 1,
            "transport": "tcp",
            "batch_size": 64,
            "crypto": "threshold",
            "storage": "WAL + KV store on disk",
            "clients": self.clients,
            "loop": "closed, one outstanding request per client id",
            "ops_per_client": self._ops_per_client(scale),
            "warm_ops_per_client": self.warm_ops_per_client,
            "op": "KVStateMachine.encode_set, 100-byte value",
        }

    def warm_up(self, seed: int) -> None:
        self.rep(seed, WARM_UP_SCALE)

    def rep(self, seed: int, scale: float, profiler: Any | None = None) -> Rep:
        return asyncio.run(self._rep(seed, self._ops_per_client(scale), profiler))

    # ``TcpNetwork`` dials every ordered endpoint pair inside one process,
    # so the mesh needs two descriptors per pair plus one listener each.
    def _check_fd_limit(self) -> None:
        endpoints = 4 + self.clients
        needed = 2 * endpoints * (endpoints - 1) + endpoints + 64
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft >= needed:
            return
        if hard != resource.RLIM_INFINITY and hard < needed:
            raise BenchError(
                f"rt_tcp: RLIMIT_NOFILE hard limit {hard} is below the "
                f"{needed} descriptors a {endpoints}-endpoint TCP mesh needs"
            )
        resource.setrlimit(resource.RLIMIT_NOFILE, (needed, hard))

    # ``LocalCluster`` derives its base port from ``seed`` (29000 + 100 per
    # seed); walk seeds until every port the run will bind is free.  Only
    # blocks below the kernel's ephemeral range (32768 up) are tried, so
    # the mesh's own outgoing connections cannot take a listener's port.
    def _free_cluster_seed(self, seed: int) -> int:
        endpoints = list(range(4)) + [self.first_client_id + i for i in range(self.clients)]
        for attempt in range(36):
            candidate = (seed + attempt) % 36
            base = 29000 + candidate * 100
            if all(self._port_is_free(base + endpoint) for endpoint in endpoints):
                return candidate
        raise BenchError("rt_tcp: no free port block among the 36 from 29000 to 32500")

    @staticmethod
    def _port_is_free(port: int) -> bool:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                probe.bind(("127.0.0.1", port))
            except OSError:
                return False
        return True

    async def _rep(self, seed: int, ops_per_client: int, profiler: Any | None) -> Rep:
        self._check_fd_limit()
        cluster_seed = self._free_cluster_seed(seed)
        os.makedirs(self._tmp_root, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="rt_tcp_", dir=self._tmp_root)
        cluster = LocalCluster(
            f=1,
            protocol="marlin",
            transport="tcp",
            batch_size=64,
            data_dirs=[os.path.join(tmp, f"replica{i}") for i in range(4)],
            client_config=ClientConfig(mode="real"),
            seed=cluster_seed,
        )
        # Endpoints exist before start() so the mesh dials them.
        clients = [
            cluster.client(client_id=self.first_client_id + i) for i in range(self.clients)
        ]
        try:
            try:
                await cluster.start()
                rep = await self._load(cluster, clients, ops_per_client, profiler)
            finally:
                _abort_connections_on_close()
                await cluster.stop()  # closes every KV store, which syncs its WAL
            wal_bytes = sum(
                os.path.getsize(os.path.join(tmp, f"replica{i}", "wal.log")) for i in range(4)
            )
            total_ops = (self.warm_ops_per_client + ops_per_client) * self.clients
            rep.extra["storage.wal_bytes_per_op"] = wal_bytes / 4 / total_ops
            return rep
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    async def _load(
        self, cluster: Any, clients: list[Any], ops_per_client: int, profiler: Any | None
    ) -> Rep:
        latencies: list[float] = []
        failures: list[str] = []
        short_certificates = 0
        need = cluster.config.f + 1

        async def closed_loop(index: int, client: Any, first: int, count: int) -> None:
            nonlocal short_certificates
            for k in range(first, first + count):
                op = KVStateMachine.encode_set(b"key-%d-%d" % (index, k), self.value)
                start = time.perf_counter()
                try:
                    certificate = await client.submit(op, timeout=LATENCY_LIMIT_S)
                except asyncio.TimeoutError:
                    failures.append(f"client {index} op {k} not certified in {LATENCY_LIMIT_S} s")
                    continue
                latencies.append(time.perf_counter() - start)
                if len(certificate.replicas) < need:
                    short_certificates += 1

        async def everyone(first: int, count: int) -> None:
            await asyncio.gather(
                *(closed_loop(i, c, first, count) for i, c in enumerate(clients))
            )

        lags: list[float] = []

        async def lag_probe() -> None:
            while True:
                due = time.perf_counter() + self.lag_tick_s
                await asyncio.sleep(self.lag_tick_s)
                lags.append(time.perf_counter() - due)

        await everyone(0, self.warm_ops_per_client)
        latencies.clear()
        failures.clear()
        # The lag probe is itself load, so only the traced pass runs it.
        probe = asyncio.ensure_future(lag_probe()) if profiler is not None else None
        with Measured(profiler) as timed:
            await everyone(self.warm_ops_per_client, ops_per_client)
        if probe is not None:
            probe.cancel()

        errors = failures[:5]
        certified = len(latencies)
        attempted = ops_per_client * len(clients)
        if short_certificates:
            errors.append(f"{short_certificates} certificates with fewer than f+1 replies")
        retransmits = sum(c.session.retransmits for c in clients)
        mismatches = sum(c.session.collector.mismatches for c in clients)
        if retransmits:
            errors.append(f"{retransmits} client retransmits in a failure-free run")
        if mismatches:
            errors.append(f"{mismatches} reply mismatches")
        try:
            await cluster.wait_for_height(
                max(cluster.committed_heights()), timeout=LATENCY_LIMIT_S, quorum_only=False
            )
        except TimeoutError as exc:
            errors.append(f"replica heights disagree: {exc}")
        if len(set(cluster.state_digests())) != 1:
            errors.append("replica state digests disagree")
        if not certified:
            raise BenchError("rt_tcp: nothing certified: " + "; ".join(errors))

        ordered = sorted(latencies)
        total_ops = (self.warm_ops_per_client + ops_per_client) * len(clients)
        blocks = max(cluster.committed_heights())
        handled = sum(n.replica.stats["messages_handled"] for n in cluster.nodes)
        lookups = cluster.crypto.qc_cache_hits + cluster.crypto.qc_cache_misses
        extra = {
            "consensus.ops_per_block": total_ops / max(blocks, 1),
            "consensus.msgs_handled_per_block": handled / max(blocks, 1),
            "consensus.views_entered": max(
                n.replica.stats["views_entered"] for n in cluster.nodes
            ),
            "consensus.view_changes": max(
                n.replica.stats["view_changes"] for n in cluster.nodes
            ),
            "crypto.qc_cache_hit_ratio": (
                cluster.crypto.qc_cache_hits / lookups if lookups else 0.0
            ),
            "client.retransmits": retransmits,
            "client.reply_mismatches": mismatches,
            "client.requests_shed": sum(n.client_service.shed for n in cluster.nodes),
            "storage.kv_runs": sum(n.kv.num_runs for n in cluster.nodes),
            "runtime.cpu_ms_per_op": timed.cpu_s / certified * 1e3,
            "runtime.p99_ms": _percentile(ordered, 99.0) * 1e3,
        }
        if len(lags) >= 10:
            extra["runtime.loop_lag_p99_ms"] = _percentile(sorted(lags), 99.0) * 1e3
        return Rep(
            cpu_s=timed.cpu_s,
            wall_s=timed.wall_s,
            ops=certified,
            ops_per_s=certified / timed.wall_s,
            p50_ms=statistics.median(ordered) * 1e3,
            tail_ms=_percentile(ordered, 95.0) * 1e3,
            attempted=attempted,
            failed=attempted - certified,
            errors=errors,
            extra=extra,
        )

    def counts(self, seed: int, scale: float, rep: Rep, untraced: Rep) -> dict[str, float]:
        out = dict(rep.extra)
        for name in ("runtime.cpu_ms_per_op", "runtime.p99_ms"):
            out[name] = untraced.extra[name]
        return out


def build(tmp_root: str) -> dict[str, Any]:
    """The six workloads by name, in reporting order."""
    real = ClientConfig(mode="real")
    workloads = [
        DesF1("des_f1", protocol="marlin", f=1, clients=384, sim_time=170.0, warmup=10.0),
        DesLoad("des_f10", protocol="marlin", f=10, clients=1024, sim_time=50.0, warmup=10.0),
        DesRealObs(
            "des_real_obs",
            protocol="marlin",
            f=1,
            # 4096 clients flip between two batching regimes from seed to
            # seed (13.1k vs 10.9k ops/s); 2048 stay in one.
            clients=2048,
            sim_time=15.0,
            warmup=5.0,
            client=real,
            crypto="threshold",
        ),
        DesShard4("des_shard4", protocol="marlin", f=1, shards=4, clients=4096, sim_time=90.0, warmup=10.0),
        DesFaults(),
        RtTcp(tmp_root),
    ]
    return {w.name: w for w in workloads}
