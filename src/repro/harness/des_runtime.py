"""Wiring replicas into the discrete-event simulator.

:class:`DESContext` adapts one :class:`~repro.des.process.Process` and the
shared :class:`~repro.network.simnet.SimNetwork` to the sans-io
:class:`~repro.consensus.context.NodeContext` contract.  CPU realism:

* inbound messages are *processed* when the replica's CPU is free — a
  busy replica queues work exactly like a saturated server;
* outbound messages *leave* when all CPU work charged before the send has
  completed, so a leader that must verify a quorum of shares cannot
  broadcast the resulting QC early.

:class:`DESCluster` assembles an ``n``-replica cluster of any protocol
("marlin", "hotstuff", "insecure") over any crypto scheme ("threshold",
"multisig", "null") and exposes crash injection, the safety auditor, and
the traffic counters the complexity benchmarks read.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from repro.common.config import ExperimentConfig
from repro.common.errors import ConfigError
from repro.consensus.block import genesis_block
from repro.consensus.context import NodeContext
from repro.consensus.costs import PaperCostModel, ZeroCostModel
from repro.consensus.crypto_service import (
    CryptoService,
    MultisigCryptoService,
    NullCryptoService,
    ThresholdCryptoService,
)
from repro.consensus.chained import ChainedHotStuffReplica, ChainedMarlinReplica
from repro.consensus.fasthotstuff import FastHotStuffReplica
from repro.consensus.hotstuff.replica import HotStuffReplica
from repro.consensus.learner import LearnerReplica
from repro.consensus.ledger import CommitLog
from repro.consensus.marlin.replica import MarlinReplica
from repro.consensus.pipeline import PipelineConfig
from repro.consensus.replica_base import ReplicaBase
from repro.consensus.twophase_insecure import TwoPhaseInsecureReplica
from repro.crypto.keys import KeyRegistry
from repro.des.process import Process
from repro.des.simulator import Simulator
from repro.des.timers import TimerWheel
from repro.network.message import WireSizer
from repro.network.simnet import SimNetwork
from repro.obs.audit import CommitAuditor

PROTOCOLS: dict[str, type[ReplicaBase]] = {
    "marlin": MarlinReplica,
    "hotstuff": HotStuffReplica,
    "chained-marlin": ChainedMarlinReplica,
    "chained-hotstuff": ChainedHotStuffReplica,
    "fast-hotstuff": FastHotStuffReplica,
    "insecure": TwoPhaseInsecureReplica,
}


class DESContext(NodeContext):
    """NodeContext bound to one simulated process."""

    def __init__(
        self,
        process: Process,
        network: SimNetwork,
        replica_id: int,
        num_replicas: int,
    ) -> None:
        self._process = process
        self._sim = process.sim
        self._network = network
        self._id = replica_id
        self._n = num_replicas
        self._timers = TimerWheel(process.sim)

    @property
    def now(self) -> float:
        return self._sim._now

    def charge(self, seconds: float) -> None:
        if seconds > 0:
            self._process.charge(seconds)

    def send(self, dst: int, payload: Any) -> None:
        process = self._process
        ready_at = process._cpu_free_at
        if ready_at <= self._sim._now:
            self._network.send(self._id, dst, payload)
        else:
            # The CPU is busy: the message leaves when the work ends.
            self._sim.schedule_at(
                ready_at,
                partial(process.dispatch, self._network.send, self._id, dst, payload),
                "net-send",
            )

    def broadcast(self, payload: Any) -> None:
        for dst in range(self._n):
            self.send(dst, payload)

    def set_timer(self, name: str, delay: float, callback: Callable[[], None]) -> None:
        self._timers.set(name, delay, partial(self._process.dispatch, callback))

    def cancel_timer(self, name: str) -> None:
        self._timers.cancel(name)


class DESCluster:
    """An ``n``-replica protocol deployment inside one simulator.

    Normally the cluster owns its :class:`Simulator`; a sharded runtime
    (:class:`repro.shard.ShardedCluster`) instead passes a shared ``sim``
    so many independent groups advance in one event loop, and a shared
    ``crypto`` service so G same-shape groups pay one key setup instead
    of G.  ``inbound_filter`` (``filter(replica_id, src, payload) ->
    payload | None``) screens deliveries before they reach a replica —
    the hook shard guards use to reject mis-routed commands; ``None``
    keeps the unfiltered fast path.  ``net_rng`` overrides the network's
    jitter RNG (sharded runs pass a per-group stream so groups decouple).

    Every replica's and learner's ledger follows one
    :class:`~repro.consensus.ledger.CommitLog`: the group works out each
    committed block's new operations once, and a ledger that ever commits
    a different block moves to a private log.
    """

    def __init__(
        self,
        experiment: ExperimentConfig,
        protocol: str = "marlin",
        crypto_mode: str = "threshold",
        rotation_interval: float | None = None,
        force_unhappy: bool = False,
        forward_requests: bool = True,
        use_cost_model: bool = True,
        observability: Any | None = None,
        pipeline: PipelineConfig | None = None,
        sim: Simulator | None = None,
        crypto: CryptoService | None = None,
        inbound_filter: Callable[[int, int, Any], Any] | None = None,
        net_rng: Any | None = None,
    ) -> None:
        if protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {protocol!r}; pick from {sorted(PROTOCOLS)}")
        self.experiment = experiment
        self.protocol = protocol
        #: Optional repro.obs.observer.RunObservability shared by the
        #: network (traffic counters) and every replica (metrics + spans).
        self.observability = observability
        cluster = experiment.cluster
        self.sim = sim if sim is not None else Simulator(seed=experiment.seed)
        self._inbound_filter = inbound_filter
        sizer = WireSizer()
        self.network = SimNetwork(
            self.sim,
            experiment.network,
            sizer,
            metrics=observability.net if observability is not None else None,
            rng=net_rng,
        )
        if crypto is None:
            crypto = self._make_crypto(crypto_mode, cluster.num_replicas, cluster.quorum)
        self.crypto = crypto
        if observability is not None:
            self.crypto.bind_metrics(observability.registry)
            sizer.bind_fallback_counter(
                observability.registry.counter(
                    "net_sizer_fallbacks_total",
                    "Payloads priced at the default size because no wire sizer matched",
                )
            )
        self.pipeline = pipeline
        if use_cost_model:
            self.costs: ZeroCostModel = PaperCostModel(
                experiment.machine, scheme=self.crypto.scheme, quorum=cluster.quorum
            )
        else:
            self.costs = ZeroCostModel()
        self.auditor = CommitAuditor()
        commit_log = CommitLog(genesis_block().digest)

        self.processes: list[Process] = []
        self.replicas: list[Any] = []
        replica_cls = PROTOCOLS[protocol]
        for replica_id in range(cluster.total_replicas):
            process = Process(self.sim, f"replica-{replica_id}")
            ctx = DESContext(process, self.network, replica_id, cluster.total_replicas)
            if replica_id < cluster.num_replicas:
                kwargs: dict[str, Any] = dict(
                    replica_id=replica_id,
                    config=cluster,
                    ctx=ctx,
                    crypto=self.crypto,
                    costs=self.costs,
                    rotation_interval=rotation_interval,
                    forward_requests=forward_requests,
                    pipeline=self.pipeline,
                )
                if issubclass(replica_cls, MarlinReplica):
                    kwargs["force_unhappy"] = force_unhappy
                replica: Any = replica_cls(**kwargs)
            else:
                replica = LearnerReplica(replica_id, cluster, ctx, costs=self.costs)
            if observability is not None:
                replica.attach_observer(
                    observability.replica_obs(replica_id, replica.protocol_name)
                )
            replica.ledger.share_log(commit_log)
            replica.commit_listeners.append(self.auditor.listener_for(replica_id))
            self.processes.append(process)
            self.replicas.append(replica)
            self.network.register(replica_id, self._delivery_adapter(replica_id))

        if observability is not None:
            observability.arm_auditor(
                self.replicas, self.network, cluster.num_replicas, cluster.quorum,
                qc_validator=self.crypto.qc_is_valid,
            )

    @staticmethod
    def _make_crypto(mode: str, num_replicas: int, quorum: int) -> CryptoService:
        if mode == "threshold":
            return ThresholdCryptoService(KeyRegistry(num_replicas, quorum))
        if mode == "multisig":
            return MultisigCryptoService(KeyRegistry(num_replicas, quorum))
        if mode == "null":
            return NullCryptoService(num_replicas, quorum)
        raise ConfigError(f"unknown crypto mode {mode!r}")

    def _delivery_adapter(self, replica_id: int) -> Callable[[int, Any], None]:
        process = self.processes[replica_id]
        replica_ref = self.replicas
        inbound = self._inbound_filter
        run_when_free = process.run_when_free
        if inbound is None:

            def deliver(src: int, payload: Any) -> None:
                # Processing waits for the CPU; the handler then charges more.
                run_when_free(replica_ref[replica_id].on_message, src, payload)

            return deliver

        def deliver_filtered(src: int, payload: Any) -> None:
            payload = inbound(replica_id, src, payload)
            if payload is None:
                return
            run_when_free(replica_ref[replica_id].on_message, src, payload)

        return deliver_filtered

    # ------------------------------------------------------------- control

    def start(self) -> None:
        """Boot every replica at t=0."""
        for replica in self.replicas:
            self.sim.call_soon(replica.start)

    def run(self, until: float) -> None:
        self.sim.run(until=until)

    def run_until(
        self, predicate: Callable[[], bool], deadline: float, step: float = 0.05
    ) -> bool:
        """Advance simulated time until ``predicate()`` or ``deadline``."""
        while self.sim.now < deadline:
            if predicate():
                return True
            self.sim.run(until=min(self.sim.now + step, deadline))
        return predicate()

    def crash(self, replica_id: int) -> None:
        """Crash-stop a replica (it drops every future event)."""
        self.processes[replica_id].crash()

    def crash_at(self, replica_id: int, time: float) -> None:
        self.sim.schedule_at(time, lambda: self.crash(replica_id))

    # ------------------------------------------------------------ readouts

    @property
    def leader_replica(self) -> ReplicaBase:
        """The replica currently leading (per the highest cview seen)."""
        view = max(r.cview for r in self.replicas)
        return self.replicas[self.experiment.cluster.leader_of(max(view, 1))]

    def committed_heights(self) -> list[int]:
        return [r.ledger.committed_height for r in self.replicas]

    def total_ops_committed(self) -> int:
        return max(r.ledger.ops_committed for r in self.replicas)

    def assert_safety(self) -> None:
        """Raise on the commit auditor's first finding, once the run is over.

        The auditor only records during the run, so a real fork finishes
        and leaves its evidence in ``auditor.findings``.
        """
        self.auditor.check()

    def commit_trace(self) -> list[list[Any]]:
        """The run's commit history as plain data.

        ``[[replica_id, height, digest, repr(when)], ...]`` in commit
        order — the canonical-encodable shape the parallel sweep workers
        and the shard determinism tests fingerprint for byte-identity.
        """
        return [
            [replica_id, height, digest, repr(when)]
            for replica_id, height, digest, when in self.auditor.commits
        ]
