"""Failure and adversary injection for DES experiments.

Crash faults are built into :class:`~repro.harness.des_runtime.DESCluster`
(``crash_at``).  This module adds *Byzantine* behaviours by interposing on
a replica's outbound traffic — the replica still runs correct code, but
its messages are dropped, delayed, mutated or equivocated on the wire,
which is exactly the power the BFT adversary has over a compromised node
(we never need the compromised node to be "cleverly" malicious; the test
suites construct targeted attacks by hand where needed).

Strategies:

* :class:`SilentAfter` — stop sending anything after a set time (a crash
  the failure detector cannot distinguish from slowness);
* :class:`VoteWithholder` — suppress all votes (a liveness attack: the
  quorum must be reachable without this replica);
* :class:`Equivocator` — as leader, send *different* blocks to different
  halves of the cluster at the same height (the classic safety attack —
  the auditor must never trip);
* :class:`Delayer` — hold every outbound message for a fixed time;
* :class:`QCHider` — strip the justify from VIEW-CHANGE messages down to
  the genesis QC, hiding this replica's knowledge (Fig. 2's ``p4``);
* :class:`ReplyForger` — lie to clients: corrupt the result and result
  digest of every outbound client reply (the attack reply certificates
  exist to defeat — f forgers can never assemble f+1 matching replies);
* :class:`GrayFailure` — probabilistically drop or delay messages (the
  "limping but not dead" node of gray-failure studies);
* :class:`SilenceWindows` — go dark over scheduled intervals, modelling
  crash–recover churn without the permanence of ``crash_at``;
* :class:`VCDelayer` — delay only VIEW-CHANGE messages (the targeted lag
  the forking attack uses to control whose snapshot a new leader sees);
* :class:`ComposedStrategy` — chain several strategies on one replica.

Randomised strategies draw from **per-strategy seeded streams** via
:func:`strategy_rng`, so one strategy's draws never perturb another's and
a whole adversarial run replays bit-identically from its seed.

Also here: :func:`fuzz_schedule`, a seeded random-adversity runner used
by the fuzz tests — random crashes, partitions and heals over a run, with
safety asserted throughout and progress asserted whenever the surviving
configuration permits it.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.config import ClusterConfig, ExperimentConfig
from repro.consensus.messages import PhaseMsg, ViewChangeMsg, VoteMsg
from repro.consensus.qc import Phase

Send = Callable[[int, Any], None]


def strategy_rng(seed: int, kind: str, replica: int) -> random.Random:
    """A private RNG stream for one strategy instance.

    The stream is keyed on ``(seed, kind, replica)`` through a CRC so
    that (a) two strategies in the same run never share a stream — one
    drawing more numbers cannot shift what the other sees — and (b) the
    same strategy replays identically across runs, processes and worker
    fan-outs.  This is what makes adversarial campaigns cacheable and
    byte-comparable across ``--jobs`` settings.
    """
    return random.Random(zlib.crc32(f"adv:{seed}:{kind}:{replica}".encode()))


class Strategy:
    """Base class: decide what actually goes on the wire."""

    def outbound(self, now: float, dst: int, payload: Any, send: Send) -> None:
        send(dst, payload)


class SilentAfter(Strategy):
    def __init__(self, after: float) -> None:
        self.after = after

    def outbound(self, now: float, dst: int, payload: Any, send: Send) -> None:
        if now < self.after:
            send(dst, payload)


class VoteWithholder(Strategy):
    def outbound(self, now: float, dst: int, payload: Any, send: Send) -> None:
        if not isinstance(payload, VoteMsg):
            send(dst, payload)


class Delayer(Strategy):
    """Hold every outbound message for ``delay`` (plus optional jitter).

    With ``jitter > 0`` each message is held an extra ``U(0, jitter)``
    drawn from ``rng`` — pass a :func:`strategy_rng` stream so the noise
    is private to this strategy and replays deterministically.  The
    default (``jitter=0``) keeps the historical fixed-delay behaviour.
    """

    def __init__(
        self,
        cluster: "Any",
        delay: float,
        jitter: float = 0.0,
        rng: random.Random | None = None,
    ) -> None:
        self.cluster = cluster
        self.delay = delay
        self.jitter = jitter
        self.rng = rng

    def outbound(self, now: float, dst: int, payload: Any, send: Send) -> None:
        delay = self.delay
        if self.jitter > 0.0 and self.rng is not None:
            delay += self.rng.uniform(0.0, self.jitter)
        self.cluster.sim.schedule(delay, lambda: send(dst, payload))


class Equivocator(Strategy):
    """Send a conflicting sibling block to the upper half of the cluster."""

    def __init__(self, num_replicas: int) -> None:
        self.num_replicas = num_replicas

    def outbound(self, now: float, dst: int, payload: Any, send: Send) -> None:
        if (
            isinstance(payload, PhaseMsg)
            and payload.phase == Phase.PREPARE
            and payload.block is not None
            and dst >= self.num_replicas // 2
        ):
            from dataclasses import replace

            sibling = replace(payload.block, proposer=payload.block.proposer + 100)
            send(dst, PhaseMsg(phase=payload.phase, view=payload.view, justify=payload.justify, block=sibling))
        else:
            send(dst, payload)


class QCHider(Strategy):
    """Claim ignorance in view changes: ship the genesis QC as justify."""

    def __init__(self, genesis_justify: Any) -> None:
        self.genesis_justify = genesis_justify

    def outbound(self, now: float, dst: int, payload: Any, send: Send) -> None:
        if isinstance(payload, ViewChangeMsg):
            send(
                dst,
                ViewChangeMsg(
                    view=payload.view,
                    last_voted=payload.last_voted,
                    justify=self.genesis_justify,
                    share=payload.share,
                ),
            )
        else:
            send(dst, payload)


class ReplyForger(Strategy):
    """Forge client replies: corrupt the result and its digest.

    Models a compromised replica lying to clients about execution
    outcomes.  The forged digest is deterministic (bitwise complement)
    so colluding forgers *agree with each other* — the strongest version
    of the attack: with at most ``f`` forgers there are still only ``f``
    matching forged replies, one short of a certificate, so a
    :class:`~repro.client.ReplyCollector` must never certify one.
    """

    def outbound(self, now: float, dst: int, payload: Any, send: Send) -> None:
        from dataclasses import replace

        from repro.consensus.messages import ClientReply

        if isinstance(payload, ClientReply):
            forged_digest = bytes(b ^ 0xFF for b in payload.result_digest) or b"\xff" * 32
            send(
                dst,
                replace(payload, result=b"forged", result_digest=forged_digest),
            )
        else:
            send(dst, payload)


class GrayFailure(Strategy):
    """A limping node: drop some messages, slow others, deliver the rest.

    Gray failures (partial, probabilistic degradation) are the faults
    failure detectors handle worst: the node is never *down*, so timeouts
    fire erratically rather than cleanly.  ``drop_p`` and ``slow_p`` are
    evaluated per outbound message from this strategy's private ``rng``
    stream; a slowed message is held for ``U(0, slow_delay)``.
    """

    def __init__(
        self,
        cluster: "Any",
        rng: random.Random,
        drop_p: float = 0.1,
        slow_p: float = 0.3,
        slow_delay: float = 0.2,
    ) -> None:
        self.cluster = cluster
        self.rng = rng
        self.drop_p = drop_p
        self.slow_p = slow_p
        self.slow_delay = slow_delay

    def outbound(self, now: float, dst: int, payload: Any, send: Send) -> None:
        roll = self.rng.random()
        if roll < self.drop_p:
            return
        if roll < self.drop_p + self.slow_p:
            delay = self.rng.uniform(0.0, self.slow_delay)
            self.cluster.sim.schedule(delay, lambda: send(dst, payload))
            return
        send(dst, payload)


class SilenceWindows(Strategy):
    """Go dark during scheduled intervals (crash–recover churn).

    ``crash_at`` is permanent; real churn is not.  A replica under this
    strategy keeps *running* (its timers fire, its state advances) but
    nothing it sends during a window reaches the wire — exactly what a
    node rebooting or wedged behind a full NIC queue looks like to the
    rest of the cluster.  Windows are ``(start, end)`` pairs in sim time.
    """

    def __init__(self, windows: tuple[tuple[float, float], ...]) -> None:
        self.windows = tuple(windows)

    def outbound(self, now: float, dst: int, payload: Any, send: Send) -> None:
        for start, end in self.windows:
            if start <= now < end:
                return
        send(dst, payload)


class VCDelayer(Strategy):
    """Delay only VIEW-CHANGE messages; everything else flows normally.

    The forking attack's accomplice: lagging one replica's view-change
    report controls *whose* snapshot a new leader assembles its quorum
    from, without disturbing the replica's votes or proposals.
    """

    def __init__(self, cluster: "Any", delay: float) -> None:
        self.cluster = cluster
        self.delay = delay

    def outbound(self, now: float, dst: int, payload: Any, send: Send) -> None:
        if isinstance(payload, ViewChangeMsg):
            self.cluster.sim.schedule(self.delay, lambda: send(dst, payload))
        else:
            send(dst, payload)


class ComposedStrategy(Strategy):
    """Chain strategies: the first sees the raw send, wrapped in order.

    ``ComposedStrategy([a, b])`` runs ``a`` first; whatever ``a`` decides
    to send is then subject to ``b``.  This is how one replica plays
    several roles at once (e.g. withhold votes *and* hide its QC).
    """

    def __init__(self, strategies: list[Strategy]) -> None:
        self.strategies = list(strategies)

    def outbound(self, now: float, dst: int, payload: Any, send: Send) -> None:
        chain = send
        for strategy in reversed(self.strategies[1:]):
            chain = self._wrap(now, strategy, chain)
        first = self.strategies[0] if self.strategies else None
        if first is None:
            send(dst, payload)
        else:
            first.outbound(now, dst, payload, chain)

    @staticmethod
    def _wrap(now: float, strategy: Strategy, send: Send) -> Send:
        def chained(dst: int, payload: Any) -> None:
            strategy.outbound(now, dst, payload, send)

        return chained


def make_byzantine(cluster: "Any", replica_id: int, strategy: Strategy) -> None:
    """Interpose ``strategy`` on every outbound message of ``replica_id``."""
    ctx = cluster.replicas[replica_id].ctx
    original_send = ctx.send

    def intercepted(dst: int, payload: Any) -> None:
        strategy.outbound(cluster.sim.now, dst, payload, original_send)

    ctx.send = intercepted  # type: ignore[method-assign]


# ---------------------------------------------------------------------------
# Random-adversity fuzzing


@dataclass
class FuzzReport:
    """Outcome of one fuzzed run."""

    seed: int
    protocol: str
    events: list[str] = field(default_factory=list)
    committed_heights: list[int] = field(default_factory=list)
    max_view: int = 0
    ops_committed: int = 0
    safety_ok: bool = False


def fuzz_schedule(
    seed: int,
    protocol: str = "marlin",
    f: int = 1,
    sim_time: float = 30.0,
    crypto_mode: str = "null",
) -> FuzzReport:
    """Run one randomly-adversarial schedule and audit safety.

    The adversary (seeded RNG) may: crash up to ``f`` replicas, partition
    and heal the network, and add transient link latency.  The commit
    auditor records every commit as it happens and safety is asserted
    once the run ends (:meth:`DESCluster.assert_safety` raises on its
    first finding); the report carries what happened so callers can
    decide which liveness expectations apply.
    """
    from repro.harness.des_runtime import DESCluster
    from repro.harness.workload import ClosedLoopClients

    rng = random.Random(seed)
    experiment = ExperimentConfig(
        cluster=ClusterConfig.for_f(f, batch_size=500, base_timeout=0.5),
        seed=seed,
    )
    cluster = DESCluster(experiment, protocol=protocol, crypto_mode=crypto_mode)
    pool = ClosedLoopClients(cluster, num_clients=24, token_weight=1, target="all")
    cluster.start()
    cluster.sim.schedule(0.01, pool.start)

    report = FuzzReport(seed=seed, protocol=protocol)
    n = experiment.cluster.num_replicas
    crashes = rng.sample(range(n), k=rng.randint(0, f))
    for victim in crashes:
        when = rng.uniform(1.0, sim_time / 2)
        cluster.crash_at(victim, when)
        report.events.append(f"crash r{victim} @ {when:.2f}s")

    for _ in range(rng.randint(0, 3)):
        start = rng.uniform(1.0, sim_time * 0.6)
        duration = rng.uniform(0.5, 3.0)
        group = rng.sample(range(n), k=rng.randint(1, max(1, f)))
        rest = [i for i in range(n) if i not in group]

        def cut(group=list(group), rest=list(rest)) -> None:
            cluster.network.partition(group, rest)

        cluster.sim.schedule_at(start, cut)
        cluster.sim.schedule_at(start + duration, cluster.network.heal_all)
        report.events.append(f"partition {group} for {duration:.2f}s @ {start:.2f}s")

    cluster.run(until=sim_time)
    cluster.assert_safety()
    report.safety_ok = True
    report.committed_heights = cluster.committed_heights()
    report.max_view = max(r.cview for r in cluster.replicas)
    report.ops_committed = cluster.total_ops_committed()
    return report
