"""Composable, seed-deterministic Byzantine behaviours.

An adversary is *declared* as a frozen :class:`AdversaryConfig` — which
replicas misbehave and how, which network partitions open and close,
which replicas crash — and *installed* onto a live
:class:`~repro.harness.des_runtime.DESCluster` with
:func:`apply_adversary`.  Declaration and installation are split so the
same config object can flow through result caches, worker processes and
scenario registries as plain data.

Each behaviour kind is one :class:`Strategy` subclass that interposes on
a replica's outbound traffic: the replica still runs correct code, but
its messages are dropped, delayed, mutated or equivocated on the wire,
which is exactly the power the BFT adversary has over a compromised
node.  The class states its registry name, its summary and its
parameters with their defaults; :data:`BEHAVIOR_KINDS` is derived from
the classes and :func:`behavior_kinds` lists it.  Randomised kinds draw
from a private :func:`strategy_rng` stream keyed on
``(seed, kind, replica)``, so every adversarial run replays
bit-identically from its seed regardless of how many other behaviours
run beside it.

The one protocol-aware behaviour is :class:`ForkingLeader`, the
Fast-HotStuff-style forking attack (Rondelet–Kilbourn's attack shape
against two-phase HotStuff without the unlock rule).  The Byzantine
leader commits the cluster to a block through a hidden quorum, then
forever replays a *stale* prepareQC in its view-change messages so that
new leaders assemble snapshots in which the locked block never appears.
Against the deliberately unsafe ``insecure`` two-phase protocol the
cluster wedges permanently — one honest replica stays locked above every
proposal — while Marlin (rank rules + Case R2), three-phase HotStuff
(precommit evidence) and Fast-HotStuff (aggregate unlock) all recover.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, ClassVar, Iterable, Mapping

from repro.consensus.block import genesis_block
from repro.consensus.messages import ClientReply, Justify, PhaseMsg, ViewChangeMsg, VoteMsg
from repro.consensus.qc import Phase, QuorumCertificate, genesis_qc

Params = Mapping[str, Any]
Send = Callable[[int, Any], None]


# ---------------------------------------------------------------------------
# Declarations


@dataclass(frozen=True)
class BehaviorSpec:
    """One behaviour on one replica, as plain data.

    ``params`` is a sorted tuple of ``(name, value)`` pairs so the spec
    is hashable and canonically encodable for result-cache keys; use
    :meth:`make` to build one from keyword arguments.
    """

    kind: str
    replica: int
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, kind: str, replica: int, **params: Any) -> "BehaviorSpec":
        return cls(kind=kind, replica=replica, params=tuple(sorted(params.items())))

    @property
    def params_dict(self) -> dict[str, Any]:
        return dict(self.params)


@dataclass(frozen=True)
class PartitionWindow:
    """Cut ``group`` off from the rest of the cluster for a time window."""

    start: float
    duration: float
    group: tuple[int, ...]


@dataclass(frozen=True)
class CrashEvent:
    """Permanently crash ``replica`` at ``when`` (DES ``crash_at``)."""

    replica: int
    when: float


@dataclass(frozen=True)
class AdversaryConfig:
    """A complete adversary: behaviours, partitions, crashes, seed salt.

    ``seed_salt`` is folded into every behaviour's RNG stream key, so two
    scenarios sharing a run seed still draw independent randomness.
    """

    behaviors: tuple[BehaviorSpec, ...] = ()
    partitions: tuple[PartitionWindow, ...] = ()
    crashes: tuple[CrashEvent, ...] = ()
    seed_salt: int = 0

    def faulty_replicas(self) -> tuple[int, ...]:
        """Replica ids under any behaviour (crashes are counted apart)."""
        return tuple(sorted({spec.replica for spec in self.behaviors}))


# ---------------------------------------------------------------------------
# Behaviour kinds


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


def _genesis_justify() -> Justify:
    return Justify(genesis_qc(genesis_block()))


class Strategy:
    """Base class: decide what actually goes on the wire.

    A behaviour kind sets ``kind`` (its registry name) and ``summary``
    and takes its spec's params as keyword arguments with defaults.
    :meth:`build` makes one from a spec; a kind overrides it only to
    hand its constructor the cluster, the replica id or the RNG stream.
    """

    kind: ClassVar[str] = ""
    summary: ClassVar[str] = ""

    @classmethod
    def build(
        cls, cluster: Any, replica: int, rng: random.Random, params: Params
    ) -> "Strategy":
        return cls(**params)

    def outbound(self, now: float, dst: int, payload: Any, send: Send) -> None:
        send(dst, payload)


class SilentAfter(Strategy):
    kind = "silent-after"
    summary = "stop sending anything after a set time (undetectable crash)"

    def __init__(self, after: float = 2.0) -> None:
        self.after = float(after)

    def outbound(self, now: float, dst: int, payload: Any, send: Send) -> None:
        if now < self.after:
            send(dst, payload)


class VoteWithholder(Strategy):
    kind = "withhold-votes"
    summary = "suppress all votes (liveness attack on the quorum)"

    def outbound(self, now: float, dst: int, payload: Any, send: Send) -> None:
        if not isinstance(payload, VoteMsg):
            send(dst, payload)


class Delayer(Strategy):
    """Hold every outbound message for ``delay`` plus ``U(0, jitter)``.

    The jitter is drawn from this strategy's private :func:`strategy_rng`
    stream, so the noise replays deterministically; ``jitter=0`` draws
    nothing and holds every message for exactly ``delay``.
    """

    kind = "delay"
    summary = "hold every outbound message for a fixed time plus seeded jitter"

    def __init__(
        self, cluster: Any, rng: random.Random, delay: float = 0.1, jitter: float = 0.0
    ) -> None:
        self.cluster = cluster
        self.rng = rng
        self.delay = float(delay)
        self.jitter = float(jitter)

    @classmethod
    def build(cls, cluster: Any, replica: int, rng: random.Random, params: Params) -> Strategy:
        return cls(cluster, rng, **params)

    def outbound(self, now: float, dst: int, payload: Any, send: Send) -> None:
        delay = self.delay
        if self.jitter > 0.0:
            delay += self.rng.uniform(0.0, self.jitter)
        self.cluster.sim.schedule(delay, lambda: send(dst, payload))


class Equivocator(Strategy):
    """Send a conflicting sibling block to the upper half of the cluster."""

    kind = "equivocate"
    summary = "as leader, send conflicting sibling blocks to half the cluster"

    def __init__(self, num_replicas: int) -> None:
        self.num_replicas = num_replicas

    @classmethod
    def build(cls, cluster: Any, replica: int, rng: random.Random, params: Params) -> Strategy:
        return cls(cluster.experiment.cluster.num_replicas, **params)

    def outbound(self, now: float, dst: int, payload: Any, send: Send) -> None:
        if (
            isinstance(payload, PhaseMsg)
            and payload.phase == Phase.PREPARE
            and payload.block is not None
            and dst >= self.num_replicas // 2
        ):
            sibling = replace(payload.block, proposer=payload.block.proposer + 100)
            send(dst, PhaseMsg(phase=payload.phase, view=payload.view, justify=payload.justify, block=sibling))
        else:
            send(dst, payload)


class QCHider(Strategy):
    """Claim ignorance in view changes: ship the genesis QC as justify."""

    kind = "qc-hide"
    summary = "claim only the genesis QC in every view change"

    def __init__(self) -> None:
        self.genesis_justify = _genesis_justify()

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


class AmnesiacVC(Strategy):
    """Forget the lock after ``after``: an ABC-style amnesiac replica.

    Before ``after`` the replica reports honestly; afterwards every
    view-change message claims only the genesis QC — the knowledge loss
    of a node restored from a stale backup.  Safe protocols tolerate it
    (the snapshot quorum still intersects an honest majority that does
    remember); the auditor records nothing because forgetting is not
    equivocating.
    """

    kind = "amnesia"
    summary = "report honestly until a cutoff, then forget the lock (stale backup)"

    def __init__(self, after: float = 2.0) -> None:
        self.genesis_justify = _genesis_justify()
        self.after = float(after)

    def outbound(self, now: float, dst: int, payload: Any, send: Send) -> None:
        if isinstance(payload, ViewChangeMsg) and now >= self.after:
            send(
                dst,
                ViewChangeMsg(
                    view=payload.view,
                    last_voted=None,
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

    kind = "reply-forge"
    summary = "corrupt the result digest of every client reply"

    def outbound(self, now: float, dst: int, payload: Any, send: Send) -> None:
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

    kind = "gray"
    summary = "probabilistically drop or slow messages (limping node)"

    def __init__(
        self,
        cluster: Any,
        rng: random.Random,
        drop_p: float = 0.1,
        slow_p: float = 0.3,
        slow_delay: float = 0.2,
    ) -> None:
        self.cluster = cluster
        self.rng = rng
        self.drop_p = float(drop_p)
        self.slow_p = float(slow_p)
        self.slow_delay = float(slow_delay)

    @classmethod
    def build(cls, cluster: Any, replica: int, rng: random.Random, params: Params) -> Strategy:
        return cls(cluster, rng, **params)

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

    kind = "silence-windows"
    summary = "go dark over scheduled intervals (crash-recover churn)"

    def __init__(self, windows: Iterable[tuple[float, float]] = ((2.0, 4.0),)) -> None:
        self.windows = tuple((float(start), float(end)) for start, end in windows)

    def outbound(self, now: float, dst: int, payload: Any, send: Send) -> None:
        for start, end in self.windows:
            if start <= now < end:
                return
        send(dst, payload)


class VCDelayer(Strategy):
    """Delay only VIEW-CHANGE messages by ``lag``; everything else flows.

    The forking attack's accomplice: lagging one replica's view-change
    report controls *whose* snapshot a new leader assembles its quorum
    from, without disturbing the replica's votes or proposals.
    """

    kind = "vc-lag"
    summary = "delay only view-change messages (snapshot steering)"

    def __init__(self, cluster: Any, lag: float = 0.25) -> None:
        self.cluster = cluster
        self.lag = float(lag)

    @classmethod
    def build(cls, cluster: Any, replica: int, rng: random.Random, params: Params) -> Strategy:
        return cls(cluster, **params)

    def outbound(self, now: float, dst: int, payload: Any, send: Send) -> None:
        if isinstance(payload, ViewChangeMsg):
            self.cluster.sim.schedule(self.lag, lambda: send(dst, payload))
        else:
            send(dst, payload)


class ForkingLeader(Strategy):
    """The two-phase forking attack, driven entirely over the wire.

    As leader, at its trigger height the Byzantine replica:

    1. hides the trigger proposal from one honest replica (``hidden``)
       while recording the proposal's *justify* — the last prepareQC the
       hidden replica ever saw — as its ``stale_qc``;
    2. forms the prepareQC for the trigger block normally (votes still
       reach it), but delivers the resulting COMMIT only to one honest
       replica (``locked``), which locks — and, in a two-phase protocol,
       commits — the trigger block;
    3. from then on answers every view change with a *forged* claim of
       the stale QC, signed with its own (legitimate) key, and sends
       nothing else: no proposals, no votes to others, no QCs at or
       above the trigger height.

    Combined with a view-change lag on ``locked`` (see the
    ``forking-attack`` scenario), each new leader assembles its quorum
    snapshot from {byzantine, the two honest replicas that never locked}
    — a snapshot in which the locked block does not appear.  A protocol
    without a sound unlock/rank rule proposes a fork of the stale QC
    forever; the locked replica refuses each one and the cluster wedges.
    Traffic strictly below the trigger height still flows, so the chain
    up to ``trigger - 1`` commits everywhere: the wedge is unmistakable
    against the run's own healthy prefix.
    """

    kind = "forking-leader"
    summary = "two-phase forking attack: hidden commit, then stale-QC replay"

    def __init__(
        self,
        cluster: Any,
        replica_id: int,
        trigger_height: int = 3,
        locked: int | None = None,
        hidden: int | None = None,
    ) -> None:
        self.cluster = cluster
        self.id = replica_id
        n = cluster.experiment.cluster.num_replicas
        self.locked = (replica_id - 1) % n if locked is None else locked
        self.hidden = (replica_id - 2) % n if hidden is None else hidden
        self.trigger = int(trigger_height)
        self.stale_qc: QuorumCertificate | None = None
        self.trigger_view: int | None = None
        self.attacking = False

    @classmethod
    def build(cls, cluster: Any, replica: int, rng: random.Random, params: Params) -> Strategy:
        return cls(cluster, replica, **params)

    def outbound(self, now: float, dst: int, payload: Any, send: Send) -> None:
        if not self.attacking:
            if (
                isinstance(payload, PhaseMsg)
                and payload.phase == Phase.PREPARE
                and payload.block is not None
                and payload.block.height >= self.trigger
            ):
                self.attacking = True
                self.trigger = payload.block.height
                self.trigger_view = payload.view
                self.stale_qc = payload.justify.qc
            else:
                send(dst, payload)
                return
        self._attack(dst, payload, send)

    def _attack(self, dst: int, payload: Any, send: Send) -> None:
        if isinstance(payload, VoteMsg):
            # Own votes still count (the hidden quorum includes us);
            # votes for anyone else's proposals are withheld.
            if dst == self.id:
                send(dst, payload)
            return
        if isinstance(payload, ViewChangeMsg):
            send(dst, self._forged_view_change(payload.view))
            return
        if isinstance(payload, PhaseMsg):
            if (
                payload.phase == Phase.PREPARE
                and payload.block is not None
                and payload.block.height == self.trigger
                and payload.view == self.trigger_view
            ):
                # The trigger proposal itself: everyone but `hidden`.
                if dst != self.hidden:
                    send(dst, payload)
                return
            if self._referenced_height(payload) < self.trigger:
                # Let the pre-fork chain finish committing everywhere.
                send(dst, payload)
                return
            if (
                payload.phase == Phase.COMMIT
                and payload.justify.qc.block.height == self.trigger
            ):
                # The poisoned COMMIT: only the victim locks the fork.
                if dst in (self.locked, self.id):
                    send(dst, payload)
                return
            return
        # Pre-prepares, sync traffic, later proposals: silence.

    def _referenced_height(self, msg: PhaseMsg) -> int:
        height = msg.justify.qc.block.height
        if msg.block is not None:
            height = max(height, msg.block.height)
        return height

    def _forged_view_change(self, view: int) -> ViewChangeMsg:
        assert self.stale_qc is not None
        stale = self.stale_qc
        return ViewChangeMsg(
            view=view,
            last_voted=stale.block,
            justify=Justify(stale),
            share=self.cluster.crypto.sign_vote(
                self.id, Phase.PREPARE, view, stale.block
            ),
        )


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
        self.strategies[0].outbound(now, dst, payload, chain)

    @staticmethod
    def _wrap(now: float, strategy: Strategy, send: Send) -> Send:
        def chained(dst: int, payload: Any) -> None:
            strategy.outbound(now, dst, payload, send)

        return chained


#: Registry name -> behaviour class, one entry per kind.
BEHAVIOR_KINDS: dict[str, type[Strategy]] = {
    cls.kind: cls
    for cls in (
        SilentAfter,
        VoteWithholder,
        Delayer,
        Equivocator,
        QCHider,
        AmnesiacVC,
        ReplyForger,
        GrayFailure,
        SilenceWindows,
        VCDelayer,
        ForkingLeader,
    )
}


def behavior_kinds() -> dict[str, str]:
    """Name -> one-line summary for every registered behaviour."""
    return {name: kind.summary for name, kind in sorted(BEHAVIOR_KINDS.items())}


# ---------------------------------------------------------------------------
# Installation


def _check_replica(what: str, replica: int, limit: int) -> None:
    if not 0 <= replica < limit:
        raise ValueError(
            f"{what} targets replica {replica}, "
            f"but the cluster only has replicas 0..{limit - 1} to target"
        )


def apply_adversary(
    cluster: Any, config: AdversaryConfig, seed: int | None = None
) -> None:
    """Install ``config`` onto a built (not yet started) DES cluster.

    Behaviours targeting the same replica compose in declaration order
    (the first spec sees the raw wire).  Each randomised behaviour gets
    its own :func:`strategy_rng` stream keyed on
    ``(seed + seed_salt, kind, replica)``; ``seed`` defaults to the
    experiment's seed so a run is fully determined by its config.  Only
    voting replicas can misbehave or be partitioned; any replica,
    learners included, can crash.  A declaration naming a replica the
    cluster does not have raises :class:`ValueError` before anything is
    installed.
    """
    if seed is None:
        seed = cluster.experiment.seed
    seed = seed + config.seed_salt

    num_replicas = cluster.experiment.cluster.num_replicas
    per_replica: dict[int, list[Strategy]] = {}
    for spec in config.behaviors:
        kind = BEHAVIOR_KINDS.get(spec.kind)
        if kind is None:
            known = ", ".join(sorted(BEHAVIOR_KINDS))
            raise ValueError(f"unknown behavior kind {spec.kind!r} (known: {known})")
        _check_replica(f"behavior {spec.kind!r}", spec.replica, num_replicas)
        rng = strategy_rng(seed, spec.kind, spec.replica)
        strategy = kind.build(cluster, spec.replica, rng, spec.params_dict)
        per_replica.setdefault(spec.replica, []).append(strategy)
    for window in config.partitions:
        for replica in window.group:
            _check_replica(f"partition at {window.start}s", replica, num_replicas)
    for crash in config.crashes:
        _check_replica(
            f"crash at {crash.when}s", crash.replica, cluster.experiment.cluster.total_replicas
        )

    for replica_id, strategies in per_replica.items():
        strategy = strategies[0] if len(strategies) == 1 else ComposedStrategy(strategies)
        _make_byzantine(cluster, replica_id, strategy)

    for window in config.partitions:
        rest = [r for r in range(num_replicas) if r not in window.group]
        cut = partial(cluster.network.partition, list(window.group), rest)
        cluster.sim.schedule_at(window.start, cut)
        cluster.sim.schedule_at(window.start + window.duration, cluster.network.heal_all)

    for crash in config.crashes:
        cluster.crash_at(crash.replica, crash.when)


def _make_byzantine(cluster: Any, replica_id: int, strategy: Strategy) -> None:
    """Interpose ``strategy`` on every outbound message of ``replica_id``."""
    ctx = cluster.replicas[replica_id].ctx
    original_send = ctx.send

    def intercepted(dst: int, payload: Any) -> None:
        strategy.outbound(cluster.sim.now, dst, payload, original_send)

    ctx.send = intercepted  # type: ignore[method-assign]
