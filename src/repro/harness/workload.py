"""Workloads: the closed-loop client population of Section VI.

:class:`ClosedLoopClients` models the paper's evaluation clients: a fixed
population of ``num_clients`` logical clients, each with exactly one
outstanding 150-byte request.  A request is acknowledged once ``f + 1``
matching replica replies arrive; the client then immediately submits its
next request.  Sweeping ``num_clients`` traces out the throughput-versus-
latency curves of Fig. 10a-10f, and "no-op" workloads (``request_size =
reply_size = 0``) reproduce Fig. 10h.

Scaling device: clients are grouped into *tokens* of ``token_weight``
clients that move in lockstep (one :class:`Operation` object of that
weight).  Wire sizes, CPU costs and throughput all scale by the weight,
so the simulated load equals the paper's while the event count stays
tractable.  ``token_weight = 1`` recovers exact per-client simulation.

The client population lives at one *hub* endpoint whose egress is
unshaped (it stands for many machines); replicas answer with one
aggregate :class:`~repro.consensus.messages.ReplyBatch` per committed
block, whose wire size equals the sum of the individual replies.
"""

from __future__ import annotations

from itertools import repeat
from operator import attrgetter, sub
from typing import Any

from repro.client.config import ClientConfig
from repro.client.service import attach_client_services
from repro.common.errors import ConfigError
from repro.consensus.block import Block, Operation
from repro.consensus.messages import ClientRequestBatch, ReplyBatch
from repro.consensus.replica_base import ReplicaBase
from repro.crypto.hashing import Digest
from repro.harness.des_runtime import DESCluster
from repro.harness.metrics import LatencyRecorder, ThroughputMeter
from repro.obs.journey import CK_CERTIFIED, CK_EXECUTED, CK_ROUTED, CK_SUBMIT

_key_of = attrgetter("_key")


def _attach_reply_sender(pool, replica: ReplicaBase) -> None:
    """Make ``replica`` send an aggregate ReplyBatch to the pool's hub on
    every commit (shared by the open- and closed-loop generators)."""
    hub_id = pool.hub_id
    reply_size = pool.reply_size
    journey = getattr(pool, "_journey", None)
    # Blocks travel by reference in the DES, so every replica commits the
    # *same* Block object; memoize its op-key tuple on the pool so the
    # n-replica fan-in builds it once instead of n times per block.

    def keys_of(block: Block) -> tuple:
        memo_block, memo_keys = pool._op_keys_memo
        if memo_block is block:
            return memo_keys
        keys = tuple(map(_key_of, block.operations))
        pool._op_keys_memo = (block, keys)
        return keys

    def on_commit(block: Block, when: float) -> None:
        if not block.operations:
            return
        # The hub model has no application: "executed" is the moment the
        # proposing replica turns the commit into replies — recorded from
        # the proposer only, so each journey gets the checkpoint once.
        if journey is not None and block.proposer == replica.id:
            journey.record_ops(block.operations, CK_EXECUTED, when)
        batch = ReplyBatch(
            replica=replica.id,
            block_digest=block.digest,
            op_keys=keys_of(block),
            num_ops=block.num_ops,
            reply_size=reply_size,
            view=replica.cview,
        )
        replica.ctx.send(hub_id, batch)

    replica.commit_listeners.append(on_commit)


def _acknowledge(pool, batch: ReplyBatch) -> list[tuple[int, int]]:
    """Fold one replica's ReplyBatch into the pool's ``f + 1`` certificates.

    Returns the op keys this batch certified, in op order (shared by the
    open- and closed-loop generators).  Every op of a batch certifies at
    the same instant and weight, so the window test runs once, their
    latencies go to the sample store as one batch, and their throughput
    is recorded as one weighted count.

    Certification is a per-block fact: a replica answers a committed
    block with one batch holding all its keys, so a key certifies once
    ``f + 1`` replicas have answered a block that holds it.  Each
    ``pool._replying`` entry is ``[batches still due, replica mask, keys,
    shared]`` for one block:

    * at the block's first batch, one *claim* walk records the keys still
      outstanding, in op order, and claims them in ``pool._claimed``.  A
      key an earlier block already claimed is a re-proposed op (a view
      change re-proposes ops that sit in a committed block): both blocks
      then hold it in ``shared`` with the group of blocks holding it;
    * every batch ORs its replica bit into the block's mask;
    * the batch that first brings the mask to ``f + 1`` certifies every
      key of the block still outstanding, in op order, and the block is
      *finished* (``keys`` is ``None``): its later batches return ``[]``;
    * at any other batch only the block's shared keys are checked: such a
      key certifies once the union of its blocks' masks reaches ``f + 1``.

    That is exactly the per-key rule (a key certifies at the first batch
    that brings the replicas answering any block holding it to ``f + 1``):
    keys never return (each client's sequence only grows, and a certified
    key has left ``_submit_time``), so a key absent at a block's first
    batch stays absent.  A certified key leaves ``_claimed`` and every
    ``shared`` table, so both hold outstanding keys only.  An entry is
    dropped when the last voting replica's batch arrives, so the table is
    bounded without a window; a replica that crashes for good leaves at
    most one finished, key-free entry per block committed after the crash.
    """
    replying = pool._replying
    digest = batch.block_digest
    entry = replying.get(digest)
    if entry is None:
        replying[digest] = entry = [pool._voters, 0, None, None]
        _claim(pool, entry, batch.op_keys)
    entry[0] -= 1
    if not entry[0]:
        del replying[digest]
    keys = entry[2]
    if keys is None:
        return []
    mask = entry[1] = entry[1] | 1 << batch.replica
    submit_time = pool._submit_time
    if mask.bit_count() > pool.f:
        entry[2] = None
        certified = list(filter(submit_time.__contains__, keys))
    elif entry[3]:
        certified = _shared_certified(pool.f, entry)
    else:
        return []
    if not certified:
        return certified
    now = pool.cluster.sim.now
    latencies = list(map(sub, repeat(now), map(submit_time.pop, certified)))
    claimed = pool._claimed
    for key in certified:
        del claimed[key]
    shared = entry[3]
    if shared:
        for key in certified:
            group = shared.get(key)
            if group is not None:
                for holder in group:
                    del holder[3][key]
    weight = pool.token_weight
    latency = pool.latency
    if latency.window_start <= now <= latency.window_end:
        latency.samples.append_batch(now, weight, latencies)
    pool.throughput.record(now, len(certified) * weight)
    return certified


def _claim(pool, entry: list, op_keys: tuple) -> None:
    """A block's first batch: record and claim its outstanding keys."""
    keys = dict.fromkeys(filter(pool._submit_time.__contains__, op_keys), entry)
    if not keys:
        return  # every op already certified: the block is finished
    claimed = pool._claimed
    if not claimed.keys().isdisjoint(keys):
        # Re-proposed ops: share each with the blocks that claimed it.
        shared = entry[3] = {}
        for key in keys:
            owner = claimed.get(key)
            if owner is None:
                continue
            if owner[3] is None:
                owner[3] = {}
            group = owner[3].setdefault(key, [owner])
            group.append(entry)
            shared[key] = group
    claimed.update(keys)
    entry[2] = keys


def _shared_certified(f: int, entry: list) -> list[tuple[int, int]]:
    """The block's shared keys whose blocks' masks together reach f + 1."""
    ready = []
    for key, group in entry[3].items():
        mask = 0
        for holder in group:
            mask |= holder[1]
        if mask.bit_count() > f:
            ready.append(key)
    if len(ready) > 1:
        ready.sort(key=list(entry[2]).index)  # op order
    return ready


class OpenLoopClients:
    """Open-loop (Poisson) load generator.

    Where the closed-loop population throttles itself (Little's law), an
    open-loop source submits at a fixed rate regardless of completions —
    the standard way to expose saturation and queueing collapse.  Arrivals
    are generated in small batches (one DES event per ``tick`` interval)
    with exponential inter-arrival spacing *within* the tick, so per-op
    arrival timestamps remain Poisson-faithful while the event count stays
    bounded.

    Latency is measured per operation from its (generated) arrival time to
    the ``f + 1``-th replica reply, exactly like the closed-loop pool.
    """

    def __init__(
        self,
        cluster: "DESCluster",
        rate_tps: float,
        request_size: int | None = None,
        reply_size: int | None = None,
        token_weight: int = 1,
        target: str = "leader",
        warmup: float = 0.0,
        tick: float = 0.02,
    ) -> None:
        if rate_tps <= 0:
            raise ConfigError("rate must be positive")
        if token_weight < 1:
            raise ConfigError("token_weight must be >= 1")
        if target not in ("leader", "all"):
            raise ConfigError("target must be 'leader' or 'all'")
        self.cluster = cluster
        experiment = cluster.experiment
        self.rate = rate_tps
        self.request_size = experiment.request_size if request_size is None else request_size
        self.reply_size = experiment.reply_size if reply_size is None else reply_size
        self.token_weight = token_weight
        self.target = target
        self.tick = tick
        # The hub sits just above the replica id range (learners included).
        self.hub_id = experiment.cluster.total_replicas
        self.f = experiment.cluster.f

        self.latency = LatencyRecorder(window_start=warmup)
        self.throughput = ThroughputMeter(window_start=warmup)
        self._submit_time: dict[tuple[int, int], float] = {}
        #: Per block with replies still due: [batches due, replica mask,
        #: keys, shared] (see :func:`_acknowledge`).
        self._replying: dict[Digest, list] = {}
        #: Outstanding op key -> the last block entry that claimed it.
        self._claimed: dict[tuple[int, int], list] = {}
        #: (block, its op keys) of the last committed block replied to.
        self._op_keys_memo: tuple[Block | None, tuple] = (None, ())
        self._voters = experiment.cluster.num_replicas
        self._next_seq = 0
        self._carry = 0.0
        self._payload = b"x" * self.request_size
        self.generated_ops = 0
        self.acknowledged_ops = 0

        cluster.network.register(self.hub_id, self._on_message)
        cluster.network.set_unshaped(self.hub_id)
        # Reuse the closed-loop reply plumbing.  Only voting replicas
        # answer clients — learner commits are evidence, not replies.
        for replica in cluster.replicas[: experiment.cluster.num_replicas]:
            _attach_reply_sender(self, replica)

    def start(self) -> None:
        self._tick()

    def _tick(self) -> None:
        sim = self.cluster.sim
        expected = self.rate * self.tick / self.token_weight + self._carry
        count = int(expected)
        self._carry = expected - count
        ops: list[Operation] = []
        for _ in range(count):
            seq = self._next_seq
            self._next_seq += 1
            op = Operation(
                client_id=1_000_000, sequence=seq, payload=self._payload,
                weight=self.token_weight,
            )
            # Spread the arrival inside the tick (Poisson-ish spacing).
            self._submit_time[op._key] = sim.now + sim.rng.uniform(0.0, self.tick)
            ops.append(op)
            self.generated_ops += self.token_weight
        if ops:
            batch = ClientRequestBatch(operations=tuple(ops))
            if self.target == "leader":
                self.cluster.network.send(self.hub_id, self.cluster.leader_replica.id, batch)
            else:
                for replica_id in range(self.cluster.experiment.cluster.num_replicas):
                    self.cluster.network.send(self.hub_id, replica_id, batch)
        sim.schedule(self.tick, self._tick)

    def _on_message(self, src: int, payload: Any) -> None:
        if isinstance(payload, ReplyBatch):
            self.acknowledged_ops += len(_acknowledge(self, payload)) * self.token_weight

    @property
    def completed_ops(self) -> int:
        """Ops acknowledged inside the measurement window."""
        return self.throughput.ops

    @property
    def backlog_ops(self) -> int:
        """Generated but not yet acknowledged (weighted)."""
        return len(self._submit_time) * self.token_weight

    def summary(self) -> dict[str, float]:
        return {
            "throughput_tps": self.throughput.throughput(),
            "mean_latency": self.latency.mean(),
            "p50_latency": self.latency.p50(),
            "p99_latency": self.latency.p99(),
        }


class ClosedLoopClients:
    """Closed-loop client population attached to a :class:`DESCluster`.

    Two client models share this interface:

    * ``mode="hub"`` (default) — the aggregate lockstep population used
      by every published figure: one unshaped hub endpoint, batched
      submissions, bitmask ``f + 1`` acks.  Fast and faithful in the
      bandwidth model, but no client-side protocol.
    * ``mode="real"`` — one genuine
      :class:`~repro.client.session.ClientSession` per token, driven
      through the DES network: leader routing, retransmit-to-all with
      backoff, reply certificates from ``f + 1`` matching result
      digests, and replica-side session-table dedup + admission.  The
      two modes must agree on committed throughput within a few percent
      (asserted by the workload-equivalence test).
    """

    def __init__(
        self,
        cluster: DESCluster,
        num_clients: int,
        request_size: int | None = None,
        reply_size: int | None = None,
        token_weight: int = 1,
        target: str = "leader",
        warmup: float = 0.0,
        mode: str = "hub",
        client_config: ClientConfig | None = None,
        client_ids: list[int] | None = None,
        shard: int | None = None,
    ) -> None:
        if num_clients < 1:
            raise ConfigError("need at least one client")
        if token_weight < 1:
            raise ConfigError("token_weight must be >= 1")
        if target not in ("leader", "all"):
            raise ConfigError("target must be 'leader' or 'all'")
        if mode not in ("hub", "real"):
            raise ConfigError("mode must be 'hub' or 'real'")
        self.cluster = cluster
        #: Shard this pool's clients were routed to (None = unsharded);
        #: journeys then carry an explicit "routed" checkpoint.
        self.shard = shard
        journey = getattr(cluster.observability, "journey", None)
        self._journey = journey if journey is not None and journey.enabled else None
        experiment = cluster.experiment
        self.request_size = experiment.request_size if request_size is None else request_size
        self.reply_size = experiment.reply_size if reply_size is None else reply_size
        self.token_weight = token_weight
        self.target = target
        self.mode = mode
        self.num_clients = num_clients
        self.num_tokens = max(1, num_clients // token_weight)
        self.hub_id = experiment.cluster.total_replicas
        self.f = experiment.cluster.f
        # Token identities.  The default 0..T-1 keeps every existing trace
        # byte-identical; a sharded workload passes the global client ids
        # its router assigned to this group so the groups' misroute guards
        # (and the routing-determinism tests) see honest identities.
        self._explicit_ids = client_ids is not None
        if client_ids is None:
            self.client_ids = list(range(self.num_tokens))
        else:
            if len(client_ids) != self.num_tokens:
                raise ConfigError(
                    f"client_ids has {len(client_ids)} entries for "
                    f"{self.num_tokens} tokens"
                )
            self.client_ids = list(client_ids)
        # Journey sampling, resolved once: the population is fixed, so
        # the per-op question "is this client traced?" is a set lookup.
        journey = self._journey
        self._sampled_ids = (
            frozenset(cid for cid in self.client_ids if journey.sampled(cid))
            if journey is not None
            else frozenset()
        )

        self.latency = LatencyRecorder(window_start=warmup)
        self.throughput = ThroughputMeter(window_start=warmup)
        self._submit_time: dict[tuple[int, int], float] = {}
        #: Per block with replies still due: [batches due, replica mask,
        #: keys, shared] (see :func:`_acknowledge`).
        self._replying: dict[Digest, list] = {}
        #: Outstanding op key -> the last block entry that claimed it.
        self._claimed: dict[tuple[int, int], list] = {}
        #: (block, its op keys) of the last committed block replied to.
        self._op_keys_memo: tuple[Block | None, tuple] = (None, ())
        self._voters = experiment.cluster.num_replicas
        self._payload = b"x" * self.request_size
        self._endpoints: list[Any] = []
        self.services: list[Any] = []

        if mode == "real":
            self._setup_real(client_config)
        else:
            cluster.network.register(self.hub_id, self._on_message)
            cluster.network.set_unshaped(self.hub_id)
            for replica in cluster.replicas[: experiment.cluster.num_replicas]:
                _attach_reply_sender(self, replica)

    # ------------------------------------------------------------ plumbing

    def _setup_real(self, client_config: ClientConfig | None) -> None:
        """Build one protocol client per token (see module docstring)."""
        from repro.client.runtime import DESClientEndpoint

        config = client_config or ClientConfig(mode="real")
        self.client_config = config
        self.services = attach_client_services(
            self.cluster, config, reply_size=self.reply_size
        )
        total_replicas = self.cluster.experiment.cluster.total_replicas
        for token, client_id in enumerate(self.client_ids):
            # Default ids (0..T-1) predate endpoint addressing and map to
            # the legacy endpoint range; explicit (sharded) ids are already
            # globally unique endpoint ids above the replica range and are
            # used verbatim.
            endpoint_id = client_id if self._explicit_ids else total_replicas + token
            endpoint = DESClientEndpoint(
                self.cluster,
                endpoint_id,
                config,
                weight=self.token_weight,
                on_result=self._real_result_sink(token),
            )
            self._endpoints.append(endpoint)

    def _real_result_sink(self, token: int):
        weight = self.token_weight
        payload = self._payload

        def on_result(sequence: int, outcome: Any, latency: float) -> None:
            now = self.cluster.sim.now
            self.latency.record(now, latency, weight=weight)
            self.throughput.record(now, weight)
            # Closed loop: the certificate for one request releases the
            # next one immediately.
            self._endpoints[token].session.submit(payload)

        return on_result

    def start(self) -> None:
        """Inject the initial window: one outstanding request per client."""
        if self.mode == "real":
            for endpoint in self._endpoints:
                endpoint.session.submit(self._payload)
            return
        self._release([(client_id, -1) for client_id in self.client_ids])

    def _release(self, keys: list[tuple[int, int]]) -> None:
        """Submit, all in one batch, the request after each ``(client, seq)``.

        Closed loop: a client's one outstanding request is the one just
        certified, so its next sequence number is ``seq + 1``.
        """
        now = self.cluster.sim.now
        submit_time = self._submit_time
        payload = self._payload
        weight = self.token_weight
        sampled_ids = self._sampled_ids
        ops: list[Operation] = []
        for client_id, seq in keys:
            seq += 1
            op = Operation(client_id, seq, payload, weight)
            submit_time[op._key] = now
            ops.append(op)
            if client_id in sampled_ids:
                journey = self._journey
                journey.record(client_id, seq, CK_SUBMIT, now)
                if self.shard is not None:
                    # Hub routing is the router's partition — instantaneous,
                    # but the checkpoint pins the journey to its shard.
                    journey.record(client_id, seq, CK_ROUTED, now)
        self._submit(ops)

    def _submit(self, ops: list[Operation]) -> None:
        if not ops:
            return
        batch = ClientRequestBatch(operations=tuple(ops))
        if self.target == "leader":
            leader = self.cluster.leader_replica.id
            self.cluster.network.send(self.hub_id, leader, batch)
        else:
            for replica_id in range(self.cluster.experiment.cluster.num_replicas):
                self.cluster.network.send(self.hub_id, replica_id, batch)

    # ------------------------------------------------------------- intake

    def _on_message(self, src: int, payload: Any) -> None:
        if not isinstance(payload, ReplyBatch):
            return
        certified = _acknowledge(self, payload)
        sampled_ids = self._sampled_ids
        if sampled_ids:
            now = self.cluster.sim.now
            for client_id, seq in certified:
                if client_id in sampled_ids:
                    self._journey.record(client_id, seq, CK_CERTIFIED, now)
        # Closed loop: each certificate releases that client's next request.
        self._release(certified)

    # ------------------------------------------------------------ readouts

    @property
    def completed_ops(self) -> int:
        return self.throughput.ops

    @property
    def retransmits(self) -> int:
        """Total client retransmit rounds (``mode="real"`` only)."""
        return sum(e.session.retransmits for e in self._endpoints)

    @property
    def certified(self) -> int:
        """Requests completed with a full reply certificate."""
        return sum(e.session.certified for e in self._endpoints)

    @property
    def shed(self) -> int:
        """Requests dropped by replica admission windows."""
        return sum(s.shed for s in self.services)

    @property
    def replays(self) -> int:
        """Duplicate requests answered from replica session caches."""
        return sum(s.sessions.replays for s in self.services)

    @property
    def reply_mismatches(self) -> int:
        """Replies contradicting a certified/majority digest (forgeries)."""
        return sum(e.session.collector.mismatches for e in self._endpoints)

    def summary(self) -> dict[str, float]:
        return {
            "throughput_tps": self.throughput.throughput(),
            "mean_latency": self.latency.mean(),
            "p50_latency": self.latency.p50(),
            "p99_latency": self.latency.p99(),
        }

    def stats(self) -> dict[str, Any]:
        """:meth:`summary` plus tail percentiles and client-path counters."""
        out: dict[str, Any] = dict(self.summary())
        out["p90_latency"] = self.latency.p90()
        out["p999_latency"] = self.latency.p999()
        out["latency"] = self.latency.summary()
        out["completed_ops"] = self.completed_ops
        if self.mode == "real":
            out["retransmits"] = self.retransmits
            out["certified"] = self.certified
            out["shed"] = self.shed
            out["replays"] = self.replays
            out["reply_mismatches"] = self.reply_mismatches
        return out


class ShardedClosedLoopClients:
    """Cross-shard closed-loop population over a sharded deployment.

    The global client population is partitioned by the deployment's own
    :class:`~repro.client.router.ShardRouter` — every token's commands go
    to the one group its identity routes to, so the groups' misroute
    guards see only honest traffic.  Each group gets an ordinary
    :class:`ClosedLoopClients` sub-pool on its private network; the
    aggregate readouts sum committed throughput and merge the weighted
    latency samples, so cluster-wide percentiles are computed over the
    union of samples rather than averaged per shard.

    Global token ids start at ``total_replicas + 1`` so they are valid
    endpoint ids in ``mode="real"`` and never collide with a group's hub
    (or with any learner replica).
    """

    def __init__(
        self,
        sharded: Any,
        num_clients: int,
        request_size: int | None = None,
        reply_size: int | None = None,
        token_weight: int = 1,
        target: str = "leader",
        warmup: float = 0.0,
        mode: str = "hub",
        client_config: ClientConfig | None = None,
    ) -> None:
        if num_clients < 1:
            raise ConfigError("need at least one client")
        if token_weight < 1:
            raise ConfigError("token_weight must be >= 1")
        self.sharded = sharded
        self.num_clients = num_clients
        self.token_weight = token_weight
        self.num_tokens = max(1, num_clients // token_weight)
        self.warmup = warmup
        base = sharded.experiment.cluster.total_replicas + 1
        self.client_ids = [base + i for i in range(self.num_tokens)]
        partition = sharded.router.partition_clients(self.client_ids)
        #: One sub-pool per group (``None`` where no client routed).
        self.pools: list[ClosedLoopClients | None] = []
        for shard_id, sub_ids in enumerate(partition):
            if not sub_ids:
                self.pools.append(None)
                continue
            self.pools.append(
                ClosedLoopClients(
                    sharded.groups[shard_id].cluster,
                    num_clients=len(sub_ids) * token_weight,
                    request_size=request_size,
                    reply_size=reply_size,
                    token_weight=token_weight,
                    target=target,
                    warmup=warmup,
                    mode=mode,
                    client_config=client_config,
                    client_ids=sub_ids,
                    shard=shard_id,
                )
            )

    def start(self) -> None:
        """Inject the initial window on every populated group."""
        for pool in self.pools:
            if pool is not None:
                pool.start()

    # ------------------------------------------------------------ readouts

    @property
    def completed_ops(self) -> int:
        return sum(pool.completed_ops for pool in self.pools if pool is not None)

    def per_shard_tps(self) -> list[float]:
        return [
            pool.throughput.throughput() if pool is not None else 0.0
            for pool in self.pools
        ]

    def merged_latency(self) -> LatencyRecorder:
        """All groups' weighted latency samples in one recorder."""
        merged = LatencyRecorder(window_start=self.warmup)
        for pool in self.pools:
            if pool is not None:
                merged.samples.extend(pool.latency.samples)
        return merged

    def summary(self) -> dict[str, Any]:
        latency = self.merged_latency()
        per_shard = self.per_shard_tps()
        return {
            "throughput_tps": sum(per_shard),
            "mean_latency": latency.mean(),
            "p50_latency": latency.p50(),
            "p99_latency": latency.p99(),
            "per_shard_tps": per_shard,
            "misrouted_rejected": self.sharded.misrouted_rejected,
        }

    def stats(self) -> dict[str, Any]:
        """:meth:`summary` plus tail percentiles over the merged samples."""
        out: dict[str, Any] = dict(self.summary())
        latency = self.merged_latency()
        out["p90_latency"] = latency.p90()
        out["p999_latency"] = latency.p999()
        out["latency"] = latency.summary()
        out["completed_ops"] = self.completed_ops
        return out
