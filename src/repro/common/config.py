"""Cluster- and experiment-level configuration objects.

A :class:`ClusterConfig` describes the replica membership and protocol
constants shared by every node.  :class:`NetworkProfile` and
:class:`MachineProfile` carry the environment parameters of the paper's
testbed (Section VI) so the simulator can reproduce the evaluation: 40 ms
injected one-way latency, 200 Mbps bandwidth, 150-byte transactions,
LevelDB-style persistence and checkpointing every 5000 blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigError
from repro.common.types import ReplicaId, max_faulty, quorum_size, validate_bft_size


@dataclass(frozen=True)
class QuorumConfig:
    """Flexible quorum knobs layered on a :class:`ClusterConfig`.

    ``vote_quorum`` overrides the ``n - f`` threshold used to combine
    votes into QCs.  Values above ``n - f`` trade liveness-under-faults
    for a larger intersection margin; values below ``n - f`` sacrifice
    the paper's safety guarantees and exist so the adversary campaigns
    can study exactly that trade-off.  Bounds enforced: ``f + 1 <=
    vote_quorum <= n``.

    ``learners`` adds that many non-voting replicas *after* the voting
    membership (ids ``n .. n + learners - 1``).  Learners never vote,
    never lead, and commit a block only once ``learner_commit_quorum``
    distinct voting replicas have echoed a valid commit certificate for
    it (default ``f + 1`` — at least one correct witness).
    """

    vote_quorum: int | None = None
    learners: int = 0
    learner_commit_quorum: int | None = None

    def __post_init__(self) -> None:
        if self.vote_quorum is not None and self.vote_quorum < 1:
            raise ConfigError(f"vote_quorum must be >= 1, got {self.vote_quorum}")
        if self.learners < 0:
            raise ConfigError(f"learners cannot be negative, got {self.learners}")
        if self.learner_commit_quorum is not None and self.learner_commit_quorum < 1:
            raise ConfigError(
                f"learner_commit_quorum must be >= 1, got {self.learner_commit_quorum}"
            )


@dataclass(frozen=True)
class ClusterConfig:
    """Static membership and protocol constants for one BFT cluster.

    ``num_replicas`` counts the *voting* membership; learner replicas
    (``quorums.learners``) are appended after it and take no part in
    voting or leader rotation.
    """

    num_replicas: int
    batch_size: int = 400
    checkpoint_interval: int = 5000
    base_timeout: float = 1.0
    timeout_multiplier: float = 1.5
    max_timeout: float = 60.0
    quorums: QuorumConfig | None = None

    def __post_init__(self) -> None:
        validate_bft_size(self.num_replicas, self.f)
        if self.num_replicas < 4:
            raise ConfigError(f"need at least 4 replicas, got {self.num_replicas}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.checkpoint_interval < 1:
            raise ConfigError("checkpoint_interval must be >= 1")
        if self.base_timeout <= 0:
            raise ConfigError("base_timeout must be positive")
        if self.timeout_multiplier < 1.0:
            raise ConfigError("timeout_multiplier must be >= 1.0")
        if self.quorums is not None and self.quorums.vote_quorum is not None:
            vq = self.quorums.vote_quorum
            if not self.f + 1 <= vq <= self.num_replicas:
                raise ConfigError(
                    f"vote_quorum must be in [f + 1, n] = "
                    f"[{self.f + 1}, {self.num_replicas}], got {vq}"
                )
        if self.learner_commit_quorum > self.num_replicas:
            raise ConfigError(
                f"learner_commit_quorum {self.learner_commit_quorum} exceeds the "
                f"{self.num_replicas} voting replicas that could ever echo a commit"
            )

    @classmethod
    def for_f(cls, f: int, **kwargs: object) -> "ClusterConfig":
        """Build a config with ``n = 3f + 1`` replicas, as the paper does."""
        if f < 1:
            raise ConfigError(f"f must be >= 1, got {f}")
        return cls(num_replicas=3 * f + 1, **kwargs)  # type: ignore[arg-type]

    @property
    def f(self) -> int:
        """Number of tolerated Byzantine faults."""
        return max_faulty(self.num_replicas)

    @property
    def quorum(self) -> int:
        """QC quorum size: ``n - f`` unless ``quorums.vote_quorum`` overrides."""
        if self.quorums is not None and self.quorums.vote_quorum is not None:
            return self.quorums.vote_quorum
        return quorum_size(self.num_replicas)

    @property
    def learners(self) -> int:
        """Number of non-voting learner replicas appended after the voters."""
        return self.quorums.learners if self.quorums is not None else 0

    @property
    def learner_commit_quorum(self) -> int:
        """Distinct commit echoes a learner needs before committing a block."""
        if self.quorums is not None and self.quorums.learner_commit_quorum is not None:
            return self.quorums.learner_commit_quorum
        return self.f + 1

    @property
    def total_replicas(self) -> int:
        """Voting replicas plus learners — the full process count."""
        return self.num_replicas + self.learners

    @property
    def learner_ids(self) -> list[ReplicaId]:
        return [ReplicaId(i) for i in range(self.num_replicas, self.total_replicas)]

    def leader_of(self, view: int) -> ReplicaId:
        """Round-robin leader schedule, the standard HotStuff rotation."""
        if view < 1:
            raise ConfigError(f"views start at 1, got {view}")
        return ReplicaId((view - 1) % self.num_replicas)


@dataclass(frozen=True)
class NetworkProfile:
    """Network environment parameters (paper Section VI).

    The paper's testbed: servers with a 1 Gbps NIC, traffic shaped to
    200 Mbps per link, and 40 ms injected one-way latency.  The DES
    models exactly that: every message first serialises through its
    sender's NIC (``nic_bps``, shared across all destinations — the term
    that makes a broadcasting leader the bottleneck as ``n`` grows), then
    through the per-link shaper (``bandwidth_bps``), then propagates with
    ``one_way_latency`` plus a small uniform jitter.
    """

    one_way_latency: float = 0.040
    bandwidth_bps: float = 200e6
    nic_bps: float = 1e9
    jitter: float = 0.002
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.one_way_latency < 0:
            raise ConfigError("latency cannot be negative")
        if self.bandwidth_bps <= 0 or self.nic_bps <= 0:
            raise ConfigError("bandwidths must be positive")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigError("loss_rate must be in [0, 1)")
        if self.jitter < 0:
            raise ConfigError("jitter cannot be negative")

    @classmethod
    def paper_testbed(cls) -> "NetworkProfile":
        """The DSN'22 environment: 40 ms latency, 200 Mbps links, 1 Gbps NIC."""
        return cls(one_way_latency=0.040, bandwidth_bps=200e6, nic_bps=1e9, jitter=0.002)

    @classmethod
    def lan(cls) -> "NetworkProfile":
        """A fast datacenter LAN, useful for protocol-logic experiments."""
        return cls(one_way_latency=0.0005, bandwidth_bps=10e9, nic_bps=40e9, jitter=0.0001)

    def transmission_delay(self, size_bytes: int) -> float:
        """Serialisation delay of a ``size_bytes`` message on one link."""
        return size_bytes * 8.0 / self.bandwidth_bps

    def nic_delay(self, size_bytes: int) -> float:
        """Serialisation delay through the sender's NIC."""
        return size_bytes * 8.0 / self.nic_bps


@dataclass(frozen=True)
class MachineProfile:
    """Per-replica CPU and disk cost model (charged to simulated time).

    Calibrated to a 16-core 2.3 GHz server: ECDSA-like sign/verify costs,
    a per-byte hashing cost, and LevelDB-style write amplification (the
    paper stresses it persists to the database rather than memory).
    """

    sign_cost: float = 55e-6
    verify_cost: float = 160e-6
    share_sign_cost: float = 55e-6
    share_verify_cost: float = 160e-6
    combine_cost_per_share: float = 15e-6
    pairing_cost: float = 1.4e-3
    hash_cost_per_byte: float = 1.2e-9
    db_write_base: float = 90e-6
    db_write_per_byte: float = 4e-9
    checkpoint_cost: float = 30e-3
    exec_cost_per_op: float = 1.0e-6
    cores: int = 16

    def __post_init__(self) -> None:
        for name in (
            "sign_cost",
            "verify_cost",
            "share_sign_cost",
            "share_verify_cost",
            "combine_cost_per_share",
            "pairing_cost",
            "hash_cost_per_byte",
            "db_write_base",
            "db_write_per_byte",
            "checkpoint_cost",
            "exec_cost_per_op",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} cannot be negative")
        if self.cores < 1:
            raise ConfigError("cores must be >= 1")

    @classmethod
    def paper_testbed(cls) -> "MachineProfile":
        """16-core 2.3 GHz commodity server used in the DSN'22 evaluation."""
        return cls()

    def db_write_cost(self, size_bytes: int) -> float:
        """Simulated latency of persisting ``size_bytes`` to the KV store."""
        return self.db_write_base + size_bytes * self.db_write_per_byte


@dataclass(frozen=True)
class ExperimentConfig:
    """Bundle of everything one simulated experiment needs."""

    cluster: ClusterConfig
    network: NetworkProfile = field(default_factory=NetworkProfile.paper_testbed)
    machine: MachineProfile = field(default_factory=MachineProfile.paper_testbed)
    request_size: int = 150
    reply_size: int = 150
    seed: int = 0

    def __post_init__(self) -> None:
        if self.request_size < 0 or self.reply_size < 0:
            raise ConfigError("request/reply sizes cannot be negative")
