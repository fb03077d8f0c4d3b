"""CPU cost model hooks called by replicas at semantic points.

The protocol core calls ``ctx.charge(costs.<something>())`` wherever a
real implementation would burn CPU: verifying a batch of client request
signatures, verifying a QC, signing a vote, combining shares, persisting
a block.  Two implementations:

* :class:`ZeroCostModel` — every operation is free; used by logic tests.
* :class:`PaperCostModel` — calibrated from a
  :class:`~repro.common.config.MachineProfile` and the active signature
  scheme.  Batch work (request verification, QC verification under the
  multisig scheme) is divided by the core count, reflecting that real
  implementations verify signatures on a thread pool — this is the term
  that makes small-``f`` peak throughput CPU-bound, as in the paper.
"""

from __future__ import annotations

from repro.common.config import MachineProfile
from repro.consensus.block import Block
from repro.consensus.qc import QuorumCertificate


class ZeroCostModel:
    """All operations cost zero simulated seconds."""

    def verify_block(self, block: Block) -> float:
        return 0.0

    def verify_qc(self, qc: QuorumCertificate) -> float:
        return 0.0

    def verify_vote(self) -> float:
        return 0.0

    def verify_votes_batch(self, count: int) -> float:
        return 0.0

    def qc_cache_lookup(self) -> float:
        return 0.0

    def sign_vote(self) -> float:
        return 0.0

    def combine(self, shares: int) -> float:
        return 0.0

    def db_write(self, block: Block) -> float:
        return 0.0

    def execute(self, num_ops: int) -> float:
        return 0.0

    def handle_message(self) -> float:
        return 0.0

    def checkpoint(self) -> float:
        return 0.0


class PaperCostModel(ZeroCostModel):
    """Costs matching the paper's testbed machines.

    ``scheme`` selects the QC instantiation: ``"threshold"`` verifies a QC
    with one pairing; ``"multisig"`` verifies ``quorum`` conventional
    signatures (parallelised over cores).  Vote shares cost one
    sign/verify either way.
    """

    def __init__(
        self,
        machine: MachineProfile,
        scheme: str = "threshold",
        quorum: int = 3,
        per_message_overhead: float = 6e-6,
        verify_client_sigs: bool = False,
    ) -> None:
        if scheme not in ("threshold", "multisig", "null"):
            raise ValueError(f"unknown scheme {scheme!r}")
        self.machine = machine
        self.scheme = "threshold" if scheme == "null" else scheme
        self.quorum = quorum
        self.per_message_overhead = per_message_overhead
        self.verify_client_sigs = verify_client_sigs

    def verify_block(self, block: Block) -> float:
        """Admission cost of a received block.

        Matching the paper's artifact, operations are opaque payloads:
        replicas hash the block but do not verify per-operation client
        signatures on the critical path (set ``verify_client_sigs=True``
        for the ablation that puts them there — a thread-pool verify over
        ``cores`` cores).
        """
        if not block.payload_size:
            return 0.0
        cost = self.machine.hash_cost_per_byte * block.payload_size
        if self.verify_client_sigs:
            cost += block.num_ops * self.machine.verify_cost / self.machine.cores
        return cost

    def verify_qc(self, qc: QuorumCertificate) -> float:
        if qc.view == 0:
            return 0.0
        if self.scheme == "threshold":
            return self.machine.pairing_cost
        return self.quorum * self.machine.verify_cost / self.machine.cores

    def verify_vote(self) -> float:
        return self.machine.share_verify_cost

    def verify_votes_batch(self, count: int) -> float:
        """Verify ``count`` vote shares in one batched call.

        Real implementations push a quorum of share verifications onto a
        ``cores``-wide verifier pool and pay one dispatch overhead, so the
        per-share cost is divided by the core count — the amortisation
        batching exists to buy.
        """
        if count <= 0:
            return 0.0
        return (
            self.per_message_overhead
            + count * self.machine.share_verify_cost / self.machine.cores
        )

    def qc_cache_lookup(self) -> float:
        """A QC verification answered from the LRU cache: a dict probe."""
        return self.per_message_overhead

    def sign_vote(self) -> float:
        return self.machine.share_sign_cost

    def combine(self, shares: int) -> float:
        if self.scheme == "threshold":
            return shares * self.machine.combine_cost_per_share
        return 0.0

    def db_write(self, block: Block) -> float:
        return self.machine.db_write_cost(block.wire_size)

    def execute(self, num_ops: int) -> float:
        return num_ops * self.machine.exec_cost_per_op

    def handle_message(self) -> float:
        return self.per_message_overhead

    def checkpoint(self) -> float:
        return self.machine.checkpoint_cost
