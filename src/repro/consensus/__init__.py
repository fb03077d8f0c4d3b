"""Consensus: BFT over a graph of blocks (paper Section III-A onward).

Layout:

* :mod:`repro.consensus.block` — normal/virtual/shadow blocks, operations;
* :mod:`repro.consensus.qc` — quorum certificates and vote payloads;
* :mod:`repro.consensus.rank` — the rank rules of Fig. 4 / Section V-A;
* :mod:`repro.consensus.messages` — every protocol message with wire sizes;
* :mod:`repro.consensus.blocktree` — the per-replica tree of blocks;
* :mod:`repro.consensus.ledger` — committed-branch tracking and execution;
* :mod:`repro.consensus.crypto_service` — pluggable vote/QC cryptography;
* :mod:`repro.consensus.pacemaker` — timeouts, view advancement, rotation;
* :mod:`repro.consensus.replica_base` — the sans-io replica skeleton;
* :mod:`repro.consensus.hotstuff` — the baseline (basic + chained);
* :mod:`repro.consensus.marlin` — the paper's contribution;
* :mod:`repro.consensus.twophase_insecure` — the Section IV-B strawman.
"""

from repro.consensus.block import Block, Operation, genesis_block
from repro.consensus.qc import BlockSummary, Phase, QuorumCertificate
from repro.consensus.rank import Rank, compare_qc_rank

__all__ = [
    "Block",
    "BlockSummary",
    "Operation",
    "Phase",
    "QuorumCertificate",
    "Rank",
    "compare_qc_rank",
    "genesis_block",
]
