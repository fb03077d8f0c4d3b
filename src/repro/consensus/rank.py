"""Rank comparison rules (paper Fig. 4 and Section V-A).

Rank is a *partial* order: it only defines higher/lower/equal, never a
numeric value.  The QC rules, verbatim from Fig. 4 — ``rank(qc1) >
rank(qc2)`` iff one of:

(a) ``qc1.view > qc2.view``;
(b) same view, ``type(qc1) in {PREPARE, COMMIT}`` and
    ``type(qc2) = PRE-PREPARE``;
(c) same view, both types in ``{PREPARE, COMMIT}``, and
    ``qc1.height > qc2.height``.

If neither direction holds, the ranks are equal.  Consequences the
protocol relies on: two ``pre-prepareQC``s from one view always tie (a
correct leader in Case V3 may hold two); PREPARE and COMMIT QCs for the
same block tie; within a view, later (taller) prepare QCs dominate.

Block ranks (Section V-A): ``rank(b1) > rank(b2)`` iff ``b1.view >
b2.view``, or (same view, ``b1.height > b2.height``, **and** ``b1``'s
justify is a ``prepareQC`` formed in ``b1``'s own view).  The extra
clause makes the two shadow proposals of a view change (whose justifies
come from older views) mutually unordered, so a replica that prepare-voted
one never prepare-votes the other — the paper's fix for "forking".
"""

from __future__ import annotations

from enum import Enum

from repro.consensus.qc import BlockSummary, Phase, QuorumCertificate

# Phases are compared by identity: ``phase in frozenset`` would hash an
# Enum member in Python on every comparison.
_PRE_PREPARE, _PREPARE, _COMMIT = Phase.PRE_PREPARE, Phase.PREPARE, Phase.COMMIT


class Rank(Enum):
    """Outcome of a rank comparison."""

    LOWER = -1
    EQUAL = 0
    HIGHER = 1

    @property
    def at_least(self) -> bool:
        """True for HIGHER or EQUAL — the paper's ``rank(a) >= rank(b)``."""
        return self is not Rank.LOWER


def qc_rank_higher(qc1: QuorumCertificate, qc2: QuorumCertificate) -> bool:
    """Fig. 4: is ``rank(qc1) > rank(qc2)``?"""
    if qc1.view != qc2.view:  # (a)
        return qc1.view > qc2.view
    phase1, phase2 = qc1.phase, qc2.phase
    ranked_high1 = phase1 is _PREPARE or phase1 is _COMMIT
    if ranked_high1 and phase2 is _PRE_PREPARE:  # (b)
        return True
    if ranked_high1 and (phase2 is _PREPARE or phase2 is _COMMIT):  # (c)
        return qc1.height > qc2.height
    return False


def compare_qc_rank(qc1: QuorumCertificate | None, qc2: QuorumCertificate | None) -> Rank:
    """Three-way rank comparison; ``None`` ranks below everything.

    Two ``None``s compare equal (both "no QC yet").
    """
    if qc1 is None and qc2 is None:
        return Rank.EQUAL
    if qc1 is None:
        return Rank.LOWER
    if qc2 is None:
        return Rank.HIGHER
    if qc_rank_higher(qc1, qc2):
        return Rank.HIGHER
    if qc_rank_higher(qc2, qc1):
        return Rank.LOWER
    return Rank.EQUAL


def block_rank_higher(b1: BlockSummary, b2: BlockSummary) -> bool:
    """Section V-A: is ``rank(b1) > rank(b2)``?"""
    if b1.view > b2.view:
        return True
    if b1.view == b2.view and b1.height > b2.height and b1.justify_in_view:
        return True
    return False


def highest_qcs(qcs: list[QuorumCertificate]) -> list[QuorumCertificate]:
    """All maxima of the rank partial order over ``qcs``, deduplicated.

    This computes the view-change ``highQC_v``: "valid QC(s) with the
    highest rank" — possibly two pre-prepareQCs of equal rank (Lemma 4).
    """
    maxima: list[QuorumCertificate] = []
    for qc in qcs:
        dominated = False
        for other in qcs:
            if other is not qc and qc_rank_higher(other, qc):
                dominated = True
                break
        if dominated:
            continue
        if any(
            existing.phase == qc.phase
            and existing.view == qc.view
            and existing.block == qc.block
            for existing in maxima
        ):
            continue
        maxima.append(qc)
    return maxima


def highest_block(blocks: list[BlockSummary]) -> BlockSummary | None:
    """One block with the highest rank (the view-change ``b_v``)."""
    best: BlockSummary | None = None
    for block in blocks:
        if best is None or block_rank_higher(block, best):
            best = block
    return best
