"""The rank rules of Fig. 4 (QCs) and Section V-A (blocks).

Includes the paper's own worked example (Fig. 5) verbatim, plus
hypothesis checks that rank is a strict partial order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.consensus.qc import BlockSummary, Phase, QuorumCertificate
from repro.consensus.rank import (
    Rank,
    block_rank_higher,
    compare_qc_rank,
    highest_block,
    highest_qcs,
    qc_rank_higher,
)
from repro.crypto.hashing import digest_of


def summary(view: int, height: int, pview: int = 0, virtual: bool = False, jiv: bool = True) -> BlockSummary:
    return BlockSummary(
        digest=digest_of(["b", view, height, pview, virtual, jiv]),
        view=view,
        height=height,
        parent_view=pview,
        is_virtual=virtual,
        justify_in_view=jiv,
    )


def qc(phase: Phase, view: int, height: int, **kwargs) -> QuorumCertificate:
    return QuorumCertificate(
        phase=phase, view=view, block=summary(view=view, height=height, **kwargs), signature=None
    )


class TestRuleA:
    def test_higher_view_wins(self):
        assert qc_rank_higher(qc(Phase.PRE_PREPARE, 3, 1), qc(Phase.COMMIT, 2, 99))

    def test_lower_view_loses(self):
        assert not qc_rank_higher(qc(Phase.COMMIT, 2, 99), qc(Phase.PRE_PREPARE, 3, 1))


class TestRuleB:
    def test_prepare_beats_pre_prepare_same_view(self):
        assert qc_rank_higher(qc(Phase.PREPARE, 2, 1), qc(Phase.PRE_PREPARE, 2, 5))

    def test_commit_beats_pre_prepare_same_view(self):
        assert qc_rank_higher(qc(Phase.COMMIT, 2, 1), qc(Phase.PRE_PREPARE, 2, 5))

    def test_two_pre_prepares_tie(self):
        a, b = qc(Phase.PRE_PREPARE, 2, 3), qc(Phase.PRE_PREPARE, 2, 4)
        assert compare_qc_rank(a, b) is Rank.EQUAL


class TestRuleC:
    def test_taller_prepare_wins_same_view(self):
        assert qc_rank_higher(qc(Phase.PREPARE, 2, 5), qc(Phase.PREPARE, 2, 4))

    def test_prepare_commit_same_height_tie(self):
        a, b = qc(Phase.PREPARE, 2, 4), qc(Phase.COMMIT, 2, 4)
        assert compare_qc_rank(a, b) is Rank.EQUAL


class TestFig5Example:
    """The paper's Fig. 5: qc1..qc4 with the stated order."""

    def setup_method(self):
        self.qc1 = qc(Phase.PREPARE, 1, 1)
        self.qc2 = qc(Phase.PREPARE, 1, 2)
        self.qc3 = qc(Phase.PRE_PREPARE, 2, 3)
        self.qc3p = qc(Phase.PRE_PREPARE, 2, 4)
        self.qc4 = qc(Phase.PREPARE, 2, 3)

    def test_rule_a_qc3p_above_qc2(self):
        assert qc_rank_higher(self.qc3p, self.qc2)

    def test_rule_b_qc4_above_both_pre_prepares(self):
        assert qc_rank_higher(self.qc4, self.qc3)
        assert qc_rank_higher(self.qc4, self.qc3p)

    def test_rule_c_qc2_above_qc1(self):
        assert qc_rank_higher(self.qc2, self.qc1)

    def test_qc3_and_qc3p_same_rank_despite_heights(self):
        assert compare_qc_rank(self.qc3, self.qc3p) is Rank.EQUAL


class TestNoneHandling:
    def test_none_ranks_lowest(self):
        assert compare_qc_rank(None, qc(Phase.PREPARE, 1, 1)) is Rank.LOWER
        assert compare_qc_rank(qc(Phase.PREPARE, 1, 1), None) is Rank.HIGHER
        assert compare_qc_rank(None, None) is Rank.EQUAL

    def test_at_least(self):
        assert Rank.HIGHER.at_least and Rank.EQUAL.at_least and not Rank.LOWER.at_least


class TestBlockRank:
    def test_higher_view_wins(self):
        assert block_rank_higher(summary(3, 1), summary(2, 9))

    def test_same_view_taller_with_in_view_justify(self):
        assert block_rank_higher(summary(2, 5, jiv=True), summary(2, 4))

    def test_same_view_taller_without_in_view_justify_ties(self):
        # The shadow-block forking fix: view-change proposals (justify from
        # an older view) never outrank each other by height.
        a = summary(2, 5, jiv=False)
        b = summary(2, 4, jiv=False)
        assert not block_rank_higher(a, b)
        assert not block_rank_higher(b, a)

    def test_highest_block(self):
        blocks = [summary(1, 5), summary(2, 1), summary(2, 3)]
        assert highest_block(blocks) == summary(2, 3)

    def test_highest_block_empty(self):
        assert highest_block([]) is None


class TestHighestQCs:
    def test_single_maximum(self):
        qcs = [qc(Phase.PREPARE, 1, 1), qc(Phase.PREPARE, 2, 1)]
        assert highest_qcs(qcs) == [qc(Phase.PREPARE, 2, 1)]

    def test_two_pre_prepare_maxima(self):
        a = qc(Phase.PRE_PREPARE, 3, 4)
        b = qc(Phase.PRE_PREPARE, 3, 5)
        low = qc(Phase.PREPARE, 2, 9)
        maxima = highest_qcs([a, low, b])
        assert len(maxima) == 2 and a in maxima and b in maxima

    def test_duplicates_collapse(self):
        a = qc(Phase.PREPARE, 2, 3)
        assert len(highest_qcs([a, a, a])) == 1

    def test_empty(self):
        assert highest_qcs([]) == []


_phases = st.sampled_from([Phase.PRE_PREPARE, Phase.PREPARE, Phase.COMMIT])
_qcs = st.builds(
    lambda p, v, h: qc(p, v, h),
    _phases,
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
)


@given(_qcs, _qcs)
def test_property_antisymmetry(a, b):
    assert not (qc_rank_higher(a, b) and qc_rank_higher(b, a))


@given(_qcs)
def test_property_irreflexive(a):
    assert not qc_rank_higher(a, a)


@given(_qcs, _qcs, _qcs)
def test_property_transitivity(a, b, c):
    if qc_rank_higher(a, b) and qc_rank_higher(b, c):
        assert qc_rank_higher(a, c)


@given(st.lists(_qcs, min_size=1, max_size=8))
def test_property_maxima_are_undominated(qcs):
    for maximum in highest_qcs(qcs):
        assert not any(qc_rank_higher(other, maximum) for other in qcs)


def fig4_rank_higher(qc1: QuorumCertificate, qc2: QuorumCertificate) -> bool:
    """Fig. 4 verbatim, the reference ``qc_rank_higher`` is held to."""
    ranked_high = (Phase.PREPARE, Phase.COMMIT)
    if qc1.view > qc2.view:  # (a)
        return True
    if qc1.view != qc2.view:
        return False
    if qc1.phase in ranked_high and qc2.phase == Phase.PRE_PREPARE:  # (b)
        return True
    # (c)
    return qc1.phase in ranked_high and qc2.phase in ranked_high and qc1.height > qc2.height


#: Every phase a QC can carry (VIEW_CHANGE messages form none).
_QC_PHASES = [phase for phase in Phase if phase is not Phase.VIEW_CHANGE]


@pytest.mark.parametrize("phase1", _QC_PHASES, ids=lambda p: p.value)
@pytest.mark.parametrize("phase2", _QC_PHASES, ids=lambda p: p.value)
def test_every_phase_pair_follows_fig4(phase1, phase2):
    """Every QC phase pair, with lower, equal and higher view and height."""
    for view in (1, 2, 3):
        for height in (4, 5, 6):
            qc1, qc2 = qc(phase1, view, height), qc(phase2, 2, 5)
            assert qc_rank_higher(qc1, qc2) is fig4_rank_higher(qc1, qc2)
            assert qc_rank_higher(qc2, qc1) is fig4_rank_higher(qc2, qc1)


def test_generic_ties_are_not_transitive():
    """Over every QC phase, Fig. 4's ties are not an equivalence.

    Same view: GENERIC ties with PREPARE and with PRE_PREPARE, yet PREPARE
    outranks PRE_PREPARE.  So no key function ``k`` with ``rank(a) >
    rank(b)`` iff ``k(a) > k(b)`` exists once chained GENERIC QCs are
    ranked; one does only over Marlin's three QC types.
    """
    generic, prepare, pre_prepare = (
        qc(Phase.GENERIC, 2, 5),
        qc(Phase.PREPARE, 2, 5),
        qc(Phase.PRE_PREPARE, 2, 5),
    )
    assert compare_qc_rank(generic, prepare) is Rank.EQUAL
    assert compare_qc_rank(generic, pre_prepare) is Rank.EQUAL
    assert compare_qc_rank(prepare, pre_prepare) is Rank.HIGHER
