"""Table I accounting: authenticator counting and the analytical rows."""

from __future__ import annotations

from repro.consensus.block import genesis_block, make_child
from repro.consensus.messages import (
    Justify,
    PhaseMsg,
    PrePrepareMsg,
    Proposal,
    SyncRequest,
    ViewChangeMsg,
    VoteMsg,
)
from repro.consensus.qc import BlockSummary, Phase, QuorumCertificate
from repro.crypto.hashing import digest_of
from repro.harness.analytical import TABLE_I
from repro.obs.complexity import authenticators_in


def _summary(view=1, height=1, virtual=False):
    return BlockSummary(
        digest=digest_of(["s", view, height, virtual]),
        view=view,
        height=height,
        parent_view=0,
        is_virtual=virtual,
    )


def _qc(phase=Phase.PREPARE, view=1, height=1, virtual=False):
    return QuorumCertificate(
        phase=phase, view=view, block=_summary(view, height, virtual), signature=None
    )


class TestAuthenticatorCounting:
    def test_vote_is_one(self):
        vote = VoteMsg(phase=Phase.PREPARE, view=1, block=_summary(), share=b"s")
        assert authenticators_in(vote) == 1

    def test_r2_vote_is_two(self):
        vote = VoteMsg(
            phase=Phase.PRE_PREPARE, view=2, block=_summary(virtual=True), share=b"s",
            locked_qc=_qc(),
        )
        assert authenticators_in(vote) == 2

    def test_phase_msg_counts_justify(self):
        single = PhaseMsg(phase=Phase.COMMIT, view=1, justify=Justify(_qc()))
        assert authenticators_in(single) == 1
        composite = PhaseMsg(
            phase=Phase.PREPARE,
            view=2,
            justify=Justify(_qc(Phase.PRE_PREPARE, 2, 3, virtual=True), _qc(Phase.PREPARE, 1, 2)),
            block=make_child(genesis_block(), 2, (), digest_of("j")),
        )
        assert authenticators_in(composite) == 2

    def test_view_change_counts_share_plus_justify(self):
        msg = ViewChangeMsg(view=2, last_voted=_summary(), justify=Justify(_qc()), share=b"s")
        assert authenticators_in(msg) == 2

    def test_view_change_without_share(self):
        msg = ViewChangeMsg(view=2, last_voted=_summary(), justify=Justify(_qc()), share=None)
        assert authenticators_in(msg) == 1

    def test_pre_prepare_dedups_shared_qc(self):
        qc = _qc()
        block_a = make_child(genesis_block(), 2, (), qc.digest)
        proposal_a = Proposal(block_a, Justify(qc))
        proposal_b = Proposal(block_a, Justify(qc))
        msg = PrePrepareMsg(view=2, proposals=(proposal_a, proposal_b), shadow=True)
        assert authenticators_in(msg) == 1

    def test_sync_messages_free(self):
        assert authenticators_in(SyncRequest(digests=(b"\0" * 32,))) == 0

    def test_unknown_payload_zero(self):
        assert authenticators_in("not a protocol message") == 0


class TestTableI:
    def test_rows_present(self):
        protocols = [row.protocol for row in TABLE_I]
        assert protocols == ["HotStuff", "Fast-HotStuff", "Jolteon", "Wendy", "Marlin"]

    def test_only_hotstuff_and_marlin_are_linear(self):
        linear = {row.protocol for row in TABLE_I if row.linear}
        assert linear == {"HotStuff", "Marlin"}

    def test_marlin_phase_count(self):
        marlin = next(row for row in TABLE_I if row.protocol == "Marlin")
        assert marlin.vc_phases == "2 or 3"
        hotstuff = next(row for row in TABLE_I if row.protocol == "HotStuff")
        assert hotstuff.vc_phases == "3"
