"""Cost models and node contexts."""

from __future__ import annotations

import pytest

from repro.common.config import MachineProfile
from repro.consensus.block import Operation, genesis_block, make_child
from repro.consensus.context import LocalContext
from repro.consensus.costs import PaperCostModel, ZeroCostModel
from repro.consensus.qc import BlockSummary, Phase, QuorumCertificate
from repro.crypto.hashing import digest_of


def _block(num_ops: int):
    ops = tuple(Operation(client_id=1, sequence=i, payload=b"x" * 150) for i in range(num_ops))
    return make_child(genesis_block(), 1, ops, digest_of("qc"))


def _qc(view: int = 1):
    return QuorumCertificate(
        phase=Phase.PREPARE,
        view=view,
        block=BlockSummary(digest=b"\0" * 32, view=view, height=1, parent_view=0),
        signature=None,
    )


class TestZeroCostModel:
    def test_everything_free(self):
        model = ZeroCostModel()
        assert model.verify_block(_block(10)) == 0.0
        assert model.verify_qc(_qc()) == 0.0
        assert model.sign_vote() == 0.0
        assert model.db_write(_block(1)) == 0.0


class TestPaperCostModel:
    def test_client_sigs_off_critical_path_by_default(self):
        """Default model: block admission is hash-only (the paper's ops
        are opaque payloads; no per-op signature verification)."""
        machine = MachineProfile.paper_testbed()
        model = PaperCostModel(machine, scheme="threshold", quorum=3)
        assert model.verify_block(_block(160)) < machine.verify_cost

    def test_client_sig_ablation_parallelised(self):
        machine = MachineProfile.paper_testbed()
        model = PaperCostModel(machine, scheme="threshold", quorum=3, verify_client_sigs=True)
        serial_estimate = 160 * machine.verify_cost
        assert model.verify_block(_block(160)) == pytest.approx(
            serial_estimate / machine.cores, rel=0.1
        )

    def test_threshold_qc_costs_one_pairing(self):
        machine = MachineProfile.paper_testbed()
        model = PaperCostModel(machine, scheme="threshold", quorum=21)
        assert model.verify_qc(_qc()) == pytest.approx(machine.pairing_cost)

    def test_multisig_qc_scales_with_quorum(self):
        machine = MachineProfile.paper_testbed()
        small = PaperCostModel(machine, scheme="multisig", quorum=3)
        large = PaperCostModel(machine, scheme="multisig", quorum=21)
        assert large.verify_qc(_qc()) > small.verify_qc(_qc())

    def test_genesis_qc_free(self):
        model = PaperCostModel(MachineProfile.paper_testbed())
        assert model.verify_qc(_qc(view=0)) == 0.0

    def test_empty_block_free_verify(self):
        model = PaperCostModel(MachineProfile.paper_testbed())
        assert model.verify_block(_block(0)) == 0.0

    def test_db_write_grows_with_size(self):
        model = PaperCostModel(MachineProfile.paper_testbed())
        assert model.db_write(_block(100)) > model.db_write(_block(1))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            PaperCostModel(MachineProfile.paper_testbed(), scheme="quantum")

    def test_combine_null_scheme_maps_to_threshold(self):
        model = PaperCostModel(MachineProfile.paper_testbed(), scheme="null")
        assert model.scheme == "threshold"


class TestLocalContext:
    def test_outbox_and_broadcast(self):
        ctx = LocalContext(replica_id=0, num_replicas=4)
        ctx.send(2, "direct")
        ctx.broadcast("wide")
        assert (2, "direct") in ctx.outbox
        assert sum(1 for _, p in ctx.outbox if p == "wide") == 4

    def test_timers_manual_fire(self):
        ctx = LocalContext(0, 4)
        fired = []
        ctx.set_timer("t", 1.0, lambda: fired.append(ctx.now))
        ctx.fire_timer("t")
        assert fired == [1.0]
        assert "t" not in ctx.timers

    def test_cancel_timer(self):
        ctx = LocalContext(0, 4)
        ctx.set_timer("t", 1.0, lambda: None)
        ctx.cancel_timer("t")
        assert "t" not in ctx.timers

    def test_charge_accumulates(self):
        ctx = LocalContext(0, 4)
        ctx.charge(0.5)
        ctx.charge(0.25)
        assert ctx.cpu_charged == pytest.approx(0.75)

    def test_drain_clears(self):
        ctx = LocalContext(0, 4)
        ctx.send(1, "x")
        assert ctx.drain() == [(1, "x")]
        assert ctx.outbox == []
