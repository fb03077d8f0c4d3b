"""The wire codec: roundtrips for every protocol message type."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import EncodingError
from repro.consensus.block import Block, Operation, genesis_block, make_child
from repro.consensus.crypto_service import NullQuorumToken, NullShare
from repro.consensus.messages import (
    AggregateNewView,
    ClientReply,
    ClientRequest,
    ClientRequestBatch,
    Justify,
    LeaseAck,
    LeaseProbe,
    PhaseMsg,
    PrePrepareMsg,
    Proposal,
    ReadReply,
    ReadRequest,
    ReplyBatch,
    StateTransferRequest,
    StateTransferResponse,
    SyncRequest,
    SyncResponse,
    ViewChangeMsg,
    VoteMsg,
)
from repro.consensus.qc import BlockSummary, Phase, QuorumCertificate
from repro.crypto.hashing import digest_of
from repro.crypto.multisig import MultiSignature
from repro.crypto.signatures import SigningKey
from repro.crypto.threshold import PartialSignature, ThresholdSignature
from repro.network.codec import decode_message, encode_message, supports


def sample_block(num_ops: int = 2) -> Block:
    ops = tuple(
        Operation(client_id=i, sequence=i * 3, payload=b"payload-%d" % i, weight=i + 1)
        for i in range(num_ops)
    )
    return make_child(genesis_block(), 1, ops, digest_of("qc"))


def sample_summary(virtual: bool = False) -> BlockSummary:
    return BlockSummary(
        digest=digest_of(["s", virtual]),
        view=3,
        height=7,
        parent_view=2,
        is_virtual=virtual,
        justify_in_view=not virtual,
    )


def sample_qc(phase: Phase = Phase.PREPARE, signature=None) -> QuorumCertificate:
    return QuorumCertificate(
        phase=phase,
        view=3,
        block=sample_summary(),
        signature=signature or ThresholdSignature(123456789),
    )


def roundtrip(msg):
    assert supports(msg)
    return decode_message(encode_message(msg))


class TestMessageRoundtrips:
    def test_phase_msg_with_block(self):
        msg = PhaseMsg(
            phase=Phase.PREPARE, view=3, justify=Justify(sample_qc()), block=sample_block()
        )
        assert roundtrip(msg) == msg

    def test_phase_msg_qc_only(self):
        msg = PhaseMsg(phase=Phase.COMMIT, view=3, justify=Justify(sample_qc()))
        assert roundtrip(msg) == msg

    def test_phase_msg_composite_justify(self):
        virtual_summary = BlockSummary(
            digest=digest_of(["v"]), view=3, height=8, parent_view=2,
            is_virtual=True, justify_in_view=False,
        )
        ppqc = QuorumCertificate(
            phase=Phase.PRE_PREPARE, view=3, block=virtual_summary,
            signature=ThresholdSignature(42),
        )
        vc = QuorumCertificate(
            phase=Phase.PREPARE, view=2,
            block=BlockSummary(digest=digest_of(["p"]), view=2, height=7, parent_view=2),
            signature=ThresholdSignature(43),
        )
        msg = PhaseMsg(phase=Phase.PREPARE, view=3, justify=Justify(ppqc, vc))
        assert roundtrip(msg) == msg

    def test_vote_msg_with_locked_qc(self):
        msg = VoteMsg(
            phase=Phase.PRE_PREPARE,
            view=4,
            block=sample_summary(virtual=True),
            share=PartialSignature(signer=2, value=987654321),
            locked_qc=sample_qc(),
        )
        assert roundtrip(msg) == msg

    def test_pre_prepare_shadow(self):
        block = sample_block()
        qc = sample_qc()
        virtual = Block(
            parent_link=None,
            parent_view=1,
            view=2,
            height=block.height + 1,
            operations=block.operations,
            justify_digest=qc.digest,
        )
        msg = PrePrepareMsg(
            view=2,
            proposals=(Proposal(block, Justify(qc)), Proposal(virtual, Justify(qc))),
            shadow=True,
        )
        assert roundtrip(msg) == msg

    def test_view_change(self):
        msg = ViewChangeMsg(
            view=5,
            last_voted=sample_summary(),
            justify=Justify(sample_qc()),
            share=PartialSignature(signer=1, value=55),
        )
        assert roundtrip(msg) == msg

    def test_view_change_minimal(self):
        msg = ViewChangeMsg(view=5, last_voted=None, justify=None, share=None)
        assert roundtrip(msg) == msg

    def test_aggregate_new_view(self):
        proof = ViewChangeMsg(
            view=5,
            last_voted=sample_summary(),
            justify=Justify(sample_qc()),
            share=PartialSignature(signer=0, value=9),
        )
        msg = AggregateNewView(
            view=5, block=sample_block(), justify=Justify(sample_qc()),
            proofs=((0, proof), (2, proof)),
        )
        assert roundtrip(msg) == msg

    def test_sync_messages(self):
        req = SyncRequest(digests=(digest_of("a"), digest_of("b")))
        assert roundtrip(req) == req
        resp = SyncResponse(
            blocks=(sample_block(),),
            resolutions=((digest_of("v"), digest_of("p")),),
        )
        assert roundtrip(resp) == resp

    def test_client_messages(self):
        assert roundtrip(ClientRequest(client_id=9, sequence=3, payload=b"x")) == ClientRequest(
            client_id=9, sequence=3, payload=b"x"
        )
        assert roundtrip(
            ClientRequest(client_id=9, sequence=3, payload=b"x", weight=7)
        ) == ClientRequest(client_id=9, sequence=3, payload=b"x", weight=7)
        batch = ClientRequestBatch(
            operations=(Operation(client_id=1, sequence=2, payload=b"z", weight=5),)
        )
        assert roundtrip(batch) == batch
        reply = ClientReply(client_id=9, sequence=3, replica=1, result=b"ok")
        assert roundtrip(reply) == reply
        full_reply = ClientReply(
            client_id=9, sequence=3, replica=1, result=b"ok",
            result_digest=digest_of("r"), view=4, weight=3, reply_size=150,
        )
        assert roundtrip(full_reply) == full_reply
        rb = ReplyBatch(
            replica=2, block_digest=digest_of("b"), op_keys=((1, 2), (3, 4)),
            num_ops=10, reply_size=150,
        )
        assert roundtrip(rb) == rb
        rb_digests = ReplyBatch(
            replica=2, block_digest=digest_of("b"), op_keys=((1, 2), (3, 4)),
            num_ops=10, reply_size=150,
            result_digests=(digest_of("r1"), digest_of("r2")), view=6,
        )
        assert roundtrip(rb_digests) == rb_digests

    def test_read_and_lease_messages(self):
        req = ReadRequest(client_id=9, sequence=4, key=b"k", weight=2)
        assert roundtrip(req) == req
        redirect = ReadReply(client_id=9, sequence=4, replica=2, view=3, ok=False)
        assert roundtrip(redirect) == redirect
        served = ReadReply(
            client_id=9, sequence=4, replica=1, view=3, value=b"v", ok=True, weight=2
        )
        assert roundtrip(served) == served
        probe = LeaseProbe(leader=1, view=3, nonce=17)
        assert roundtrip(probe) == probe
        ack = LeaseAck(replica=2, view=3, nonce=17)
        assert roundtrip(ack) == ack


class TestSignatureUnion:
    def test_conventional_signature(self):
        sig = SigningKey.from_seed("k").sign(b"m")
        qc = sample_qc(signature=sig)
        msg = PhaseMsg(phase=Phase.COMMIT, view=3, justify=Justify(qc))
        assert roundtrip(msg).justify.qc.signature == sig

    def test_multisig(self):
        sigs = tuple((i, SigningKey.from_seed(f"k{i}").sign(b"m")) for i in range(3))
        bundle = MultiSignature(signatures=sigs, group_size=4)
        qc = sample_qc(signature=bundle)
        msg = PhaseMsg(phase=Phase.COMMIT, view=3, justify=Justify(qc))
        assert roundtrip(msg).justify.qc.signature == bundle

    def test_null_tokens(self):
        share = NullShare(signer=1, tag=digest_of("t"))
        vote = VoteMsg(phase=Phase.PREPARE, view=1, block=sample_summary(), share=share)
        assert roundtrip(vote).share == share
        token = NullQuorumToken(signers=frozenset({0, 1, 2}), tag=digest_of("t"))
        qc = sample_qc(signature=token)
        msg = PhaseMsg(phase=Phase.COMMIT, view=3, justify=Justify(qc))
        assert roundtrip(msg).justify.qc.signature == token

    def test_genesis_none_signature(self):
        from repro.consensus.qc import genesis_qc

        qc = genesis_qc(genesis_block())
        msg = PhaseMsg(phase=Phase.COMMIT, view=0, justify=Justify(qc))
        assert roundtrip(msg).justify.qc.signature is None


class TestGoldenWireFormat:
    """Every registered message type must encode byte-identically to the
    reference append-per-field encoder (the zero-copy fast path gate)."""

    @staticmethod
    def _samples():
        proof = ViewChangeMsg(
            view=5,
            last_voted=sample_summary(),
            justify=Justify(sample_qc()),
            share=PartialSignature(signer=0, value=9),
        )
        return [
            PhaseMsg(
                phase=Phase.PREPARE, view=3, justify=Justify(sample_qc()), block=sample_block()
            ),
            VoteMsg(
                phase=Phase.PRE_PREPARE,
                view=4,
                block=sample_summary(virtual=True),
                share=PartialSignature(signer=2, value=987654321),
                locked_qc=sample_qc(),
            ),
            PrePrepareMsg(
                view=2,
                proposals=(Proposal(sample_block(), Justify(sample_qc())),),
            ),
            proof,
            AggregateNewView(
                view=5, block=sample_block(), justify=Justify(sample_qc()),
                proofs=((0, proof), (2, proof)),
            ),
            StateTransferRequest(have_height=4),
            StateTransferResponse(
                committed_height=7,
                head=sample_block(),
                recent_blocks=(sample_block(),),
                app_entries=((b"k", b"v"),),
            ),
            SyncRequest(digests=(digest_of("a"), digest_of("b"))),
            SyncResponse(
                blocks=(sample_block(),),
                resolutions=((digest_of("v"), digest_of("p")),),
            ),
            ClientRequest(client_id=9, sequence=3, payload=b"x", weight=7),
            ClientRequestBatch(
                operations=(Operation(client_id=1, sequence=2, payload=b"z", weight=5),)
            ),
            ClientReply(
                client_id=9, sequence=3, replica=1, result=b"ok",
                result_digest=digest_of("r"), view=4, weight=3, reply_size=150,
            ),
            ReplyBatch(
                replica=2, block_digest=digest_of("b"), op_keys=((1, 2), (3, 4)),
                num_ops=10, reply_size=150,
                result_digests=(digest_of("r1"), digest_of("r2")), view=6,
            ),
            ReadRequest(client_id=9, sequence=4, key=b"k", weight=2),
            ReadReply(
                client_id=9, sequence=4, replica=1, view=3, value=b"v", ok=True, weight=2
            ),
            LeaseProbe(leader=1, view=3, nonce=17),
            LeaseAck(replica=2, view=3, nonce=17),
        ]

    def test_all_registered_types_sampled(self):
        # A new message type registered without a golden sample here must
        # fail loudly rather than silently escape the byte-identity gate.
        from repro.network import codec

        sampled = {type(msg) for msg in self._samples()}
        sampled.update({SyncRequest, SyncResponse})
        missing = set(codec._ENCODERS) - sampled
        assert not missing, f"message types without a golden sample: {missing}"

    def test_byte_identical_to_reference_encoder(self):
        from repro.network import codec
        from tests.test_encoding import reference_encode

        for msg in self._samples():
            tag, enc = codec._ENCODERS[type(msg)]
            assert encode_message(msg) == reference_encode([tag, enc(msg)]), (
                f"wire bytes drifted for {type(msg).__name__}"
            )


class TestErrors:
    def test_unsupported_payload(self):
        assert not supports("a plain string")
        with pytest.raises(EncodingError):
            encode_message("a plain string")

    def test_unknown_tag(self):
        from repro.common.encoding import encode

        with pytest.raises(EncodingError):
            decode_message(encode(["no-such-tag", []]))

    def test_digest_preserved_through_roundtrip(self):
        block = sample_block()
        msg = PhaseMsg(
            phase=Phase.PREPARE, view=3, justify=Justify(sample_qc()), block=block
        )
        assert roundtrip(msg).block.digest == block.digest


_ops = st.builds(
    Operation,
    client_id=st.integers(min_value=0, max_value=1000),
    sequence=st.integers(min_value=0, max_value=10**6),
    payload=st.binary(max_size=64),
    weight=st.integers(min_value=1, max_value=100),
)


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(_ops, max_size=5), view=st.integers(min_value=1, max_value=100))
def test_property_block_roundtrip(ops, view):
    block = make_child(genesis_block(), view, tuple(ops), digest_of(["j", view]))
    msg = PhaseMsg(
        phase=Phase.PREPARE,
        view=view,
        justify=Justify(sample_qc()),
        block=block,
    )
    decoded = roundtrip(msg)
    assert decoded.block == block
    assert decoded.block.digest == block.digest


def _golden_frames() -> list[bytes]:
    return [
        encode_message(msg)
        for msg in (
            ClientRequestBatch(
                operations=(Operation(client_id=1, sequence=2, payload=b"z", weight=5),)
            ),
            SyncRequest(digests=(digest_of("a"), digest_of("b"))),
            SyncResponse(
                blocks=(sample_block(),),
                resolutions=((digest_of("v"), digest_of("p")),),
            ),
            ReplyBatch(
                replica=2, block_digest=digest_of("b"), op_keys=((1, 2), (3, 4)),
                num_ops=10, reply_size=150,
            ),
        )
    ]


@st.composite
def _mutated_frames(draw) -> bytes:
    """A golden frame with bytes overwritten, inserted or deleted, or cut short."""
    frame = bytearray(draw(st.sampled_from(_golden_frames())))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(frame) - 1))
        edit = draw(st.sampled_from(["overwrite", "insert", "delete", "truncate"]))
        if edit == "overwrite":
            frame[at] = draw(st.integers(0, 255))
        elif edit == "insert":
            frame[at:at] = draw(st.binary(min_size=1, max_size=4))
        elif edit == "delete" and len(frame) > 1:
            del frame[at]
        elif edit == "truncate":
            del frame[at:]
        if not frame:
            break
    return bytes(frame)


@settings(max_examples=400, deadline=None)
@given(data=st.one_of(st.binary(max_size=256), _mutated_frames()))
def test_property_decoders_raise_only_encoding_error(data):
    from repro.common.encoding import decode

    for decoder in (decode, decode_message):
        try:
            decoder(data)
        except EncodingError:
            pass
