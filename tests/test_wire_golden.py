"""Golden TCP frames: the exact bytes ``TcpNetwork`` puts on the wire.

One instance of every message type the wire codec registers, plus one
canonical-encoding (``e``) frame, is framed as :class:`TcpNetwork` frames
it; the SHA-256 of each frame is pinned.  A change to the encoder, the
codec's field layout or the frame header fails here by name.  Every
frame is also sent over a live ``TcpNetwork`` and must arrive equal.
"""

from __future__ import annotations

import asyncio
import hashlib

import pytest

from repro.consensus.block import Operation, genesis_block, make_child
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
from repro.consensus.qc import BlockSummary, Phase, QuorumCertificate, genesis_qc
from repro.crypto.hashing import digest_of
from repro.crypto.multisig import MultiSignature
from repro.crypto.signatures import SigningKey
from repro.crypto.threshold import PartialSignature, ThresholdSignature
from repro.network import codec
from repro.network.asyncio_net import TcpNetwork


def _block():
    ops = tuple(
        Operation(client_id=7 + i, sequence=i + 1, payload=b"op-%d" % i, weight=i + 1)
        for i in range(3)
    )
    return make_child(genesis_block(), 2, ops, digest_of("justify"))


def _summary(virtual: bool = False) -> BlockSummary:
    return BlockSummary(
        digest=digest_of(["summary", virtual]),
        view=3,
        height=9,
        parent_view=2,
        is_virtual=virtual,
        justify_in_view=not virtual,
    )


def _qc(phase: Phase = Phase.PREPARE, signature=None) -> QuorumCertificate:
    return QuorumCertificate(
        phase=phase,
        view=3,
        block=_summary(),
        signature=signature if signature is not None else ThresholdSignature(2**200 + 17),
    )


def _samples() -> dict[str, object]:
    keys = [SigningKey.from_seed(f"k{i}") for i in range(3)]
    multisig = MultiSignature(
        signatures=tuple((i, key.sign(b"m")) for i, key in enumerate(keys)), group_size=4
    )
    proof = ViewChangeMsg(
        view=5,
        last_voted=_summary(virtual=True),
        justify=Justify(_qc(signature=multisig)),
        share=PartialSignature(signer=1, value=2**130 + 5),
    )
    return {
        "phase": PhaseMsg(
            phase=Phase.PREPARE,
            view=3,
            justify=Justify(_qc(Phase.PRE_PREPARE), _qc(signature=keys[0].sign(b"vc"))),
            block=_block(),
        ),
        "vote": VoteMsg(
            phase=Phase.COMMIT,
            view=4,
            block=_summary(),
            share=NullShare(signer=2, tag=digest_of("share")),
            locked_qc=_qc(signature=NullQuorumToken(signers=frozenset({0, 2, 3}), tag=b"t")),
        ),
        "preprepare": PrePrepareMsg(
            view=2,
            proposals=(
                Proposal(_block(), Justify(genesis_qc(genesis_block()))),
                Proposal(_block(), Justify(_qc())),
            ),
            shadow=True,
        ),
        "viewchange": proof,
        "aggnewview": AggregateNewView(
            view=5, block=_block(), justify=Justify(_qc()), proofs=((0, proof), (3, proof))
        ),
        "syncreq": SyncRequest(digests=(digest_of("a"), digest_of("b"))),
        "syncresp": SyncResponse(
            blocks=(_block(),), resolutions=((digest_of("v"), digest_of("p")),)
        ),
        "streq": StateTransferRequest(have_height=4),
        "stresp": StateTransferResponse(
            committed_height=7,
            head=_block(),
            recent_blocks=(_block(),),
            app_entries=((b"k", b"v"), (b"\x00\xff", b"")),
        ),
        "clientreq": ClientRequest(client_id=9, sequence=3, payload=b"x" * 100, weight=7),
        "clientreqbatch": ClientRequestBatch(
            operations=(
                Operation(client_id=1, sequence=2, payload=b"z", weight=5),
                Operation(client_id=-1, sequence=2**62, payload=b"", weight=1),
            )
        ),
        "clientreply": ClientReply(
            client_id=9,
            sequence=3,
            replica=1,
            result=b"ok",
            result_digest=digest_of("r"),
            view=4,
            weight=3,
            reply_size=150,
        ),
        "replybatch": ReplyBatch(
            replica=2,
            block_digest=digest_of("b"),
            op_keys=((1, 2), (3, 4)),
            num_ops=10,
            reply_size=150,
            result_digests=(digest_of("r1"), digest_of("r2")),
            view=6,
        ),
        "readreq": ReadRequest(client_id=9, sequence=4, key=b"k", weight=2),
        "readreply": ReadReply(
            client_id=9, sequence=4, replica=1, view=3, value=b"v", ok=True, weight=2
        ),
        "leaseprobe": LeaseProbe(leader=1, view=3, nonce=17),
        "leaseack": LeaseAck(replica=2, view=3, nonce=17),
        "e": {"b": b"\x00raw", "l": [1, -2, None, True, False, "strä", [[]], {}], "n": 2**63 - 1},
    }


#: SHA-256 of each sample's frame (length header, marker, body).
GOLDEN = {
    "phase": "2a0b6e755f5eb720d5d4ae4ab8f1113598fea25b82d29aeb84c7f52ddd0dc3f5",
    "vote": "b9fd10f66b5c168bb10296e2bf8ed9328b60cb229df3fcc960b6b0bd31b946f6",
    "preprepare": "52a44a17d5fcec671f616149cb2cc3f8c1686d2114c0f0d4685faab2b615ba60",
    "viewchange": "1b52ad99424f4489d8e2dc0a901ec7cf90adb45945d6fa6a6effcd5385927257",
    "aggnewview": "5130449f969ed2683ecdaee0be79fa218c38d8e4b9fe378b98916a2b4c0bb1af",
    "syncreq": "a0c88d591bb297544a4eb648cf362158869b653656a055e33795721b2a3620b8",
    "syncresp": "c78d264e6889f0fc05efd6f3b422627d7566e6999d5a8b22db56931638ba2cc9",
    "streq": "94625f8eca7d224ac76c1896329385947a7b329f3af894e045176f6be9c9b824",
    "stresp": "9f3438fd394a6a3c0f5e28942d0b484c58b956c81c0469eb8a222579fede2e17",
    "clientreq": "f004f63108b7e98c34c98f6707d7269dbf555d1fe9d18bcc7a06590b6a0b3137",
    "clientreqbatch": "da464579e33aae624fc1a4b2499feb3fcf8f1a8ef493f309bcf37c9f6b67c509",
    "clientreply": "bda1aa3a3728d52c9063b291263315f3adb9c0cd179e1703280c940e4795d245",
    "replybatch": "f0b719f0ad472300dc74501c588a8553ebb7b4fbce24f56b6c0a90c7aa9ad5eb",
    "readreq": "42f25fb658c1fb9e73ad1150d8978de37404f68472d706a2801bb37a3aaad5cd",
    "readreply": "50046c7850294e9194b78ac6a9e7cc91002dd0cd43ea659c8379e005e61e5a15",
    "leaseprobe": "f1193db4c0c8a5efaf63a5e7e50b69c2c7d6095bc6c496a797a5b0d9c1605bdd",
    "leaseack": "3dd9b9bd47cf17dd460ff715542e6dcbf752da4e41774a7fc31d601220534785",
    "e": "50eb4d46d722e9f9f7f749cc05424891e4966794edf9095e363a70d8a9c34fda",
}


def test_every_codec_type_is_sampled():
    tags = {tag for tag, _ in codec._ENCODERS.values()}
    samples = _samples()
    assert tags | {"e"} == set(samples) == set(GOLDEN)
    for tag, sample in samples.items():
        if tag != "e":
            assert codec._ENCODERS[type(sample)][0] == tag


@pytest.mark.parametrize("tag", sorted(GOLDEN))
def test_frame_bytes_are_pinned(tag):
    frame = TcpNetwork._encode_frame(_samples()[tag])
    assert frame[4:5] == (b"e" if tag == "e" else b"c")
    assert hashlib.sha256(frame).hexdigest() == GOLDEN[tag]


def test_every_frame_decodes_back_equal_over_tcp():
    samples = list(_samples().values())

    async def main():
        net = TcpNetwork()
        inbox: list[object] = []
        net.register(0, lambda src, payload: None)
        net.register(1, lambda src, payload: inbox.append(payload))
        await net.start()
        for sample in samples:
            net.send(0, 1, sample)
        for _ in range(250):
            if len(inbox) == len(samples):
                break
            await asyncio.sleep(0.02)
        await net.close()
        return inbox

    assert asyncio.run(main()) == samples
