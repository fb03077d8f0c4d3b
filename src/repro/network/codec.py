"""Wire codec: canonical binary serialisation of protocol messages.

The DES passes Python objects by reference; real transports need bytes.
This module serialises every protocol message through the deterministic
canonical encoding (:mod:`repro.common.encoding`), giving the TCP
transport a language-independent wire format and the tests a guarantee
that everything a replica sends is actually serialisable.

Each message type gets a string tag; payload fields are converted to
canonical-encodable structures (lists/dicts/ints/bytes).  QC signatures
are a tagged union covering every crypto service's artifact
(threshold signature, partial signature, conventional signature,
multi-signature bundle, null tokens, and the genesis ``None``).

There is deliberately no trace-context field anywhere in this format.
Request-journey tracing (:mod:`repro.obs.journey`) keys on the
``(client_id, sequence)`` pair already present in every operation,
request, and reply, and derives the per-client sample bit from the run
seed — so a traced run and an untraced run produce byte-identical
wire traffic, and the encoding never needs versioning for
observability's sake.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.common.encoding import decode, encode
from repro.common.errors import EncodingError
from repro.consensus.block import Block, Operation
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
from repro.crypto.multisig import MultiSignature
from repro.crypto.signatures import Signature
from repro.crypto.threshold import PartialSignature, ThresholdSignature

# --------------------------------------------------------------- signatures


def _enc_sig(sig: Any) -> list | None:
    if sig is None:
        return None
    if isinstance(sig, ThresholdSignature):
        return ["tsig", sig.value.to_bytes(32, "big")]
    if isinstance(sig, PartialSignature):
        return ["psig", sig.signer, sig.value.to_bytes(32, "big")]
    if isinstance(sig, Signature):
        return ["sig", sig.data]
    if isinstance(sig, MultiSignature):
        return [
            "msig",
            [[signer, inner.data] for signer, inner in sig.signatures],
            sig.group_size,
        ]
    if isinstance(sig, NullShare):
        return ["nshare", sig.signer, sig.tag]
    if isinstance(sig, NullQuorumToken):
        return ["ntoken", sorted(sig.signers), sig.tag]
    raise EncodingError(f"cannot encode signature type {type(sig).__name__}")


def _dec_sig(data: list | None) -> Any:
    if data is None:
        return None
    kind = data[0]
    if kind == "tsig":
        return ThresholdSignature(int.from_bytes(data[1], "big"))
    if kind == "psig":
        return PartialSignature(signer=data[1], value=int.from_bytes(data[2], "big"))
    if kind == "sig":
        return Signature(data[1])
    if kind == "msig":
        return MultiSignature(
            signatures=tuple((signer, Signature(raw)) for signer, raw in data[1]),
            group_size=data[2],
        )
    if kind == "nshare":
        return NullShare(signer=data[1], tag=data[2])
    if kind == "ntoken":
        return NullQuorumToken(signers=frozenset(data[1]), tag=data[2])
    raise EncodingError(f"unknown signature tag {kind!r}")


# ------------------------------------------------------------------ blocks


def _enc_op(op: Operation) -> list:
    return [op.client_id, op.sequence, op.payload, op.weight]


def _dec_op(data: list) -> Operation:
    return Operation(client_id=data[0], sequence=data[1], payload=data[2], weight=data[3])


def _enc_block(block: Block) -> list:
    return [
        block.parent_link,
        block.parent_view,
        block.view,
        block.height,
        [_enc_op(op) for op in block.operations],
        block.justify_digest,
        block.proposer,
    ]


def _dec_block(data: list) -> Block:
    return Block(
        parent_link=data[0],
        parent_view=data[1],
        view=data[2],
        height=data[3],
        operations=tuple(_dec_op(op) for op in data[4]),
        justify_digest=data[5],
        proposer=data[6],
    )


def _enc_summary(summary: BlockSummary) -> list:
    return summary.encodable()


def _dec_summary(data: list) -> BlockSummary:
    return BlockSummary(
        digest=data[0],
        view=data[1],
        height=data[2],
        parent_view=data[3],
        is_virtual=data[4],
        justify_in_view=data[5],
    )


def _enc_qc(qc: QuorumCertificate) -> list:
    return [qc.phase.value, qc.view, _enc_summary(qc.block), _enc_sig(qc.signature)]


def _dec_qc(data: list) -> QuorumCertificate:
    return QuorumCertificate(
        phase=Phase(data[0]),
        view=data[1],
        block=_dec_summary(data[2]),
        signature=_dec_sig(data[3]),
    )


def _enc_justify(justify: Justify | None) -> list | None:
    if justify is None:
        return None
    return [_enc_qc(justify.qc), _enc_qc(justify.vc) if justify.vc else None]


def _dec_justify(data: list | None) -> Justify | None:
    if data is None:
        return None
    return Justify(qc=_dec_qc(data[0]), vc=_dec_qc(data[1]) if data[1] else None)


# ---------------------------------------------------------------- messages

_ENCODERS: dict[type, tuple[str, Callable[[Any], list]]] = {}
_DECODERS: dict[str, Callable[[list], Any]] = {}


def _register(tag: str, cls: type, enc: Callable[[Any], list], dec: Callable[[list], Any]) -> None:
    _ENCODERS[cls] = (tag, enc)
    _DECODERS[tag] = dec


_register(
    "phase",
    PhaseMsg,
    lambda m: [
        m.phase.value,
        m.view,
        _enc_justify(m.justify),
        _enc_block(m.block) if m.block else None,
    ],
    lambda d: PhaseMsg(
        phase=Phase(d[0]),
        view=d[1],
        justify=_dec_justify(d[2]),
        block=_dec_block(d[3]) if d[3] else None,
    ),
)
_register(
    "vote",
    VoteMsg,
    lambda m: [
        m.phase.value,
        m.view,
        _enc_summary(m.block),
        _enc_sig(m.share),
        _enc_qc(m.locked_qc) if m.locked_qc else None,
    ],
    lambda d: VoteMsg(
        phase=Phase(d[0]),
        view=d[1],
        block=_dec_summary(d[2]),
        share=_dec_sig(d[3]),
        locked_qc=_dec_qc(d[4]) if d[4] else None,
    ),
)
_register(
    "preprepare",
    PrePrepareMsg,
    lambda m: [
        m.view,
        [[_enc_block(p.block), _enc_justify(p.justify)] for p in m.proposals],
        m.shadow,
    ],
    lambda d: PrePrepareMsg(
        view=d[0],
        proposals=tuple(
            Proposal(block=_dec_block(b), justify=_dec_justify(j)) for b, j in d[1]
        ),
        shadow=d[2],
    ),
)
_register(
    "viewchange",
    ViewChangeMsg,
    lambda m: [
        m.view,
        _enc_summary(m.last_voted) if m.last_voted else None,
        _enc_justify(m.justify),
        _enc_sig(m.share),
    ],
    lambda d: ViewChangeMsg(
        view=d[0],
        last_voted=_dec_summary(d[1]) if d[1] else None,
        justify=_dec_justify(d[2]),
        share=_dec_sig(d[3]),
    ),
)


def _enc_anv(m: AggregateNewView) -> list:
    vc_tag, vc_enc = _ENCODERS[ViewChangeMsg]
    return [
        m.view,
        _enc_block(m.block),
        _enc_justify(m.justify),
        [[src, vc_enc(proof)] for src, proof in m.proofs],
    ]


def _dec_anv(d: list) -> AggregateNewView:
    dec_vc = _DECODERS["viewchange"]
    return AggregateNewView(
        view=d[0],
        block=_dec_block(d[1]),
        justify=_dec_justify(d[2]),
        proofs=tuple((src, dec_vc(raw)) for src, raw in d[3]),
    )


_register("aggnewview", AggregateNewView, _enc_anv, _dec_anv)
_register(
    "syncreq",
    SyncRequest,
    lambda m: [list(m.digests)],
    lambda d: SyncRequest(digests=tuple(d[0])),
)
_register(
    "syncresp",
    SyncResponse,
    lambda m: [
        [_enc_block(b) for b in m.blocks],
        [[v, p] for v, p in m.resolutions],
    ],
    lambda d: SyncResponse(
        blocks=tuple(_dec_block(b) for b in d[0]),
        resolutions=tuple((v, p) for v, p in d[1]),
    ),
)
_register(
    "streq",
    StateTransferRequest,
    lambda m: [m.have_height],
    lambda d: StateTransferRequest(have_height=d[0]),
)
_register(
    "stresp",
    StateTransferResponse,
    lambda m: [
        m.committed_height,
        _enc_block(m.head) if m.head else None,
        [_enc_block(b) for b in m.recent_blocks],
        [[k, v] for k, v in m.app_entries],
    ],
    lambda d: StateTransferResponse(
        committed_height=d[0],
        head=_dec_block(d[1]) if d[1] else None,
        recent_blocks=tuple(_dec_block(b) for b in d[2]),
        app_entries=tuple((k, v) for k, v in d[3]),
    ),
)
_register(
    "clientreq",
    ClientRequest,
    lambda m: [m.client_id, m.sequence, m.payload, m.weight],
    lambda d: ClientRequest(
        client_id=d[0], sequence=d[1], payload=d[2], weight=d[3]
    ),
)
_register(
    "clientreqbatch",
    ClientRequestBatch,
    lambda m: [[_enc_op(op) for op in m.operations]],
    lambda d: ClientRequestBatch(operations=tuple(_dec_op(op) for op in d[0])),
)
_register(
    "clientreply",
    ClientReply,
    lambda m: [
        m.client_id, m.sequence, m.replica, m.result,
        m.result_digest, m.view, m.weight, m.reply_size,
    ],
    lambda d: ClientReply(
        client_id=d[0],
        sequence=d[1],
        replica=d[2],
        result=d[3],
        result_digest=d[4],
        view=d[5],
        weight=d[6],
        reply_size=d[7],
    ),
)
_register(
    "replybatch",
    ReplyBatch,
    lambda m: [
        m.replica, m.block_digest, [[c, s] for c, s in m.op_keys],
        m.num_ops, m.reply_size, list(m.result_digests), m.view,
    ],
    lambda d: ReplyBatch(
        replica=d[0],
        block_digest=d[1],
        op_keys=tuple((c, s) for c, s in d[2]),
        num_ops=d[3],
        reply_size=d[4],
        result_digests=tuple(d[5]),
        view=d[6],
    ),
)
_register(
    "readreq",
    ReadRequest,
    lambda m: [m.client_id, m.sequence, m.key, m.weight],
    lambda d: ReadRequest(client_id=d[0], sequence=d[1], key=d[2], weight=d[3]),
)
_register(
    "readreply",
    ReadReply,
    lambda m: [m.client_id, m.sequence, m.replica, m.view, m.value, m.ok, m.weight],
    lambda d: ReadReply(
        client_id=d[0],
        sequence=d[1],
        replica=d[2],
        view=d[3],
        value=d[4],
        ok=d[5],
        weight=d[6],
    ),
)
_register(
    "leaseprobe",
    LeaseProbe,
    lambda m: [m.leader, m.view, m.nonce],
    lambda d: LeaseProbe(leader=d[0], view=d[1], nonce=d[2]),
)
_register(
    "leaseack",
    LeaseAck,
    lambda m: [m.replica, m.view, m.nonce],
    lambda d: LeaseAck(replica=d[0], view=d[1], nonce=d[2]),
)


# ------------------------------------------------- public object helpers
# (used by the runtime's durable-state persistence)


def encode_block(block: Block) -> bytes:
    return encode(_enc_block(block))


def decode_block(data: bytes) -> Block:
    return _dec_block(decode(data))


def encode_qc(qc: QuorumCertificate | None) -> bytes:
    return encode(_enc_qc(qc) if qc is not None else None)


def decode_qc(data: bytes) -> QuorumCertificate | None:
    raw = decode(data)
    return _dec_qc(raw) if raw is not None else None


def encode_justify(justify: Justify | None) -> bytes:
    return encode(_enc_justify(justify))


def decode_justify(data: bytes) -> Justify | None:
    return _dec_justify(decode(data))


def encode_summary(summary: BlockSummary) -> bytes:
    return encode(_enc_summary(summary))


def decode_summary(data: bytes) -> BlockSummary:
    return _dec_summary(decode(data))


def supports(payload: Any) -> bool:
    """Can :func:`encode_message` handle this payload?"""
    return type(payload) in _ENCODERS


def encode_message(payload: Any) -> bytes:
    """Serialise a protocol message to canonical bytes.

    Raises :class:`EncodingError` for unsupported types.
    """
    entry = _ENCODERS.get(type(payload))
    if entry is None:
        raise EncodingError(f"no codec for {type(payload).__name__}")
    tag, enc = entry
    return encode([tag, enc(payload)])


def decode_message(data: bytes) -> Any:
    """Inverse of :func:`encode_message`.

    Raises :class:`EncodingError`, and nothing else, for bytes that are
    not an encoded message: a field that fails its own type's checks (a
    negative block height, a string where an int belongs) is chained as
    the cause.
    """
    try:
        tag, body = decode(data)
        dec = _DECODERS.get(tag)
        if dec is None:
            raise EncodingError(f"unknown message tag {tag!r}")
        return dec(body)
    except EncodingError:
        raise
    except Exception as exc:
        raise EncodingError(f"malformed message: {exc}") from exc
