"""The fused ``ClientRequest``/``ClientReply`` frames against the generic codec.

The wire codec packs and unpacks the two per-op messages with
fixed structs.  Their bytes must be exactly the canonical encoding
of ``[tag, fields]`` that the generic path produced, for any field
values; decoding must round-trip; and bytes that are not such a frame
(every truncated prefix, a trailing byte, a wrong tag on any field,
random bit flips) must raise :class:`EncodingError` and nothing else.
The field lists below are the oracle, written out independently of the
codec.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.encoding import encode
from repro.common.errors import EncodingError
from repro.consensus.messages import ClientReply, ClientRequest
from repro.network.codec import decode_message, encode_message

int64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
blobs = st.one_of(
    st.just(b""), st.binary(max_size=40), st.binary(min_size=1000, max_size=5000)
)
digests = st.one_of(st.just(b""), st.binary(min_size=32, max_size=32))

requests = st.builds(
    ClientRequest, client_id=int64, sequence=int64, payload=blobs, weight=int64
)
replies = st.builds(
    ClientReply,
    client_id=int64,
    sequence=int64,
    replica=int64,
    result=blobs,
    result_digest=digests,
    view=int64,
    weight=int64,
    reply_size=int64,
)
messages = st.one_of(requests, replies)


def canonical(m) -> bytes:
    """The generic encoding of ``m``: ``encode([tag, fields])``."""
    if isinstance(m, ClientRequest):
        return encode(["clientreq", [m.client_id, m.sequence, m.payload, m.weight]])
    return encode([
        "clientreply",
        [m.client_id, m.sequence, m.replica, m.result,
         m.result_digest, m.view, m.weight, m.reply_size],
    ])  # fmt: skip


def field_tag_offsets(m) -> list[tuple[int, bytes]]:
    """(offset, tag) of the field list's header and of every field in the frame."""
    tag = "clientreq" if isinstance(m, ClientRequest) else "clientreply"
    offset = len(encode([tag, []])) - 5
    found = [(offset, b"l")]
    offset += 5
    if isinstance(m, ClientRequest):
        fields = [m.client_id, m.sequence, m.payload, m.weight]
    else:
        fields = [m.client_id, m.sequence, m.replica, m.result,
                  m.result_digest, m.view, m.weight, m.reply_size]  # fmt: skip
    for value in fields:
        if isinstance(value, bytes):
            found.append((offset, b"b"))
            offset += 5 + len(value)
        else:
            found.append((offset, b"i"))
            offset += 9
    return found


def refused(data: bytes) -> bool:
    """True if decoding raises EncodingError; any other exception fails."""
    try:
        decode_message(data)
    except EncodingError:
        return True
    return False


@settings(max_examples=150)
@given(messages)
def test_frame_is_the_generic_encoding_and_round_trips(m):
    frame = encode_message(m)
    assert frame == canonical(m)
    decoded = decode_message(frame)
    assert type(decoded) is type(m)
    assert decoded == m


@settings(max_examples=40)
@given(messages)
def test_every_truncated_prefix_and_a_trailing_byte_are_refused(m):
    frame = encode_message(m)
    for end in range(len(frame)):
        assert refused(frame[:end]), f"prefix of {end} bytes decoded"
    assert refused(frame + b"\x00")


@settings(max_examples=60)
@given(messages)
def test_each_wrong_field_tag_is_refused(m):
    frame = encode_message(m)
    for offset, tag in field_tag_offsets(m):
        assert frame[offset : offset + 1] == tag
        for wrong in b"libsndtf":
            if bytes([wrong]) != tag:
                assert refused(frame[:offset] + bytes([wrong]) + frame[offset + 1 :])


@given(messages, st.data())
def test_random_bit_flips_decode_or_raise_encoding_error(m, data):
    frame = bytearray(encode_message(m))
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        bit = data.draw(st.integers(min_value=0, max_value=8 * len(frame) - 1))
        frame[bit // 8] ^= 1 << (bit % 8)
    refused(bytes(frame))  # decodes or raises EncodingError, nothing else


@pytest.mark.parametrize(
    "m",
    [
        ClientRequest(client_id=2**63, sequence=0, payload=b""),
        ClientRequest(client_id=0, sequence=-(2**63) - 1, payload=b"x"),
        ClientReply(client_id=1, sequence=2, replica=3, reply_size=2**64),
        ClientReply(client_id=1, sequence=2, replica=-(2**70)),
    ],
)
def test_out_of_range_int_is_an_encoding_error(m):
    with pytest.raises(EncodingError):
        encode_message(m)


@pytest.mark.parametrize(
    "m",
    [
        ClientRequest(client_id=1, sequence=0, payload="text"),
        ClientReply(client_id=1, sequence=2, replica=3, result="text"),
        ClientReply(client_id=1, sequence=2, replica=3, result_digest="d" * 32),
    ],
)
def test_a_str_where_bytes_belong_is_an_encoding_error(m):
    with pytest.raises(EncodingError):
        encode_message(m)


def test_a_reply_with_mistyped_fields_is_refused():
    # A str client id used to decode into a ClientReply carrying a str.
    body = ["9", 3, 1, b"", b"\x01" * 32, 4, 1, 0]
    with pytest.raises(EncodingError):
        decode_message(encode(["clientreply", body]))
    with pytest.raises(EncodingError):
        decode_message(encode(["clientreq", [9, 3, "payload", 1]]))
