"""The fused decoder against the recursive decoder it replaced.

``reference_decode`` below is the previous ``repro.common.encoding``
decoder, kept verbatim (renamed) as the oracle.  For every input the two
must agree: both return equal values of the same types, or both raise
:class:`EncodingError`.  Any other exception fails the test.  Inputs are
canonical encodings, every truncated prefix of them, and random byte
flips, over hypothesis values and the wire frames of every message type.
"""

from __future__ import annotations

import struct
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.encoding import decode, encode
from repro.common.errors import EncodingError
from repro.network import codec
from tests.test_wire_golden import GOLDEN, _samples

_NONE = b"n"
_TRUE = b"t"
_FALSE = b"f"
_INT = b"i"
_BYTES = b"b"
_STR = b"s"
_LIST = b"l"
_DICT = b"d"
_I64 = struct.Struct(">q")
_U32 = struct.Struct(">I")


def reference_decode(data: bytes) -> Any:
    """Decode bytes produced by :func:`encode`.

    Raises :class:`EncodingError` on malformed or trailing input,
    nesting too deep to decode included.
    """
    try:
        value, offset = _decode_from(data, 0)
    except RecursionError as exc:
        raise EncodingError("value nested too deeply") from exc
    if offset != len(data):
        raise EncodingError(f"trailing bytes after value ({len(data) - offset} left)")
    return value


def _decode_from(data: bytes, offset: int) -> tuple[Any, int]:
    if offset >= len(data):
        raise EncodingError("truncated input: missing tag")
    tag = data[offset : offset + 1]
    offset += 1
    if tag == _NONE:
        return None, offset
    if tag == _TRUE:
        return True, offset
    if tag == _FALSE:
        return False, offset
    if tag == _INT:
        end = offset + 8
        _check_len(data, end)
        return _I64.unpack_from(data, offset)[0], end
    if tag in (_BYTES, _STR):
        _check_len(data, offset + 4)
        length = _U32.unpack_from(data, offset)[0]
        offset += 4
        end = offset + length
        _check_len(data, end)
        raw = data[offset:end]
        if tag == _STR:
            try:
                return raw.decode("utf-8"), end
            except UnicodeDecodeError as exc:
                raise EncodingError("invalid UTF-8 in string") from exc
        return raw, end
    if tag == _LIST:
        _check_len(data, offset + 4)
        count = _U32.unpack_from(data, offset)[0]
        offset += 4
        items = []
        for _ in range(count):
            item, offset = _decode_from(data, offset)
            items.append(item)
        return items, offset
    if tag == _DICT:
        _check_len(data, offset + 4)
        count = _U32.unpack_from(data, offset)[0]
        offset += 4
        result: dict[str, Any] = {}
        previous_key: str | None = None
        for _ in range(count):
            key, offset = _decode_from(data, offset)
            if not isinstance(key, str):
                raise EncodingError("dict key decoded to non-string")
            if previous_key is not None and key <= previous_key:
                raise EncodingError("dict keys not in canonical (sorted) order")
            previous_key = key
            value, offset = _decode_from(data, offset)
            result[key] = value
        return result, offset
    raise EncodingError(f"unknown tag byte {tag!r}")


def _check_len(data: bytes, end: int) -> None:
    if end > len(data):
        raise EncodingError("truncated input")


def _outcome(decoder, data: bytes) -> tuple:
    """("ok", value, its repr) or ("error",); any other exception escapes."""
    try:
        value = decoder(data)
    except EncodingError:
        return ("error",)
    # repr tells True from 1 and a list from a tuple, which == does not.
    return ("ok", value, repr(value))


def assert_agree(data: bytes) -> None:
    assert _outcome(decode, data) == _outcome(reference_decode, data), data.hex()


_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63 - 1)
    | st.binary(max_size=40)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=30,
)


@given(_values)
def test_equal_values(value):
    data = encode(value)
    assert_agree(data)
    assert _outcome(decode, data)[0] == "ok"


@settings(max_examples=60)
@given(_values)
def test_every_truncated_prefix(value):
    data = encode(value)
    for end in range(len(data)):
        assert_agree(data[:end])


@given(_values, st.data())
def test_random_byte_flips(value, draw):
    data = bytearray(encode(value))
    for _ in range(draw.draw(st.integers(min_value=1, max_value=3))):
        index = draw.draw(st.integers(min_value=0, max_value=len(data) - 1))
        data[index] ^= draw.draw(st.integers(min_value=1, max_value=255))
    assert_agree(bytes(data))


@pytest.mark.parametrize("tag", sorted(GOLDEN))
def test_wire_frames_truncated_and_flipped(tag):
    sample = _samples()[tag]
    body = encode(sample) if tag == "e" else codec.encode_message(sample)
    assert_agree(body)
    for end in range(len(body)):
        assert_agree(body[:end])
    for position in range(len(body)):
        for mask in (0x01, 0x80, 0xFF):
            flipped = bytearray(body)
            flipped[position] ^= mask
            assert_agree(bytes(flipped))


def test_handcrafted_malformed_inputs_agree():
    cases = [
        b"",
        b"i\x00",  # int cut short
        b"l\x00\x00\x00\x02i" + bytes(8),  # list missing its second tag
        b"b\x00\x00\x00\x05abc",  # bytes shorter than their length
        b"s\x00\x00\x00\x01\xff",  # invalid UTF-8
        b"l\x00\x00\x00\x01s\x00\x00\x00\x01\xff",  # invalid UTF-8 inside a list
        b"d\x00\x00\x00\x01i" + bytes(8) + b"n",  # non-string dict key
        encode({"a": 1, "b": 2})[:5] + encode("b") + encode(2) + encode("a") + encode(1),
        b"d\x00\x00\x00\x02" + encode("a") + b"n" + encode("a") + b"n",  # repeated key
        b"l\xff\xff\xff\xff",  # huge count, no items
        b"zzz",
        encode(1) + b"junk",
        b"l\x00\x00\x00\x01" * 5000 + b"n",  # nested too deeply
    ]
    for data in cases:
        assert_agree(data)
        with pytest.raises(EncodingError):
            decode(data)


def test_truncation_is_reported_as_truncated_input():
    for data in (b"", b"i\x00", encode([1, 2])[:-9], b"l\x00\x00"):
        with pytest.raises(EncodingError, match="truncated input"):
            decode(data)
