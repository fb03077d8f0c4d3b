"""Canonical encoding: determinism, roundtrips, malformed input."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, strategies as st

from repro.common.encoding import MAX_DECODE_DEPTH, decode, encode
from repro.common.errors import EncodingError


def reference_encode(value) -> bytes:
    """The original append-per-field encoder, kept as the golden oracle.

    The shipping encoder writes into one preallocated buffer with
    ``pack_into``; this straightforward implementation pins the wire
    format it must keep producing byte-for-byte.
    """
    out = bytearray()
    _reference_into(value, out)
    return bytes(out)


def _reference_into(value, out: bytearray) -> None:
    if value is None:
        out += b"n"
    elif value is True:
        out += b"t"
    elif value is False:
        out += b"f"
    elif isinstance(value, int):
        out += b"i" + struct.pack(">q", value)
    elif isinstance(value, bytes):
        out += b"b" + struct.pack(">I", len(value)) + value
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += b"s" + struct.pack(">I", len(raw)) + raw
    elif isinstance(value, (list, tuple)):
        out += b"l" + struct.pack(">I", len(value))
        for item in value:
            _reference_into(item, out)
    elif isinstance(value, dict):
        out += b"d" + struct.pack(">I", len(value))
        for key in sorted(value):
            _reference_into(key, out)
            _reference_into(value[key], out)
    else:
        raise EncodingError(f"unsupported: {type(value).__name__}")


class TestRoundtrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**62,
            -(2**62),
            b"",
            b"\x00\xff" * 10,
            "",
            "hello",
            "uniçøde",
            [],
            [1, 2, 3],
            [None, True, b"x", "y", [2]],
            {},
            {"a": 1, "b": [2, 3], "c": {"d": b"e"}},
        ],
    )
    def test_roundtrip(self, value):
        assert decode(encode(value)) == value

    def test_tuple_decodes_as_list(self):
        assert decode(encode((1, 2))) == [1, 2]

    def test_deep_nesting(self):
        value = [1]
        for _ in range(50):
            value = [value]
        assert decode(encode(value)) == value


class TestDeterminism:
    def test_dict_key_order_irrelevant(self):
        assert encode({"a": 1, "b": 2}) == encode({"b": 2, "a": 1})

    def test_distinct_values_distinct_encodings(self):
        values = [0, 1, -1, b"", b"0", "", "0", None, True, False, [], [0], {}]
        encodings = [encode(v) for v in values]
        assert len(set(encodings)) == len(values)

    def test_int_zero_differs_from_false(self):
        assert encode(0) != encode(False)


class TestErrors:
    def test_unsupported_type(self):
        with pytest.raises(EncodingError):
            encode(1.5)

    def test_non_string_dict_key(self):
        with pytest.raises(EncodingError):
            encode({1: "x"})

    def test_int_out_of_range(self):
        with pytest.raises(EncodingError):
            encode(2**70)

    def test_trailing_bytes(self):
        with pytest.raises(EncodingError):
            decode(encode(1) + b"junk")

    def test_truncated(self):
        data = encode([1, 2, 3])
        with pytest.raises(EncodingError):
            decode(data[:-3])

    def test_empty_input(self):
        with pytest.raises(EncodingError):
            decode(b"")

    def test_unknown_tag(self):
        with pytest.raises(EncodingError):
            decode(b"zzz")

    def test_unsorted_dict_rejected(self):
        # Hand-build a dict encoding with keys out of canonical order.
        good = encode({"a": 1, "b": 2})
        a_first = encode("a") + encode(1)
        b_first = encode("b") + encode(2)
        swapped = good[:5] + b_first + a_first
        with pytest.raises(EncodingError):
            decode(swapped)


def _nested(depth: int, innermost) -> object:
    value = innermost
    for _ in range(depth):
        value = [value]
    return value


def _verdict(data: bytes, frames_down: int = 0):
    """Decode ``data`` with ``frames_down`` extra frames on the stack."""
    if frames_down:
        return _verdict(data, frames_down - 1)
    try:
        return decode(data)
    except EncodingError as exc:
        return str(exc)


class TestNestingLimit:
    """The nesting limit is a count, not the caller's stack headroom."""

    @pytest.mark.parametrize("kind", ["list", "dict"])
    @pytest.mark.parametrize("depth", [MAX_DECODE_DEPTH, MAX_DECODE_DEPTH + 1])
    def test_same_verdict_at_top_level_and_200_frames_down(self, kind, depth):
        if kind == "list":
            value = _nested(depth, 7)
        else:
            value = 7
            for _ in range(depth):
                value = {"k": value}
        data = encode(value)
        top = _verdict(data)
        assert _verdict(data, frames_down=200) == top
        if depth <= MAX_DECODE_DEPTH:
            assert top == value
        else:
            assert top == "value nested too deeply"

    def test_innermost_empty_container_counts(self):
        assert decode(encode(_nested(MAX_DECODE_DEPTH - 1, []))) == _nested(
            MAX_DECODE_DEPTH - 1, []
        )
        with pytest.raises(EncodingError, match="nested too deeply"):
            decode(encode(_nested(MAX_DECODE_DEPTH, [])))

    def test_900_deep_list_is_refused_everywhere(self):
        data = encode(_nested(900, None))
        assert _verdict(data) == _verdict(data, frames_down=200) == "value nested too deeply"


class TestGoldenFastPath:
    """The zero-copy encoder must match the reference byte-for-byte."""

    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**63 - 1,
            -(2**63),
            b"",
            b"\x00\xff" * 300,
            "",
            "uniçøde",
            [],
            [1, b"two", "three", None, True, False],
            [[1, 2, b"x", 3], [4, 5, b"y", 6]],  # the inlined op-record shape
            [[[1], [b"deep"]], [["mixed", None]]],
            {},
            {"a": 1, "z": [2, {"nested": b"v"}], "m": (True, None)},
            list(range(200)),  # forces buffer growth mid-list
            [b"x" * 2000],  # forces growth on a single slice write
        ],
    )
    def test_matches_reference(self, value):
        assert encode(value) == reference_encode(value)

    def test_bool_inside_list_not_packed_as_int(self):
        # bool is an int subclass; the inline list fast path must leave
        # it on the recursive path so it keeps its one-byte tag.
        assert encode([True, False, 1, 0]) == reference_encode([True, False, 1, 0])

    def test_int_subclass_encodes_as_int(self):
        class MyInt(int):
            pass

        assert encode([MyInt(7)]) == reference_encode([7])
        assert encode(MyInt(7)) == reference_encode(7)

    def test_bytes_subclass_encodes_as_bytes(self):
        class MyBytes(bytes):
            pass

        assert encode([MyBytes(b"q")]) == reference_encode([b"q"])

    def test_out_of_range_int_still_rejected(self):
        with pytest.raises(EncodingError):
            encode([2**70])
        with pytest.raises(EncodingError):
            encode([[2**70]])


_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63 - 1)
    | st.binary(max_size=64)
    | st.text(max_size=32),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=25,
)


@given(_values)
def test_property_roundtrip(value):
    decoded = decode(encode(value))
    assert decoded == _normalise(value)


@given(_values)
def test_property_deterministic(value):
    assert encode(value) == encode(value)


@given(_values)
def test_property_matches_reference(value):
    assert encode(value) == reference_encode(value)


def _normalise(value):
    if isinstance(value, tuple):
        return [_normalise(v) for v in value]
    if isinstance(value, list):
        return [_normalise(v) for v in value]
    if isinstance(value, dict):
        return {k: _normalise(v) for k, v in value.items()}
    return value
