"""Canonical binary encoding for protocol data.

All signed material (blocks, votes, QC payloads) must be encoded the same
way on every replica, otherwise digests and signatures would diverge.  This
module implements a tiny, deterministic, self-describing binary codec:

* integers  -> tag ``i`` + 8-byte big-endian two's complement
* bytes     -> tag ``b`` + 4-byte length + payload
* strings   -> tag ``s`` + 4-byte length + UTF-8 payload
* None      -> tag ``n``
* booleans  -> tag ``t`` / ``f``
* tuples/lists -> tag ``l`` + 4-byte count + encoded items
* dicts     -> tag ``d`` + 4-byte count + sorted (key, value) pairs

The format is intentionally simpler than CBOR but shares its property that
there is exactly one encoding for any value, which is what makes it safe to
hash and sign.

The encoder builds each value in a single ``bytearray`` with fused
tag+value struct writes: one ``Struct(">Bq").pack`` emits a tagged
integer and one ``Struct(">BI").pack`` emits a tagged length header, so
every field costs one C call and one buffer append instead of separate
tag/payload concatenations.  A preallocated-buffer ``pack_into`` variant
was benchmarked and lost to this design (the per-field capacity checks
cost more than ``bytearray``'s amortised growth); see EXPERIMENTS.md.
Output is byte-identical to the straightforward append-per-field
encoder; the golden tests in ``tests/test_encoding.py`` pin that
equivalence.

The decoder mirrors it in one pass: the tag is read as an int, each
fixed-width field with one ``unpack_from``, and the int, byte-string
and string items of a list are decoded inline rather than by a
recursive call.  A tag or field cut short surfaces as ``IndexError`` or
``struct.error`` and is reported as ``EncodingError("truncated
input")``; trailing bytes, containers nested more than
:data:`MAX_DECODE_DEPTH` deep, invalid UTF-8,
dict keys that are not strings in strictly ascending order and unknown
tags are all rejected.  ``tests/test_decoder_differential.py`` holds it
to the recursive decoder it replaced.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.common.errors import EncodingError

_INT = b"i"
_BYTES = b"b"
_STR = b"s"
_NONE = b"n"
_TRUE = b"t"
_FALSE = b"f"
_LIST = b"l"
_DICT = b"d"

_I64 = struct.Struct(">q")
_U32 = struct.Struct(">I")

# Fused writers: tag byte + value in a single C call.  One ``pack`` per
# field replaces the tag-concat-payload pair of the naive encoder, which
# is where the hot path spends its time (every digest encodes thousands
# of small tagged integers and length headers).
_TI64 = struct.Struct(">Bq")
_THDR = struct.Struct(">BI")

# Tag byte values for the fused writers and the decoder.
_T_INT = _INT[0]
_T_BYTES = _BYTES[0]
_T_STR = _STR[0]
_T_LIST = _LIST[0]
_T_DICT = _DICT[0]
_T_NONE = _NONE[0]
_T_TRUE = _TRUE[0]
_T_FALSE = _FALSE[0]

#: Most containers a decoded value may nest.  An explicit count, not
#: ``RecursionError``, so the verdict on given bytes does not depend on
#: how deep in the stack the caller is.  The deepest codec message (an
#: ``AggregateNewView``) nests 10.  The encoder has no limit.
MAX_DECODE_DEPTH = 64


def encode(value: Any) -> bytes:
    """Deterministically encode ``value`` to bytes.

    Supported types: ``int``, ``bytes``, ``str``, ``bool``, ``None``,
    ``list``/``tuple`` and ``dict`` with string keys.  Raises
    :class:`EncodingError` for anything else.
    """
    buf = bytearray()
    _encode_into(value, buf)
    return bytes(buf)


def encode_into(value: Any, out: bytearray) -> None:
    """Append the canonical encoding of ``value`` to ``out``.

    Zero-copy variant of :func:`encode` for callers that only need the
    encoding transiently (hashing, framing): the bytes never materialise
    as an immutable copy.  ``out`` is usually empty but any prefix is
    preserved.
    """
    _encode_into(value, out)


def _encode_into(
    value: Any,
    out: bytearray,
    _pack_int=_TI64.pack,
    _pack_hdr=_THDR.pack,
) -> None:
    """Append the canonical encoding of ``value`` to ``out``.

    The fused struct writers ride in as default args to skip the global
    lookups on the hot path.
    """
    if value is None:
        out += _NONE
        return
    if value is True or value is False:
        out += _TRUE if value else _FALSE
        return
    if isinstance(value, int):
        try:
            out += _pack_int(_T_INT, value)
        except struct.error as exc:
            raise EncodingError(f"integer out of 64-bit range: {value}") from exc
        return
    if isinstance(value, bytes):
        out += _pack_hdr(_T_BYTES, len(value))
        out += value
        return
    if isinstance(value, str):
        raw = value.encode("utf-8")
        out += _pack_hdr(_T_STR, len(raw))
        out += raw
        return
    if isinstance(value, (list, tuple)):
        out += _pack_hdr(_T_LIST, len(value))
        # Inline the dominant item types (ints, byte strings and the
        # short str tags of digest payloads): block digests encode
        # thousands of flat [int, int, bytes, int] operation records,
        # and recursing per primitive costs more than encoding it.
        # ``type() is`` keeps bool (an int subclass) and bytes/str
        # subclasses on the recursive path, so output is identical.
        for item in value:
            kind = type(item)
            if kind is int:
                try:
                    out += _pack_int(_T_INT, item)
                except struct.error as exc:
                    raise EncodingError(
                        f"integer out of 64-bit range: {item}"
                    ) from exc
            elif kind is bytes:
                out += _pack_hdr(_T_BYTES, len(item))
                out += item
            elif kind is str:
                raw = item.encode("utf-8")
                out += _pack_hdr(_T_STR, len(raw))
                out += raw
            elif kind is list or kind is tuple:
                # One more inline level: a block's operation list is a
                # list of flat [int, int, bytes, int] records.
                out += _pack_hdr(_T_LIST, len(item))
                for sub in item:
                    sub_kind = type(sub)
                    if sub_kind is int:
                        try:
                            out += _pack_int(_T_INT, sub)
                        except struct.error as exc:
                            raise EncodingError(
                                f"integer out of 64-bit range: {sub}"
                            ) from exc
                    elif sub_kind is bytes:
                        out += _pack_hdr(_T_BYTES, len(sub))
                        out += sub
                    elif sub_kind is str:
                        raw = sub.encode("utf-8")
                        out += _pack_hdr(_T_STR, len(raw))
                        out += raw
                    else:
                        _encode_into(sub, out)
            else:
                _encode_into(item, out)
        return
    if isinstance(value, dict):
        out += _pack_hdr(_T_DICT, len(value))
        try:
            keys = sorted(value)
        except TypeError as exc:
            raise EncodingError("dict keys must be sortable strings") from exc
        for key in keys:
            if not isinstance(key, str):
                raise EncodingError(f"dict keys must be str, got {type(key).__name__}")
            raw = key.encode("utf-8")
            out += _pack_hdr(_T_STR, len(raw))
            out += raw
            _encode_into(value[key], out)
        return
    raise EncodingError(f"cannot canonically encode {type(value).__name__}")


def decode(data: bytes) -> Any:
    """Decode bytes produced by :func:`encode`.

    Raises :class:`EncodingError` on malformed or trailing input,
    containers nested deeper than :data:`MAX_DECODE_DEPTH` included.
    """
    try:
        value, offset = _decode_at(data, 0, 0)
    except (IndexError, struct.error) as exc:
        # A tag read past the end, or a fixed-width field cut short.
        raise EncodingError("truncated input") from exc
    except UnicodeDecodeError as exc:
        raise EncodingError("invalid UTF-8 in string") from exc
    if offset != len(data):
        raise EncodingError(f"trailing bytes after value ({len(data) - offset} left)")
    return value


def _decode_at(
    data: bytes,
    offset: int,
    depth: int,
    _unpack_int=_I64.unpack_from,
    _unpack_len=_U32.unpack_from,
) -> tuple[Any, int]:
    """Decode the value whose tag is at ``offset``; returns it and its end.

    ``depth`` counts the containers the value sits in; a list or dict
    that would make it more than :data:`MAX_DECODE_DEPTH` is refused.

    The mirror of :func:`_encode_into`: the tag is read as an int, fixed
    fields with one ``unpack_from`` (a short buffer raises
    ``struct.error``, a missing tag ``IndexError``; :func:`decode` maps
    both to "truncated input"), and the int, byte-string and string
    items of a list are decoded inline instead of by a recursive call.
    """
    tag = data[offset]
    if tag == _T_LIST:
        if depth == MAX_DECODE_DEPTH:
            raise EncodingError("value nested too deeply")
        (count,) = _unpack_len(data, offset + 1)
        offset += 5
        size = len(data)
        items: list[Any] = []
        append = items.append
        for _ in range(count):
            tag = data[offset]
            if tag == _T_INT:
                append(_unpack_int(data, offset + 1)[0])
                offset += 9
            elif tag == _T_BYTES or tag == _T_STR:
                (length,) = _unpack_len(data, offset + 1)
                start = offset + 5
                offset = start + length
                if offset > size:
                    raise EncodingError("truncated input")
                append(data[start:offset] if tag == _T_BYTES else data[start:offset].decode("utf-8"))
            else:
                item, offset = _decode_at(data, offset, depth + 1)
                append(item)
        return items, offset
    if tag == _T_INT:
        return _unpack_int(data, offset + 1)[0], offset + 9
    if tag == _T_BYTES or tag == _T_STR:
        (length,) = _unpack_len(data, offset + 1)
        start = offset + 5
        end = start + length
        if end > len(data):
            raise EncodingError("truncated input")
        return (data[start:end] if tag == _T_BYTES else data[start:end].decode("utf-8")), end
    if tag == _T_NONE:
        return None, offset + 1
    if tag == _T_TRUE:
        return True, offset + 1
    if tag == _T_FALSE:
        return False, offset + 1
    if tag == _T_DICT:
        if depth == MAX_DECODE_DEPTH:
            raise EncodingError("value nested too deeply")
        (count,) = _unpack_len(data, offset + 1)
        offset += 5
        result: dict[str, Any] = {}
        previous_key: str | None = None
        for _ in range(count):
            if data[offset] != _T_STR:
                raise EncodingError("dict key decoded to non-string")
            (length,) = _unpack_len(data, offset + 1)
            start = offset + 5
            offset = start + length
            if offset > len(data):
                raise EncodingError("truncated input")
            key = data[start:offset].decode("utf-8")
            if previous_key is not None and key <= previous_key:
                raise EncodingError("dict keys not in canonical (sorted) order")
            previous_key = key
            result[key], offset = _decode_at(data, offset, depth + 1)
        return result, offset
    raise EncodingError(f"unknown tag byte {bytes((tag,))!r}")
