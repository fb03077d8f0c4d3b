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

# Tag byte values for the fused writers.
_T_INT = _INT[0]
_T_BYTES = _BYTES[0]
_T_STR = _STR[0]
_T_LIST = _LIST[0]
_T_DICT = _DICT[0]


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
