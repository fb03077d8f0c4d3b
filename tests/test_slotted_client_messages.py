"""The slotted ``ClientRequest``/``ClientReply`` against their old dataclasses.

Both classes used to be frozen dataclasses.  The definitions below are
those dataclasses, kept verbatim under the same names as the oracle:
``==``, ``hash``, ``repr``, a pickle round trip and ``wire_size`` must
agree with them on random field values.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

from hypothesis import given, strategies as st

from repro.consensus import messages as live


@dataclass(frozen=True)
class ClientRequest:
    client_id: int
    sequence: int
    payload: bytes
    weight: int = 1

    @property
    def wire_size(self) -> int:
        return self.weight * (16 + len(self.payload))


@dataclass(frozen=True)
class ClientReply:
    client_id: int
    sequence: int
    replica: int
    result: bytes = b""
    result_digest: bytes = b""
    view: int = 1
    weight: int = 1
    reply_size: int = 0

    @property
    def wire_size(self) -> int:
        per_reply = 24 + max(self.reply_size, len(self.result) + len(self.result_digest))
        return self.weight * per_reply


small = st.integers(min_value=-3, max_value=3)
ints = st.one_of(small, st.integers(min_value=-(2**63), max_value=2**63 - 1))
blobs = st.one_of(st.sampled_from([b"", b"a", b"\x00\xff"]), st.binary(max_size=40))

request_args = st.fixed_dictionaries(
    {"client_id": ints, "sequence": ints, "payload": blobs},
    optional={"weight": ints},
)
reply_args = st.fixed_dictionaries(
    {"client_id": ints, "sequence": ints, "replica": ints},
    optional={
        "result": blobs,
        "result_digest": blobs,
        "view": ints,
        "weight": ints,
        "reply_size": ints,
    },
)
pairs = st.one_of(
    st.tuples(st.just("ClientRequest"), request_args, request_args),
    st.tuples(st.just("ClientReply"), reply_args, reply_args),
)


def build(name: str, kwargs: dict):
    """The live object and the oracle's, from the same keyword arguments."""
    return getattr(live, name)(**kwargs), globals()[name](**kwargs)


@given(pairs)
def test_agrees_with_the_dataclass(case):
    name, first, second = case
    new_a, old_a = build(name, first)
    new_b, old_b = build(name, second)
    assert (new_a == new_b) == (old_a == old_b)
    assert (new_a != new_b) == (old_a != old_b)
    assert new_a == build(name, first)[0]
    assert hash(new_a) == hash(old_a)
    assert repr(new_a) == repr(old_a)
    assert new_a.wire_size == old_a.wire_size
    assert (new_a == old_a) is False  # different classes never compare equal
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(new_a, protocol))
        assert type(copy) is type(new_a)
        assert copy == new_a and repr(copy) == repr(new_a)


def test_positional_construction_matches():
    assert live.ClientRequest(1, 2, b"p") == live.ClientRequest(
        client_id=1, sequence=2, payload=b"p", weight=1
    )
    assert repr(live.ClientReply(1, 2, 3)) == repr(ClientReply(1, 2, 3))


def test_no_instance_dict():
    assert not hasattr(live.ClientRequest(1, 2, b""), "__dict__")
    assert not hasattr(live.ClientReply(1, 2, 3), "__dict__")
