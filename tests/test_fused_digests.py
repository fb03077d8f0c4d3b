"""Fused hot-path packers agree with the generic canonical encoder.

``Block.digest`` (one fused struct per payload length), ``vote_payload``
and ``QuorumCertificate.digest`` pack their fields straight into
bytes/SHA-256 instead of building lists for
:func:`repro.common.encoding.encode`; the generic encoder stays the
specification, and these properties check the fused code against it
byte for byte — including the :class:`EncodingError` an out-of-range
integer raises.  The router's per-client memo and the misroute guard's
one-pass batch filter are checked against their unmemoised definitions
the same way.
"""

from __future__ import annotations

import pickle
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.client.router import ROUTER_SCHEMES, ShardRouter
from repro.common.encoding import encode
from repro.common.errors import EncodingError
from repro.consensus.block import Block, Operation, genesis_block
from repro.consensus.messages import ClientRequestBatch
from repro.consensus.qc import BlockSummary, Phase, QuorumCertificate, vote_payload
from repro.crypto.hashing import digest_of
from repro.shard.cluster import make_misroute_guard

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1

int64 = st.one_of(
    st.sampled_from([I64_MIN, I64_MIN + 1, -1, 0, 1, I64_MAX - 1, I64_MAX]),
    st.integers(min_value=I64_MIN, max_value=I64_MAX),
)
uint64 = st.one_of(
    st.sampled_from([0, 1, I64_MAX - 1, I64_MAX]),
    st.integers(min_value=0, max_value=I64_MAX),
)
digests = st.binary(min_size=32, max_size=32)
operations = st.builds(
    Operation,
    client_id=int64,
    sequence=int64,
    payload=st.binary(min_size=0, max_size=200),
    weight=st.integers(min_value=1, max_value=I64_MAX),
)


def reference_block_digest(block: Block) -> bytes:
    return digest_of(
        [
            block.parent_link,
            block.parent_view,
            block.view,
            block.height,
            [[op.client_id, op.sequence, op.payload, op.weight] for op in block.operations],
            block.justify_digest,
            block.proposer,
        ]
    )


@st.composite
def blocks(draw) -> Block:
    view = draw(uint64)
    return Block(
        parent_link=draw(st.one_of(st.none(), digests)),
        parent_view=draw(st.integers(min_value=0, max_value=view)),
        view=view,
        height=draw(uint64),
        operations=tuple(draw(st.lists(operations, max_size=12))),
        justify_digest=draw(digests),
        proposer=draw(int64),
    )


class TestBlockDigest:
    @settings(max_examples=300, deadline=None)
    @given(blocks())
    def test_matches_generic_encoder(self, block):
        assert block.digest == reference_block_digest(block)

    def test_genesis_and_virtual_blocks(self):
        genesis = genesis_block()
        assert genesis.is_genesis and not genesis.operations
        assert genesis.digest == reference_block_digest(genesis)
        virtual = Block(
            parent_link=None,
            parent_view=2,
            view=3,
            height=5,
            operations=(Operation(7, 1, b"x" * 150, 4),),
            justify_digest=genesis.digest,
            proposer=1,
        )
        assert virtual.is_virtual
        assert virtual.digest == reference_block_digest(virtual)

    @settings(max_examples=100, deadline=None)
    @given(
        lengths=st.lists(st.sampled_from([0, 1, 150, 4096]), min_size=4, max_size=16),
        link=st.one_of(st.none(), digests),
    )
    def test_mixed_payload_lengths_in_one_block(self, lengths, link):
        # One fused struct per payload length: every length in the block
        # must pick its own packer, in any order and repeated.
        lengths = [0, 1, 150, 4096, *lengths]
        ops = tuple(
            Operation(i, i, bytes([i % 251]) * size, weight=i + 1)
            for i, size in enumerate(lengths)
        )
        block = Block(
            parent_link=link,
            parent_view=1,
            view=2,
            height=3,
            operations=ops,
            justify_digest=bytes(range(32)),
            proposer=1,
        )
        assert block.digest == reference_block_digest(block)
        assert block.num_ops == sum(op.weight for op in ops)
        assert block.payload_size == sum(op.wire_size for op in ops)
        batch = ClientRequestBatch(operations=ops)
        assert batch.wire_size == 4 + block.payload_size

    @pytest.mark.parametrize(
        "overrides",
        [
            {"view": 2**63, "parent_view": 0},
            {"height": 2**63},
            {"proposer": 2**63},
            {"proposer": I64_MIN - 1},
            {"operations": (Operation(2**63, 0),)},
            {"operations": (Operation(0, I64_MIN - 1),)},
            {"operations": (Operation(0, 0, b"p", 2**63),)},
        ],
    )
    def test_out_of_range_int_raises_like_generic(self, overrides):
        fields = dict(
            parent_link=bytes(32),
            parent_view=0,
            view=1,
            height=1,
            operations=(),
            justify_digest=bytes(32),
            proposer=0,
        )
        fields.update(overrides)
        with pytest.raises(EncodingError):
            reference_block_digest(Block(**fields))
        with pytest.raises(EncodingError):
            Block(**fields).digest


QC_PHASES = [phase for phase in Phase if phase is not Phase.VIEW_CHANGE]


class TestVoteAndQC:
    @pytest.mark.parametrize("phase", QC_PHASES, ids=lambda p: p.value)
    @pytest.mark.parametrize("is_virtual", [False, True])
    @pytest.mark.parametrize("justify_in_view", [False, True])
    def test_every_phase_and_flag_combination(self, phase, is_virtual, justify_in_view):
        summary = BlockSummary(
            digest=bytes(range(32)),
            view=9,
            height=4,
            parent_view=8,
            is_virtual=is_virtual,
            justify_in_view=justify_in_view,
        )
        qc = QuorumCertificate(phase=phase, view=10, block=summary, signature=None)
        assert vote_payload(phase, 10, summary) == encode(
            ["vote", phase.value, 10, summary.encodable()]
        )
        assert qc.signed_payload == vote_payload(phase, 10, summary)
        assert qc.digest == digest_of(["qc", phase.value, 10, summary.encodable()])

    @settings(max_examples=200, deadline=None)
    @given(
        phase=st.sampled_from(QC_PHASES),
        view=uint64,
        digest=digests,
        block_view=uint64,
        height=uint64,
        parent_view=uint64,
        is_virtual=st.booleans(),
        justify_in_view=st.booleans(),
    )
    def test_matches_generic_encoder(
        self, phase, view, digest, block_view, height, parent_view, is_virtual, justify_in_view
    ):
        summary = BlockSummary(digest, block_view, height, parent_view, is_virtual, justify_in_view)
        assert vote_payload(phase, view, summary) == encode(
            ["vote", phase.value, view, summary.encodable()]
        )
        qc = QuorumCertificate(phase=phase, view=view, block=summary, signature=None)
        assert qc.digest == digest_of(["qc", phase.value, view, summary.encodable()])

    def test_out_of_range_view_raises_like_generic(self):
        summary = BlockSummary(bytes(32), 1, 1, 0)
        with pytest.raises(EncodingError):
            encode(["vote", Phase.PREPARE.value, 2**63, summary.encodable()])
        with pytest.raises(EncodingError):
            vote_payload(Phase.PREPARE, 2**63, summary)
        with pytest.raises(EncodingError):
            QuorumCertificate(Phase.COMMIT, 2**63, summary, None).digest


class TestRouterMemo:
    @pytest.mark.parametrize("scheme", ROUTER_SCHEMES)
    @pytest.mark.parametrize("shards", [2, 4, 7])
    @pytest.mark.parametrize("seed", [0, 1, 99])
    def test_memo_matches_unmemoised_routing(self, scheme, shards, seed):
        router = ShardRouter(shards, scheme=scheme, seed=seed)

        def expected(client_id: int) -> int:
            if scheme == "modulo":
                return client_id % shards
            return router.shard_of(ShardRouter.key_of_client(client_id))

        ids = range(10_000)
        first = [router.shard_of_client(c) for c in ids]
        assert first == [expected(c) for c in ids]
        assert [router.shard_of_client(c) for c in ids] == first
        clone = pickle.loads(pickle.dumps(router))
        assert [clone.shard_of_client(c) for c in ids] == first
        fresh = pickle.loads(pickle.dumps(ShardRouter(shards, scheme=scheme, seed=seed)))
        assert [fresh.shard_of_client(c) for c in reversed(ids)] == first[::-1]

    def test_single_shard_routes_everything_to_zero(self):
        router = ShardRouter(1)
        assert {router.shard_of_client(c) for c in range(100)} == {0}


class TestMisrouteGuard:
    def test_mixed_batch_keeps_native_ops_and_counts_foreign_weight(self):
        router = ShardRouter(3)
        group = SimpleNamespace(misrouted_ops=0, misrouted_messages=0)
        guard = make_misroute_guard(router, 1, group)
        ops = tuple(Operation(c, 0, b"", weight=c % 5 + 1) for c in range(60))
        native = tuple(op for op in ops if router.shard_of_client(op.client_id) == 1)
        foreign_weight = sum(op.weight for op in ops if op not in native)
        assert native and foreign_weight

        stripped = guard(0, 99, ClientRequestBatch(operations=ops))
        assert stripped.operations == native
        assert (group.misrouted_ops, group.misrouted_messages) == (foreign_weight, 1)

        whole = ClientRequestBatch(operations=native)
        assert guard(0, 99, whole) is whole
        foreign_only = tuple(op for op in ops if op not in native)
        assert guard(0, 99, ClientRequestBatch(operations=foreign_only)) is None
        assert group.misrouted_ops == 2 * foreign_weight
        assert group.misrouted_messages == 2
