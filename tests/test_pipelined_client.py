"""A client with several requests outstanding gets each request's own reply.

Replicas used to cache only a client's newest reply, so of several of its
ops committed in one block only the last was answered at commit; the rest
waited for the 2 s retransmit and were then answered with a made-up empty
result.  Also: a replica's reply that arrives after its request certified
is still checked against the certificate.
"""

from __future__ import annotations

import asyncio
from types import SimpleNamespace

from repro.client.config import ClientConfig
from repro.client.service import ClientService, SessionTable
from repro.client.session import ClientSession, result_digest_of
from repro.consensus.block import Block, Operation, genesis_block
from repro.consensus.context import LocalContext
from repro.consensus.messages import ClientReply, ClientRequest
from repro.crypto.hashing import digest_of
from repro.runtime.app import KVStateMachine
from repro.runtime.cluster import LocalCluster


def run(coro):
    return asyncio.run(coro)


def test_eight_concurrent_writes_certify_without_a_retransmit():
    async def main():
        async with LocalCluster(f=1, protocol="marlin", batch_size=64) as cluster:
            client = cluster.client()
            certificates = await asyncio.gather(
                *(
                    client.submit(KVStateMachine.encode_set(b"k%d" % i, b"v%d" % i), timeout=20)
                    for i in range(8)
                )
            )
            return client, certificates

    client, certificates = run(main())
    assert [c.sequence for c in certificates] == list(range(1, 9))
    assert all(len(c.replicas) >= 2 for c in certificates)
    assert client.session.retransmits == 0
    assert client.session.collector.mismatches == 0
    for certificate in certificates:
        assert certificate.result_digest == result_digest_of(
            client.client_id, certificate.sequence, certificate.result
        )


def test_forty_concurrent_writes_wait_for_a_cached_reply_slot():
    """A client keeps at most ``SessionTable.DEPTH`` writes in flight."""

    async def main():
        async with LocalCluster(f=1, protocol="marlin", batch_size=64) as cluster:
            client = cluster.client()
            certificates = await asyncio.gather(
                *(
                    client.submit(KVStateMachine.encode_set(b"k%d" % i, b"v%d" % i), timeout=30)
                    for i in range(40)
                )
            )
            return client, certificates

    client, certificates = run(main())
    assert [c.sequence for c in certificates] == list(range(1, 41))
    assert client.session.certified == 40
    assert client.session.retransmits == 0
    assert client.session._window <= SessionTable.DEPTH


def test_concurrent_commit_reads_each_certify_the_stored_value():
    async def main():
        config = ClientConfig(mode="real", reads="commit")
        async with LocalCluster(f=1, protocol="marlin", client_config=config) as cluster:
            writer = cluster.client()
            await writer.submit(KVStateMachine.encode_set(b"a", b"AAA"), timeout=20)
            await writer.submit(KVStateMachine.encode_set(b"b", b"BB"), timeout=20)
            reader = cluster.client()
            return reader, await asyncio.gather(
                reader.read(b"a", timeout=20),
                reader.read(b"b", timeout=20),
                reader.read(b"a", timeout=20),
            )

    reader, certificates = run(main())
    assert [c.result for c in certificates] == [b"AAA", b"BB", b"AAA"]
    assert reader.session.retransmits == 0


class TestSessionTableKeepsEveryRecentReply:
    def test_every_op_of_a_block_keeps_its_own_cached_reply(self):
        async def main():
            async with LocalCluster(f=1, protocol="marlin", batch_size=64) as cluster:
                client = cluster.client()
                await asyncio.gather(
                    *(client.submit(KVStateMachine.encode_set(b"k", b"v%d" % i)) for i in range(4))
                )
                service = cluster.nodes[0].client_service
                return client.client_id, service

        client_id, service = run(main())
        # Every committed op still has its own cached reply, not just the newest.
        for sequence in range(1, 5):
            cached = service.sessions.cached_reply(client_id, sequence)
            assert cached is not None
            result, digest = cached
            assert digest == result_digest_of(client_id, sequence, result)

    @staticmethod
    def bare_service(result_fn):
        replica = SimpleNamespace(
            id=0, protocol_name="marlin", cview=1, ctx=LocalContext(0, 4),
            obs=SimpleNamespace(journey=None, enabled=False), commit_listeners=[],
        )
        service = ClientService(replica, ClientConfig(mode="real"), result_fn=result_fn)
        return service, replica.ctx.outbox

    def service(self, result_fn):
        service, outbox = self.bare_service(result_fn)
        for sequence in range(1, SessionTable.DEPTH + 2):
            service.execute(genesis_block(), Operation(9, sequence, b"op"))
        service.sessions.trim(9)
        return service, outbox

    def test_a_block_with_more_than_depth_of_a_clients_ops_answers_each(self):
        service, outbox = self.bare_service(lambda block, op: b"r%d" % op.sequence)
        ops = tuple(Operation(9, sequence, b"op") for sequence in range(1, SessionTable.DEPTH + 5))
        block = Block(
            parent_link=genesis_block().digest, parent_view=0, view=1, height=1,
            operations=ops, justify_digest=genesis_block().digest,
        )
        for op in ops:  # the ledger executes a block's ops, then runs its commit listeners
            service.execute(block, op)
        service._on_commit(block, 0.0)
        assert [(reply.sequence, reply.result) for _, reply in outbox] == [
            (op.sequence, b"r%d" % op.sequence) for op in ops
        ]
        assert service.sessions.cached_reply(9, 4) is None  # trimmed after the replies
        assert service.sessions.cached_reply(9, 5) == (b"r5", result_digest_of(9, 5, b"r5"))

    def test_a_retransmit_older_than_the_cache_gets_no_made_up_reply(self):
        service, outbox = self.service(lambda block, op: b"r%d" % op.sequence)
        assert service.intake(9, ClientRequest(client_id=9, sequence=1, payload=b"op"))
        assert outbox == []  # sequence 1 left the cache: silence, not b""
        assert service.intake(9, ClientRequest(client_id=9, sequence=2, payload=b"op"))
        [(dst, reply)] = outbox
        assert dst == 9 and reply.result == b"r2"
        assert reply.result_digest == result_digest_of(9, 2, b"r2")
        assert service.sessions.replays == 2

    def test_without_an_application_every_retransmit_is_answered(self):
        service, outbox = self.service(None)
        service.result_fn = None
        assert service.intake(9, ClientRequest(client_id=9, sequence=1, payload=b"op"))
        [(dst, reply)] = outbox
        assert reply.result == b"" and reply.result_digest == result_digest_of(9, 1, b"")

    def test_depth_bounds_what_is_kept_per_client(self):
        table = SessionTable()
        depth = SessionTable.DEPTH
        for sequence in range(1, depth + 11):
            table.record(9, sequence, b"r%d" % sequence, digest_of(sequence))
        assert table.cached_reply(9, 1) == (b"r1", digest_of(1))  # kept until trimmed
        table.trim(9)
        assert table.cached_reply(9, 10) is None
        assert table.cached_reply(9, 11) == (b"r11", digest_of(11))
        assert table.cached_reply(9, depth + 10) == (b"r%d" % (depth + 10), digest_of(depth + 10))
        assert table.committed(9, 1) and table.last_sequence(9) == depth + 10


class TestLateReplies:
    def make(self):
        ctx = LocalContext(9, 4)
        session = ClientSession(9, ctx, ClientConfig(mode="real"), 4, 1)
        return session, ctx

    def reply(self, replica: int, digest: bytes, sequence: int = 1) -> ClientReply:
        return ClientReply(
            client_id=9, sequence=sequence, replica=replica, result=b"", result_digest=digest
        )

    def certify_first(self):
        session, ctx = self.make()
        session.submit(b"op")
        honest = result_digest_of(9, 1, b"")
        session.on_message(0, self.reply(0, honest))
        session.on_message(1, self.reply(1, honest))
        assert session.certified == 1 and not session.inflight
        return session, honest

    def test_a_late_reply_with_a_different_digest_is_a_mismatch(self):
        session, _ = self.certify_first()
        session.on_message(3, self.reply(3, digest_of("forged")))
        assert session.collector.mismatches == 1

    def test_a_late_reply_with_the_certified_digest_is_not(self):
        session, honest = self.certify_first()
        session.on_message(2, self.reply(2, honest))
        session.on_message(3, self.reply(3, honest))
        assert session.collector.mismatches == 0

    def test_certified_digests_are_kept_only_for_the_window(self):
        session, ctx = self.make()
        for _ in range(3):  # a window of three writes in flight at once
            session.submit(b"op")
        for sequence in range(1, 200):
            if sequence > 3:
                session.submit(b"op")
            digest = result_digest_of(9, sequence, b"")
            session.on_message(0, self.reply(0, digest, sequence))
            session.on_message(1, self.reply(1, digest, sequence))
        assert session.certified == 199
        assert len(session._certified_digests) <= 3
        assert session.collector._certified._runs == {9: [1, 200]}
        session.on_message(3, self.reply(3, digest_of("forged"), 199))
        session.on_message(3, self.reply(3, digest_of("forged"), 5))  # long forgotten
        assert session.collector.mismatches == 1
