"""A certified write survives the replica process dying at once.

A forked child runs a queue-transport ``LocalCluster`` with on-disk
stores and one real client writing keys one after another.  It watches
every reply leave a replica; the moment ``f + 1`` matching replies for
the k-th write are out, the certificate exists, and the child pipes
what it knows to the parent and calls ``os._exit(0)`` inside that send:
no ``close``, no flush of any Python buffer.  What it pipes is each
replica's consensus state as memory held it when the replica committed
its newest block, and each certified write with its certificate.

The parent reopens every replica's store and checks that the recovered
``meta:consensus`` record and committed height equal that state, and
that every certified write is on disk at every replica in its
certificate.  A commit's record that waits in a user-space buffer, or
a reply sent before the block is persisted, fails it.
"""

from __future__ import annotations

import asyncio
import os
import pickle

import pytest

from repro.client.config import ClientConfig
from repro.common.encoding import decode
from repro.consensus.messages import ClientReply
from repro.network import codec
from repro.runtime.app import KVStateMachine
from repro.runtime.cluster import LocalCluster
from repro.storage.kvstore import KVStore

CLIENT = 100


def _state_of(replica) -> list:
    """The consensus record a Marlin replica's commit must leave on disk."""
    return [
        "marlin",
        replica.cview,
        codec.encode_summary(replica.last_voted),
        codec.encode_qc(replica.locked_qc),
        codec.encode_justify(replica.high_qc),
    ]


async def _run_until_certificate(dirs: list[str], k: int, report) -> None:
    cluster = LocalCluster(
        f=1, protocol="marlin", data_dirs=dirs,
        client_config=ClientConfig(mode="real"), seed=1,
    )
    client = cluster.client(client_id=CLIENT)
    await cluster.start()
    need = cluster.config.f + 1
    at_commit: dict[int, tuple[int, list]] = {}
    for node in cluster.nodes:
        # First in line, so it sees the state before anything else runs.
        node.replica.commit_listeners.insert(
            0,
            lambda block, now, node=node: at_commit.__setitem__(
                node.id, (block.height, _state_of(node.replica))
            ),
        )
    writes = [(b"key-%d" % i, b"value-%d" % i) for i in range(k)]
    votes: dict[tuple[int, bytes], set[int]] = {}
    certified: list[tuple[bytes, bytes, list[int]]] = []
    send = cluster.network.send

    def watching_send(src: int, dst: int, payload) -> None:
        send(src, dst, payload)
        if not isinstance(payload, ClientReply) or dst != CLIENT:
            return
        voters = votes.setdefault((payload.sequence, payload.result_digest), set())
        voters.add(src)
        if len(voters) == need:
            key, value = writes[len(certified)]  # one write at a time
            certified.append((key, value, sorted(voters)))
            if len(certified) == k:
                report({"at_commit": at_commit, "certified": certified})
                os._exit(0)

    cluster.network.send = watching_send
    for key, value in writes:
        await client.submit(KVStateMachine.encode_set(key, value), timeout=20.0)


def _crash_after_certificate(dirs: list[str], k: int) -> dict:
    """Run the child; return what it piped before it died."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into the test runner
        status = 1
        try:
            os.close(read_fd)

            def report(facts: dict) -> None:
                os.write(write_fd, pickle.dumps(facts))

            asyncio.run(asyncio.wait_for(_run_until_certificate(dirs, k, report), 60.0))
            status = 2  # the loop ended without the k-th certificate
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks = []
    while chunk := os.read(read_fd, 65536):
        chunks.append(chunk)
    os.close(read_fd)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0, "child did not reach its certificate"
    return pickle.loads(b"".join(chunks))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("k", [1, 5])
def test_certified_commit_survives_os_exit(tmp_path, k):
    dirs = [str(tmp_path / f"replica{i}") for i in range(4)]
    facts = _crash_after_certificate(dirs, k)
    assert len(facts["certified"]) == k
    stores = [KVStore(directory=d) for d in dirs]
    try:
        for replica, store in enumerate(stores):
            raw = store.get(b"meta:consensus")
            if replica not in facts["at_commit"]:
                assert raw is None
                continue
            height, state = facts["at_commit"][replica]
            assert raw is not None and decode(raw) == state, (
                f"replica {replica} recovered a stale consensus state"
            )
            assert store.get(b"meta:committed_height") == str(height).encode()
        for key, value, replicas in facts["certified"]:
            for replica in replicas:
                assert stores[replica].get(b"app:" + key) == value, (
                    f"{key!r} certified by replica {replica} is not on its disk"
                )
    finally:
        for store in stores:
            store.close()
