"""The live runtime with pipelining on: ``LocalCluster(pipeline=PipelineConfig())``.

The same closed-loop waves run once unpipelined and once pipelined on the
queue transport with threshold crypto.  Both must bring every replica to
the target height with agreeing state, and the pipelined run must
evaluate fewer share-verification equations per block: the vote gate
checks a quorum in one aggregate equation and drops post-quorum votes
unverified, where the unpipelined leader checks each vote on arrival.
"""

from __future__ import annotations

import asyncio

from repro.consensus.pipeline import PipelineConfig
from repro.consensus.qc import vote_payload
from repro.runtime.app import KVStateMachine
from repro.runtime.cluster import LocalCluster

BATCH = 16
WAVES = 3


def _count_share_checks(crypto) -> dict[str, int]:
    """Count verification equations: one per single check, one per payload
    group in a batch (the aggregate check covers a group at once)."""
    counts = {"share_checks": 0}
    single, batch = crypto.verify_vote, crypto.verify_votes

    def counting_single(*args):
        counts["share_checks"] += 1
        return single(*args)

    def counting_batch(votes):
        counts["share_checks"] += len(
            {vote_payload(phase, view, block) for _, phase, view, block, _ in votes}
        )
        return batch(votes)

    crypto.verify_vote = counting_single
    crypto.verify_votes = counting_batch
    return counts


async def _run(pipeline: PipelineConfig | None) -> tuple[int, float, set[bytes]]:
    cluster = LocalCluster(f=1, batch_size=BATCH, seed=2, pipeline=pipeline)
    counts = _count_share_checks(cluster.crypto)
    async with cluster:
        for wave in range(WAVES):
            for i in range(BATCH):
                await cluster.submit(
                    KVStateMachine.encode_set(b"k%d-%d" % (wave, i), b"v"), client_id=5
                )
            await cluster.wait_for_height(wave + 1, timeout=30)
        await cluster.wait_for_height(WAVES, timeout=30, quorum_only=False)
        heights = cluster.committed_heights()
        digests = set(cluster.state_digests())
    return min(heights), counts["share_checks"] / max(heights), digests


def test_pipelined_live_cluster_commits_with_fewer_share_checks():
    plain_height, plain_checks, plain_digests = asyncio.run(_run(None))
    piped_height, piped_checks, piped_digests = asyncio.run(_run(PipelineConfig()))
    assert plain_height >= WAVES and piped_height >= WAVES
    assert len(plain_digests) == 1 and len(piped_digests) == 1
    assert piped_checks < plain_checks
