"""Per-block hub certification is exactly the per-key ``f + 1`` rule.

``_acknowledge`` certifies a block's keys when the block's replica mask
first reaches ``f + 1``, and checks a re-proposed op (one held by two
blocks) against the union of its blocks' masks.  The reference below is
the per-key bitmask loop it replaced, kept verbatim: every key carries
the mask of the replicas that answered a block holding it, and certifies
once that mask reaches ``f + 1``.  The property drives both with the same
reply batches and compares what each certifies, batch by batch and in
order, plus the latency samples, the throughput meter and the keys left
outstanding.

The draws cover what the end-to-end goldens only touch by luck: blocks
that share keys, every interleaving of the replicas' batches, and one
replica that never replies.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.config import ClusterConfig, ExperimentConfig
from repro.consensus.messages import ReplyBatch
from repro.harness.des_runtime import DESCluster
from repro.harness.workload import ClosedLoopClients, OpenLoopClients, _acknowledge


def reference_acknowledge(pool, batch: ReplyBatch) -> list[tuple[int, int]]:
    """The per-key bitmask loop, with its own ``_acks``/``_replying``."""
    replying = pool._reference_replying
    digest = batch.block_digest
    entry = replying.get(digest)
    if entry is None:
        replying[digest] = entry = [pool._voters, False]
    entry[0] -= 1
    if not entry[0]:
        del replying[digest]
    if entry[1]:
        return []
    now = pool.cluster.sim.now
    replica_bit = 1 << batch.replica
    need = pool.f + 1
    weight = pool.token_weight
    submit_time = pool._submit_time
    acks = pool._reference_acks
    certified: list[tuple[int, int]] = []
    latencies: list[float] = []
    outstanding = False
    for key in batch.op_keys:
        submitted = submit_time.get(key)
        if submitted is None:
            continue  # already acknowledged (and, closed-loop, recycled)
        mask = acks.get(key, 0) | replica_bit
        if mask.bit_count() < need:
            acks[key] = mask
            outstanding = True
            continue
        del submit_time[key]
        acks.pop(key, None)
        latencies.append(now - submitted)
        certified.append(key)
    if not outstanding:
        entry[1] = True
    if certified:
        latency = pool.latency
        if latency.window_start <= now <= latency.window_end:
            latency.samples.append_batch(now, weight, latencies)
        pool.throughput.record(now, len(certified) * weight)
    return certified


def make_pool(kind: str, f: int, token_weight: int, warmup: float):
    experiment = ExperimentConfig(cluster=ClusterConfig.for_f(f), seed=1)
    cluster = DESCluster(experiment, crypto_mode="null")
    if kind == "closed":
        pool = ClosedLoopClients(cluster, num_clients=1, token_weight=token_weight, warmup=warmup)
    else:
        pool = OpenLoopClients(cluster, rate_tps=1.0, token_weight=token_weight, warmup=warmup)
    pool._reference_replying = {}
    pool._reference_acks = {}
    return pool


_KEYS = [(client, seq) for client in range(4) for seq in range(3)]


@st.composite
def reply_schedules(draw):
    f = draw(st.sampled_from([1, 2]))
    n = 3 * f + 1
    outstanding = draw(st.lists(st.sampled_from(_KEYS), min_size=1, unique=True))
    submitted = {
        key: draw(st.floats(min_value=0.0, max_value=0.5, allow_nan=False))
        for key in outstanding
    }
    blocks = draw(
        st.lists(st.lists(st.sampled_from(_KEYS), min_size=1, max_size=6), min_size=1, max_size=5)
    )
    silent = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=n - 1)))
    batches = [
        (replica, block)
        for replica in range(n)
        if replica != silent
        for block in range(len(blocks))
    ]
    order = draw(st.permutations(batches))
    return {
        "f": f,
        "submitted": submitted,
        "blocks": [tuple(block) for block in blocks],
        "order": order,
        "silent": silent,
        "token_weight": draw(st.integers(min_value=1, max_value=3)),
        "warmup": draw(st.sampled_from([0.0, 0.7, 0.9])),
    }


@pytest.mark.parametrize("kind", ["closed", "open"])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(schedule=reply_schedules())
def test_per_block_certification_matches_per_key_rule(kind, schedule):
    pools = [
        make_pool(kind, schedule["f"], schedule["token_weight"], schedule["warmup"])
        for _ in range(2)
    ]
    pool, reference = pools
    for each in pools:
        each._submit_time.update(schedule["submitted"])
    blocks = schedule["blocks"]
    for step, (replica, block) in enumerate(schedule["order"]):
        batch = ReplyBatch(
            replica=replica,
            block_digest=b"block-%d" % block,
            op_keys=blocks[block],
            num_ops=len(blocks[block]),
            reply_size=0,
        )
        for each in pools:
            each.cluster.sim._now = 0.5 + step * 0.01
        assert _acknowledge(pool, batch) == reference_acknowledge(reference, batch)
    assert pool.latency.samples == reference.latency.samples
    assert pool.throughput == reference.throughput
    assert pool._submit_time == reference._submit_time

    # Bounded: a block leaves the table once every voter answered it, and
    # what a silent replica leaves behind is finished and holds no keys.
    assert len(pool._replying) == (len(blocks) if schedule["silent"] is not None else 0)
    for _due, _mask, keys, shared in pool._replying.values():
        assert keys is None and not shared
    assert pool._claimed.keys() <= pool._submit_time.keys()
