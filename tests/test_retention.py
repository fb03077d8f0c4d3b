"""Bounded retention: a hub load point's memory does not grow with its length.

Latency samples are run-length coded, and a group's shared commit log
releases a committed block's operations once every ledger is past it,
so the live :class:`Operation` count at the end of a run is one client
window plus the blocks still in flight, whatever the run's length.  The
safety checker must still judge execution exactly after a release.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.checker import SafetyChecker
from repro.consensus.block import Block, KeySet, Operation, genesis_block, make_child
from repro.consensus.blocktree import BlockTree
from repro.consensus.ledger import RELEASE_MARGIN, CommitLog, Ledger
from repro.crypto.hashing import digest_of
from repro.harness.scenarios import _load_point_ex
from tests.test_commit_log import Group

CLIENTS = 384
SHORT = 12.0


def _run(sim_time: float):
    _result, cluster = _load_point_ex(
        "marlin", 1, CLIENTS, sim_time=sim_time, warmup=2.0, seed=1
    )
    return cluster


def _live_operations() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is Operation)


def _held_payloads(cluster) -> int:
    """Committed blocks of replica 0 whose operations are still held."""
    replica = cluster.replicas[0]
    return sum(
        1
        for digest in replica.ledger.committed_digests()
        if replica.tree.get(digest).operations
    )


@pytest.fixture(scope="module")
def short_run():
    return _run(SHORT)


def test_live_operations_do_not_grow_with_sim_time():
    baseline = _live_operations()
    short_run = _run(SHORT)
    short_live = _live_operations() - baseline
    long_run = _run(2 * SHORT)
    long_live = _live_operations() - baseline - short_live  # both runs are alive
    assert long_run.total_ops_committed() > 1.8 * short_run.total_ops_committed()
    assert long_live <= short_live + CLIENTS
    assert _held_payloads(short_run) <= RELEASE_MARGIN + 2
    assert _held_payloads(long_run) <= RELEASE_MARGIN + 2


def test_released_blocks_keep_their_headers(short_run):
    replica = short_run.replicas[0]
    released = replica.ledger.released
    assert released.length > RELEASE_MARGIN
    for digest in replica.ledger.committed_digests()[1 : released.length]:
        block = replica.tree.get(digest)
        assert block.operations == () and block.num_ops > 0
        assert block.wire_size == block.header_size + block.payload_size
        assert block.digest == digest


def test_check_cluster_is_exact_after_a_release(short_run):
    checker = SafetyChecker(4)
    assert short_run.replicas[0].ledger.released.length > 1
    report = checker.check_cluster(short_run)
    assert report.ok, report.violations
    assert "execution-effects" in report.checks_run
    ledger = short_run.replicas[2].ledger
    try:
        ledger._ops_committed -= 1
        assert checker.check_cluster(short_run).kinds() == ["lost-execution"]
        ledger._ops_committed += 2
        assert checker.check_cluster(short_run).kinds() == ["duplicate-execution"]
    finally:
        ledger._ops_committed -= 1
    assert checker.check_cluster(short_run).ok


# ---------------------------------------------------------------------------
# The release rule on bare ledgers


def _chain(length: int, tag: str = "c", parent: Block | None = None) -> list[Block]:
    """Blocks of one client's keys, each re-proposing its parent's last key."""
    blocks = [parent or genesis_block()]
    for j in range(length):
        seq = blocks[-1].height * 2
        ops = (Operation(0, max(seq - 1, 0)), Operation(0, seq), Operation(0, seq + 1, weight=2))
        blocks.append(make_child(blocks[-1], 1, ops, digest_of([tag, j])))
    return blocks


def _group(blocks: list[Block], k: int) -> tuple[CommitLog, list[Ledger]]:
    log = CommitLog(blocks[0].digest)
    ledgers = []
    for _ in range(k):
        tree = BlockTree(blocks[0])
        for block in blocks[1:]:
            tree.add(block)
        ledger = Ledger(tree)
        ledger.share_log(log)
        ledgers.append(ledger)
    return log, ledgers


def _distinct_weight(blocks: list[Block]) -> int:
    keys = KeySet()
    return sum(op.weight for block in blocks for op in keys.add_ops(block.operations))


def test_entries_release_once_every_ledger_is_past_them():
    blocks = _chain(RELEASE_MARGIN + 8)
    tip = len(blocks) - 1
    expected = [_distinct_weight(blocks[1 : i + 1]) for i in range(len(blocks))]
    log, ledgers = _group(blocks, 3)
    lagging = ledgers[2]
    for block in blocks[1:]:
        for ledger in ledgers[:2]:
            ledger.commit(block)
    assert log.released.length == 1  # the third ledger has committed nothing
    head = RELEASE_MARGIN + 3
    lagging.commit(blocks[head])
    lagging.commit(blocks[tip])
    # The lagging ledger began its second commit with its head at
    # ``head``: it is past every entry RELEASE_MARGIN below that.
    released = head + 1 - RELEASE_MARGIN
    assert log.released.length == released
    assert log.released.weight == expected[released - 1]
    for position, block in enumerate(blocks[1:], start=1):
        assert (block.operations == ()) == (position < released)
        assert (log.new_ops[position] == ()) == (position < released)
        assert block.num_ops == 4 and block.digest == log.digests[position]
    assert all(ledger.ops_committed == expected[tip] for ledger in ledgers)


def test_a_fork_after_a_release_replays_from_the_record():
    blocks = _chain(RELEASE_MARGIN + 6)
    base = RELEASE_MARGIN + 4
    fork = _chain(2, "fork", parent=blocks[base])
    expected = _distinct_weight(blocks[1 : base + 1] + fork[1:])
    log, (follower, forker) = _group(blocks, 2)
    for block in blocks[1 : base + 1]:
        follower.commit(block)
        forker.commit(block)
    follower.commit(blocks[base + 1])
    for block in fork[1:]:
        forker._tree.add(block)
    executed = []
    forker.set_executor(lambda block, op: executed.append(op._key))
    forker.commit(fork[2])
    released = log.released.length
    assert released > 1
    assert forker._log is not log and not log.releasing
    assert forker.released is log.released
    assert forker.ops_committed == expected
    # The fork re-proposes its parent's last key: executed, so skipped.
    last = 2 * base - 1
    assert (0, last) not in executed and (0, last + 1) in executed
    for block in blocks[base + 1 :]:
        follower.commit(block)
    assert log.released.length == released  # releasing stopped for good


def test_a_snapshot_stops_releasing_and_a_released_log_admits_no_member():
    blocks = _chain(RELEASE_MARGIN + 4)
    log, (a, b) = _group(blocks, 2)
    for block in blocks[1 : RELEASE_MARGIN + 3]:
        a.commit(block)
        b.commit(block)
    released = log.released.length
    assert released > 1
    with pytest.raises(ValueError):
        Ledger(BlockTree(blocks[0])).share_log(log)
    b.install_snapshot(blocks[RELEASE_MARGIN + 4])
    a.commit(blocks[RELEASE_MARGIN + 3])
    assert not log.releasing and log.released.length == released


def _ops(draw) -> tuple[Operation, ...]:
    return tuple(
        Operation(client, seq, b"p", weight)
        for client, seq, weight in draw(
            st.lists(
                st.tuples(st.integers(0, 2), st.integers(0, 30), st.integers(1, 3)),
                max_size=4,
            )
        )
    )


@st.composite
def long_trees(draw) -> list[Block]:
    """Genesis, a chain long enough to release (``blocks[h]`` at height
    ``h``), then a few forks off any earlier block."""
    blocks = [genesis_block()]
    for j in range(draw(st.integers(RELEASE_MARGIN + 4, RELEASE_MARGIN + 16))):
        blocks.append(make_child(blocks[-1], 1, _ops(draw), digest_of(["qc", j])))
    for j in range(draw(st.integers(0, 4))):
        parent = draw(st.sampled_from(blocks))
        blocks.append(make_child(parent, 2, _ops(draw), digest_of(["fork", j])))
    return blocks


ADVANCES = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 99)), min_size=30, max_size=60)


@settings(max_examples=60, deadline=None)
@given(
    blocks=long_trees(),
    k=st.integers(2, 4),
    advances=ADVANCES,
    schedule=st.lists(
        st.tuples(
            st.sampled_from(["advance"] * 4 + ["commit", "sync", "snapshot", "restore"]),
            st.integers(0, 3),
            st.integers(0, 99),
        ),
        max_size=30,
    ),
)
def test_releasing_logs_match_per_ledger_reference(blocks, k, advances, schedule):
    """The shared-log property of ``test_commit_log``, on chains that release.

    ``advance`` commits the chain block one to three above the ledger's
    committed height, so the ledgers commit past the margin; the
    schedule after the advances forks, snapshots and restores on top of
    the released entries.
    """
    group = Group(blocks, k, set(), shared=True)
    chain = next((h for h, block in enumerate(blocks) if block.view == 2), len(blocks))
    for action, i, pick in [("advance", i, pick) for i, pick in advances] + schedule:
        if action == "advance":
            height = group.references[i % k].committed_head.height
            action, pick = "commit", min(height + 1 + pick % 3, chain - 1)
        group.apply(action, i % k, pick)
        group.check()
