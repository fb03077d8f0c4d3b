"""The bounded dedup key-set: exact ``set`` semantics in O(clients) memory."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import ClusterConfig, ExperimentConfig, NetworkProfile
from repro.consensus.block import KeySet, Operation
from repro.harness.des_runtime import DESCluster
from repro.harness.workload import ClosedLoopClients, OpenLoopClients


def _mirror(keyset: KeySet, reference: set, keys, universe) -> None:
    """Add ``keys`` to both; every answer and membership must agree."""
    for key in keys:
        assert keyset.add(key) == (key not in reference), key
        reference.add(key)
        assert key in keyset
    for key in universe:
        assert (key in keyset) == (key in reference), key


def _dense(clients: int, length: int, first: int) -> list[tuple[int, int]]:
    return [(c, s) for s in range(first, first + length) for c in range(clients)]


class TestEquivalence:
    @pytest.mark.parametrize("first", [0, 1])
    def test_in_order_keys(self, first):
        keys = _dense(5, 40, first)
        universe = _dense(6, 45, 0)
        keyset, reference = KeySet(), set()
        _mirror(keyset, reference, keys, universe)
        # Dense streams cost one run per client and nothing sparse.
        assert len(keyset._runs) == 5 and not keyset._sparse

    @pytest.mark.parametrize("seed", range(20))
    def test_shuffled_keys_with_gaps(self, seed):
        rng = random.Random(seed)
        keys = [k for k in _dense(4, 60, rng.randrange(3)) if rng.random() > 0.1]
        rng.shuffle(keys)
        universe = _dense(5, 65, 0)
        keyset, reference = KeySet(), set()
        for start in range(0, len(keys), 7):
            _mirror(keyset, reference, keys[start : start + 7], universe)

    @pytest.mark.parametrize("seed", range(20))
    def test_repeats_within_and_across_batches(self, seed):
        rng = random.Random(100 + seed)
        universe = _dense(3, 30, 0)
        keyset, reference = KeySet(), set()
        for _ in range(40):
            batch = [rng.choice(universe) for _ in range(rng.randrange(1, 12))]
            batch += rng.sample(batch, min(2, len(batch)))  # in-batch repeats
            _mirror(keyset, reference, batch, universe)

    @pytest.mark.parametrize("seed", range(5))
    def test_many_clients_mostly_in_order(self, seed):
        rng = random.Random(200 + seed)
        clients = 300
        next_seq = {c: rng.randrange(2) for c in range(clients)}
        keyset, reference = KeySet(), set()
        for _ in range(3000):
            client = rng.randrange(clients)
            seq = next_seq[client]
            if rng.random() < 0.05:
                seq += rng.randrange(1, 4)  # a gap, filled later or never
            else:
                next_seq[client] = seq + 1
            key = (client, seq)
            assert keyset.add(key) == (key not in reference)
            reference.add(key)
        universe = [(c, s) for c in range(clients + 1) for s in range(-1, 20)]
        _mirror(keyset, reference, [], universe)

    def test_clear_then_reuse(self):
        keyset, reference = KeySet(), set()
        universe = _dense(3, 12, 0)
        _mirror(keyset, reference, _dense(3, 8, 0) + [(0, 10)], universe)
        keyset.clear()
        reference.clear()
        assert not keyset._runs and not keyset._sparse
        _mirror(keyset, reference, [(1, 5), (1, 7), (1, 6), (2, 0), (1, 5)], universe)


# ---------------------------------------------------------------------------
# The bulk insert: add_ops against a plain set, call by call


@st.composite
def op_streams(draw) -> list[list[Operation]]:
    """Dense keys made shuffled, gapped and repeated, cut into calls.

    Every op is its own object, so a repeated key is a distinct op and
    the test can tell which copy came back.
    """
    clients = draw(st.integers(min_value=1, max_value=4))
    first = draw(st.integers(min_value=-2, max_value=2))
    length = draw(st.integers(min_value=0, max_value=25))
    keys = _dense(clients, length, first)
    if draw(st.booleans()):
        keys = draw(st.permutations(keys))
    if keys and draw(st.booleans()):
        kept = draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
        keys = [key for key, keep in zip(keys, kept) if keep]
    if keys:
        for index in draw(st.lists(st.integers(0, len(keys) - 1), max_size=10)):
            at = draw(st.integers(0, len(keys)))
            keys.insert(at, keys[index])
    ops = [Operation(client, seq) for client, seq in keys]
    cuts = sorted(draw(st.lists(st.integers(0, len(ops)), max_size=6)))
    bounds = [0, *cuts, len(ops)]
    return [ops[start:end] for start, end in zip(bounds, bounds[1:])]


class TestAddOps:
    @settings(max_examples=300, deadline=None)
    @given(op_streams())
    def test_matches_a_plain_set(self, calls):
        keyset, reference = KeySet(), set()
        universe = [(c, s) for c in range(5) for s in range(-3, 30)]
        for ops in calls:
            expected = []
            for op in ops:
                if op.key() not in reference:
                    reference.add(op.key())
                    expected.append(op)
            assert [id(op) for op in keyset.add_ops(ops)] == [id(op) for op in expected]
            for key in universe:
                assert (key in keyset) == (key in reference), key

    def test_repeat_inside_one_call_is_not_new(self):
        first, again, gap, gap_again = (
            Operation(0, 0), Operation(0, 0), Operation(0, 5), Operation(0, 5)
        )
        new = KeySet().add_ops([first, again, gap, gap_again])
        assert [id(op) for op in new] == [id(first), id(gap)]

    def test_dense_calls_stay_in_runs(self):
        keyset = KeySet()
        for seq in range(10):
            assert len(keyset.add_ops([Operation(c, seq) for c in range(3)])) == 3
        assert len(keyset._runs) == 3 and not keyset._sparse


class TestAddAgreesWithAddOps:
    """``add`` re-implements ``add_ops``'s rule for one key; they agree."""

    @staticmethod
    def _agree(keys) -> None:
        one, bulk = KeySet(), KeySet()
        for key in keys:
            assert one.add(key) == bool(bulk.add_ops([Operation(*key)])), key
            assert one._runs == bulk._runs and one._sparse == bulk._sparse, key

    @pytest.mark.parametrize(
        "keys",
        [
            [(0, 3), (0, 1), (0, 0), (0, 2), (1, 5), (1, 4)],  # out of order
            [(0, 0), (0, 0), (0, 4), (0, 4), (0, 1), (0, 0), (0, 1)],  # repeats
            [(0, 0), (0, 2), (0, 3), (0, 5), (0, 1), (0, 4), (0, 6)],  # sparse folds
        ],
        ids=["out-of-order", "repeats", "folds"],
    )
    def test_named_sequences(self, keys):
        self._agree(keys)

    @settings(max_examples=200, deadline=None)
    @given(op_streams())
    def test_generated_sequences(self, calls):
        self._agree([op.key() for ops in calls for op in ops])


# ---------------------------------------------------------------------------
# Retention: the dedup state does not grow with the run's length


def _experiment() -> ExperimentConfig:
    return ExperimentConfig(
        cluster=ClusterConfig.for_f(1, batch_size=400, base_timeout=60.0),
        network=NetworkProfile.lan(),
        seed=5,
    )


def _footprints(cluster: DESCluster, clients: int) -> list[tuple[int, int]]:
    """``(runs, sparse keys)`` of every distinct dedup key set.

    That is the group's commit log, any private log a ledger moved to,
    and the leader's pool.
    """
    logs = {id(replica.ledger._log): replica.ledger._log for replica in cluster.replicas}
    keysets = [log.keys for log in logs.values()]
    keysets.append(cluster.leader_replica.pool._seen)
    prints = [(len(ks._runs), len(ks._sparse)) for ks in keysets]
    for runs, sparse in prints:
        assert 0 < runs <= clients and sparse == 0
    return prints


def _closed_loop(sim_time: float, mode: str):
    cluster = DESCluster(_experiment(), protocol="marlin", crypto_mode="null")
    pool = ClosedLoopClients(cluster, num_clients=32, token_weight=1, mode=mode)
    cluster.start()
    cluster.sim.schedule(0.01, pool.start)
    cluster.run(until=sim_time)
    cluster.assert_safety()
    return cluster, pool.num_tokens


def _open_loop(sim_time: float):
    cluster = DESCluster(_experiment(), protocol="marlin", crypto_mode="null")
    pool = OpenLoopClients(cluster, rate_tps=5_000, token_weight=16)
    cluster.start()
    cluster.sim.schedule(0.01, pool.start)
    cluster.run(until=sim_time)
    cluster.assert_safety()
    return cluster, 1


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda t: _closed_loop(t, "hub"), id="hub"),
        pytest.param(lambda t: _closed_loop(t, "real"), id="real"),
        pytest.param(_open_loop, id="open-loop"),
    ],
)
def test_dedup_state_is_flat_in_sim_time(run):
    short, clients = run(3.0)
    long, _ = run(6.0)
    assert long.total_ops_committed() > 1.5 * short.total_ops_committed()
    assert _footprints(short, clients) == _footprints(long, clients)
