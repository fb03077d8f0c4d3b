"""Table 1 work counts of every protocol, pinned exactly.

The paper's central claim is linear communication in the normal case
and in the view change.  This golden pins the exact counts the complexity
instruments report for every registered protocol at n = 4 and n = 31,
and ``tests/test_table1_shape.py`` asserts the paper's claims over them:

* messages, bytes and authenticators per committed block at steady
  state (:func:`measure_normal_case_cost`);
* messages, bytes and authenticators of one leader-crash view change,
  happy and forced-unhappy (:func:`measure_view_change_cost`), with the
  view-change-specific ``vc_*`` columns;
* one leader crash under load per protocol, with the
  ``tests/test_work_counters.py`` fields and the commit-trace SHA-256.
  Its clients send to every replica, so the new leader re-proposes
  operations that already committed: the blocks after the view change
  carry operations that are not new, and exactly-once execution must
  give exactly the answer pinned here.

Update the values only together with an explanation of what the model
now does differently.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.common.encoding import encode
from repro.harness.des_runtime import DESCluster
from repro.harness.scenarios import (
    _experiment,
    measure_normal_case_cost,
    measure_view_change_cost,
)
from repro.harness.workload import ClosedLoopClients

PROTOCOLS = (
    "marlin",
    "hotstuff",
    "chained-marlin",
    "chained-hotstuff",
    "fast-hotstuff",
    "insecure",
)
F_VALUES = (1, 10)  # n = 4 and n = 31

NORMAL_CASE = {
    ("marlin", 1): {
        "n": 4,
        "blocks": 54,
        "messages_per_block": "19.944444444444443",
        "bytes_per_block": "169841.11111111112",
        "authenticators_per_block": "19.944444444444443",
    },
    ("marlin", 10): {
        "n": 31,
        "blocks": 52,
        "messages_per_block": "153.78846153846155",
        "bytes_per_block": "1344768.7884615385",
        "authenticators_per_block": "153.78846153846155",
    },
    ("hotstuff", 1): {
        "n": 4,
        "blocks": 42,
        "messages_per_block": "27.928571428571427",
        "bytes_per_block": "170059.14285714287",
        "authenticators_per_block": "27.928571428571427",
    },
    ("hotstuff", 10): {
        "n": 31,
        "blocks": 41,
        "messages_per_block": "213.9268292682927",
        "bytes_per_block": "1322161.1219512196",
        "authenticators_per_block": "213.9268292682927",
    },
    ("chained-marlin", 1): {
        "n": 4,
        "blocks": 42,
        "messages_per_block": "13.880952380952381",
        "bytes_per_block": "172129.80952380953",
        "authenticators_per_block": "13.880952380952381",
    },
    ("chained-marlin", 10): {
        "n": 31,
        "blocks": 40,
        "messages_per_block": "108.5",
        "bytes_per_block": "1337603.5",
        "authenticators_per_block": "108.5",
    },
    ("chained-hotstuff", 1): {
        "n": 4,
        "blocks": 34,
        "messages_per_block": "18.147058823529413",
        "bytes_per_block": "173255.76470588235",
        "authenticators_per_block": "18.147058823529413",
    },
    ("chained-hotstuff", 10): {
        "n": 31,
        "blocks": 32,
        "messages_per_block": "144.34375",
        "bytes_per_block": "1423761.40625",
        "authenticators_per_block": "144.34375",
    },
    ("fast-hotstuff", 1): {
        "n": 4,
        "blocks": 54,
        "messages_per_block": "19.925925925925927",
        "bytes_per_block": "173532.05555555556",
        "authenticators_per_block": "19.925925925925927",
    },
    ("fast-hotstuff", 10): {
        "n": 31,
        "blocks": 52,
        "messages_per_block": "153.19230769230768",
        "bytes_per_block": "1333538.7692307692",
        "authenticators_per_block": "153.19230769230768",
    },
    ("insecure", 1): {
        "n": 4,
        "blocks": 54,
        "messages_per_block": "19.88888888888889",
        "bytes_per_block": "172294.87037037036",
        "authenticators_per_block": "19.88888888888889",
    },
    ("insecure", 10): {
        "n": 31,
        "blocks": 52,
        "messages_per_block": "153.19230769230768",
        "bytes_per_block": "1333538.7692307692",
        "authenticators_per_block": "153.19230769230768",
    },
}

VIEW_CHANGE = {
    ("marlin", 1, "happy"): {
        "n": 4,
        "messages": 26,
        "bytes_total": 42297,
        "authenticators": 29,
        "phases_to_commit": 2,
        "vc_messages": 3,
        "vc_bytes": 783,
        "vc_authenticators": 6,
    },
    ("marlin", 1, "unhappy"): {
        "n": 4,
        "messages": 31,
        "bytes_total": 26863,
        "authenticators": 34,
        "phases_to_commit": 3,
        "vc_messages": 7,
        "vc_bytes": 23035,
        "vc_authenticators": 10,
    },
    ("marlin", 10, "happy"): {
        "n": 31,
        "messages": 245,
        "bytes_total": 209648,
        "authenticators": 275,
        "phases_to_commit": 2,
        "vc_messages": 30,
        "vc_bytes": 7830,
        "vc_authenticators": 60,
    },
    ("marlin", 10, "unhappy"): {
        "n": 31,
        "messages": 274,
        "bytes_total": 214351,
        "authenticators": 304,
        "phases_to_commit": 3,
        "vc_messages": 61,
        "vc_bytes": 180283,
        "vc_authenticators": 91,
    },
    ("hotstuff", 1, "happy"): {
        "n": 4,
        "messages": 28,
        "bytes_total": 26399,
        "authenticators": 28,
        "phases_to_commit": 3,
        "vc_messages": 3,
        "vc_bytes": 783,
        "vc_authenticators": 3,
    },
    ("hotstuff", 1, "unhappy"): {
        "n": 4,
        "messages": 28,
        "bytes_total": 26399,
        "authenticators": 28,
        "phases_to_commit": 3,
        "vc_messages": 3,
        "vc_bytes": 783,
        "vc_authenticators": 3,
    },
    ("hotstuff", 10, "happy"): {
        "n": 31,
        "messages": 304,
        "bytes_total": 219062,
        "authenticators": 304,
        "phases_to_commit": 3,
        "vc_messages": 30,
        "vc_bytes": 7830,
        "vc_authenticators": 30,
    },
    ("hotstuff", 10, "unhappy"): {
        "n": 31,
        "messages": 304,
        "bytes_total": 219062,
        "authenticators": 304,
        "phases_to_commit": 3,
        "vc_messages": 30,
        "vc_bytes": 7830,
        "vc_authenticators": 30,
    },
    ("chained-marlin", 1, "happy"): {
        "n": 4,
        "messages": 26,
        "bytes_total": 42297,
        "authenticators": 29,
        "phases_to_commit": 2,
        "vc_messages": 3,
        "vc_bytes": 783,
        "vc_authenticators": 6,
    },
    ("chained-marlin", 1, "unhappy"): {
        "n": 4,
        "messages": 31,
        "bytes_total": 26863,
        "authenticators": 34,
        "phases_to_commit": 3,
        "vc_messages": 7,
        "vc_bytes": 23035,
        "vc_authenticators": 10,
    },
    ("chained-marlin", 10, "happy"): {
        "n": 31,
        "messages": 245,
        "bytes_total": 209648,
        "authenticators": 275,
        "phases_to_commit": 2,
        "vc_messages": 30,
        "vc_bytes": 7830,
        "vc_authenticators": 60,
    },
    ("chained-marlin", 10, "unhappy"): {
        "n": 31,
        "messages": 274,
        "bytes_total": 214351,
        "authenticators": 304,
        "phases_to_commit": 3,
        "vc_messages": 61,
        "vc_bytes": 180283,
        "vc_authenticators": 91,
    },
    ("chained-hotstuff", 1, "happy"): {
        "n": 4,
        "messages": 28,
        "bytes_total": 26399,
        "authenticators": 28,
        "phases_to_commit": 3,
        "vc_messages": 3,
        "vc_bytes": 783,
        "vc_authenticators": 3,
    },
    ("chained-hotstuff", 1, "unhappy"): {
        "n": 4,
        "messages": 28,
        "bytes_total": 26399,
        "authenticators": 28,
        "phases_to_commit": 3,
        "vc_messages": 3,
        "vc_bytes": 783,
        "vc_authenticators": 3,
    },
    ("chained-hotstuff", 10, "happy"): {
        "n": 31,
        "messages": 274,
        "bytes_total": 214382,
        "authenticators": 274,
        "phases_to_commit": 3,
        "vc_messages": 30,
        "vc_bytes": 7830,
        "vc_authenticators": 30,
    },
    ("chained-hotstuff", 10, "unhappy"): {
        "n": 31,
        "messages": 274,
        "bytes_total": 214382,
        "authenticators": 274,
        "phases_to_commit": 3,
        "vc_messages": 30,
        "vc_bytes": 7830,
        "vc_authenticators": 30,
    },
    ("fast-hotstuff", 1, "happy"): {
        "n": 4,
        "messages": 18,
        "bytes_total": 27397,
        "authenticators": 45,
        "phases_to_commit": 2,
        "vc_messages": 7,
        "vc_bytes": 25639,
        "vc_authenticators": 34,
    },
    ("fast-hotstuff", 1, "unhappy"): {
        "n": 4,
        "messages": 18,
        "bytes_total": 27397,
        "authenticators": 45,
        "phases_to_commit": 2,
        "vc_messages": 7,
        "vc_bytes": 25639,
        "vc_authenticators": 34,
    },
    ("fast-hotstuff", 10, "happy"): {
        "n": 31,
        "messages": 183,
        "bytes_total": 341002,
        "authenticators": 1515,
        "phases_to_commit": 2,
        "vc_messages": 61,
        "vc_bytes": 321550,
        "vc_authenticators": 1393,
    },
    ("fast-hotstuff", 10, "unhappy"): {
        "n": 31,
        "messages": 183,
        "bytes_total": 341002,
        "authenticators": 1515,
        "phases_to_commit": 2,
        "vc_messages": 61,
        "vc_bytes": 321550,
        "vc_authenticators": 1393,
    },
    ("insecure", 1, "happy"): {
        "n": 4,
        "messages": 18,
        "bytes_total": 24797,
        "authenticators": 21,
        "phases_to_commit": 2,
        "vc_messages": 3,
        "vc_bytes": 783,
        "vc_authenticators": 6,
    },
    ("insecure", 1, "unhappy"): {
        "n": 4,
        "messages": 18,
        "bytes_total": 24797,
        "authenticators": 21,
        "phases_to_commit": 2,
        "vc_messages": 3,
        "vc_bytes": 783,
        "vc_authenticators": 6,
    },
    ("insecure", 10, "happy"): {
        "n": 31,
        "messages": 213,
        "bytes_total": 204446,
        "authenticators": 243,
        "phases_to_commit": 2,
        "vc_messages": 30,
        "vc_bytes": 7830,
        "vc_authenticators": 60,
    },
    ("insecure", 10, "unhappy"): {
        "n": 31,
        "messages": 213,
        "bytes_total": 204446,
        "authenticators": 243,
        "phases_to_commit": 2,
        "vc_messages": 30,
        "vc_bytes": 7830,
        "vc_authenticators": 60,
    },
}

LEADER_CRASH = {
    "marlin": {
        "throughput_tps": "155.42857142857142",
        "mean_latency": "0.419634625217523",
        "p50_latency": "0.3451921357029657",
        "p90_latency": "0.8435664322794247",
        "p99_latency": "0.9309772124507477",
        "p999_latency": "0.9309772124507477",
        "blocks_committed": 39,
        "events_processed": 2808,
        "messages": 1034,
        "bytes": 1374505,
        "ops_committed": [160, 608, 592, 592],
        "repeated_weight": [0, 16, 16, 16],
        "commit_trace_sha256": "3167721db9cc5f15344d40f69fc966ee3f9c22226305acfcdc5e876c5861038b",
    },
    "hotstuff": {
        "throughput_tps": "137.14285714285714",
        "mean_latency": "0.49911009058999134",
        "p50_latency": "0.37803638586991983",
        "p90_latency": "1.0136358305935662",
        "p99_latency": "1.1315571401036992",
        "p999_latency": "1.1315571401036992",
        "blocks_committed": 34,
        "events_processed": 3214,
        "messages": 1155,
        "bytes": 1237497,
        "ops_committed": [112, 496, 496, 496],
        "repeated_weight": [0, 32, 32, 32],
        "commit_trace_sha256": "6a305adb6ef9fd8f643f800205560a86da2eb7b1662f185622fa56f5373bfc33",
    },
    "chained-marlin": {
        "throughput_tps": "155.42857142857142",
        "mean_latency": "0.41245111750824975",
        "p50_latency": "0.33796971172112933",
        "p90_latency": "0.8364922244623616",
        "p99_latency": "0.9259052384173796",
        "p999_latency": "0.9259052384173796",
        "blocks_committed": 39,
        "events_processed": 1549,
        "messages": 608,
        "bytes": 1312613,
        "ops_committed": [160, 608, 608, 608],
        "repeated_weight": [0, 16, 16, 16],
        "commit_trace_sha256": "f38030da785e2d4ba3735e757b7ff96d067e8d8ae6f93efaf396db662f86bafe",
    },
    "chained-hotstuff": {
        "throughput_tps": "123.42857142857143",
        "mean_latency": "0.5459383979385806",
        "p50_latency": "0.41608839557624155",
        "p90_latency": "1.0923189772951338",
        "p99_latency": "1.2019560580876196",
        "p999_latency": "1.2019560580876196",
        "blocks_committed": 32,
        "events_processed": 1943,
        "messages": 724,
        "bytes": 1089246,
        "ops_committed": [112, 464, 464, 464],
        "repeated_weight": [0, 32, 32, 32],
        "commit_trace_sha256": "c2a54c1ae24d92263a94efb3d5b7939aa2d9aca1791dd18be478b12cf00468ff",
    },
    "fast-hotstuff": {
        "throughput_tps": "150.85714285714286",
        "mean_latency": "0.4406560681220908",
        "p50_latency": "0.3463462549425951",
        "p90_latency": "1.0145559026778568",
        "p99_latency": "1.0162719566997778",
        "p999_latency": "1.0162719566997778",
        "blocks_committed": 38,
        "events_processed": 2709,
        "messages": 996,
        "bytes": 1323676,
        "ops_committed": [144, 576, 560, 560],
        "repeated_weight": [0, 16, 16, 16],
        "commit_trace_sha256": "cfe71c16a42d65737bda5a0fa3fe2f634c195578a83e07cd682540a0ba51ebc9",
    },
    "insecure": {
        "throughput_tps": "150.85714285714286",
        "mean_latency": "0.44030669600087846",
        "p50_latency": "0.34634306774259516",
        "p90_latency": "1.0117111154778569",
        "p99_latency": "1.0134271694997778",
        "p999_latency": "1.0134271694997778",
        "blocks_committed": 38,
        "events_processed": 2709,
        "messages": 996,
        "bytes": 1318476,
        "ops_committed": [144, 576, 560, 560],
        "repeated_weight": [0, 16, 16, 16],
        "commit_trace_sha256": "68012401db0c4296e76ae95e77a8a73687ad697369aebe2688ba6f129c986a51",
    },
}


def normal_case(protocol: str, f: int) -> dict:
    cost = measure_normal_case_cost(protocol, f)
    return {
        "n": cost.n,
        "blocks": cost.blocks,
        "messages_per_block": repr(cost.messages_per_block),
        "bytes_per_block": repr(cost.bytes_per_block),
        "authenticators_per_block": repr(cost.authenticators_per_block),
    }


def view_change(protocol: str, f: int, unhappy: bool) -> dict:
    cost = measure_view_change_cost(protocol, f, force_unhappy=unhappy)
    return {
        name: getattr(cost, name)
        for name in (
            "n",
            "messages",
            "bytes_total",
            "authenticators",
            "phases_to_commit",
            "vc_messages",
            "vc_bytes",
            "vc_authenticators",
        )
    }


CRASH_AT = 1.0
SIM_TIME = 4.0
WARMUP = 0.5


def leader_crash(protocol: str) -> dict:
    """f = 1, 64 clients on every replica, leader crash at 1 s, run to 4 s.

    ``repeated_weight`` is, per replica, the weight of committed
    operations that were not new when their block committed.
    """
    cluster = DESCluster(
        _experiment(1, seed=1, batch=16, base_timeout=0.5),
        protocol=protocol,
        crypto_mode="null",
    )
    pool = ClosedLoopClients(
        cluster, num_clients=64, token_weight=1, target="all", warmup=WARMUP
    )
    cluster.start()
    cluster.sim.schedule(0.01, pool.start)
    cluster.crash_at(0, CRASH_AT)  # replica 0 leads view 1
    cluster.run(until=SIM_TIME)
    cluster.assert_safety()
    summary = pool.summary()
    measured = {
        "throughput_tps": repr(pool.throughput.throughput(duration=SIM_TIME - WARMUP)),
        "mean_latency": repr(summary["mean_latency"]),
        "p50_latency": repr(summary["p50_latency"]),
        "p90_latency": repr(pool.latency.p90()),
        "p99_latency": repr(summary["p99_latency"]),
        "p999_latency": repr(pool.latency.p999()),
        "blocks_committed": max(r.stats["blocks_committed"] for r in cluster.replicas),
        "events_processed": cluster.sim.events_processed,
        "messages": cluster.network.stats.messages,
        "bytes": cluster.network.stats.bytes,
        "ops_committed": [r.ledger.ops_committed for r in cluster.replicas],
        "repeated_weight": [
            sum(
                op.weight
                for digest in r.ledger.committed_digests()
                for op in r.tree.get(digest).operations
            )
            - r.ledger.ops_committed
            for r in cluster.replicas
        ],
        "commit_trace_sha256": hashlib.sha256(encode(cluster.commit_trace())).hexdigest(),
    }
    return measured


@pytest.mark.parametrize("f", F_VALUES)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_normal_case_cost_per_block(protocol, f):
    assert normal_case(protocol, f) == NORMAL_CASE[protocol, f]


@pytest.mark.parametrize("path", ("happy", "unhappy"))
@pytest.mark.parametrize("f", F_VALUES)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_view_change_cost(protocol, f, path):
    assert view_change(protocol, f, path == "unhappy") == VIEW_CHANGE[protocol, f, path]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_leader_crash_under_load(protocol):
    measured = leader_crash(protocol)
    # The view change must re-propose committed operations on every
    # surviving replica, or this point would not pin exactly-once.
    assert all(weight > 0 for weight in measured["repeated_weight"][1:])
    assert measured == LEADER_CRASH[protocol]
