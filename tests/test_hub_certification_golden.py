"""Which op keys the hub certifies, and when, under a leader crash.

The hub certifies an operation on ``f + 1`` replica replies.  After a
leader crash the new leader re-proposes operations that already sit in a
committed block, so one op key can arrive in the reply batches of two
blocks, and it certifies once the replies of its blocks together reach
``f + 1``.  This golden runs ``tests/test_table1_golden.py``'s
leader-crash-under-load shape (f = 1, 64 clients sending to every
replica, leader crash at 1 s, run to 4 s) and pins, per protocol:

* the SHA-256 of the ordered certifications: the instant, replica and op
  key of every certified op, in the order the hub certified them;
* the SHA-256 of the pool's ``(when, latency, weight)`` latency samples.

Update the values only together with an explanation of what the model
now does differently.
"""

from __future__ import annotations

import hashlib

import pytest

import repro.harness.workload as workload
from repro.harness.des_runtime import DESCluster
from repro.harness.scenarios import _experiment
from repro.harness.workload import ClosedLoopClients

CRASH_AT = 1.0
SIM_TIME = 4.0
WARMUP = 0.5

GOLDEN = {
    "marlin": {
        "certified": 592,
        "certified_sha256": "3bcefabf40320d82e72f6afad4795314569b652f1faf20182194d325245033cd",
        "samples": 544,
        "samples_sha256": "6699865db44bdd3a8fc2d76fe48b907408a133968c0f7f60a313b0e7744ead8e",
    },
    "hotstuff": {
        "certified": 496,
        "certified_sha256": "13b7e8de9e80d2ba894078b3a5c74314001eca16e14c6ce1f6cd8ac5990928ec",
        "samples": 480,
        "samples_sha256": "6432767fa057c3b2a90cd78516061637e7575bc578851c5d49c888741d05edfd",
    },
    "fast-hotstuff": {
        "certified": 560,
        "certified_sha256": "40dc649dedc315fff4977eb7e5ad3c98c836f67b5a9c2eb6489fcd2603834237",
        "samples": 528,
        "samples_sha256": "e525c00b2db8251014fb4fdfe03b0174522204d4f246eae287a451ce01679cec",
    },
}


def _sha256(rows: list) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def leader_crash_certifications(protocol: str, monkeypatch) -> dict:
    cluster = DESCluster(
        _experiment(1, seed=1, batch=16, base_timeout=0.5),
        protocol=protocol,
        crypto_mode="null",
    )
    pool = ClosedLoopClients(
        cluster, num_clients=64, token_weight=1, target="all", warmup=WARMUP
    )
    certifications: list[tuple[str, int, int, int]] = []
    acknowledge = workload._acknowledge

    def recording(pool_, batch):
        certified = acknowledge(pool_, batch)
        now = repr(cluster.sim.now)
        certifications.extend((now, batch.replica, *key) for key in certified)
        return certified

    monkeypatch.setattr(workload, "_acknowledge", recording)
    cluster.start()
    cluster.sim.schedule(0.01, pool.start)
    cluster.crash_at(0, CRASH_AT)  # replica 0 leads view 1
    cluster.run(until=SIM_TIME)
    cluster.assert_safety()
    samples = list(pool.latency.samples)
    return {
        "certified": len(certifications),
        "certified_sha256": _sha256(certifications),
        "samples": len(samples),
        "samples_sha256": _sha256(samples),
    }


@pytest.mark.parametrize("protocol", sorted(GOLDEN))
def test_leader_crash_certifications(protocol, monkeypatch):
    assert leader_crash_certifications(protocol, monkeypatch) == GOLDEN[protocol]
