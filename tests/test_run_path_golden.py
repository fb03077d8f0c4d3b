"""Run-path goldens: every load-point shape the facade routes, pinned exactly.

``tests/test_work_counters.py`` pins the plain hub point and
``tests/test_work_counters_shard.py`` the sharded one; this file pins the
shapes in between — an explicit cluster, a pipeline, real clients,
threshold crypto, HotStuff, an adversary, both sharded engines, the
journey waterfall and a cached curve — as SHA-256 digests of the
``RunResult`` and of the commit trace.  A refactor of the path from
``Scenario`` to the cluster must leave every digest untouched; update a
value only together with an explanation of what the model now does
differently.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict

import pytest

from repro.api import (
    ClientConfig,
    ClusterConfig,
    PipelineConfig,
    Scenario,
    ShardConfig,
    latency_breakdown,
    throughput_curve,
)
from repro.common.encoding import encode
from repro.harness.scenarios import _load_point_ex
from repro.obs.journey import waterfall_json

RUN = dict(sim_time=3.0, warmup=1.0, seed=2)
EXPLICIT_CLUSTER = ClusterConfig.for_f(1, batch_size=2000, base_timeout=0.5)

#: name -> (protocol, clients, extra fields, golden key)
SHAPES = {
    "explicit-cluster": ("marlin", 128, dict(cluster=EXPLICIT_CLUSTER), "explicit-cluster"),
    "pipeline": ("marlin", 128, dict(pipeline=PipelineConfig()), "pipeline"),
    "real-clients": ("marlin", 32, dict(client=ClientConfig(mode="real")), "real-clients"),
    "threshold": ("marlin", 32, dict(crypto="threshold"), "threshold"),
    "hotstuff": ("hotstuff", 128, {}, "hotstuff"),
    "adversary": (
        "insecure",
        128,
        dict(cluster=EXPLICIT_CLUSTER, adversary="forking-attack"),
        "adversary",
    ),
    "shards2-jobs1": ("marlin", 128, dict(shard=ShardConfig(shards=2), des_jobs=1), "shards2"),
    "shards2-jobs2": ("marlin", 128, dict(shard=ShardConfig(shards=2), des_jobs=2), "shards2"),
}

#: golden key -> (sha256 of repr(asdict(result)), sha256 of the commit trace)
GOLDEN = {
    "adversary": (
        "ec169f4d884fd0e17b8f6fd09c2e85b690826a645d1b4d615af44cb69fe69c4c",
        "89b2cd1acbd57b4679b0ab246cb92521c10c99c1537710e1a1b345b3fa5cbaf4",
    ),
    "explicit-cluster": (
        "a676e1ec9b4b4da0bd48704f27249390fe2f3c5417c3b183573302273b0abd6e",
        "7b9261d19260e1995dfce1e8377e50722d906d89d470fa1188e4182c7d9be6ab",
    ),
    "hotstuff": (
        "3ac63a26055b2c7a73ad45b13b6308d36628c451352dca7d3d37fef09cb7c5fe",
        "b1768745c344274d11fca259726a8d53a8ac668453c99cd01436a404194f6b94",
    ),
    "pipeline": (
        "2ceb40e7060f197c381d0cf546501f03bffb30c1477d25e8174503e9a8d9243f",
        "8e49cbf5640410cba8cb891413b377393950de6138ede85fcd6b123634f7d453",
    ),
    "real-clients": (
        "6f82c9f1b164799be6530ed7a23a8ca4d5dd00235e3cabc659e5917a356adb10",
        "5a45ed98b51be0f3ce0cdb9596f0d55c8292371d797725cd302c165a0c06eac8",
    ),
    "shards2": (
        "8ff6a1104d3f6f57db960cf9b172f33d87eec311fba93356404a4de3b75e8e05",
        "7bffeab212396232ea01b4a514c9b9f7a6a569a95a14efd545cb66eb31d7c788",
    ),
    "threshold": (
        "028e92d16dadce25d87eb5d9b9cbc3155ddb3cfccbb5aded28f953870e231074",
        "6cb17b449f2af67e4bbf1a4ffdc040d369575ca0b99e83d5f2c465fa5380c3aa",
    ),
}

WATERFALL_SHA256 = "eed1d6a07e834a118fa10a298fcee98212069ad5fb824dae60ca371fed294af7"
CURVE_SHA256 = "d61f4896ed878a6ad03efd13ced602f64f5b533acf6c8c1578546dece104e781"


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _curve_sha(curve) -> str:
    return _sha(repr([asdict(point) for point in curve]).encode())


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_load_point_shape(name):
    protocol, clients, extra, key = SHAPES[name]
    result, cluster = _load_point_ex(protocol, 1, clients, **RUN, **extra)
    measured = (_sha(repr(asdict(result)).encode()), _sha(encode(cluster.commit_trace())))
    assert measured == GOLDEN[key]


def test_latency_breakdown_waterfall():
    result, _recorder = latency_breakdown(
        Scenario(protocol="marlin", f=1, clients=128, **RUN)
    )
    assert _sha(waterfall_json(result.waterfall).encode()) == WATERFALL_SHA256


def test_curve_identical_plain_cold_and_warm(tmp_path):
    scenario = Scenario(protocol="marlin", f=1, **RUN)
    counts = [64, 128]
    plain = throughput_curve(scenario, counts, latency_cap=1e9)
    cached = dict(latency_cap=1e9, use_cache=True, cache_dir=str(tmp_path))
    cold = throughput_curve(scenario, counts, **cached)
    warm = throughput_curve(scenario, counts, **cached)
    assert len(plain) == 2
    assert _curve_sha(plain) == CURVE_SHA256
    assert cold == warm == plain
