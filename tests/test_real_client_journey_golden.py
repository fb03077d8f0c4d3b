"""The journey exports of a real-client load point, pinned exactly.

``tests/test_obs_golden.py`` and ``tests/test_run_path_golden.py`` pin a
hub-mode waterfall; this file pins the same analysis over real
``ClientSession`` clients, where every request carries its own submit,
admission, reply fan-in and (under load) retransmit checkpoints.  The
shape is the ``des_real_obs`` benchmark workload scaled down: marlin,
f = 1, 256 real clients, threshold crypto, every client traced, 4
simulated seconds with a 1 s warm-up, seed 1.  Pinned, as SHA-256:

* ``waterfall_json`` of the run's waterfall;
* ``journeys_blob`` of the recorder;
* the Chrome trace JSON of the five slowest journeys after warm-up;
* ``repr`` of the result's latency readouts.

Update a value only together with an explanation of what the model now
does differently.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import ClientConfig, Scenario, latency_breakdown
from repro.obs.journey import chrome_trace, journeys_blob, waterfall_json

WARMUP = 1.0
SCENARIO = Scenario(
    protocol="marlin",
    f=1,
    clients=256,
    sim_time=4.0,
    warmup=WARMUP,
    seed=1,
    client=ClientConfig(mode="real"),
    crypto="threshold",
)

GOLDEN = {
    "waterfall": "b231dce69422100c4f8f5d1128e3bbe092d7c23a33a955088212677d19d19a42",
    "journeys_blob": "8a2fac608399a7afbc3984e4ac89226dd71d8003bb9c05234f9719b8da857707",
    "chrome_trace": "00f58371b8dbe4c073cb4d88c8cd18fdc5d412ae19373ef766cdb413981a6c5c",
    "latency": "300a41b8473de36ebae41145bce59f2297d17e8b823f031c417ead5cf4735fdf",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def digests() -> dict[str, str]:
    result, recorder = latency_breakdown(SCENARIO, sample_rate=1.0)
    trace = chrome_trace(recorder, k=5, window_start=WARMUP)
    latency = (
        result.mean_latency,
        result.p50_latency,
        result.p90_latency,
        result.p99_latency,
        result.p999_latency,
    )
    return {
        "waterfall": _sha(waterfall_json(result.waterfall).encode()),
        "journeys_blob": _sha(journeys_blob(recorder)),
        "chrome_trace": _sha(json.dumps(trace, sort_keys=True).encode()),
        "latency": _sha(repr(latency).encode()),
    }


@pytest.mark.parametrize("export", sorted(GOLDEN))
def test_real_client_journey_export_is_pinned(digests, export):
    assert digests[export] == GOLDEN[export]
