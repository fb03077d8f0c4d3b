"""A deterministic work budget for the live runtime: Python calls per op.

The live runtime's host time is noisy (``rt_tcp``'s ``host_cpu_s``
spreads by about a quarter between identical repetitions), but the
number of Python function calls a closed loop makes is all but exact:
the same seed drives the same requests through the same event-loop
passes, so the count repeats to within a few calls in 90,000 in every
process.  Each point below runs in a fresh
interpreter: a ``LocalCluster`` (f = 1, ``batch_size=64``, on-disk
stores) with 8 real clients, 3 warm-up writes each, then 10 measured
writes each under ``sys.setprofile`` counting ``call`` events.  The
count divided by the 80 measured ops is held as a ceiling, and the
blocks those writes committed are pinned, so a change that moves the
blocks the loop forms shows up as such, not as a silent per-op shift.

The queue point runs the in-process transport, the TCP point loopback
sockets with the wire codec.  Call accounting differs between CPython
minor versions, so the budget only runs on the one it was recorded on.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

RECORDED_ON = (3, 11)

#: Ceiling on Python calls per measured op, per transport: the measured
#: count plus under 2 % headroom.  Recorded at 1161.3 and 647.7; 1114.2
#: and 573.0 once the per-op frames are fused, the per-op messages
#: slotted, a broadcast encoded once and a block written as one WAL record.
CEILINGS = {
    "queue": 1136.0,
    "tcp": 584.0,
}

#: Blocks committed during the measured writes, per transport.
BLOCKS = {
    "queue": 29,
    "tcp": 10,
}

CLIENTS = 8
WARM_WRITES = 3
WRITES = 10

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != RECORDED_ON,
    reason="call counts are recorded on CPython %d.%d" % RECORDED_ON,
)

_SCRIPT = """
import asyncio, json, os, sys, tempfile
from repro.api import ClientConfig, LocalCluster
from repro.runtime.app import KVStateMachine

transport, clients, warm, writes = sys.argv[1], *(int(a) for a in sys.argv[2:])
calls = 0

def profile(frame, event, arg):
    global calls
    if event == "call":
        calls += 1

async def main(tmp):
    cluster = LocalCluster(
        f=1, protocol="marlin", transport=transport, batch_size=64,
        data_dirs=[os.path.join(tmp, "replica%d" % i) for i in range(4)],
        client_config=ClientConfig(mode="real"), seed=1,
    )
    endpoints = [cluster.client(client_id=100 + i) for i in range(clients)]
    await cluster.start()

    async def closed_loop(index, client, first, count):
        for k in range(first, first + count):
            op = KVStateMachine.encode_set(b"key-%d-%d" % (index, k), b"v" * 100)
            await client.submit(op, timeout=30.0)

    async def everyone(first, count):
        await asyncio.gather(
            *(closed_loop(i, c, first, count) for i, c in enumerate(endpoints))
        )

    async def settled_height():
        height = max(cluster.committed_heights())
        await cluster.wait_for_height(height, timeout=30.0, quorum_only=False)
        return height

    try:
        await everyone(0, warm)
        first = await settled_height()
        sys.setprofile(profile)
        await everyone(warm, writes)
        sys.setprofile(None)
        return await settled_height() - first
    finally:
        await cluster.stop()

with tempfile.TemporaryDirectory() as tmp:
    blocks = asyncio.run(main(tmp))
print(json.dumps({"calls": calls, "ops": clients * writes, "blocks": blocks}))
"""


def measure(transport: str) -> dict:
    """Run one closed loop in a fresh interpreter; its calls, ops and blocks."""
    src = str(Path(repro.__file__).resolve().parents[1])
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT, transport, str(CLIENTS), str(WARM_WRITES), str(WRITES)],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    return json.loads(completed.stdout)


@pytest.mark.parametrize("transport", sorted(CEILINGS))
def test_live_calls_per_op_within_budget(transport, record_property):
    measured = measure(transport)
    per_op = measured["calls"] / measured["ops"]
    record_property("calls_per_op", round(per_op, 3))
    print(
        f"{transport}: {measured['calls']} calls / {measured['ops']} ops = "
        f"{per_op:.2f} per op (ceiling {CEILINGS[transport]}); "
        f"{measured['blocks']} blocks committed"
    )
    assert measured["blocks"] == BLOCKS[transport]
    assert per_op <= CEILINGS[transport]
