"""Direct probes: one layer's public function, timed from outside.

Each probe calls the function in ``BATCHES`` timed batches and reports
the median batch, so a probe moves only when that layer's code does.
The whole set takes about 1.5 seconds at full size.
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time
from typing import Any, Callable

from repro.common.config import NetworkProfile
from repro.common.encoding import decode, encode
from repro.consensus.block import Operation, genesis_block, make_child
from repro.consensus.crypto_service import ThresholdCryptoService
from repro.consensus.messages import Justify, PhaseMsg
from repro.consensus.qc import BlockSummary, Phase, genesis_qc
from repro.crypto.hashing import digest_of
from repro.crypto.keys import KeyRegistry
from repro.des.simulator import Simulator
from repro.network import codec
from repro.network.simnet import SimNetwork
from repro.obs.observer import NullReplicaObs, RunObservability
from repro.storage.kvstore import KVStore
from repro.storage.wal import WriteAheadLog

BATCHES = 5
BLOCK_OPS = 400


def _median_per_call(batch: Callable[[], int], unit: float) -> float:
    """Median over ``BATCHES`` of (batch seconds / calls made) in ``unit``."""
    samples = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        calls = batch()
        samples.append((time.perf_counter() - start) / calls / unit)
    return statistics.median(samples)


def _repeat(fn: Callable[[], Any], calls: int) -> Callable[[], int]:
    def batch() -> int:
        for _ in range(calls):
            fn()
        return calls

    return batch


def _proposal() -> PhaseMsg:
    genesis = genesis_block()
    qc = genesis_qc(genesis)
    operations = tuple(Operation(7, seq, b"x" * 150) for seq in range(BLOCK_OPS))
    block = make_child(genesis, 1, operations, digest_of(["probe-justify"]), proposer=0)
    return PhaseMsg(phase=Phase.PREPARE, view=1, justify=Justify(qc=qc), block=block)


def run_all(scale: float, tmp_root: str) -> dict[str, float]:
    """Every probe, by metric name.  ``scale`` shrinks the batch sizes."""

    def n(full: int) -> int:
        return max(3, round(full * scale))

    us, ns = 1e-6, 1e-9
    out: dict[str, float] = {}

    # common: canonical encoding of a proposal-shaped plain value.
    proposal = _proposal()
    value = [
        "prepare",
        1,
        [b"d" * 32, 1, 1, 0],
        [[op.client_id, op.sequence, op.payload, op.weight] for op in proposal.block.operations],
    ]
    encoded = encode(value)
    out["common.encode_us"] = _median_per_call(_repeat(lambda: encode(value), n(40)), us)
    out["common.decode_us"] = _median_per_call(_repeat(lambda: decode(encoded), n(40)), us)

    # network: the wire codec on a proposal carrying a 400-op block.
    frame = codec.encode_message(proposal)
    out["network.codec_encode_us"] = _median_per_call(
        _repeat(lambda: codec.encode_message(proposal), n(30)), us
    )
    out["network.codec_decode_us"] = _median_per_call(
        _repeat(lambda: codec.decode_message(frame), n(30)), us
    )

    # crypto: digest, then the threshold scheme at n = 4 (quorum 3).
    out["crypto.digest_us"] = _median_per_call(_repeat(lambda: digest_of(value), n(40)), us)
    service = ThresholdCryptoService(KeyRegistry(4, 3))
    summary = BlockSummary.of(proposal.block)
    views = iter(range(1, 1_000_000))

    def sign_batch() -> int:
        for _ in range(n(10)):
            service.sign_vote(0, Phase.PREPARE, next(views), summary)
        return n(10)

    out["crypto.sign_share_us"] = _median_per_call(sign_batch, us)

    # Distinct views, so no verification is answered by the QC cache.
    def accumulators(count: int) -> list[tuple[int, Any]]:
        ready = []
        for _ in range(count):
            view = next(views)
            accumulator = service.accumulator(Phase.PREPARE, view, summary)
            for signer in range(3):
                accumulator.add(signer, service.sign_vote(signer, Phase.PREPARE, view, summary))
            ready.append((view, accumulator))
        return ready

    combine, verify = [], []
    for _ in range(BATCHES):
        ready = accumulators(n(6))
        start = time.perf_counter()
        qcs = [
            service.make_qc(Phase.PREPARE, view, summary, accumulator)
            for view, accumulator in ready
        ]
        middle = time.perf_counter()
        for qc in qcs:
            service.verify_qc(qc)
        end = time.perf_counter()
        combine.append((middle - start) / len(ready) / us)
        verify.append((end - middle) / len(ready) / us)
    out["crypto.combine_us"] = statistics.median(combine)
    out["crypto.verify_qc_us"] = statistics.median(verify)

    def key_setup() -> int:
        KeyRegistry(31, 21)
        return 1

    out["crypto.key_setup_n31_s"] = _median_per_call(key_setup, 1.0)

    # des: schedule and run no-op events.
    def event_batch() -> int:
        sim = Simulator(seed=1)
        count = n(40_000)
        noop = lambda: None  # noqa: E731
        for i in range(count):
            sim.schedule(i * 1e-6, noop)
        sim.run()
        return count

    out["des.event_us"] = _median_per_call(event_batch, us)

    # network: sends through the simulated network, drained.
    def simnet_batch() -> int:
        sim = Simulator(seed=1)
        net = SimNetwork(sim, NetworkProfile())
        for endpoint in range(4):
            net.register(endpoint, lambda src, payload: None)
        count = n(20_000)
        for i in range(count):
            net.send(i % 4, (i + 1) % 4, proposal.justify.qc)
        sim.run()
        return count

    out["network.simnet_msg_us"] = _median_per_call(simnet_batch, us)

    # storage: WAL append and KV put/get on disk, 150-byte values.
    os.makedirs(tmp_root, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="probe_", dir=tmp_root) as tmp:
        record = b"r" * 150
        with WriteAheadLog(os.path.join(tmp, "probe.wal")) as wal:
            out["storage.wal_append_us"] = _median_per_call(
                _repeat(lambda: wal.append(record), n(4000)), us
            )
        with KVStore(directory=os.path.join(tmp, "kv")) as store:
            keys = iter(range(1_000_000_000))
            out["storage.kv_put_us"] = _median_per_call(
                _repeat(lambda: store.put(b"key-%d" % next(keys), record), n(2000)), us
            )
            out["storage.kv_get_us"] = _median_per_call(
                _repeat(lambda: store.get(b"key-17"), n(4000)), us
            )

    # obs: one hook through the default observer chain, net of the no-op.
    vote = object()
    live = RunObservability().replica_obs(0, "marlin")
    null = NullReplicaObs()
    with_obs = _median_per_call(_repeat(lambda: live.message_handled(vote), n(20_000)), ns)
    without = _median_per_call(_repeat(lambda: null.message_handled(vote), n(20_000)), ns)
    out["obs.hook_ns"] = with_obs - without
    return out
