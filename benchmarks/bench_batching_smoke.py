#!/usr/bin/env python3
"""CI smoke benchmark: the batching/pipelining subsystem must never lose.

Two quick comparisons, both printed as before/after rows:

1. **DES load point** (the Fig. 10 methodology, deterministic): one
   saturated ``marlin f=1`` point with the pipeline off (seed behaviour)
   and on.  The process exits non-zero if batched throughput falls below
   unbatched, or if batched mean latency regresses by more than 2% —
   this is the regression gate CI enforces.
2. **Asyncio verification work** (real threshold signatures on a live
   event loop): commit a fixed operation count with the pipeline off and
   on, counting the signature checks actually performed.  The batched
   run must do measurably fewer share checks — the quorum aggregate
   check replaces per-share verification and post-quorum votes are
   dropped unverified.  Wall-clock ops/s is printed for visibility but
   not gated: at smoke scale the simulated field arithmetic costs
   microseconds, so runner noise dominates the wall clock.

Run:  python benchmarks/bench_batching_smoke.py          (~30 s)
"""

from __future__ import annotations

import asyncio
import sys
import time

from repro.api import PipelineConfig, Scenario, load_point
from repro.harness.report import format_table, ktx, ms
from repro.runtime.cluster import LocalCluster

DES_CLIENTS = 16384
ASYNC_OPS = 240
ASYNC_BATCH = 40


def des_before_after() -> tuple:
    """One DES load point, pipeline off vs on; returns the two results."""
    results = {}
    for label, pipeline in (("unbatched", None), ("batched", PipelineConfig())):
        results[label] = load_point(
            Scenario(
                protocol="marlin", f=1, clients=DES_CLIENTS,
                sim_time=12.0, warmup=4.0, pipeline=pipeline,
            )
        )
    rows = [
        [label, ktx(point.throughput_tps), ms(point.mean_latency)]
        for label, point in results.items()
    ]
    print(
        format_table(
            f"DES load point (marlin, f=1, {DES_CLIENTS} clients)",
            ["pipeline", "ktx/s", "lat ms"],
            rows,
        )
    )
    return results["unbatched"], results["batched"]


def _count_crypto_work(crypto) -> dict:
    """Wrap the shared crypto service to count verification checks.

    ``share_checks`` counts verification equations evaluated: one per
    :meth:`verify_vote` call, and one per payload group inside a
    :meth:`verify_votes` batch (the aggregate check validates the whole
    group at once when all shares are honest).
    """
    counts = {"share_checks": 0}
    original_single = crypto.verify_vote
    original_batch = crypto.verify_votes

    def counting_single(*args, **kwargs):
        counts["share_checks"] += 1
        return original_single(*args, **kwargs)

    def counting_batch(votes):
        from repro.consensus.qc import vote_payload

        counts["share_checks"] += len(
            {vote_payload(phase, view, block) for _, phase, view, block, _ in votes}
        )
        return original_batch(votes)

    crypto.verify_vote = counting_single
    crypto.verify_votes = counting_batch
    return counts


async def _asyncio_run(pipeline: PipelineConfig | None) -> dict:
    """Commit ASYNC_OPS operations on a live f=1 cluster.

    Closed-loop waves: submit one block's worth, wait for it to commit,
    repeat — the same offered-load shape the DES clients use.
    """
    cluster = LocalCluster(f=1, protocol="marlin", batch_size=ASYNC_BATCH, pipeline=pipeline)
    counts = _count_crypto_work(cluster.crypto)
    async with cluster:
        start = time.perf_counter()
        for wave in range(ASYNC_OPS // ASYNC_BATCH):
            for _ in range(ASYNC_BATCH):
                # No-op payloads: the KV app treats b"" as a no-op, so the
                # benchmark measures consensus, not application execution.
                await cluster.submit(b"", client_id=77)
            await cluster.wait_for_height(wave + 1, timeout=30.0)
        elapsed = time.perf_counter() - start
        blocks = max(cluster.committed_heights())
    return {
        "ops_per_s": ASYNC_OPS / elapsed,
        "share_checks": counts["share_checks"],
        "qc_full_verifies": cluster.crypto.qc_cache_misses,
        "qc_cache_hits": cluster.crypto.qc_cache_hits,
        "blocks": blocks,
    }


def asyncio_before_after() -> tuple[dict, dict]:
    before = asyncio.run(_asyncio_run(None))
    after = asyncio.run(
        asyncio.wait_for(
            _asyncio_run(PipelineConfig()),
            timeout=120.0,
        )
    )
    rows = [
        [
            label,
            f"{run['ops_per_s']:.0f}",
            str(run["blocks"]),
            str(run["share_checks"]),
            f"{run['share_checks'] / max(run['blocks'], 1):.1f}",
            str(run["qc_full_verifies"]),
            str(run["qc_cache_hits"]),
        ]
        for label, run in (("unbatched", before), ("batched", after))
    ]
    print(
        format_table(
            f"asyncio verification work (marlin, f=1, threshold crypto, {ASYNC_OPS} ops)",
            ["pipeline", "ops/s", "blocks", "share checks", "checks/block",
             "qc verifies", "qc cache hits"],
            rows,
        )
    )
    return before, after


def main() -> int:
    failures = []
    before, after = des_before_after()
    print(f"DES batching throughput delta: {(after.throughput_tps / before.throughput_tps - 1) * 100:+.2f}%")
    print(f"DES batching latency delta:    {(after.mean_latency / before.mean_latency - 1) * 100:+.2f}%")
    if after.throughput_tps < before.throughput_tps:
        failures.append(
            f"batched DES throughput {after.throughput_tps:.0f} tps regressed below "
            f"unbatched {before.throughput_tps:.0f} tps"
        )
    if after.mean_latency > before.mean_latency * 1.02:
        failures.append(
            f"batched DES latency {after.mean_latency * 1000:.1f} ms regressed beyond "
            f"unbatched {before.mean_latency * 1000:.1f} ms + 2%"
        )

    async_before, async_after = asyncio_before_after()
    checks_before = async_before["share_checks"] / max(async_before["blocks"], 1)
    checks_after = async_after["share_checks"] / max(async_after["blocks"], 1)
    print(
        f"asyncio share checks per block: {checks_before:.1f} -> {checks_after:.1f} "
        f"({(checks_after / checks_before - 1) * 100:+.1f}%)"
    )
    print(f"asyncio wall-clock delta (informational): "
          f"{(async_after['ops_per_s'] / async_before['ops_per_s'] - 1) * 100:+.2f}%")
    if checks_after >= checks_before:
        failures.append(
            f"batched runtime did {checks_after:.1f} share checks per block, "
            f"not fewer than unbatched {checks_before:.1f}"
        )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("OK: batching reduces verification work and does not regress throughput")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
