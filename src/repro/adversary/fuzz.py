"""Seeded random adversity: crashes, partitions and heals drawn per run.

:func:`fuzz_schedule` draws up to ``f`` crashes and up to three
transient partitions from one seeded RNG, declares them as an
:class:`~repro.adversary.behaviors.AdversaryConfig` and runs it on the
path campaign cells take (:func:`~repro.adversary.campaign.build_run`).
The :class:`~repro.adversary.checker.SafetyChecker` judges the finished
run and its verdict is ``FuzzReport.safety_ok``; progress is not judged
here — the :class:`FuzzReport` carries what happened so callers decide
which liveness expectations the drawn adversity permits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.adversary.behaviors import AdversaryConfig, CrashEvent, PartitionWindow
from repro.adversary.campaign import build_run, run_and_judge
from repro.common.config import ClusterConfig, ExperimentConfig


@dataclass
class FuzzReport:
    """Outcome of one fuzzed run."""

    seed: int
    protocol: str
    events: list[str] = field(default_factory=list)
    committed_heights: list[int] = field(default_factory=list)
    max_view: int = 0
    ops_committed: int = 0
    safety_ok: bool = False


def _draw_adversary(rng: random.Random, n: int, f: int, sim_time: float) -> AdversaryConfig:
    crashes = tuple(
        CrashEvent(replica=victim, when=rng.uniform(1.0, sim_time / 2))
        for victim in rng.sample(range(n), k=rng.randint(0, f))
    )
    partitions = []
    for _ in range(rng.randint(0, 3)):
        start = rng.uniform(1.0, sim_time * 0.6)
        duration = rng.uniform(0.5, 3.0)
        group = rng.sample(range(n), k=rng.randint(1, max(1, f)))
        partitions.append(PartitionWindow(start=start, duration=duration, group=tuple(group)))
    return AdversaryConfig(partitions=tuple(partitions), crashes=crashes)


def fuzz_schedule(
    seed: int,
    protocol: str = "marlin",
    f: int = 1,
    sim_time: float = 30.0,
    crypto_mode: str = "null",
) -> FuzzReport:
    """Run one randomly-adversarial schedule and judge its safety.

    The adversary (seeded RNG) may crash up to ``f`` replicas and
    partition and heal the network; ``safety_ok`` is the
    :class:`~repro.adversary.checker.SafetyChecker`'s verdict on the
    finished run, progress excluded.
    """
    experiment = ExperimentConfig(
        cluster=ClusterConfig.for_f(f, batch_size=500, base_timeout=0.5),
        seed=seed,
    )
    adversary = _draw_adversary(
        random.Random(seed), experiment.cluster.num_replicas, f, sim_time
    )
    cluster = build_run(adversary, protocol, experiment, crypto_mode)
    safety = run_and_judge(cluster, sim_time)
    return FuzzReport(
        seed=seed,
        protocol=protocol,
        events=[f"crash r{c.replica} @ {c.when:.2f}s" for c in adversary.crashes]
        + [
            f"partition {list(w.group)} for {w.duration:.2f}s @ {w.start:.2f}s"
            for w in adversary.partitions
        ],
        committed_heights=cluster.committed_heights(),
        max_view=max(r.cview for r in cluster.replicas),
        ops_committed=cluster.total_ops_committed(),
        safety_ok=safety.ok,
    )
