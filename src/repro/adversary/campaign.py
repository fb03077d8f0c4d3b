"""Adversarial campaign runner: scenario × protocol × seed grids.

Every adversarial DES run (campaign cells, fuzz runs and audited runs)
is built by :func:`build_run` and judged by :func:`run_and_judge`, with
the :class:`~repro.adversary.checker.SafetyChecker` as its one judge.

A campaign runs every cell of a grid — one adversary scenario against
one protocol under one seed — on that path and reduces the grid to a
machine-readable verdict matrix:

* ``safe`` — no violation found, none expected;
* ``violation-detected`` — the scenario broke the protocol it was
  supposed to break, with evidence;
* ``violation-missed`` — the scenario should have broken this protocol
  but the checker saw nothing (a regression in the attack or checker);
* ``unexpected-violation`` — a protocol believed safe was flagged (a
  false positive, or a real bug — either way a campaign failure).

Cells fan out across worker processes through the harness's
:class:`~repro.harness.parallel.SweepExecutor` (``kind="adversary_cell"``
tasks), so campaigns share its result cache and its byte-identity
guarantee: the verdict matrix is identical regardless of ``jobs``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from repro.adversary.behaviors import AdversaryConfig, apply_adversary
from repro.adversary.checker import SafetyChecker, SafetyReport
from repro.common.config import ClusterConfig, ExperimentConfig, QuorumConfig
from repro.common.encoding import encode

if TYPE_CHECKING:
    from repro.client.config import ClientConfig
    from repro.harness.des_runtime import DESCluster

#: The grid a campaign defaults to: every safe protocol plus the
#: deliberately unsafe two-phase control the forking attack must catch.
DEFAULT_PROTOCOLS = ("marlin", "hotstuff", "fast-hotstuff", "insecure")
DEFAULT_SEEDS = (1, 2)

VERDICT_SAFE = "safe"
VERDICT_DETECTED = "violation-detected"
VERDICT_MISSED = "violation-missed"
VERDICT_UNEXPECTED = "unexpected-violation"


def build_run(
    adversary: AdversaryConfig,
    protocol: str,
    experiment: ExperimentConfig,
    crypto: str,
    clients: int = 24,
    warmup: float = 0.0,
    client_config: ClientConfig | None = None,
    flight_capacity: int = 4096,
) -> DESCluster:
    """A cluster with flight + audit observability and ``adversary`` installed.

    Its closed-loop pool sends to every replica from t = 0.01 s, over the
    real client protocol when ``client_config`` is given (only it carries
    per-operation result digests), else through the hub.  A caller may
    attach further observers before :func:`run_and_judge` starts it
    (``audited_run`` taps the network for its complexity snapshot).
    """
    from repro.harness.des_runtime import DESCluster
    from repro.harness.workload import ClosedLoopClients
    from repro.obs.observer import RunObservability

    observability = RunObservability(
        trace=False, flight=True, audit=True, metrics=False,
        flight_capacity=flight_capacity,
    )
    cluster = DESCluster(
        experiment, protocol=protocol, crypto_mode=crypto, observability=observability
    )
    apply_adversary(cluster, adversary)
    pool = ClosedLoopClients(
        cluster,
        num_clients=clients,
        token_weight=1,
        target="all",
        warmup=warmup,
        mode="hub" if client_config is None else "real",
        client_config=client_config,
    )
    cluster.sim.schedule(0.01, pool.start)
    return cluster


def run_and_judge(
    cluster: DESCluster, sim_time: float, check_progress: bool = False
) -> SafetyReport:
    """Run ``cluster`` until ``sim_time``; the checker's report on the run."""
    cluster.start()
    cluster.run(until=sim_time)
    checker = SafetyChecker(num_replicas=cluster.experiment.cluster.num_replicas)
    return checker.check_cluster(
        cluster, cluster.observability, check_progress=check_progress, end_time=sim_time
    )


def _eval_cell(task: dict[str, Any]) -> dict[str, Any]:
    """Worker entry point: run one campaign cell, return plain data.

    Top-level and import-light so the ``spawn`` pool can pickle it by
    reference.  The cell is one :func:`build_run` of the scenario's
    adversary, judged by :func:`run_and_judge`; it returns the checker's
    full report plus a commit-trace hash for the cross-``jobs``
    byte-identity guarantee.
    """
    from repro.adversary.scenarios import get_scenario

    scenario = get_scenario(task["scenario"])
    protocol = task["protocol"]
    seed = int(task["seed"])
    n = int(task.get("n", 4))
    sim_time = float(task.get("sim_time", 12.0))
    learners = int(task.get("learners", 0))

    if n < scenario.min_replicas:
        raise ValueError(
            f"scenario {scenario.name!r} needs >= {scenario.min_replicas} "
            f"replicas, got {n}"
        )

    experiment = ExperimentConfig(
        cluster=ClusterConfig(
            num_replicas=n,
            batch_size=400,
            base_timeout=0.5,
            quorums=QuorumConfig(learners=learners) if learners else None,
        ),
        seed=seed,
    )
    cluster = build_run(scenario.adversary, protocol, experiment, task.get("crypto", "null"))
    report = run_and_judge(cluster, sim_time, check_progress=scenario.check_progress)
    trace_sha = hashlib.sha256(encode(cluster.commit_trace())).hexdigest()
    return {
        "scenario": scenario.name,
        "protocol": protocol,
        "seed": seed,
        "committed_height": max(
            (r.ledger.committed_height for r in cluster.replicas), default=0
        ),
        "max_view": max((r.cview for r in cluster.replicas), default=0),
        "report": report.to_dict(),
        "trace_sha256": trace_sha,
    }


@dataclass(frozen=True)
class CellResult:
    """One judged grid cell."""

    scenario: str
    protocol: str
    seed: int
    verdict: str
    expected_violation: bool
    violation_kinds: tuple[str, ...]
    committed_height: int
    max_view: int
    observations: int
    trace_sha256: str
    report: dict[str, Any] = field(compare=False)

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "protocol": self.protocol,
            "seed": self.seed,
            "verdict": self.verdict,
            "expected_violation": self.expected_violation,
            "violation_kinds": list(self.violation_kinds),
            "committed_height": self.committed_height,
            "max_view": self.max_view,
            "observations": self.observations,
            "trace_sha256": self.trace_sha256,
        }


@dataclass
class CampaignResult:
    """The verdict matrix for one campaign."""

    cells: list[CellResult]

    @property
    def ok(self) -> bool:
        return not (self.missed() or self.unexpected())

    def missed(self) -> list[CellResult]:
        return [c for c in self.cells if c.verdict == VERDICT_MISSED]

    def unexpected(self) -> list[CellResult]:
        return [c for c in self.cells if c.verdict == VERDICT_UNEXPECTED]

    def detected(self) -> list[CellResult]:
        return [c for c in self.cells if c.verdict == VERDICT_DETECTED]

    def to_dict(self, include_reports: bool = False) -> dict[str, Any]:
        cells = []
        for cell in self.cells:
            entry = cell.to_dict()
            if include_reports:
                entry["report"] = cell.report
            cells.append(entry)
        return {
            "ok": self.ok,
            "cells": cells,
            "summary": {
                "total": len(self.cells),
                "safe": sum(1 for c in self.cells if c.verdict == VERDICT_SAFE),
                "violation-detected": len(self.detected()),
                "violation-missed": len(self.missed()),
                "unexpected-violation": len(self.unexpected()),
            },
        }

    def render(self) -> str:
        """The matrix as a fixed-width table, one row per cell."""
        lines = [
            f"{'scenario':28} {'protocol':14} {'seed':>4}  {'verdict':22} "
            f"{'height':>6} {'view':>4}  evidence"
        ]
        for cell in self.cells:
            kinds = ",".join(cell.violation_kinds) or "-"
            lines.append(
                f"{cell.scenario:28} {cell.protocol:14} {cell.seed:>4}  "
                f"{cell.verdict:22} {cell.committed_height:>6} "
                f"{cell.max_view:>4}  {kinds}"
            )
        status = "OK" if self.ok else "FAILED"
        lines.append(
            f"campaign {status}: {len(self.cells)} cells, "
            f"{len(self.detected())} detected, {len(self.missed())} missed, "
            f"{len(self.unexpected())} unexpected"
        )
        return "\n".join(lines)


def _judge(cell: dict[str, Any], expected: bool) -> CellResult:
    report = cell["report"]
    found = not report["ok"]
    if found:
        verdict = VERDICT_DETECTED if expected else VERDICT_UNEXPECTED
    else:
        verdict = VERDICT_MISSED if expected else VERDICT_SAFE
    kinds = tuple(sorted({v["kind"] for v in report["violations"]}))
    return CellResult(
        scenario=cell["scenario"],
        protocol=cell["protocol"],
        seed=cell["seed"],
        verdict=verdict,
        expected_violation=expected,
        violation_kinds=kinds,
        committed_height=cell["committed_height"],
        max_view=cell["max_view"],
        observations=len(report["observations"]),
        trace_sha256=cell["trace_sha256"],
        report=report,
    )


def run_campaign(
    scenarios: Sequence[str] | None = None,
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    n: int = 4,
    sim_time: float = 12.0,
    crypto: str = "null",
    learners: int = 0,
    jobs: int = 1,
    use_cache: bool = False,
    cache_dir: str | None = None,
) -> CampaignResult:
    """Run the scenario × protocol × seed grid and judge every cell.

    Cells are submitted in grid order (scenario, then protocol, then
    seed) and merged back in submission order, so the resulting matrix
    is deterministic and byte-identical across ``jobs`` settings.
    """
    from repro.adversary.scenarios import ADVERSARY_SCENARIOS, get_scenario
    from repro.harness.parallel import ResultCache, SweepExecutor

    names = list(scenarios) if scenarios is not None else sorted(ADVERSARY_SCENARIOS)
    grid = [(get_scenario(name), protocol, seed)
            for name in names for protocol in protocols for seed in seeds]
    tasks = [
        {
            "kind": "adversary_cell",
            "scenario": scenario.name,
            "protocol": protocol,
            "seed": int(seed),
            "n": n,
            "sim_time": sim_time,
            "crypto": crypto,
            "learners": learners,
        }
        for scenario, protocol, seed in grid
    ]
    cache = ResultCache(cache_dir) if use_cache else None
    with SweepExecutor(jobs=jobs, cache=cache) as executor:
        raw = executor.run_tasks(tasks)
    cells = [
        _judge(value, expected=scenario.expects_violation(protocol))
        for value, (scenario, protocol, _seed) in zip(raw, grid)
    ]
    return CampaignResult(cells=cells)
