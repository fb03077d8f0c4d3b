"""Audited DES runs: flight recorder + online auditor + observatory.

This is the harness behind ``repro audit``.  One :func:`audited_run`
boots a DES cluster with the full forensic observability stack armed —
per-replica :class:`~repro.obs.flight.FlightRecorder` rings, the
streaming :class:`~repro.obs.audit.OnlineAuditor`, and a
:class:`~repro.obs.complexity.ComplexityObservatory` network tap — runs
a closed-loop workload (optionally with one Byzantine replica), and
returns an :class:`AuditReport`: the auditor's verdict, the cost
attribution, and the path of the black-box dump when one was written.

:func:`complexity_sweep` is the empirical Table 1 instrument: it runs
the steady-state and leader-crash cost procedures of
:mod:`repro.harness.scenarios` at several cluster sizes
(n ∈ {4, 16, 32, 64, 100} by default), reads per-view wire bytes and
authenticator counts from the observatory, and fits log-log cost-vs-n
slopes — the paper's O(n) happy-path / O(n) view-change linearity claims
become assertions that every fitted slope stays below ``max_slope``.

Dump determinism: the DES is deterministic and the black-box codec
stores timestamps as integer microseconds, so re-running the same
``(protocol, n, seed, byzantine)`` writes a byte-identical dump.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from repro.adversary.behaviors import AdversaryConfig, BehaviorSpec
from repro.adversary.campaign import build_run, run_and_judge
from repro.adversary.scenarios import get_scenario
from repro.client.config import ClientConfig
from repro.common.config import ClusterConfig, ExperimentConfig
from repro.common.errors import ConfigError
from repro.harness.scenarios import _leader_crash_cost, _observatory, _steady_state_cost
from repro.obs.complexity import SlopeFit

#: Cluster sizes the wide-n sweep measures (the observatory's x axis).
SWEEP_SIZES = (4, 16, 32, 64, 100)

#: Byzantine strategies ``audited_run`` can inject, by CLI name.
BYZANTINE_MODES = {
    "none": AdversaryConfig(),
    "equivocator": get_scenario("equivocating-leader").adversary,
    "reply-forger": AdversaryConfig(behaviors=(BehaviorSpec.make("reply-forge", 1),)),
}

#: Log-log slope bound below which a cost curve counts as linear.
DEFAULT_MAX_SLOPE = 1.3


# ---------------------------------------------------------------------------
# One audited run


@dataclass
class AuditReport:
    """Everything one audited run produced, JSON-able via :meth:`to_dict`."""

    protocol: str
    n: int
    seed: int
    sim_time: float
    byzantine: str
    committed_height: int
    stalled: bool
    audit: dict[str, Any]
    complexity: dict[str, Any]
    events_recorded: dict[int, int] = field(default_factory=dict)
    blackbox_path: str | None = None

    @property
    def ok(self) -> bool:
        """No violations and the cluster made progress."""
        return bool(self.audit.get("ok", True)) and not self.stalled

    @property
    def violations(self) -> list[dict[str, Any]]:
        return list(self.audit.get("violations", []))

    def to_dict(self) -> dict[str, Any]:
        return {
            "protocol": self.protocol,
            "n": self.n,
            "seed": self.seed,
            "sim_time": self.sim_time,
            "byzantine": self.byzantine,
            "committed_height": self.committed_height,
            "stalled": self.stalled,
            "ok": self.ok,
            "audit": self.audit,
            "complexity": self.complexity,
            "events_recorded": {str(k): v for k, v in sorted(self.events_recorded.items())},
            "blackbox_path": self.blackbox_path,
        }

    def render(self) -> str:
        """Human-readable verdict + per-phase cost table for the CLI."""
        lines = [
            f"audit: {self.protocol} n={self.n} seed={self.seed} "
            f"byzantine={self.byzantine}",
            f"  committed height {self.committed_height}, "
            f"{self.audit.get('events_audited', 0)} events audited, "
            f"{sum(self.events_recorded.values())} flight events recorded",
        ]
        by_kind = self.audit.get("violations_by_kind", {})
        if by_kind:
            kinds = ", ".join(f"{kind} x{count}" for kind, count in sorted(by_kind.items()))
            lines.append(f"  VIOLATIONS: {kinds}")
            shown = self.violations[:8]
            for violation in shown:
                lines.append(
                    f"    [{violation['severity']}] {violation['kind']} "
                    f"t={violation['time']:.3f}: {violation['detail']}"
                )
            hidden = len(self.violations) - len(shown)
            if hidden > 0:
                lines.append(f"    ... and {hidden} more")
        else:
            lines.append("  no invariant violations")
        if self.stalled:
            lines.append("  LIVENESS: the cluster stalled (no recent commit)")
        if self.blackbox_path is not None:
            lines.append(f"  black box: {self.blackbox_path}")
        per_phase = self.complexity.get("per_phase", {})
        if per_phase:
            lines.append("  wire cost by phase (messages / bytes / authenticators):")
            for phase, cell in per_phase.items():
                lines.append(
                    f"    {phase:<12} {cell['messages']:>8} {cell['bytes']:>12,} "
                    f"{cell['authenticators']:>8}"
                )
        return "\n".join(lines)


def audited_run(
    protocol: str = "marlin",
    n: int = 4,
    sim_time: float = 10.0,
    warmup: float = 2.0,
    seed: int = 7,
    clients: int = 64,
    byzantine: str = "none",
    dump: str = "on-violation",
    dump_dir: str | None = None,
    crypto: str = "null",
    flight_capacity: int = 4096,
    base_timeout: float = 0.5,
) -> AuditReport:
    """Run one fully audited DES experiment and return its report.

    ``byzantine`` injects one faulty replica: ``"equivocator"`` makes the
    view-1 leader (replica 0) propose conflicting siblings, and
    ``"reply-forger"`` makes replica 1 lie to clients about execution
    results (this forces the real client protocol, since only it carries
    per-operation result digests on the wire).  The run takes the
    campaign's path (:func:`~repro.adversary.campaign.build_run`, then
    :func:`~repro.adversary.campaign.run_and_judge`), and ``stalled`` is
    the :class:`~repro.adversary.checker.SafetyChecker`'s progress verdict.
    ``dump`` is one of ``"never"``, ``"on-violation"`` (also on stall) or
    ``"always"``; the black box lands in ``dump_dir`` (default: the
    working directory).
    """
    if byzantine not in BYZANTINE_MODES:
        raise ConfigError(
            f"byzantine must be one of {tuple(BYZANTINE_MODES)}, got {byzantine!r}"
        )
    if dump not in ("never", "on-violation", "always"):
        raise ConfigError(f"dump must be never/on-violation/always, got {dump!r}")
    experiment = ExperimentConfig(
        cluster=ClusterConfig(num_replicas=n, batch_size=400, base_timeout=base_timeout),
        seed=seed,
    )
    client_config = ClientConfig(mode="real") if byzantine == "reply-forger" else None
    cluster = build_run(
        BYZANTINE_MODES[byzantine],
        protocol,
        experiment,
        crypto,
        clients=clients,
        warmup=warmup,
        client_config=client_config,
        flight_capacity=flight_capacity,
    )
    observatory = _observatory(cluster)
    cluster.sim.schedule(warmup, observatory.arm)
    progress = run_and_judge(cluster, sim_time, check_progress=True).progress
    committed = progress["max_committed_height"]
    stalled = progress["stalled"]
    observability = cluster.observability
    report = AuditReport(
        protocol=protocol,
        n=n,
        seed=seed,
        sim_time=sim_time,
        byzantine=byzantine,
        committed_height=committed,
        stalled=stalled,
        audit=observability.audit_report(),
        complexity=observatory.snapshot(),
        events_recorded={
            rid: rec.total_recorded for rid, rec in observability.recorders.items()
        },
    )
    should_dump = dump == "always" or (
        dump == "on-violation" and (not report.audit["ok"] or stalled)
    )
    if should_dump:
        directory = dump_dir or "."
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(
            directory, f"blackbox-{protocol}-n{n}-seed{seed}-{byzantine}.bin"
        )
        observability.write_blackbox(
            path,
            meta={
                "protocol": protocol,
                "n": n,
                "seed": seed,
                "byzantine": byzantine,
                "sim_time_us": round(sim_time * 1_000_000),
                "committed_height": committed,
                "ok": report.audit["ok"] and not stalled,
            },
        )
        report.blackbox_path = path
    return report


# ---------------------------------------------------------------------------
# Wide-n complexity sweep (the empirical Table 1)


@dataclass
class SweepPoint:
    """Observatory readout of one (protocol, n) measurement."""

    n: int
    rounds: int
    messages: float
    bytes: float
    authenticators: float


@dataclass
class ComplexitySweep:
    """Cost-vs-n curves plus the fitted linearity verdicts."""

    protocol: str
    sizes: list[int]
    happy: list[SweepPoint]
    view_change: list[SweepPoint]
    fits: list[SlopeFit]

    @property
    def linear(self) -> bool:
        return all(fit.linear for fit in self.fits)

    @property
    def max_slope(self) -> float:
        slopes = [fit.slope for fit in self.fits if fit.slope == fit.slope]
        return max(slopes) if slopes else float("nan")

    def to_dict(self) -> dict[str, Any]:
        def rows(points: list[SweepPoint]) -> list[dict[str, Any]]:
            return [
                {
                    "n": p.n,
                    "rounds": p.rounds,
                    "messages": p.messages,
                    "bytes": p.bytes,
                    "authenticators": p.authenticators,
                }
                for p in points
            ]

        return {
            "protocol": self.protocol,
            "sizes": self.sizes,
            "happy_path_per_view": rows(self.happy),
            "view_change": rows(self.view_change),
            "fits": [
                {
                    "metric": fit.metric,
                    "slope": fit.slope,
                    "max_slope": fit.max_slope,
                    "linear": fit.linear,
                    "points": [[n, cost] for n, cost in fit.points],
                }
                for fit in self.fits
            ],
            "linear": self.linear,
        }

    def render(self) -> str:
        """The empirical Table 1, formatted for the CLI."""
        lines = [
            f"empirical linearity — {self.protocol}, n ∈ {self.sizes}",
            "  happy path, per view (messages / bytes / authenticators):",
        ]
        for point in self.happy:
            lines.append(
                f"    n={point.n:<4} {point.messages:>8.1f} {point.bytes:>12,.0f} "
                f"{point.authenticators:>8.1f}   ({point.rounds} rounds)"
            )
        lines.append("  view change, per leader crash:")
        for point in self.view_change:
            lines.append(
                f"    n={point.n:<4} {point.messages:>8.1f} {point.bytes:>12,.0f} "
                f"{point.authenticators:>8.1f}"
            )
        for fit in self.fits:
            lines.append("  " + fit.render())
        verdict = "linear ✓" if self.linear else "NOT linear ✗"
        lines.append(f"  verdict: {verdict} (log-log slope bound {self.fits[0].max_slope})")
        return "\n".join(lines)


def _happy_point(protocol: str, n: int, seed: int) -> SweepPoint:
    """Steady-state happy-path cost per consensus round at size ``n``.

    Stable leader, light closed-loop load: each committed block is one
    happy-path view's worth of traffic, so cost-per-round is the
    per-view cost the paper's Table 1 bounds.
    """
    config = ClusterConfig(num_replicas=n, batch_size=400, base_timeout=60.0)
    blocks, consensus = _steady_state_cost(
        protocol,
        ExperimentConfig(cluster=config, seed=seed),
        clients=64,
        token_weight=1,
        warmup=2.0,
        sim_time=6.0,
    )
    rounds = max(blocks, 1)
    return SweepPoint(
        n=n,
        rounds=blocks,
        messages=consensus.messages / rounds,
        bytes=consensus.bytes / rounds,
        authenticators=consensus.authenticators / rounds,
    )


def _view_change_point(protocol: str, n: int, seed: int) -> SweepPoint:
    """View-change-only cost of one leader crash at size ``n``."""
    config = ClusterConfig(num_replicas=n, batch_size=400, base_timeout=0.5)
    _, vc, _ = _leader_crash_cost(protocol, ExperimentConfig(cluster=config, seed=seed))
    return SweepPoint(
        n=n,
        rounds=1,
        messages=float(vc.messages),
        bytes=float(vc.bytes),
        authenticators=float(vc.authenticators),
    )


def complexity_sweep(
    protocol: str = "marlin",
    sizes: tuple[int, ...] | list[int] = SWEEP_SIZES,
    seed: int = 11,
    max_slope: float = DEFAULT_MAX_SLOPE,
) -> ComplexitySweep:
    """Fit per-view cost-vs-n slopes across DES runs (empirical Table 1).

    Four curves are fitted: happy-path bytes and authenticators per view,
    and view-change bytes and authenticators per leader crash.  For
    Marlin the paper claims all four are O(n); a fitted log-log slope
    below ``max_slope`` confirms it empirically (quadratic growth would
    fit ≈ 2).
    """
    sizes = sorted(set(int(s) for s in sizes))
    if any(s < 4 for s in sizes):
        raise ConfigError(f"cluster sizes must be >= 4, got {sizes}")
    happy = [_happy_point(protocol, n, seed) for n in sizes]
    view_change = [_view_change_point(protocol, n, seed) for n in sizes]
    fits = [
        SlopeFit(
            "happy-path bytes/view",
            [(p.n, p.bytes) for p in happy],
            max_slope,
        ),
        SlopeFit(
            "happy-path authenticators/view",
            [(p.n, p.authenticators) for p in happy],
            max_slope,
        ),
        SlopeFit(
            "view-change bytes",
            [(p.n, p.bytes) for p in view_change],
            max_slope,
        ),
        SlopeFit(
            "view-change authenticators",
            [(p.n, p.authenticators) for p in view_change],
            max_slope,
        ),
    ]
    return ComplexitySweep(
        protocol=protocol,
        sizes=sizes,
        happy=happy,
        view_change=view_change,
        fits=fits,
    )
