"""Byzantine adversary subsystem: behaviours, scenarios, checker, campaigns.

This package turns the repository's ad-hoc fault strategies into a
declarative adversary model:

* :mod:`repro.adversary.behaviors` — the one fault library: a registry
  of composable, seed-deterministic Byzantine behaviours, plus crashes
  and partitions, declared through a frozen
  :class:`~repro.adversary.behaviors.AdversaryConfig` and installed onto
  a live DES cluster with
  :func:`~repro.adversary.behaviors.apply_adversary`;
* :mod:`repro.adversary.fuzz` — seeded random crashes and partitions,
  drawn as an ``AdversaryConfig`` per run and judged by the checker;
* :mod:`repro.adversary.scenarios` — a named library of attack scenarios
  (equivocating leaders, gray failures, partitions, churn, and a
  Fast-HotStuff-style forking attack) that plugs straight into
  :class:`repro.api.Scenario`;
* :mod:`repro.adversary.checker` — a history-based safety checker that
  verifies agreement, prefix consistency, exactly-once execution and
  reply linearizability from committed histories and client-observed
  replies, independent of any protocol's own assertions;
* :mod:`repro.adversary.campaign` — the one adversarial run path
  (``build_run``, then ``run_and_judge`` with the checker as judge) that
  campaign cells, fuzz runs and audited runs share, and a campaign runner
  that executes a scenario × protocol × seed grid across worker
  processes and emits a machine-readable verdict matrix (``safe`` /
  ``violation-detected`` / ``violation-missed``).
"""

from repro.adversary.behaviors import (
    AdversaryConfig,
    BehaviorSpec,
    CrashEvent,
    PartitionWindow,
    apply_adversary,
    behavior_kinds,
)
from repro.adversary.campaign import CampaignResult, CellResult, run_campaign
from repro.adversary.checker import SafetyChecker, SafetyReport
from repro.adversary.fuzz import FuzzReport, fuzz_schedule
from repro.adversary.scenarios import (
    ADVERSARY_SCENARIOS,
    AdversaryScenario,
    get_scenario,
    list_scenarios,
)

__all__ = [
    "ADVERSARY_SCENARIOS",
    "AdversaryConfig",
    "AdversaryScenario",
    "BehaviorSpec",
    "CampaignResult",
    "CellResult",
    "CrashEvent",
    "FuzzReport",
    "PartitionWindow",
    "SafetyChecker",
    "SafetyReport",
    "apply_adversary",
    "behavior_kinds",
    "fuzz_schedule",
    "get_scenario",
    "list_scenarios",
    "run_campaign",
]
