"""Experiment harness: DES clusters, workloads, metrics, scenarios.

This package turns the protocol library into the paper's evaluation:

* :mod:`repro.harness.des_runtime` — wire replicas into the discrete-event
  simulator (network, CPU model, timers, crash injection);
* :mod:`repro.harness.workload` — closed-loop (Section VI) and open-loop
  (Poisson) client populations, including no-op workloads;
* :mod:`repro.harness.metrics` — latency recorders, throughput windows;
* :mod:`repro.harness.scenarios` — canned experiments, one per figure;
* :mod:`repro.harness.analytical` — the Table I complexity model;
* :mod:`repro.harness.explorer` — adversarial message-interleaving hunts;
* :mod:`repro.harness.timeline` — structured protocol event traces;
* :mod:`repro.harness.results` — result persistence and regression diffs;
* :mod:`repro.harness.report` — paper-vs-measured table formatting.

Declared crash, partition and Byzantine injection, and the
random-adversity fuzzer, live in :mod:`repro.adversary`.
"""

from repro.harness.des_runtime import DESCluster
from repro.harness.explorer import ScheduleExplorer, explore
from repro.harness.metrics import LatencyRecorder, ThroughputMeter
from repro.harness.results import ResultStore
from repro.harness.timeline import Timeline
from repro.harness.workload import ClosedLoopClients, OpenLoopClients
from repro.obs.audit import CommitAuditor

__all__ = [
    "ClosedLoopClients",
    "CommitAuditor",
    "DESCluster",
    "LatencyRecorder",
    "OpenLoopClients",
    "ResultStore",
    "ScheduleExplorer",
    "ThroughputMeter",
    "Timeline",
    "explore",
]
