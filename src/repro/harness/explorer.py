"""Schedule exploration: adversarial interleavings for safety checking.

The DES delivers messages in network order; real adversaries control
scheduling.  :class:`ScheduleExplorer` puts the adversary in charge: it
holds every in-flight message in a pending pool and, step by step, lets a
seeded RNG decide whether to deliver an arbitrary pending message,
*drop* it, or fire some replica's view timer.  Replicas run the genuine
protocol code over :class:`~repro.consensus.context.LocalContext`.

Every replica's commits stream into one
:class:`~repro.obs.audit.CommitAuditor` through its commit listeners, so
a schedule keeps **agreement** iff the auditor records no finding: no
conflicting commits at a height, and no replica committing a block twice
or out of height order.  Crashed replicas' commits count too — a
crash-stop replica was correct until it stopped.  Liveness is
deliberately not asserted — an adversarial schedule may starve the
system, which is allowed under partial synchrony.

This is the heavy cousin of the hypothesis drop-bit tests: thousands of
schedules with reordering (not just loss), crash injection and timeout
interleaving.  `tests/test_explorer.py` runs a bounded batch per
protocol; `python -m repro explore` runs bigger hunts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.common.config import ClusterConfig
from repro.common.errors import SafetyViolation
from repro.consensus.context import LocalContext
from repro.consensus.crypto_service import CryptoService, NullCryptoService
from repro.consensus.messages import ClientRequest
from repro.consensus.replica_base import TIMER_VIEW, ReplicaBase
from repro.obs.audit import CommitAuditor


@dataclass
class ScheduleResult:
    """Outcome of one explored schedule."""

    seed: int
    steps: int
    delivered: int
    dropped: int
    timeouts_fired: int
    max_view: int
    committed_heights: list[int] = field(default_factory=list)
    agreement: bool = True


class ScheduleExplorer:
    """Run one adversarial schedule against fresh replicas.

    :attr:`auditor` holds every commit the schedule produced and the
    findings that decide :attr:`ScheduleResult.agreement`.
    """

    def __init__(
        self,
        replica_cls: type[ReplicaBase],
        seed: int,
        n: int = 4,
        ops: int = 6,
        max_steps: int = 600,
        drop_probability: float = 0.15,
        timeout_probability: float = 0.05,
        crash_probability: float = 0.3,
    ) -> None:
        self.rng = random.Random(seed)
        self.seed = seed
        self.config = ClusterConfig.for_f((n - 1) // 3, batch_size=4)
        crypto: CryptoService = NullCryptoService(n, self.config.quorum)
        self.contexts = [LocalContext(i, n) for i in range(n)]
        self.replicas = [
            replica_cls(
                replica_id=i, config=self.config, ctx=self.contexts[i], crypto=crypto
            )
            for i in range(n)
        ]
        self.auditor = CommitAuditor()
        for i, replica in enumerate(self.replicas):
            replica.commit_listeners.append(self.auditor.listener_for(i))
        self.ops = ops
        self.max_steps = max_steps
        self.drop_probability = drop_probability
        self.timeout_probability = timeout_probability
        self.crash_probability = crash_probability
        self.crashed: set[int] = set()
        self.pending: list[tuple[int, int, Any]] = []

    def _collect_outboxes(self) -> None:
        for src, ctx in enumerate(self.contexts):
            for dst, payload in ctx.drain():
                if src not in self.crashed and dst not in self.crashed:
                    self.pending.append((src, dst, payload))

    def run(self) -> ScheduleResult:
        rng = self.rng
        for replica in self.replicas:
            replica.start()
        self._collect_outboxes()
        # Client load lands at every replica (rotation-safe intake).
        for seq in range(self.ops):
            request = ClientRequest(client_id=99, sequence=seq, payload=b"op%d" % seq)
            for replica in self.replicas:
                replica.forward_requests = False
                replica.on_message(-1, request)
        self._collect_outboxes()

        # The adversary may crash one replica at a scheduled step.
        crash_step = (
            rng.randrange(self.max_steps) if rng.random() < self.crash_probability else None
        )
        crash_victim = rng.randrange(len(self.replicas))

        result = ScheduleResult(seed=self.seed, steps=0, delivered=0, dropped=0, timeouts_fired=0, max_view=0)
        for step in range(self.max_steps):
            result.steps = step + 1
            if step == crash_step and len(self.crashed) < self.config.f:
                self.crashed.add(crash_victim)
                self.pending = [
                    (s, d, p) for s, d, p in self.pending
                    if s != crash_victim and d != crash_victim
                ]
            # Occasionally fire a random armed view timer.
            if rng.random() < self.timeout_probability:
                candidates = [
                    i for i, ctx in enumerate(self.contexts)
                    if i not in self.crashed and TIMER_VIEW in ctx.timers
                ]
                if candidates:
                    victim = rng.choice(candidates)
                    self.contexts[victim].fire_timer(TIMER_VIEW)
                    result.timeouts_fired += 1
                    self._collect_outboxes()
            if not self.pending:
                break
            index = rng.randrange(len(self.pending))
            src, dst, payload = self.pending.pop(index)
            if rng.random() < self.drop_probability:
                result.dropped += 1
                continue
            self.replicas[dst].on_message(src, payload)
            result.delivered += 1
            self._collect_outboxes()

        result.max_view = max(r.cview for r in self.replicas)
        result.committed_heights = [
            r.ledger.committed_height for r in self.replicas
        ]
        result.agreement = not self.auditor.findings
        return result


def explore(
    replica_cls: type[ReplicaBase],
    schedules: int,
    base_seed: int = 0,
    **kwargs: Any,
) -> list[ScheduleResult]:
    """Run many schedules; raise :class:`SafetyViolation` on disagreement."""
    results = []
    for offset in range(schedules):
        explorer = ScheduleExplorer(replica_cls, seed=base_seed + offset, **kwargs)
        result = explorer.run()
        if not result.agreement:
            raise SafetyViolation(
                f"schedule seed={result.seed}: {explorer.auditor.findings[0]['detail']} "
                f"(committed heights {result.committed_heights})"
            )
        results.append(result)
    return results
