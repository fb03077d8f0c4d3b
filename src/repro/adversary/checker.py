"""History-based safety checking, independent of protocol assertions.

The :class:`SafetyChecker` judges a run from its *observable record* —
the committed history each replica reports, the operations each replica
executed, and the replies clients actually received — rather than from
any invariant the protocol code asserts about itself.  A protocol that
lies to itself cannot lie to the checker: the rules below are exactly
the properties state-machine replication promises its clients.

Checked properties:

* **agreement** — no two replicas ever commit different blocks at the
  same height (``conflicting-commit``);
* **prefix consistency** — each replica's own history is a dense,
  parent-linked chain: heights ``1, 2, 3, ...`` with each block
  extending the previous digest (``broken-chain``);
* **exactly-once execution** — no replica executes the same client
  operation twice (``duplicate-execution``);
* **reply linearizability** — clients can never assemble two
  contradictory reply certificates for one operation: no ``f + 1``
  replicas report result digest *A* while another ``f + 1`` report *B*
  (``conflicting-reply-certificates``).  With at most ``f`` liars this
  can only happen if the replicated state machine itself forked;
* **progress** (opt-in per scenario) — the cluster keeps committing;
  a run that commits nothing, or goes silent for long enough that every
  correct protocol would have rotated past the faulty leaders, is a
  wedge (``progress-stall``).

The checker never raises: it returns a :class:`SafetyReport` carrying
structured violations (with evidence) plus *observations* — byzantine
behaviour the online auditor witnessed (equivocation, reply forgery)
that a correct protocol is expected to tolerate, reported for forensics
but never counted as a violation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.obs.audit import SEV_SAFETY

HistoryEntry = tuple[int, bytes, bytes | None]
"""(height, digest, parent_digest) — one committed block in one history."""


@dataclass
class SafetyReport:
    """The checker's verdict on one run."""

    violations: list[dict[str, Any]] = field(default_factory=list)
    observations: list[dict[str, Any]] = field(default_factory=list)
    checks_run: list[str] = field(default_factory=list)
    progress: dict[str, Any] | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> list[str]:
        return sorted({v["kind"] for v in self.violations})

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "checks_run": list(self.checks_run),
            "violations": list(self.violations),
            "observations": list(self.observations),
            "progress": self.progress,
        }


def _violation(kind: str, detail: str, **evidence: Any) -> dict[str, Any]:
    return {"kind": kind, "severity": "safety", "detail": detail, "evidence": evidence}


class SafetyChecker:
    """Judge histories, executions, replies and progress for one cluster.

    ``num_replicas`` is the voting membership; ``f`` defaults to the
    paper's ``(n - 1) // 3``.  Learner histories may be included in the
    agreement/prefix checks — a learner committing a block no voter
    committed is every bit as much a safety violation.
    """

    def __init__(self, num_replicas: int, f: int | None = None) -> None:
        self.num_replicas = num_replicas
        self.f = (num_replicas - 1) // 3 if f is None else f

    # ----------------------------------------------------------- histories

    def check_agreement(
        self, histories: dict[int, list[HistoryEntry]]
    ) -> list[dict[str, Any]]:
        """No two replicas commit different digests at the same height."""
        violations: list[dict[str, Any]] = []
        by_height: dict[int, dict[bytes, list[int]]] = {}
        for replica, history in histories.items():
            for height, digest, _parent in history:
                by_height.setdefault(height, {}).setdefault(digest, []).append(replica)
        for height in sorted(by_height):
            committed = by_height[height]
            if len(committed) > 1:
                views = {
                    digest.hex()[:12]: sorted(replicas)
                    for digest, replicas in committed.items()
                }
                violations.append(
                    _violation(
                        "conflicting-commit",
                        f"height {height} committed with {len(committed)} distinct "
                        f"digests across replicas",
                        height=height,
                        digests=views,
                    )
                )
        return violations

    def check_prefix(
        self, histories: dict[int, list[HistoryEntry]]
    ) -> list[dict[str, Any]]:
        """Each history is a dense parent-linked chain from height 1."""
        violations: list[dict[str, Any]] = []
        for replica in sorted(histories):
            history = histories[replica]
            prev_digest: bytes | None = None
            for index, (height, digest, parent) in enumerate(history):
                expected_height = index + 1
                if height != expected_height:
                    violations.append(
                        _violation(
                            "broken-chain",
                            f"replica {replica} committed height {height} at "
                            f"position {index} (expected {expected_height})",
                            replica=replica,
                            height=height,
                            position=index,
                        )
                    )
                    break
                if index > 0 and parent is not None and parent != prev_digest:
                    violations.append(
                        _violation(
                            "broken-chain",
                            f"replica {replica}'s block at height {height} does "
                            f"not extend its own previous commit",
                            replica=replica,
                            height=height,
                            parent=parent.hex()[:12],
                            previous=(prev_digest or b"").hex()[:12],
                        )
                    )
                    break
                prev_digest = digest
        return violations

    # ---------------------------------------------------------- executions

    def check_exactly_once(
        self, executions: dict[int, list[tuple[int, int]]]
    ) -> list[dict[str, Any]]:
        """No replica executes one (client, sequence) operation twice."""
        violations: list[dict[str, Any]] = []
        for replica in sorted(executions):
            counts = Counter(executions[replica])
            duplicates = {key: c for key, c in counts.items() if c > 1}
            if duplicates:
                sample = sorted(duplicates)[:5]
                violations.append(
                    _violation(
                        "duplicate-execution",
                        f"replica {replica} executed {len(duplicates)} operations "
                        f"more than once",
                        replica=replica,
                        sample=[list(key) for key in sample],
                    )
                )
        return violations

    # -------------------------------------------------------------- replies

    def check_replies(
        self, replies: list[tuple[int, int, int, bytes]]
    ) -> list[dict[str, Any]]:
        """No operation admits two contradictory reply certificates.

        ``replies`` holds ``(client, sequence, replica, result_digest)``
        records.  A violation needs *two* certifiable digests — each
        vouched for by at least ``f + 1`` distinct replicas — because
        with at most ``f`` faulty replicas a single certificate is still
        guaranteed to contain one honest witness.
        """
        violations: list[dict[str, Any]] = []
        by_op: dict[tuple[int, int], dict[bytes, set[int]]] = {}
        for client, sequence, replica, digest in replies:
            by_op.setdefault((client, sequence), {}).setdefault(digest, set()).add(
                replica
            )
        certificate = self.f + 1
        for (client, sequence), reported in sorted(by_op.items()):
            certifiable = [
                digest
                for digest, replicas in reported.items()
                if len(replicas) >= certificate
            ]
            if len(certifiable) > 1:
                violations.append(
                    _violation(
                        "conflicting-reply-certificates",
                        f"operation ({client}, {sequence}) has "
                        f"{len(certifiable)} certifiable result digests",
                        client=client,
                        sequence=sequence,
                        digests={
                            digest.hex()[:12]: sorted(reported[digest])
                            for digest in certifiable
                        },
                    )
                )
        return violations

    # ------------------------------------------------------------- progress

    def check_progress(
        self,
        committed_heights: dict[int, int],
        last_commit_time: float,
        end_time: float,
        stall_after: float,
    ) -> tuple[list[dict[str, Any]], dict[str, Any]]:
        """The cluster must keep committing (opt-in, scenario-gated)."""
        best = max(committed_heights.values(), default=0)
        silent_for = end_time - last_commit_time
        stalled = best == 0 or silent_for > stall_after
        summary = {
            "max_committed_height": best,
            "last_commit_time": last_commit_time,
            "silent_for": silent_for,
            "stall_after": stall_after,
            "stalled": stalled,
        }
        if not stalled:
            return [], summary
        detail = (
            "no block ever committed"
            if best == 0
            else f"no commit for the final {silent_for:.2f}s "
            f"(threshold {stall_after:.2f}s, best height {best})"
        )
        return (
            [
                _violation(
                    "progress-stall",
                    detail,
                    committed_heights={str(r): h for r, h in sorted(committed_heights.items())},
                    last_commit_time=last_commit_time,
                )
            ],
            summary,
        )

    # ------------------------------------------------------------- plumbing

    def check_history(
        self,
        histories: dict[int, list[HistoryEntry]],
        executions: dict[int, list[tuple[int, int]]] | None = None,
        replies: list[tuple[int, int, int, bytes]] | None = None,
    ) -> SafetyReport:
        """Run every history-level rule over plain data (no cluster)."""
        report = SafetyReport()
        report.checks_run = ["agreement", "prefix"]
        report.violations.extend(self.check_agreement(histories))
        report.violations.extend(self.check_prefix(histories))
        if executions is not None:
            report.checks_run.append("exactly-once")
            report.violations.extend(self.check_exactly_once(executions))
        if replies is not None:
            report.checks_run.append("replies")
            report.violations.extend(self.check_replies(replies))
        return report

    def check_cluster(
        self,
        cluster: Any,
        observability: Any = None,
        check_progress: bool = False,
        end_time: float | None = None,
        stall_after: float | None = None,
    ) -> SafetyReport:
        """Judge a finished DES run: histories + auditor + progress.

        Histories and executions are read straight from each replica's
        ledger (learners included).  The operations of blocks every
        replica is well past may have been released; each replica's walk
        then starts from the ledger's
        :class:`~repro.consensus.ledger.ExecutionRecord` of them — their
        keys and distinct weight, folded from the blocks themselves — and
        walks the retained blocks after it.  If ``observability`` carries
        an online auditor, its safety-severity findings merge into the
        violations (with their flight-recorder evidence windows) and its
        byzantine/protocol findings become observations.
        """
        histories: dict[int, list[HistoryEntry]] = {}
        executions: dict[int, list[tuple[int, int]]] = {}
        expected_ops: dict[int, int] = {}
        for replica in cluster.replicas:
            entries: list[HistoryEntry] = []
            executed: list[tuple[int, int]] = []
            seen: set[tuple[int, int]] = set()
            released = replica.ledger.released
            weight = released.weight
            for position, digest in enumerate(replica.ledger.committed_digests()):
                block = replica.tree.get(digest)
                if block is None or block.height == 0:
                    continue  # genesis is committed by fiat, not by the run
                entries.append((block.height, digest, replica.tree.parent_digest(block)))
                if position < released.length:
                    continue  # executed as part of the record
                for op in block.operations:
                    key = op.key()
                    if key in seen or key in released.keys:
                        # A view change re-proposed an in-flight op and the
                        # abandoned block later committed too; the ledger
                        # executes the key once, so this is not a duplicate
                        # *execution* — the counter check below holds the
                        # ledger to exactly that promise.
                        continue
                    seen.add(key)
                    executed.append(key)
                    weight += op.weight
            histories[replica.id] = entries
            executions[replica.id] = executed
            expected_ops[replica.id] = weight

        report = self.check_history(histories, executions=executions)
        report.checks_run.append("execution-effects")
        for replica in cluster.replicas:
            applied = replica.ledger.ops_committed
            expected = expected_ops[replica.id]
            if applied != expected:
                kind = (
                    "duplicate-execution" if applied > expected else "lost-execution"
                )
                report.violations.append(
                    _violation(
                        kind,
                        f"replica {replica.id} applied {applied} op-weight but its "
                        f"committed history holds {expected} distinct op-weight",
                        replica=replica.id,
                        applied=applied,
                        expected=expected,
                    )
                )

        auditor = getattr(observability, "auditor", None) if observability else None
        if auditor is not None:
            report.checks_run.append("online-audit")
            for violation in auditor.violations:
                entry = violation.to_dict()
                if violation.severity == SEV_SAFETY:
                    report.violations.append(entry)
                else:
                    report.observations.append(entry)

        if check_progress:
            report.checks_run.append("progress")
            base_timeout = cluster.experiment.cluster.base_timeout
            threshold = (
                max(6.0 * base_timeout, 2.0) if stall_after is None else stall_after
            )
            end = cluster.sim.now if end_time is None else end_time
            committed = {r.id: r.ledger.committed_height for r in cluster.replicas}
            last = max(
                (when for _r, _h, _d, when in cluster.auditor.commits), default=0.0
            )
            progress_violations, summary = self.check_progress(
                committed, last, end, threshold
            )
            report.violations.extend(progress_violations)
            report.progress = summary
        return report
