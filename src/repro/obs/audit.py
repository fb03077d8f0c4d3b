"""Streaming safety auditing: the commit rules and the online auditor.

:class:`CommitAuditor` is the one streaming implementation of the
paper's Theorem 1 — no two correct replicas commit conflicting blocks —
as three rules over ``(replica, height, digest)`` commit records:

* **conflicting-commit** — two replicas commit different blocks at the
  same height (the safety property; must never fire with ``<= f`` faults);
* **duplicate-commit** / **non-monotone-commit** — a replica commits the
  same block twice, or its committed heights regress or repeat.

It records each finding, shaped like a
:class:`~repro.adversary.checker.SafetyChecker` violation, instead of
raising, so a run that really forks finishes and leaves its evidence;
:meth:`CommitAuditor.check` raises :class:`SafetyViolation` on the first
finding.  Every DES cluster arms one through its commit listeners,
:class:`~repro.harness.explorer.ScheduleExplorer` arms one per schedule,
and :class:`OnlineAuditor` owns one and turns its findings into flags.

:class:`OnlineAuditor` consumes the observer event stream *during* the
run and accumulates structured :class:`Violation` reports — Byzantine
experiments want to observe the violation, not die on it.  Besides the
three commit rules it checks:

* **non-monotone-view** — a replica's current view decreases;
* **equivocation** — more than one block digest enters the prepare phase
  at the same ``(view, height)`` across the cluster (an equivocating
  leader; safe protocols tolerate it, the auditor still reports it);
* **conflicting-qc** / **qc-quorum-short** / **qc-bad-signer** /
  **invalid-qc** — QC validity and quorum membership at formation time;
* **duplicate-execution** — the same ``(client, sequence)`` operation is
  committed twice on one replica (protocol severity: the ledger's
  execution dedup makes re-proposed commits benign; true exactly-once
  is judged by the history checker against execution counters);
* **reply-divergence** — replicas disagree on a committed operation's
  result digest (a :class:`~repro.adversary.behaviors.ReplyForger`).

Each violation embeds the relevant flight-recorder window of every
replica involved, so a report is a self-contained forensic artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Any, Callable

from repro.common.errors import SafetyViolation
from repro.consensus.block import KeySet
from repro.obs.flight import FlightRecorder

#: Severity classes, roughly "how bad is this for the paper's claims".
SEV_SAFETY = "safety"
SEV_BYZANTINE = "byzantine"
SEV_PROTOCOL = "protocol"


class CommitAuditor:
    """The three commit rules over a stream of commit records.

    Feed it through :meth:`listener_for` (one commit listener per
    replica, which also keeps :attr:`commits`, the run's commit trace) or
    call :meth:`check_commit` with plain values.  Each finding is
    recorded once, in :attr:`findings`, with the evidence a
    :class:`~repro.adversary.checker.SafetyChecker` violation carries.
    """

    def __init__(self) -> None:
        #: ``(replica, height, digest, time)`` per observed commit, in order.
        self.commits: list[tuple[int, int, bytes, float]] = []
        self.findings: list[dict[str, Any]] = []
        self._by_height: dict[int, tuple[bytes, int]] = {}
        self._last_height: dict[int, int] = {}
        self._committed: dict[int, set[bytes]] = {}
        self._found: set[tuple] = set()

    def listener_for(self, replica_id: int) -> Callable[[Any, float], None]:
        return partial(self.observe, replica_id)

    def observe(self, replica_id: int, block: Any, when: float) -> None:
        height = block.height
        digest = block.digest
        self.commits.append((replica_id, height, digest, when))
        self.check_commit(replica_id, height, digest)

    def check_commit(self, replica: int, height: int, digest: bytes) -> None:
        """Apply the rules to one commit, recording what they find."""
        known = self._by_height.get(height)
        if known is None:
            self._by_height[height] = (digest, replica)
        elif known[0] != digest:
            first_digest, first = known
            self._find(
                ("conflicting-commit", height),
                f"height {height} committed as {first_digest.hex()[:12]} by replica "
                f"{first} but {digest.hex()[:12]} by replica {replica}",
                height=height,
                replicas=[first, replica],
                digests={first_digest.hex()[:12]: [first], digest.hex()[:12]: [replica]},
            )
        last = self._last_height.get(replica, -1)
        committed = self._committed.setdefault(replica, set())
        if digest in committed:
            self._find(
                ("duplicate-commit", replica, digest),
                f"replica {replica} committed block {digest.hex()[:12]} twice",
                height=height,
                replicas=[replica],
                digest=digest.hex()[:12],
            )
        elif height <= last:
            self._find(
                ("non-monotone-commit", replica, height, last),
                f"replica {replica} committed height {height} after height {last}",
                height=height,
                replicas=[replica],
                previous=last,
            )
        committed.add(digest)
        if height > last:
            self._last_height[replica] = height

    def _find(self, key: tuple, detail: str, **evidence: Any) -> None:
        """Record one finding; ``key`` (kind first) dedups repeats."""
        if key in self._found:
            return
        self._found.add(key)
        self.findings.append(
            {"kind": key[0], "severity": SEV_SAFETY, "detail": detail, "evidence": evidence}
        )

    def check(self) -> None:
        """Raise :class:`SafetyViolation` on the first recorded finding."""
        if self.findings:
            raise SafetyViolation(self.findings[0]["detail"])


class FlightWindow(tuple):
    """One replica's trailing flight events at one recorder position.

    The auditor hands the same window to every violation it flags for
    that replica before the recorder records again, so those violations
    also share the JSON rows :attr:`rows` renders once.
    """

    @cached_property
    def rows(self) -> list[dict[str, Any]]:
        return [
            {
                "seq": e.seq,
                "time": e.time,
                "kind": e.kind,
                "view": e.view,
                "height": e.height,
                "digest": e.digest.hex()[:16],
                "detail": e.detail,
            }
            for e in self
        ]


@dataclass(frozen=True)
class Violation:
    """One structured invariant violation with its forensic window."""

    kind: str
    severity: str
    time: float
    replicas: tuple[int, ...]
    view: int
    height: int
    detail: str
    #: Trailing flight-recorder events per involved replica at flag time.
    window: tuple[tuple[int, FlightWindow], ...] = ()

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form; each replica's rows are its window's shared list."""
        return {
            "kind": self.kind,
            "severity": self.severity,
            "time": self.time,
            "replicas": list(self.replicas),
            "view": self.view,
            "height": self.height,
            "detail": self.detail,
            "window": {str(replica): events.rows for replica, events in self.window},
        }


@dataclass
class _QCSeen:
    digest: bytes
    replica: int


class OnlineAuditor:
    """Streaming invariant checker over the cluster-wide event stream.

    Construct unparameterised; the per-replica
    :class:`~repro.obs.observer.FlightRecordingObs` subscribers feed it
    protocol events, and
    :meth:`~repro.obs.observer.RunObservability.arm_auditor` (called by
    both runtimes) sizes it with :meth:`configure`, taps the transport
    and adds a commit listener per replica.
    """

    def __init__(self, window: int = 24) -> None:
        self.window_size = window
        self.num_replicas: int | None = None
        self.quorum: int | None = None
        self._qc_validator: Callable[[Any], bool] | None = None
        #: Recorders to pull violation windows from (replica_id -> ring).
        self.recorders: dict[int, FlightRecorder] = {}

        self.violations: list[Violation] = []
        self.events_audited = 0
        self.last_commit_time: float = 0.0
        self._flagged: set[tuple] = set()

        #: The commit rules; their findings become flags.
        self.commit_auditor = CommitAuditor()
        self._last_view: dict[int, int] = {}
        self._prepare_digests: dict[tuple[int, int], dict[bytes, int]] = {}
        self._qc_by_key: dict[tuple[str, int, int], _QCSeen] = {}
        #: Every committed ``(client, sequence)`` key, per replica.
        self._executed: dict[int, KeySet] = {}
        #: recorder -> (its position, the window read there).
        self._windows: dict[FlightRecorder, tuple[int, FlightWindow]] = {}
        self._reply_digests: dict[tuple[int, int], tuple[bytes, int]] = {}

    # ------------------------------------------------------------- wiring

    def configure(
        self,
        num_replicas: int,
        quorum: int,
        qc_validator: Callable[[Any], bool] | None = None,
    ) -> None:
        self.num_replicas = num_replicas
        self.quorum = quorum
        self._qc_validator = qc_validator

    @property
    def ok(self) -> bool:
        return not self.violations

    def _flag(
        self,
        kind: str,
        severity: str,
        time: float,
        replicas: tuple[int, ...],
        view: int,
        height: int,
        detail: str,
        dedup: tuple | None = None,
    ) -> None:
        """Record a violation once per ``dedup`` key.

        ``None`` means the caller has deduplicated already, as the commit
        auditor does for its findings.
        """
        if dedup is not None:
            if dedup in self._flagged:
                return
            self._flagged.add(dedup)
        window = tuple(
            (replica, self._window_of(replica))
            for replica in replicas
            if replica in self.recorders
        )
        self.violations.append(
            Violation(
                kind=kind,
                severity=severity,
                time=time,
                replicas=replicas,
                view=view,
                height=height,
                detail=detail,
                window=window,
            )
        )

    def _window_of(self, replica: int) -> FlightWindow:
        """``replica``'s trailing window, read once per recorder position."""
        recorder = self.recorders[replica]
        position = recorder.total_recorded
        cached = self._windows.get(recorder)
        if cached is not None and cached[0] == position:
            return cached[1]
        window = FlightWindow(recorder.window(last=self.window_size))
        self._windows[recorder] = (position, window)
        return window

    # ------------------------------------------- observer-stream entry points

    def on_view_entered(self, replica: int, view: int, time: float) -> None:
        self.events_audited += 1
        last = self._last_view.get(replica)
        if last is not None and view <= last:
            self._flag(
                "non-monotone-view",
                SEV_PROTOCOL,
                time,
                (replica,),
                view,
                -1,
                f"replica {replica} entered view {view} after view {last}",
                dedup=("non-monotone-view", replica, view, last),
            )
        if last is None or view > last:
            self._last_view[replica] = view

    def on_prepare(self, replica: int, digest: bytes, view: int, height: int, time: float) -> None:
        """A block entered the prepare phase on ``replica``.

        More than one digest at the same ``(view, height)`` across the
        cluster means the leader equivocated: each replica prepare-votes
        at most one block per slot, so the conflicting proposals can
        never both gather a quorum — but the auditor reports the attempt.
        """
        self.events_audited += 1
        slot = (view, height)
        seen = self._prepare_digests.get(slot)
        if seen is None:
            self._prepare_digests[slot] = {digest: replica}
            return
        if digest not in seen:
            other_digest, other_replica = next(iter(seen.items()))
            seen[digest] = replica
            self._flag(
                "equivocation",
                SEV_BYZANTINE,
                time,
                (other_replica, replica),
                view,
                height,
                f"two prepare-phase blocks at view={view} height={height}: "
                f"{other_digest.hex()[:12]} (replica {other_replica}) vs "
                f"{digest.hex()[:12]} (replica {replica})",
                dedup=("equivocation", view, height),
            )

    def on_qc(
        self,
        replica: int,
        digest: bytes,
        phase: str,
        view: int,
        time: float,
        qc: Any = None,
    ) -> None:
        self.events_audited += 1
        height = qc.block.height if qc is not None else -1
        key = (phase, view, height)
        seen = self._qc_by_key.get(key)
        if seen is None:
            self._qc_by_key[key] = _QCSeen(digest, replica)
        elif seen.digest != digest:
            self._flag(
                "conflicting-qc",
                SEV_SAFETY,
                time,
                (seen.replica, replica),
                view,
                height,
                f"two {phase} QCs at view={view} height={height}: "
                f"{seen.digest.hex()[:12]} vs {digest.hex()[:12]}",
                dedup=("conflicting-qc", key),
            )
        if qc is None:
            return
        if self._qc_validator is not None and not self._qc_validator(qc):
            self._flag(
                "invalid-qc",
                SEV_SAFETY,
                time,
                (replica,),
                view,
                height,
                f"{phase} QC over {digest.hex()[:12]} failed signature verification",
                dedup=("invalid-qc", key, digest),
            )
        signature = getattr(qc, "signature", None)
        signers = getattr(signature, "signers", None)
        if signers is None:
            return
        signers = frozenset(signers)
        if self.quorum is not None and len(signers) < self.quorum:
            self._flag(
                "qc-quorum-short",
                SEV_SAFETY,
                time,
                (replica,),
                view,
                height,
                f"{phase} QC carries {len(signers)} signers < quorum {self.quorum}",
                dedup=("qc-quorum-short", key, digest),
            )
        if self.num_replicas is not None:
            rogue = [s for s in signers if not 0 <= s < self.num_replicas]
            if rogue:
                self._flag(
                    "qc-bad-signer",
                    SEV_SAFETY,
                    time,
                    (replica,),
                    view,
                    height,
                    f"{phase} QC signed by non-members {sorted(rogue)}",
                    dedup=("qc-bad-signer", key, digest),
                )

    def on_commit(
        self, replica: int, digest: bytes, height: int, view: int, time: float
    ) -> None:
        self.events_audited += 1
        self.last_commit_time = time
        findings = self.commit_auditor.findings
        known = len(findings)
        self.commit_auditor.check_commit(replica, height, digest)
        for finding in findings[known:]:
            self._flag(
                finding["kind"],
                SEV_SAFETY,
                time,
                tuple(finding["evidence"]["replicas"]),
                view,
                height,
                finding["detail"],
            )

    # -------------------------------------------- cluster-level entry points

    def on_commit_block(self, replica: int, block: Any, time: float) -> None:
        """Duplicate op commits: commit listeners feed whole blocks.

        Committing the same ``(client, sequence)`` key twice is *not* by
        itself a safety violation — it happens legitimately when a view
        change re-proposes in-flight operations and the abandoned
        leader's block later commits anyway (e.g. Marlin's Case R2
        recovery), and the ledger's execution-layer dedup applies each
        key exactly once regardless.  It is flagged at protocol severity
        as forensic signal; true exactly-once is checked end-to-end
        against the ledger's execution counter by the adversary
        subsystem's :class:`~repro.adversary.checker.SafetyChecker`.
        """
        executed = self._executed.get(replica)
        if executed is None:
            executed = self._executed[replica] = KeySet()
        ops = block.operations
        new = executed.add_ops(ops)
        if len(new) == len(ops):
            return
        # ``new`` is the ops whose key was new, in op order: every other
        # op (an earlier block's key, or a repeat within this block) is a
        # duplicate.
        fresh = iter(new)
        upcoming = next(fresh, None)
        for op in ops:
            if op is upcoming:
                upcoming = next(fresh, None)
                continue
            key = op.key()
            self._flag(
                "duplicate-execution",
                SEV_PROTOCOL,
                time,
                (replica,),
                block.view,
                block.height,
                f"replica {replica} committed client {key[0]} seq {key[1]} "
                f"twice (deduplicated at execution)",
                dedup=("duplicate-execution", replica, key),
            )

    def tap(self, envelope: Any) -> None:
        """Network tap: cross-check the result digests replicas report.

        Correct replicas execute the same committed prefix and therefore
        agree on every operation's result digest; a divergence is a lying
        replica (``ReplyForger``) or non-deterministic execution.  The
        check covers real-mode ``ClientReply`` messages only: the hub
        workload's ``ReplyBatch`` carries no digests.
        """
        payload = envelope.payload
        n = self.num_replicas
        if n is not None and envelope.src >= n:
            return
        digest = getattr(payload, "result_digest", None)
        if not digest:
            return
        self.events_audited += 1
        key = (payload.client_id, payload.sequence)
        replica = payload.replica
        known = self._reply_digests.get(key)
        if known is None:
            self._reply_digests[key] = (digest, replica)
        elif known[0] != digest:
            self._flag(
                "reply-divergence",
                SEV_BYZANTINE,
                envelope.sent_at,
                (known[1], replica),
                -1,
                -1,
                f"client {key[0]} seq {key[1]}: replica {known[1]} reported "
                f"{known[0].hex()[:12]} but replica {replica} reported {digest.hex()[:12]}",
                dedup=("reply-divergence", key),
            )

    # ------------------------------------------------------------- reports

    def report(self) -> dict[str, Any]:
        """JSON-able structured report of everything the auditor saw."""
        by_kind: dict[str, int] = {}
        for violation in self.violations:
            by_kind[violation.kind] = by_kind.get(violation.kind, 0) + 1
        return {
            "ok": self.ok,
            "events_audited": self.events_audited,
            "last_commit_time": self.last_commit_time,
            "violations_by_kind": by_kind,
            "violations": [v.to_dict() for v in self.violations],
        }
