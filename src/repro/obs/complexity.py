"""The complexity observatory: wire cost attributed to protocol structure.

A network tap (:meth:`ComplexityObservatory.tap` registered via the
transport's ``add_tap``) attributes every delivered envelope's messages,
wire bytes and authenticator count to three axes:

* **message type** — the payload class (``PhaseMsg``, ``VoteMsg``, ...);
* **protocol phase** — prepare / pre-commit / commit / decide /
  view-change / client / sync, derived from the payload;
* **view** — the view the message belongs to (consensus messages only).

This is the instrument behind the empirical Table 1: per-view cost-vs-n
points from DES runs feed :func:`fit_loglog_slope`, and the paper's O(n)
happy-path / O(n) view-change claims become assertions on the fitted
log-log slope (linear ⇒ slope ≈ 1; quadratic ⇒ slope ≈ 2).

Authenticators are counted by :func:`authenticators_in`, the rule of the
paper's Section III:

* a partial signature, signature, or combined threshold signature is one
  authenticator;
* an aggregate signature over ``t`` *different* messages counts as ``t``
  authenticators (the Wendy caveat) — our protocols never ship one, so
  every QC here counts as one under the threshold instantiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.consensus.messages import (
    AggregateNewView,
    PhaseMsg,
    PrePrepareMsg,
    ViewChangeMsg,
    VoteMsg,
)

#: Phase buckets the observatory attributes costs to.
PHASE_BUCKETS = (
    "prepare",
    "pre-commit",
    "commit",
    "decide",
    "generic",
    "view-change",
    "client",
    "sync",
    "other",
)

_VOTE_PHASE_BUCKET = {
    "pre-prepare": "view-change",
    "prepare": "prepare",
    "precommit": "pre-commit",
    "commit": "commit",
    "decide": "decide",
    "generic": "generic",
    "view-change": "view-change",
}


@dataclass
class CostCell:
    """Accumulated cost of one attribution bucket."""

    messages: int = 0
    bytes: int = 0
    authenticators: int = 0

    def add(self, size: int, auth: int) -> None:
        self.messages += 1
        self.bytes += size
        self.authenticators += auth


def authenticators_in(payload: Any) -> int:
    """Authenticators carried by one protocol message (threshold scheme).

    Each QC (a combined threshold signature or the genesis sentinel) is
    one authenticator; each partial signature is one.  Messages without
    either (sync, client traffic) carry none.
    """
    if isinstance(payload, VoteMsg):
        return 1 + (1 if payload.locked_qc is not None else 0)
    if isinstance(payload, PhaseMsg):
        return len(payload.justify.qcs())
    if isinstance(payload, PrePrepareMsg):
        total = 0
        seen: set[bytes] = set()
        for proposal in payload.proposals:
            for qc in proposal.justify.qcs():
                if qc.digest not in seen:
                    seen.add(qc.digest)
                    total += 1
        return total
    if isinstance(payload, ViewChangeMsg):
        total = 1 if payload.share is not None else 0
        if payload.justify is not None:
            total += len(payload.justify.qcs())
        return total
    if isinstance(payload, AggregateNewView):
        # The quadratic case: every embedded VIEW-CHANGE message carries
        # its own share and justify, all verified by every recipient.
        total = len(payload.justify.qcs())
        for _, proof in payload.proofs:
            total += authenticators_in(proof)
        return total
    return 0


class ComplexityObservatory:
    """Attributes delivered traffic per message type, phase and view."""

    def __init__(self, num_replicas: int | None = None) -> None:
        self.num_replicas = num_replicas
        self.armed = True
        self.per_type: dict[str, CostCell] = {}
        self.per_phase: dict[str, CostCell] = {}
        self.per_view: dict[int, CostCell] = {}
        self.total = CostCell()
        self.consensus = CostCell()
        self.client = CostCell()
        self._classify_cache: dict[type, tuple[str, str]] = {}

    # ------------------------------------------------------------- control

    def arm(self) -> None:
        """Start attributing (warm-up exclusion: construct disarmed)."""
        self.armed = True

    def disarm(self) -> None:
        self.armed = False

    def reset(self) -> None:
        self.per_type.clear()
        self.per_phase.clear()
        self.per_view.clear()
        self.total = CostCell()
        self.consensus = CostCell()
        self.client = CostCell()

    # ------------------------------------------------------------ the tap

    def _classify(self, payload: Any) -> tuple[str, str]:
        """``(type name, phase bucket)`` for one payload, memoised by class.

        ``VoteMsg`` and ``PhaseMsg`` buckets depend on the carried phase,
        so only the static part is cached for them.
        """
        cls = type(payload)
        cached = self._classify_cache.get(cls)
        if cached is None:
            name = cls.__name__
            if name in ("VoteMsg", "PhaseMsg"):
                bucket = ""  # resolved per-message below
            elif name in ("ViewChangeMsg", "PrePrepareMsg", "AggregateNewView"):
                bucket = "view-change"
            elif name in (
                "SyncRequest",
                "SyncResponse",
                "StateTransferRequest",
                "StateTransferResponse",
            ):
                bucket = "sync"
            elif name in (
                "ClientRequest",
                "ClientRequestBatch",
                "ClientReply",
                "ReplyBatch",
                "ReadRequest",
                "ReadReply",
                "LeaseProbe",
                "LeaseAck",
            ):
                bucket = "client"
            else:
                bucket = "other"
            cached = (name, bucket)
            self._classify_cache[cls] = cached
        name, bucket = cached
        if not bucket:
            phase_value = payload.phase.value
            bucket = _VOTE_PHASE_BUCKET.get(phase_value, "other")
        return name, bucket

    def tap(self, envelope: Any) -> None:
        """Observe one delivered envelope (register via ``add_tap``)."""
        if not self.armed:
            return
        payload = envelope.payload
        name, bucket = self._classify(payload)
        size = envelope.size
        if bucket == "client":
            self.client.add(size, 0)
            self.total.add(size, 0)
            cell = self.per_type.get(name)
            if cell is None:
                cell = self.per_type[name] = CostCell()
            cell.add(size, 0)
            cell = self.per_phase.get(bucket)
            if cell is None:
                cell = self.per_phase[bucket] = CostCell()
            cell.add(size, 0)
            return
        auth = authenticators_in(payload)
        self.total.add(size, auth)
        self.consensus.add(size, auth)
        cell = self.per_type.get(name)
        if cell is None:
            cell = self.per_type[name] = CostCell()
        cell.add(size, auth)
        cell = self.per_phase.get(bucket)
        if cell is None:
            cell = self.per_phase[bucket] = CostCell()
        cell.add(size, auth)
        view = getattr(payload, "view", None)
        if view is not None:
            cell = self.per_view.get(view)
            if cell is None:
                cell = self.per_view[view] = CostCell()
            cell.add(size, auth)

    # ------------------------------------------------------------- readouts

    def views_observed(self) -> int:
        return len(self.per_view)

    def rows_by_type(self) -> list[tuple[str, CostCell]]:
        return sorted(self.per_type.items(), key=lambda kv: -kv[1].bytes)

    def rows_by_phase(self) -> list[tuple[str, CostCell]]:
        order = {bucket: index for index, bucket in enumerate(PHASE_BUCKETS)}
        return sorted(self.per_phase.items(), key=lambda kv: order.get(kv[0], 99))

    def rows_by_view(self) -> list[tuple[int, CostCell]]:
        return sorted(self.per_view.items())

    def snapshot(self) -> dict[str, Any]:
        def cell(c: CostCell) -> dict[str, int]:
            return {"messages": c.messages, "bytes": c.bytes, "authenticators": c.authenticators}

        return {
            "total": cell(self.total),
            "consensus": cell(self.consensus),
            "client": cell(self.client),
            "per_type": {name: cell(c) for name, c in self.rows_by_type()},
            "per_phase": {name: cell(c) for name, c in self.rows_by_phase()},
            "per_view": {str(view): cell(c) for view, c in self.rows_by_view()},
        }


# ---------------------------------------------------------------------------
# Slope fitting


def fit_loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of ``log(cost)`` against ``log(n)``.

    For cost ``c(n) = a * n^k`` the fitted slope is ``k``: linear growth
    fits ≈ 1, quadratic ≈ 2.  Non-positive samples are skipped (a cost of
    zero carries no scaling information); fewer than two usable points
    return ``nan``.
    """
    logs = [
        (math.log(n), math.log(cost)) for n, cost in points if n > 0 and cost > 0
    ]
    if len(logs) < 2:
        return float("nan")
    mean_x = sum(x for x, _ in logs) / len(logs)
    mean_y = sum(y for _, y in logs) / len(logs)
    denominator = sum((x - mean_x) ** 2 for x, _ in logs)
    if denominator == 0:
        return float("nan")
    return sum((x - mean_x) * (y - mean_y) for x, y in logs) / denominator


@dataclass
class SlopeFit:
    """A fitted cost-vs-n curve and its verdict against a linearity bound."""

    metric: str
    points: list[tuple[int, float]] = field(default_factory=list)
    max_slope: float = 1.3

    @property
    def slope(self) -> float:
        return fit_loglog_slope([(float(n), cost) for n, cost in self.points])

    @property
    def linear(self) -> bool:
        slope = self.slope
        return not math.isnan(slope) and slope < self.max_slope

    def render(self) -> str:
        slope = self.slope
        verdict = "O(n) ✓" if self.linear else f"super-linear ✗ (bound {self.max_slope})"
        series = ", ".join(f"n={n}: {cost:,.0f}" for n, cost in self.points)
        return f"{self.metric}: slope {slope:.2f} → {verdict}  [{series}]"
