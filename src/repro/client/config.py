"""Client subsystem configuration.

One frozen dataclass carries every client-path knob so the facade
(:class:`repro.api.Scenario`), the workload generator and the runtime
clients all speak the same vocabulary.  The defaults reproduce the
paper's evaluation clients (hub model, write-only traffic); flipping
``mode="real"`` swaps in genuine :class:`~repro.client.session.ClientSession`
protocol clients without changing anything else.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError

MODES = ("hub", "real")
READ_MODES = ("commit", "leader-lease")


@dataclass(frozen=True)
class ClientConfig:
    """Knobs for the client/service subsystem (all fields keyword-safe)."""

    #: "hub" — the lockstep aggregate population the throughput figures
    #: use; "real" — one :class:`ClientSession` per client token, driven
    #: through the network like any other endpoint.
    mode: str = "hub"
    #: Initial reply timeout before the first retransmit, seconds.
    retry_timeout: float = 2.0
    #: Exponential backoff multiplier applied per retransmit round.
    backoff: float = 2.0
    #: Ceiling for the backed-off retransmit delay, seconds.
    max_backoff: float = 30.0
    #: Uniform jitter fraction added to each retransmit delay (0.1 means
    #: the delay is drawn from [d, 1.1 d]); de-synchronises retry storms.
    jitter: float = 0.1
    #: Read path: "commit" routes reads through consensus (full BFT
    #: linearizability); "leader-lease" serves them from the leader's
    #: committed state after a quorum check (linearizable under crash
    #: faults; see docs/CLIENTS.md for the trust model).
    reads: str = "commit"
    #: How long one successful quorum check keeps serving leader reads,
    #: seconds.  0 re-checks the quorum for every read batch (safest).
    lease_duration: float = 0.0
    #: Per-replica admission window, in weighted operations admitted but
    #: not yet committed.  ``None`` disables shedding.
    max_inflight: int | None = None
    #: Leader-side intake coalescing window, simulated seconds:
    #: individually arriving client requests are pooled for this long
    #: before the next proposal attempt (the standard batching timer),
    #: so a burst of per-client sends forms the same blocks one
    #: aggregate batch would.  Must exceed the network's arrival-jitter
    #: spread, or one burst splits across blocks and the population
    #: staggers permanently.  The live asyncio runtime does not wait on
    #: it: it proposes at the end of the event-loop pass that delivered
    #: the burst.  0 proposes on every arrival in both.
    coalesce: float = 0.005

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"client mode must be one of {MODES}, got {self.mode!r}")
        if self.reads not in READ_MODES:
            raise ConfigError(
                f"reads must be one of {READ_MODES}, got {self.reads!r}"
            )
        if self.retry_timeout <= 0:
            raise ConfigError("retry_timeout must be positive")
        if self.backoff < 1.0:
            raise ConfigError("backoff must be >= 1.0")
        if self.max_backoff < self.retry_timeout:
            raise ConfigError("max_backoff must be >= retry_timeout")
        if self.jitter < 0:
            raise ConfigError("jitter cannot be negative")
        if self.lease_duration < 0:
            raise ConfigError("lease_duration cannot be negative")
        if self.coalesce < 0:
            raise ConfigError("coalesce cannot be negative")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ConfigError("max_inflight must be >= 1 (or None to disable)")
