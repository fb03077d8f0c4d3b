"""Latency and throughput instrumentation.

Both recorders support a measurement window so warm-up (pipeline filling,
view-1 bootstrap) is excluded, matching standard evaluation methodology.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, groupby, repeat
from operator import mul
from typing import Iterable, Iterator

from repro.common.utils import mean, percentile


class LatencySamples:
    """``(when, latency, weight)`` samples in insertion order, run-length coded.

    Consecutive equal samples are one run: four parallel arrays hold each
    run's ``when``, ``latency``, ``weight`` and sample count.  A closed-
    loop hub pool certifies a client window at one instant, and clients
    released together share a submit time, so a whole batch is usually
    one run; an open-loop pool's Poisson arrivals give one run per sample,
    still a quarter of a tuple's size.  Adjacent runs are always merged,
    so equal sample sequences have equal arrays and ``==`` compares them.

    The list-like surface is what callers use: iteration yields the
    triples in insertion order, and :meth:`append`, :meth:`extend`,
    :meth:`clear` and ``len`` behave as on a list of triples.
    """

    __slots__ = ("when", "latency", "weight", "count", "_len")

    def __init__(self) -> None:
        self.when = array("d")
        self.latency = array("d")
        self.weight = array("q")
        self.count = array("q")
        self._len = 0

    def push(self, when: float, latency: float, weight: int, count: int = 1) -> None:
        """Append ``count`` copies of one sample."""
        if (
            self._len
            and self.latency[-1] == latency
            and self.when[-1] == when
            and self.weight[-1] == weight
        ):
            self.count[-1] += count
        else:
            self.when.append(when)
            self.latency.append(latency)
            self.weight.append(weight)
            self.count.append(count)
        self._len += count

    def append_batch(self, when: float, weight: int, latencies: Iterable[float]) -> None:
        """Append one sample per latency, all at ``when`` with ``weight``."""
        push = self.push
        for latency, run in groupby(latencies):
            push(when, latency, weight, len(list(run)))

    def append(self, sample: tuple[float, float, int]) -> None:
        self.push(*sample)

    def extend(self, samples: Iterable[tuple[float, float, int]]) -> None:
        """Append triples, or every run of another store."""
        push = self.push
        if isinstance(samples, LatencySamples):
            for run in zip(samples.when, samples.latency, samples.weight, samples.count):
                push(*run)
        else:
            for when, latency, weight in samples:
                push(when, latency, weight)

    def clear(self) -> None:
        del self.when[:], self.latency[:], self.weight[:], self.count[:]
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[tuple[float, float, int]]:
        return chain.from_iterable(
            map(repeat, zip(self.when, self.latency, self.weight), self.count)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencySamples):
            return NotImplemented
        return (
            self.count == other.count
            and self.latency == other.latency
            and self.when == other.when
            and self.weight == other.weight
        )

    def __repr__(self) -> str:
        return f"LatencySamples({self._len} samples in {len(self.count)} runs)"


@dataclass
class _SortedSamples:
    """One readout's view of a recorder: distinct runs' latencies in
    ascending order with the running weight total at each, plus the
    weighted count and mean."""

    #: The sample store this view was built from, and its length then.
    source: LatencySamples
    length: int
    latencies: array
    cumulative: array
    count: int
    mean: float


@dataclass
class LatencyRecorder:
    """Collects (timestamp, latency, weight) samples in a :class:`LatencySamples`.

    Readouts sort the sample runs once and answer every percentile from
    that by bisection.  The sorted view is keyed on the identity and
    length of ``samples``, so :meth:`record`, :meth:`reset` and callers
    extending ``samples`` directly all invalidate it.
    """

    window_start: float = 0.0
    window_end: float = float("inf")
    samples: LatencySamples = field(default_factory=LatencySamples)
    _sorted: _SortedSamples | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def record(self, when: float, latency: float, weight: int = 1) -> None:
        if self.window_start <= when <= self.window_end:
            self.samples.push(when, latency, weight)

    def _view(self) -> _SortedSamples:
        samples = self.samples
        view = self._sorted
        if view is not None and view.source is samples and view.length == len(samples):
            return view
        # Ties between runs of different weights may sort either way: the
        # rank search returns a latency, which tied runs share.
        latency = samples.latency
        ordered = sorted(range(len(latency)), key=latency.__getitem__)
        run_weights = list(map(mul, samples.weight, samples.count))
        cumulative = array("q", accumulate(map(run_weights.__getitem__, ordered)))
        count = cumulative[-1] if cumulative else 0
        # Summed per sample in insertion order, as the float result depends on it.
        total = sum(
            chain.from_iterable(map(repeat, map(mul, latency, samples.weight), samples.count))
        )
        view = self._sorted = _SortedSamples(
            source=samples,
            length=len(samples),
            latencies=array("d", map(latency.__getitem__, ordered)),
            cumulative=cumulative,
            count=count,
            mean=total / count if count else 0.0,
        )
        return view

    def _weighted_percentile(self, pct: float) -> float:
        """Nearest-rank percentile over the weighted samples.

        Finds the first latency-sorted sample whose running weight passes
        the target rank — no per-operation entries are materialised, and
        heavy samples (large batches) carry their full weight rather
        than a capped one.  With all weights 1 this matches
        :func:`repro.common.utils.percentile` exactly.
        """
        if not self.samples:
            return 0.0
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {pct}")
        view = self._view()
        if pct == 0.0:
            return view.latencies[0]
        total = view.count
        index = min(max(1, int(round(pct / 100.0 * total + 0.5)) - 1), total - 1)
        return view.latencies[bisect_right(view.cumulative, index)]

    @property
    def count(self) -> int:
        return self._view().count

    def mean(self) -> float:
        return self._view().mean

    def p50(self) -> float:
        return self._weighted_percentile(50.0)

    def p90(self) -> float:
        return self._weighted_percentile(90.0)

    def p99(self) -> float:
        return self._weighted_percentile(99.0)

    def p999(self) -> float:
        return self._weighted_percentile(99.9)

    def summary(self) -> dict[str, float]:
        """The standard percentile readout as one plain dict."""
        return {
            "count": self.count,
            "mean": self.mean(),
            "p50": self.p50(),
            "p90": self.p90(),
            "p99": self.p99(),
            "p999": self.p999(),
        }

    def reset(self) -> None:
        # Same store, and refilling may bring it back to the cached length.
        self.samples.clear()
        self._sorted = None


@dataclass
class ThroughputMeter:
    """Counts weighted operations committed inside a window."""

    window_start: float = 0.0
    window_end: float = float("inf")
    ops: int = 0
    first_event: float | None = None
    last_event: float | None = None

    def record(self, when: float, num_ops: int) -> None:
        if not self.window_start <= when <= self.window_end:
            return
        self.ops += num_ops
        if self.first_event is None:
            self.first_event = when
        self.last_event = when

    def throughput(self, duration: float | None = None) -> float:
        """Operations per second over the window (or supplied duration)."""
        if duration is None:
            if self.first_event is None or self.last_event is None:
                return 0.0
            duration = self.last_event - self.first_event
        if duration <= 0:
            return 0.0
        return self.ops / duration


@dataclass
class RunResult:
    """One (offered load, measured) point of a throughput/latency sweep."""

    clients: int
    throughput_tps: float
    mean_latency: float
    p50_latency: float
    p99_latency: float
    blocks_committed: int
    sim_time: float
    #: Optional per-phase latency breakdown ({phase: {count, mean, p50,
    #: p99}}), populated when the run carried an observability layer.
    phase_latency: dict[str, dict[str, float]] | None = None
    #: Consensus groups the point ran over (1 = the unsharded runtime);
    #: throughput/latency are then cluster-wide aggregates.
    shards: int = 1
    #: Per-shard committed throughput when ``shards > 1``.
    per_shard_tps: list[float] | None = None
    #: Tail percentiles beyond p99 (0.0 when the run recorded no samples).
    p90_latency: float = 0.0
    p999_latency: float = 0.0
    #: Latency waterfall from the journey layer ({stages, end_to_end,
    #: journeys, ...} — see :func:`repro.obs.journey.build_waterfall`),
    #: populated when the run carried a journey recorder.
    waterfall: dict | None = None

    def as_row(self) -> str:
        return (
            f"clients={self.clients:>7d}  tput={self.throughput_tps / 1000:8.2f} ktx/s  "
            f"lat(mean)={self.mean_latency * 1000:7.1f} ms  "
            f"lat(p99)={self.p99_latency * 1000:7.1f} ms  blocks={self.blocks_committed}"
        )


def summarise(values: list[float]) -> dict[str, float]:
    """Mean/median/p99 of a plain float list (utility for benches)."""
    return {
        "mean": mean(values),
        "p50": percentile(values, 50.0),
        "p99": percentile(values, 99.0),
    }
