"""Metrics: counters, gauges, and histograms with deterministic export.

The registry is a name-keyed store, and the one metrics store of a
process: an obs session holds one, and so does each serving process
(:class:`~repro.service.core.AnalysisService`, the dispatcher), which
renders it as ``GET /metrics`` (:mod:`repro.obs.telemetry`).  Names are
dotted, lowercase, ``component.thing`` style (see
``docs/observability.md`` for the scheme used across the package).
Snapshots are deterministic: names sort lexicographically and histogram
summaries carry a fixed key set, so two sessions that observed the same
values export identical structures (wall-clock only ever appears in
*values* of ``*_seconds`` metrics, never in names or key order).

:data:`NOOP_REGISTRY` is the disabled fast path — method calls that do
nothing — mirroring the tracer's no-op singleton.
"""

from __future__ import annotations

import math
import threading

__all__ = [
    "Histogram",
    "BucketHistogram",
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "NoopRegistry",
    "NOOP_REGISTRY",
]


class Histogram:
    """A value distribution; exact (stores observations), meant for
    thousands of samples, not millions."""

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: list[float] = []

    def observe(self, value: float) -> None:
        self._values.append(float(value))

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def sum(self) -> float:
        return math.fsum(self._values)

    @property
    def mean(self) -> float:
        return self.sum / len(self._values) if self._values else 0.0

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile, ``p`` in [0, 100]."""
        if not self._values:
            return 0.0
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        ordered = sorted(self._values)
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100.0) * (len(ordered) - 1)
        lo = int(rank)
        frac = rank - lo
        if lo + 1 >= len(ordered):
            return ordered[-1]
        return ordered[lo] * (1.0 - frac) + ordered[lo + 1] * frac

    def summary(self) -> dict:
        """Fixed-shape summary (stable keys, deterministic given the data)."""
        values = self._values
        return {
            "count": len(values),
            "sum": self.sum,
            "mean": self.mean,
            "min": min(values) if values else 0.0,
            "max": max(values) if values else 0.0,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def values(self) -> list[float]:
        """The raw observations, in observation order (spool merges)."""
        return list(self._values)


#: Log-spaced latency bucket bounds in seconds (Prometheus ``le`` style);
#: the implicit final bucket is +Inf.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)


class BucketHistogram:
    """A bounded-memory value distribution with estimated quantiles.

    Observations land in fixed log-spaced buckets (plus a +Inf overflow
    bucket), so memory stays O(buckets) no matter how long the process
    lives — the telemetry endpoint of a serving process must never grow
    with traffic, unlike the exact :class:`Histogram` used by bounded
    profiling sessions.  Quantiles are estimated by linear interpolation
    inside the bucket holding the target rank; the tracked ``min`` /
    ``max`` tighten the first and last occupied buckets, so the estimate
    degrades gracefully rather than inventing values outside the data.
    The bucket layout maps 1:1 onto the Prometheus histogram exposition
    (cumulative ``le`` buckets + ``sum`` + ``count``).
    """

    __slots__ = ("bounds", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram bucket bounds must be strictly increasing")
        self.bounds = tuple(float(b) for b in bounds)
        self._counts = [0] * (len(self.bounds) + 1)  # last slot is +Inf
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self._count += 1
        self._sum += value
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self._counts[i] += 1
                return
        self._counts[-1] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le, cumulative count)`` pairs, ending with ``(inf, count)``."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self._counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, self._count))
        return out

    def percentile(self, p: float) -> float:
        """Estimated percentile, ``p`` in [0, 100]."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._count:
            return 0.0
        rank = (p / 100.0) * self._count
        running = 0
        for i, n in enumerate(self._counts):
            if not n:
                continue
            lo = self.bounds[i - 1] if i > 0 else 0.0
            hi = self.bounds[i] if i < len(self.bounds) else self._max
            # Clamp to the observed range: the data never exceeds it.
            lo = max(lo, self._min if running == 0 else lo)
            hi = min(hi, self._max)
            if rank <= running + n:
                frac = (rank - running) / n
                return lo + (hi - lo) * max(0.0, min(1.0, frac))
            running += n
        return self._max  # pragma: no cover - rank <= count always lands above

    def summary(self) -> dict:
        """Same fixed key set as :meth:`Histogram.summary` (estimated)."""
        return {
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "min": self._min if self._count else 0.0,
            "max": self._max if self._count else 0.0,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


def _series_name(name: str, labels: dict) -> str:
    """``name{key="value",...}``: one labelled series in Prometheus sample
    syntax, labels sorted."""
    body = ",".join(f'{key}="{value}"' for key, value in sorted(labels.items()))
    return f"{name}{{{body}}}"


class MetricsRegistry:
    """Name-keyed counters, gauges, and histograms; safe to write from any thread.

    ``histogram_factory`` picks the distribution type, by the owner's
    needs: the exact :class:`Histogram` (default — a bounded profiling
    session) or :class:`BucketHistogram` (an always-on server, whose
    memory must not grow with traffic).  One lock guards every write and
    every whole-registry read (snapshot, dump, exposition): a serving
    process writes from HTTP handler, job and batch threads at once, and
    ``+=`` on a dict entry is not atomic.

    A gauge may carry labels: ``set_gauge("blame.loss_share", 0.6,
    segment="spmv")`` stores the series ``blame.loss_share{segment="spmv"}``
    (:func:`_series_name`), so snapshots, dumps and the exposition all
    see one name per series.
    """

    def __init__(self, histogram_factory=Histogram) -> None:
        self._histogram_factory = histogram_factory
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- writes -----------------------------------------------------------------

    def inc(self, name: str, value: float = 1.0) -> None:
        """Increment a monotonic counter."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        """Set a point-in-time value (last write wins); keyword arguments
        are the series' labels."""
        key = _series_name(name, labels) if labels else name
        with self._lock:
            self._gauges[key] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Add one observation to a histogram."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = self._histogram_factory()
            hist.observe(value)

    def merge_dump(self, dump: dict) -> None:
        """Fold another registry's :meth:`dump` in (worker spool merge).

        Counters add, gauges take the incoming value (last write wins, in
        merge order), histogram observations append in recorded order.
        """
        for name, value in dump.get("counters", {}).items():
            self.inc(name, value)
        for name, value in dump.get("gauges", {}).items():
            self.set_gauge(name, value)
        for name, values in dump.get("histograms", {}).items():
            for value in values:
                self.observe(name, value)

    def dump(self) -> dict:
        """Lossless raw form for cross-process merging (sorted names).

        Unlike :meth:`snapshot`, histograms appear as their raw
        observation lists, so a parent can rebuild exact distributions.
        Only exact :class:`Histogram` instances can be dumped.
        """
        with self._lock:
            return {
                "counters": {k: self._counters[k] for k in sorted(self._counters)},
                "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
                "histograms": {
                    k: self._histograms[k].values() for k in sorted(self._histograms)
                },
            }

    # -- reads ------------------------------------------------------------------

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def gauge(self, name: str, **labels: str) -> float | None:
        return self._gauges.get(_series_name(name, labels) if labels else name)

    def histogram(self, name: str) -> Histogram | None:
        return self._histograms.get(name)

    def snapshot(self) -> dict:
        """Deterministic nested dict: names sorted, fixed histogram keys."""
        with self._lock:
            return {
                "counters": {k: self._counters[k] for k in sorted(self._counters)},
                "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
                "histograms": {
                    k: self._histograms[k].summary() for k in sorted(self._histograms)
                },
            }


class NoopRegistry:
    """The disabled registry: accepts writes, stores nothing."""

    __slots__ = ()

    def inc(self, name: str, value: float = 1.0) -> None:
        return None

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def counter(self, name: str) -> float:
        return 0.0

    def gauge(self, name: str, **labels: str) -> None:
        return None

    def histogram(self, name: str) -> None:
        return None

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NOOP_REGISTRY = NoopRegistry()
