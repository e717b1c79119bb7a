"""The Prometheus text exposition (0.0.4) of a metrics registry.

A serving process keeps its always-on metrics in one
:class:`~repro.obs.metrics.MetricsRegistry` built on
:class:`~repro.obs.metrics.BucketHistogram` (fixed log-spaced buckets,
estimated quantiles, bounded memory); this module renders it for
``GET /metrics``:

* counters  -> ``scaltool_<name>_total``   (``# TYPE ... counter``)
* gauges    -> ``scaltool_<name>``         (``# TYPE ... gauge``), a
  labelled series as ``scaltool_<name>{key="value"}``
* histograms-> cumulative ``_bucket{le=...}`` series + ``_sum``/``_count``

and merges several processes' renderings into one fleet view
(:func:`merge_prometheus`).  Metric names keep the package's dotted
scheme internally and are sanitised to the Prometheus grammar on export
(dots and dashes become underscores, everything prefixed ``scaltool_``).
"""

from __future__ import annotations

import math
import re

from .metrics import BucketHistogram, MetricsRegistry

__all__ = ["CONTENT_TYPE", "prometheus_name", "render_prometheus", "merge_prometheus"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def prometheus_name(name: str, prefix: str = "scaltool") -> str:
    """Sanitise a dotted metric name into the Prometheus grammar."""
    clean = _NAME_RE.sub("_", name.strip())
    clean = re.sub(r"_+", "_", clean).strip("_")
    return f"{prefix}_{clean}" if prefix else clean


def _fmt(value: float) -> str:
    if value != value:  # pragma: no cover - NaN guard
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry, prefix: str = "scaltool") -> str:
    """The registry as Prometheus text exposition (deterministic order)."""
    lines: list[str] = []
    with registry._lock:
        counters = registry._counters
        gauges = registry._gauges
        histograms = registry._histograms
        for name in sorted(counters):
            metric = prometheus_name(name, prefix)
            if not metric.endswith("_total"):
                metric += "_total"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_fmt(counters[name])}")
        typed: set[str] = set()
        # A labelled series is `name{labels}`: sort by name first so each
        # family's series render as one group under one `# TYPE` line.
        for series in sorted(gauges, key=lambda key: (key.partition("{")[0], key)):
            name, brace, labels = series.partition("{")
            metric = prometheus_name(name, prefix)
            if metric not in typed:
                typed.add(metric)
                lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric}{brace}{labels} {_fmt(gauges[series])}")
        for name in sorted(histograms):
            hist = histograms[name]
            metric = prometheus_name(name, prefix)
            lines.append(f"# TYPE {metric} histogram")
            if isinstance(hist, BucketHistogram):
                for le, cumulative in hist.cumulative():
                    lines.append(f'{metric}_bucket{{le="{_fmt(le)}"}} {cumulative}')
            else:  # exact histogram: a single +Inf bucket is still valid exposition
                lines.append(f'{metric}_bucket{{le="+Inf"}} {hist.count}')
            lines.append(f"{metric}_sum {_fmt(hist.sum)}")
            lines.append(f"{metric}_count {hist.count}")
    return "\n".join(lines) + "\n"


#: Gauges where "whole system" means the max over processes, not the sum:
#: uptime, and the ratios, which do not add across processes (a sampler's
#: overhead ratio, a segment's share of lost cycles).
_MAX_GAUGES = (
    "scaltool_uptime_seconds",
    "scaltool_profile_overhead_ratio",
    "scaltool_blame_loss_share",
)


def merge_prometheus(texts: list[str]) -> str:
    """Merge several processes' text expositions into one truthful view.

    The multi-worker dispatcher scrapes every worker's ``/metrics`` and
    serves the merge: counters and histogram series (same name + same
    labels) add, gauges add too — queue depths and per-grade health
    counts are extensive quantities — except :data:`_MAX_GAUGES`
    (uptime and the ratios), which take the max.  ``# TYPE`` lines are
    kept once, from the first exposition that declares them.  Each
    family's samples stay one group, as the format requires, even when a
    later process adds a series (a new label value) to it; families and
    samples follow first appearance, so merged output is deterministic
    given deterministic inputs.
    """
    types: dict[str, str] = {}
    values: dict[str, float] = {}
    groups: dict[str, list[str]] = {}  # family -> its samples

    for text in texts:
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line.split(None, 3)
                if len(parts) >= 4 and parts[1] == "TYPE":
                    types.setdefault(parts[2], parts[3])
                continue
            sample, _, raw_value = line.rpartition(" ")
            if not sample:
                continue
            try:
                value = float(raw_value)  # parses "+Inf" / "-Inf" too
            except ValueError:
                continue
            bare = sample.partition("{")[0]
            family = _family(bare, types)
            if sample not in values:
                values[sample] = value
                groups.setdefault(family, []).append(sample)
            elif types.get(family) == "gauge" and family in _MAX_GAUGES:
                values[sample] = max(values[sample], value)
            else:
                values[sample] += value

    lines: list[str] = []
    for family, samples in groups.items():
        if family in types:
            lines.append(f"# TYPE {family} {types[family]}")
        lines.extend(f"{sample} {_fmt(values[sample])}" for sample in samples)
    return "\n".join(lines) + "\n" if lines else "\n"


def _family(bare_name: str, types: dict[str, str]) -> str:
    """The declared metric family a sample line belongs to.

    Histogram samples render as ``<name>_bucket`` / ``_sum`` / ``_count``
    while the ``# TYPE`` line declares ``<name>``.
    """
    for suffix in ("_bucket", "_sum", "_count"):
        if bare_name.endswith(suffix):
            stem = bare_name[: -len(suffix)]
            if types.get(stem) == "histogram":
                return stem
    return bare_name
