"""Observability for the Scal-Tool reproduction: spans, metrics, logs.

The paper's thesis is that cheap, always-on hardware counters beat
invasive instrumentation; this package applies the same discipline to
the reproduction itself.  Three primitives:

* **spans** (:mod:`repro.obs.trace`) — timed regions with explicit
  parent edges (``machine.run`` > ``machine.phase``, ``campaign.run`` >
  ``campaign.experiment``, ``analysis.*`` estimator stages); one model
  serves a session's local trace and a service request's distributed
  trace;
* **metrics** (:mod:`repro.obs.metrics`) — counters, gauges, and
  histograms in a name-keyed registry with deterministic snapshots;
* **structured logs** (:mod:`repro.obs.logs`) — stdlib logging under the
  single ``repro`` namespace.

Everything is **off by default** and near-free when off: the accessors
in :mod:`repro.obs.runtime` return module-level no-op singletons, so an
instrumentation point costs one no-op method call, and simulator hot
loops carry no instrumentation at all (component event volume comes
from always-on integer tallies folded into metrics at run boundaries).

Library use::

    from repro import obs

    with obs.session() as s:
        analysis, campaign = quick_analysis("swim")
    obs.export_jsonl(s, "metrics.jsonl")
    print(obs.format_profile(s))
    for row in obs.span_rows(s.tracer.records):  # path/depth from the edges
        print(row["depth"], row["path"], row["duration_s"])

See ``docs/observability.md`` for the span/metric naming scheme and how
to read the profile report.
"""

from .diagnostics import AnalysisDiagnostics, FitDiagnostics, revalidate, worst_grade
from .export import export_jsonl, format_profile, manifest_records, span_rows, summarize_manifest
from .lineage import Lineage, LineageCollector
from .logs import configure_logging, get_logger, kv
from .metrics import BucketHistogram, Histogram, MetricsRegistry
from .profile import ProfileResult, profile_workload
from .sampler import NOOP_SAMPLER, SampleProfile, Sampler, active_sampler
from .runtime import (
    ObsSession,
    active,
    disable,
    enable,
    is_enabled,
    registry,
    session,
    tracer,
)
from .telemetry import Telemetry, render_prometheus
from .trace import TraceBuffer, TraceContext, TraceHandle, TraceSpan

__all__ = [
    "AnalysisDiagnostics",
    "FitDiagnostics",
    "Lineage",
    "LineageCollector",
    "ObsSession",
    "revalidate",
    "worst_grade",
    "BucketHistogram",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SAMPLER",
    "ProfileResult",
    "SampleProfile",
    "Sampler",
    "Telemetry",
    "TraceBuffer",
    "TraceContext",
    "TraceHandle",
    "TraceSpan",
    "active",
    "active_sampler",
    "configure_logging",
    "disable",
    "enable",
    "export_jsonl",
    "format_profile",
    "get_logger",
    "is_enabled",
    "kv",
    "manifest_records",
    "profile_workload",
    "registry",
    "render_prometheus",
    "session",
    "span_rows",
    "summarize_manifest",
    "tracer",
]
