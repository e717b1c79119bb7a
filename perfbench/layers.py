"""Per-layer metrics of a traced run.

Two sources: the tallies the wrappers in ``hook/`` write from every
traced program process, and the span timeline the service already
returns for each job (``GET /v1/jobs/<id>/trace``) with ``/v1/stats``.
Time metrics in ``ms`` are means per operation of the measured phase (a
CLI command or a job); those in ``s`` are totals.  Every workload
reports every metric, so a layer it bypasses reads 0.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path

import stats

#: Hook layer -> per-layer metric name (ms per operation).
PER_OP_MS = {
    "runner.plan": "runner.plan_ms",
    "runner.cache_read": "runner.cache_read_ms",
    "runner.cache_write": "runner.cache_write_ms",
    "runner.manifest": "runner.manifest_ms",
    "core.analyze": "core.analyze_ms",
    "core.whatif": "core.whatif_ms",
    "core.predict": "core.predict_ms",
    "core.validate": "core.validate_ms",
    "analysis.blame": "analysis.blame_ms",
    "models.action": "models.action_ms",
    "viz.render": "viz.render_ms",
}


def read_tallies(trace_dir: Path) -> dict:
    """The wrappers' tallies summed over every traced process."""
    total = {"self_s": {}, "counts": {}, "overhead_s": 0.0, "processes": 0}
    for path in sorted(trace_dir.glob("*.json")):
        doc = json.loads(path.read_text())
        total["processes"] += 1
        total["overhead_s"] += doc["overhead_s"]
        for key in ("self_s", "counts"):
            for name, value in doc[key].items():
                total[key][name] = total[key].get(name, 0) + value
    return total


def hook_metrics(tallies: dict, operations: int) -> dict:
    """Metrics from the wrappers' tallies; a layer no wrapper timed reads 0."""
    self_s, counts = tallies["self_s"], tallies["counts"]
    out: dict = {
        "machine.sim_s": (self_s.get("machine.sim", 0.0), "s"),
        "workloads.trace_s": (self_s.get("workloads.trace", 0.0), "s"),
        "machine.refs": (counts.get("machine.refs", 0), "refs"),
        "machine.runs": (counts.get("machine.runs", 0), "runs"),
        "runner.cache_hits": (counts.get("runner.cache_hits", 0), "runs"),
        "runner.cache_misses": (counts.get("runner.cache_misses", 0), "runs"),
    }
    for kind in ("uni", "mp"):
        refs = counts.get(f"machine.refs.{kind}", 0)
        ns = counts[f"machine.sim_s.{kind}"] / refs * 1e9 if refs else 0.0
        out[f"machine.ns_per_ref.{kind}"] = (ns, "ns")
    for layer, name in PER_OP_MS.items():
        out[name] = (1000.0 * self_s.get(layer, 0.0) / operations, "ms")
    return out


def job_span_metrics(jobs: Sequence[dict]) -> dict:
    """Means per job over client timings and each job's span timeline.

    Each entry of ``jobs`` holds the client-side ``submit_s``, ``wait_s``
    and ``latency_s`` and the job's ``spans``; without jobs every metric
    reads 0.
    """
    per: dict[str, list[float]] = {
        "service.submit_ms": [],
        "service.result_ms": [],
        "service.job_ms": [],
        "service.transport_ms": [],
        "service.queue_wait_ms": [],
        "service.assemble_ms": [],
        "service.batch_ms": [],
    }
    for job in jobs:
        spans = job["spans"]

        def total(name: str) -> float:
            return sum(s["duration_s"] for s in spans if s["name"] == name)

        job_s = total("service.job")
        per["service.submit_ms"].append(1000.0 * job["submit_s"])
        per["service.result_ms"].append(1000.0 * job["wait_s"])
        per["service.job_ms"].append(1000.0 * job_s)
        per["service.transport_ms"].append(1000.0 * (job["latency_s"] - job_s))
        per["service.queue_wait_ms"].append(1000.0 * total("service.queue.wait"))
        per["service.assemble_ms"].append(1000.0 * total("service.assemble"))
        per["service.batch_ms"].append(1000.0 * total("service.batch"))
    return {name: (sum(v) / len(v) if v else 0.0, "ms") for name, v in per.items()}


def stats_delta(before: dict, after: dict) -> dict:
    """Planner/batcher tallies between two ``/v1/stats`` reads."""
    b, a = before.get("counters", {}), after.get("counters", {})

    def delta(name: str) -> float:
        return a.get(name, 0) - b.get(name, 0)

    planned = delta("plan.specs")
    hits = delta("plan.cache_hits")
    return {
        "service.specs_planned": (planned, "specs"),
        "service.specs_executed": (delta("batch.specs"), "specs"),
        "service.claim_waits": (delta("plan.inflight_waits"), "specs"),
        "runner.cache_hits": (hits, "runs"),
        "runner.cache_misses": (planned - hits, "runs"),
    }


#: ``/v1/stats`` counts; 0 on a workload without a server.
SERVICE_COUNTS = ("service.specs_planned", "service.specs_executed", "service.claim_waits")


def per_layer(
    tallies: dict,
    operations: int,
    traced_s: float,
    jobs: Sequence[dict] = (),
    delta: dict | None = None,
    startups_s: Sequence[float] = (),
) -> dict:
    """Every per-layer metric of a traced run; a layer the workload bypasses reads 0.

    ``delta`` is a server's :func:`stats_delta`, whose cache counts
    replace the wrappers' (the server's planner probes the cache without
    ``RunCache.get``); ``startups_s`` are untraced ``repro.cli list``
    start-ups.
    """
    out = hook_metrics(tallies, operations)
    out.update(job_span_metrics(jobs))
    out.update({name: (0, "specs") for name in SERVICE_COUNTS})
    out.update(delta or {})
    out["cli.startup_ms"] = (1000.0 * stats.median(startups_s) if startups_s else 0.0, "ms")
    out.update(overhead_metric(tallies, traced_s))
    return out


def overhead_metric(tallies: dict, traced_s: float) -> dict:
    """The wrappers' own time as a share of the wall time the traced processes ran.

    The tallies cover each traced process from start-up to exit, so
    ``traced_s`` spans the same: the traced commands' wall times summed,
    or a server's start to its stop.
    """
    return {"trace.overhead_pct": (100.0 * tallies["overhead_s"] / traced_s, "%")}


def latency_summary(latencies_s: list[float]) -> dict:
    """Median, and the 95th percentile when the sample supports it, in ms."""
    out = {"n": len(latencies_s), "p50_ms": 1000.0 * stats.median(latencies_s)}
    if stats.tail_ok(len(latencies_s), 95.0):
        out["p95_ms"] = 1000.0 * stats.nearest_rank(latencies_s, 95.0)
    return out


def end_to_end(setups_s: list[float], latencies_s: list[float], ops_per_s: float, peak_mb: float) -> dict:
    """The end-to-end metrics every workload reports, in BENCHMARK.json's units."""
    return {
        "setup_s": (stats.median(setups_s), "s"),
        "op_p50_ms": (1000.0 * stats.median(latencies_s), "ms"),
        "ops_per_s": (ops_per_s, "ops/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
