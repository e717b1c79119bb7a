"""An obs session over a live service: concurrent jobs, one span graph.

``scaltool serve --metrics-out`` runs the service under an obs session.
Jobs run concurrently on the job pool, so the session's spans must nest
per thread — each job's ``engine.run`` under its own ``service.job`` —
and traced jobs must reach the session as well as their own timelines.
Each service event is counted once, so the session, ``/v1/stats`` and
``/metrics`` read the same count.
"""

from __future__ import annotations

from repro import obs
from repro.obs import manifest_records
from repro.obs.trace import TraceContext
from repro.service.client import ServiceClient
from repro.service.core import AnalysisService, ServiceConfig
from repro.service.http import ServiceServer

from .conftest import WARM_PAYLOAD

JOBS = [
    ("analyze", WARM_PAYLOAD),
    ("campaign", WARM_PAYLOAD),
    ("whatif", {**WARM_PAYLOAD, "tm": 0.5}),
    ("whatif", {**WARM_PAYLOAD, "tm": 0.8}),
]


def _span_rows(session) -> list[dict]:
    return [r for r in manifest_records(session) if r["kind"] == "span"]


def test_concurrent_jobs_under_a_session_finish_and_record_their_spans(warm_root):
    session = obs.enable()
    try:
        service = AnalysisService(
            ServiceConfig(cache_dir=warm_root, workers=2, batch_window=0.0)
        ).start()
        try:
            ids = [service.submit(kind, payload)[0].id for kind, payload in JOBS]
            finished = [service.wait(job_id, timeout=120) for job_id in ids]
        finally:
            service.close(drain=True, timeout=60)
    finally:
        obs.disable()

    assert [job.state for job in finished] == ["done"] * 4, [job.error for job in finished]
    rows = _span_rows(session)
    job_rows = [r for r in rows if r["name"] == "service.job"]
    assert sorted(r["attrs"]["job"] for r in job_rows) == sorted(ids)
    runs = [r for r in rows if r["name"] == "engine.run"]
    assert len(runs) >= 4
    # Each job's engine run nests under that job's span, not a neighbour's.
    assert all(r["path"].startswith("service.job/") for r in runs)
    assert all(r["path"].count("service.job") == 1 for r in rows)


def test_traced_job_tree_reaches_the_session(warm_root):
    ctx = TraceContext.new_root()
    session = obs.enable()
    try:
        service = AnalysisService(
            ServiceConfig(cache_dir=warm_root, workers=1, batch_window=0.0)
        ).start()
        try:
            job, _ = service.submit("whatif", {**WARM_PAYLOAD, "tm": 0.3}, trace_ctx=ctx)
            assert service.wait(job.id, timeout=120).state == "done"
            timeline = service.trace(job.id)["spans"]
        finally:
            service.close(drain=True, timeout=60)
    finally:
        obs.disable()

    names = {s["name"] for s in timeline}
    assert {"service.job", "service.queue.wait", "service.attempt", "service.assemble"} <= names
    rows = _span_rows(session)
    assert len([r for r in rows if r["name"] == "service.job"]) == 1
    # The job's spans and the session's own instrumentation form one tree.
    runs = [r for r in rows if r["name"] == "engine.run"]
    assert runs and all(
        r["path"].startswith("service.job/service.attempt/service.assemble/") for r in runs
    )


def test_plan_tallies_agree_in_the_session_stats_and_metrics(warm_root):
    session = obs.enable()
    try:
        server = ServiceServer(
            ServiceConfig(cache_dir=warm_root, workers=1, batch_window=0.0)
        ).start()
        try:
            with ServiceClient(server.url, timeout=60) as client:
                for tm in (0.15, 0.25, 0.35):
                    job = client.submit("whatif", {**WARM_PAYLOAD, "tm": tm})
                    assert client.wait(job["id"], timeout=120)["state"] == "done"
                stats = client.stats()["counters"]
                exposition = dict(
                    line.rsplit(" ", 1)
                    for line in client.metrics().splitlines()
                    if not line.startswith("#")
                )
        finally:
            server.shutdown(drain_timeout=60)
    finally:
        obs.disable()

    assert stats["plan.specs"] > 0
    for name in ("plan.specs", "plan.cache_hits"):
        on_metrics = float(exposition[f"scaltool_service_{name.replace('.', '_')}_total"])
        assert session.registry.counter(f"service.{name}") == stats[name] == on_metrics
