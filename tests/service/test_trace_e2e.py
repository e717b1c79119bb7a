"""End-to-end distributed tracing through the live service.

The tentpole's acceptance test: a job submitted via :class:`ServiceClient`
against a live server running the engine with ``--jobs 2`` must yield a
*single rooted span tree* — client root, HTTP handling, queue wait,
batching, and the worker-process run spans, merged across process
boundaries — readable back via ``GET /v1/jobs/<id>/trace`` and rendered
by ``scaltool obs trace``.  Plus: valid Prometheus exposition on
``/metrics``, disabled-mode propagation adds nothing, and an unwritable
job store degrades to 503s instead of crashing.
"""

from __future__ import annotations

import json
import os
import urllib.error
import urllib.request

import pytest

from repro import cli
from repro.errors import JobNotFoundError, ServiceError, StoreUnavailableError
from repro.service.client import ServiceClient
from repro.service.core import AnalysisService, ServiceConfig
from repro.service.dispatcher import Dispatcher
from repro.service.http import ServiceServer

from .conftest import WARM_PAYLOAD


def _error_json(request) -> tuple[int, dict]:
    """The status and JSON body of the HTTPError ``urlopen(request)`` raises."""
    with pytest.raises(urllib.error.HTTPError) as exc_info:
        urllib.request.urlopen(request)
    with exc_info.value as error:
        return error.code, json.loads(error.read().decode())


def _tree_check(spans: list[dict]) -> dict:
    """One root, every other span's parent present; returns span-by-id."""
    by_id = {s["span_id"]: s for s in spans}
    assert len(by_id) == len(spans), "span ids must be unique within the trace"
    roots = [s for s in spans if s["parent_id"] not in by_id]
    assert len(roots) == 1, f"expected one root, got {[(s['name']) for s in roots]}"
    return by_id


class TestTracedJobEndToEnd:
    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        """One cold traced campaign on a ``--jobs 2`` engine, shared by checks."""
        srv = ServiceServer(
            ServiceConfig(
                cache_dir=tmp_path_factory.mktemp("trace-e2e"), jobs=2, workers=2
            ),
            port=0,
        ).start()
        try:
            with ServiceClient(srv.url, timeout=60) as client:
                submitted = client.submit("campaign", WARM_PAYLOAD)
                view = client.wait(submitted["id"], timeout=300)
                tree = client.trace(submitted["id"])
                metrics_text = client.metrics()
                health = client.health()
        finally:
            srv.shutdown(drain_timeout=60)
        return {
            "submitted": submitted,
            "view": view,
            "tree": tree,
            "metrics": metrics_text,
            "health": health,
            "url": srv.url,
        }

    def test_submit_returns_trace_id(self, traced_run):
        assert len(traced_run["submitted"]["trace_id"]) == 32
        assert traced_run["view"]["state"] == "done"

    def test_single_rooted_tree_across_processes(self, traced_run):
        tree = traced_run["tree"]
        assert tree["complete"] is True
        assert tree["trace_id"] == traced_run["submitted"]["trace_id"]
        spans = tree["spans"]
        by_id = _tree_check(spans)
        names = {s["name"] for s in spans}
        # the full path: client -> HTTP -> queue -> batcher -> engine
        assert {
            "client.submit", "http.request", "service.job", "service.queue.wait",
            "service.batch", "engine.run", "engine.execute",
        } <= names
        root = next(s for s in spans if s["parent_id"] not in by_id)
        assert root["name"] == "client.submit"

    def test_worker_run_spans_carry_worker_pids(self, traced_run):
        executes = [s for s in traced_run["tree"]["spans"] if s["name"] == "engine.execute"]
        assert len(executes) >= 2
        worker_pids = {s["pid"] for s in executes}
        # ProcessPoolExecutor(jobs=2): the runs happened off the server process.
        assert os.getpid() not in worker_pids
        assert 1 <= len(worker_pids) <= 2

    def test_result_view_carries_timeline(self, traced_run):
        timeline = traced_run["view"]["timeline"]
        assert timeline["trace_id"] == traced_run["submitted"]["trace_id"]
        assert {s["span_id"] for s in timeline["spans"]} == {
            s["span_id"] for s in traced_run["tree"]["spans"]
        }

    def test_metrics_exposition_has_serving_histograms(self, traced_run):
        text = traced_run["metrics"]
        assert "# TYPE scaltool_service_queue_wait_seconds histogram" in text
        assert 'scaltool_service_queue_wait_seconds_bucket{le="+Inf"}' in text
        assert "# TYPE scaltool_service_job_seconds histogram" in text
        assert "scaltool_service_jobs_submitted_total 1" in text
        assert "scaltool_uptime_seconds" in text

    def test_health_endpoint_shape(self, traced_run):
        health = traced_run["health"]
        assert health["status"] == "ok"
        assert health["store"]["writable"] is True
        assert health["jobs"]["done"] == 1
        assert health["queue_depth"] == 0 and health["inflight"] == 0
        assert health["uptime_seconds"] > 0


class TestObsTraceCli:
    def test_cli_renders_tree_with_critical_path(self, warm_root, capsys):
        srv = ServiceServer(
            ServiceConfig(cache_dir=warm_root, jobs=2, workers=2), port=0
        ).start()
        try:
            with ServiceClient(srv.url, timeout=30) as client:
                submitted = client.submit("analyze", WARM_PAYLOAD)
                client.wait(submitted["id"], timeout=120)
            rc = cli.main(["obs", "trace", submitted["id"], "--url", srv.url])
            out = capsys.readouterr().out
            assert rc == 0
            assert f"job {submitted['id']}" in out
            assert "client.submit" in out and "service.job" in out
            assert "*" in out  # critical path marker
            rc = cli.main(["obs", "trace", submitted["id"], "--url", srv.url, "--json"])
            parsed = json.loads(capsys.readouterr().out)
            assert parsed["complete"] is True
        finally:
            srv.shutdown(drain_timeout=30)


class TestFastJob:
    def test_http_span_lands_before_the_job_can_finish(
        self, tmp_path, stub_requests, monkeypatch
    ):
        """A job may settle (and persist its timeline) before ``submit``
        returns to the HTTP front: the front's spans must already be in it,
        and nothing may land in the trace afterwards."""
        srv = ServiceServer(
            ServiceConfig(cache_dir=tmp_path, workers=1, batch_window=0.0), port=0
        ).start()
        service = srv.service
        real_submit = service.submit

        def submit_returning_when_done(*args, **kwargs):
            job, deduped = real_submit(*args, **kwargs)
            service.wait(job.id, timeout=30)
            return job, deduped

        monkeypatch.setattr(service, "submit", submit_returning_when_done)
        try:
            with ServiceClient(srv.url, timeout=30) as client:
                submitted = client.submit("stub", {"name": "fast"})
                tree = client.trace(submitted["id"])
                view = client.result(submitted["id"])
            assert tree["complete"] is True
            names = [s["name"] for s in tree["spans"]]
            assert "http.request" in names and "service.job" in names
            _tree_check(tree["spans"])
            assert "http.request" in [s["name"] for s in view["timeline"]["spans"]]
            assert len(service.traces) == 0
        finally:
            srv.shutdown(drain_timeout=10)


class TestDisabledPropagation:
    def test_untraced_submit_adds_no_headers_or_spans(self, tmp_path, stub_requests):
        srv = ServiceServer(
            ServiceConfig(cache_dir=tmp_path, workers=1, batch_window=0.0), port=0
        ).start()
        try:
            with ServiceClient(srv.url, timeout=10, trace=False) as client:
                assert client.trace_enabled is False
                submitted = client.submit("stub", {"name": "a"})
                assert "trace_id" not in submitted
                client.wait(submitted["id"], timeout=10)
                with pytest.raises(ServiceError, match="without trace propagation"):
                    client.trace(submitted["id"])
            assert len(srv.service.traces) == 0
            assert not srv.service.store.timeline_path(submitted["id"]).exists()
        finally:
            srv.shutdown(drain_timeout=10)

    def test_env_kill_switch(self, monkeypatch, tmp_path, stub_requests):
        monkeypatch.setenv("SCALTOOL_TRACE", "0")
        assert ServiceClient("http://x").trace_enabled is False
        # explicit argument beats the environment
        assert ServiceClient("http://x", trace=True).trace_enabled is True


class TestDegradedStore:
    def test_unwritable_store_degrades_to_503(self, tmp_path, stub_requests):
        # Occupy the store's parent path with a regular file: mkdir fails
        # even for root, unlike permission bits.
        (tmp_path / "service").write_text("not a directory")
        srv = ServiceServer(
            ServiceConfig(cache_dir=tmp_path, workers=1, batch_window=0.0), port=0
        ).start()
        try:
            with ServiceClient(srv.url, timeout=10) as client:
                health = client.health()
                assert health["status"] == "degraded"
                assert health["store"]["writable"] is False
                assert health["store"]["error"]
                # submit -> 503 with a JSON body naming the degradation
                body = json.dumps({"kind": "stub", "payload": {"name": "a"}}).encode()
                req = urllib.request.Request(
                    srv.url + "/v1/jobs", data=body, method="POST",
                    headers={"Content-Type": "application/json"},
                )
                code, payload = _error_json(req)
                assert code == 503
                assert payload["status"] == "degraded"
                assert payload["store"]["writable"] is False
                # the client maps the degraded 503 to its own error type
                with pytest.raises(StoreUnavailableError):
                    client.submit("stub", {"name": "a"})
                # read endpoints keep answering
                assert client.jobs() == []
                with pytest.raises(JobNotFoundError):
                    client.status("j00000000")
        finally:
            srv.shutdown(drain_timeout=10)

    def test_service_submit_raises_store_unavailable(self, tmp_path, stub_requests):
        (tmp_path / "service").write_text("not a directory")
        service = AnalysisService(
            ServiceConfig(cache_dir=tmp_path, workers=1, batch_window=0.0)
        ).start()
        try:
            assert service.degraded is not None
            with pytest.raises(StoreUnavailableError):
                service.submit("stub", {"name": "a"})
        finally:
            service.close(drain=False, timeout=10.0)

    def test_dispatcher_degrades_like_one_process(self, tmp_path):
        """Two workers on a root whose shared files cannot be made start
        degraded, exactly as one process does, instead of failing start."""
        (tmp_path / "service").write_text("not a directory")
        disp = Dispatcher(
            ServiceConfig(cache_dir=tmp_path, workers=1), worker_count=2, port=0
        ).start()
        try:
            code, health = _error_json(disp.url + "/healthz")
            assert code == 503
            assert health["status"] == "degraded"
            assert health["store"]["writable"] is False
            assert health["topology"]["missing"] == 0
            body = json.dumps({"kind": "analyze", "payload": WARM_PAYLOAD}).encode()
            req = urllib.request.Request(
                disp.url + "/v1/jobs", data=body, method="POST",
                headers={"Content-Type": "application/json"},
            )
            code, payload = _error_json(req)
            assert code == 503
            assert payload["status"] == "degraded"
            assert payload["store"]["writable"] is False
            # the client maps the relayed degraded 503 to its own error type
            with ServiceClient(disp.url, timeout=30) as client:
                with pytest.raises(StoreUnavailableError):
                    client.submit("analyze", WARM_PAYLOAD)
        finally:
            disp.shutdown()
