"""HTTP API + client: routes, backpressure codes, end-to-end jobs."""

import json
import urllib.request

import pytest

from repro.errors import JobNotFoundError, QueueFullError, ServiceError
from repro.service.client import ServiceClient, default_service_url
from repro.service.core import ServiceConfig
from repro.service.http import ServiceServer

from .conftest import WARM_PAYLOAD, http_error


@pytest.fixture
def server(tmp_path, stub_requests):
    srv = ServiceServer(
        ServiceConfig(cache_dir=tmp_path, workers=1, batch_window=0.0), port=0
    ).start()
    yield srv
    srv.service._draining = False  # tests may leave it draining
    stub_requests.release_all()
    srv.shutdown(drain_timeout=10)


@pytest.fixture
def client(server):
    with ServiceClient(server.url, timeout=10) as client:
        yield client


class TestRoutes:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["jobs"] == {"queued": 0, "running": 0, "done": 0, "failed": 0}

    def test_unknown_route_404(self, server):
        assert http_error(server.url + "/nope").code == 404

    def test_submit_status_result_cycle(self, client, stub_requests):
        submitted = client.submit("stub", {"name": "a"})
        assert submitted["id"].startswith("j") and not submitted["deduped"]
        view = client.wait(submitted["id"], timeout=10)
        assert view["state"] == "done"
        assert view["result"]["output"] == "stub:a\n"
        status = client.status(submitted["id"])
        assert status["has_result"] and "result" not in status

    def test_result_of_pending_job_is_202(self, server, client, stub_requests):
        gate = stub_requests.gate("slow")
        submitted = client.submit("stub", {"name": "slow"})
        view = client.result(submitted["id"])
        assert view["state"] in ("queued", "running") and "result" not in view
        gate.set()
        assert client.wait(submitted["id"], timeout=10)["state"] == "done"

    def test_failed_job_result_carries_error(self, client, stub_requests):
        stub_requests.fail_hard.add("broken")
        submitted = client.submit("stub", {"name": "broken"})
        view = client.wait(submitted["id"], timeout=10)
        assert view["state"] == "failed"
        assert "hard failure" in view["error"]

    def test_unknown_job_404(self, client):
        with pytest.raises(JobNotFoundError):
            client.status("j" + "f" * 16)

    def test_bad_kind_400(self, client):
        with pytest.raises(ServiceError, match="unknown request kind"):
            client.submit("explode", {})

    def test_bad_payload_400(self, client):
        with pytest.raises(ServiceError, match="workload"):
            client.submit("analyze", {})

    def test_bad_sweep_axis_400(self, client):
        payload = {"workload": "synthetic", "workload_axes": {"sharing_frac": [0.55]}}
        with pytest.raises(ServiceError, match="sharing_frac=0.55"):
            client.submit("sweep", payload)
        assert client.jobs() == []

    def test_bad_json_body_400(self, server):
        req = urllib.request.Request(
            server.url + "/v1/jobs", data=b"{broken", method="POST"
        )
        assert http_error(req).code == 400

    def test_jobs_listing(self, client, stub_requests):
        client.submit("stub", {"name": "a"})
        client.submit("stub", {"name": "b"})
        assert len(client.jobs()) == 2

    def test_corrupt_job_record_shows_on_metrics_and_stats(self, server, client):
        job_id = "j" + "c" * 16
        server.service.store.path(job_id).write_text("{not json")
        with pytest.raises(JobNotFoundError):
            client.status(job_id)
        assert "scaltool_service_store_corrupt_total 1" in client.metrics().splitlines()
        assert client.stats()["counters"]["store.corrupt"] == 1

    def test_stats_route(self, client, stub_requests):
        submitted = client.submit("stub", {"name": "a"})
        client.wait(submitted["id"], timeout=10)
        stats = client.stats()
        assert stats["jobs"]["done"] == 1
        assert stats["counters"]["jobs.submitted"] == 1


class TestBackpressure:
    def test_queue_full_is_429_with_retry_after(self, tmp_path, stub_requests):
        srv = ServiceServer(
            ServiceConfig(
                cache_dir=tmp_path, workers=1, max_queue=1, retry_after=2.0
            ),
            port=0,
        ).start()
        client = ServiceClient(srv.url, timeout=10)
        try:
            gate = stub_requests.gate("a")
            client.submit("stub", {"name": "a"})
            stub_requests.started["a"].wait(timeout=5)
            # Raw check: status code and Retry-After header.
            body = json.dumps({"kind": "stub", "payload": {"name": "b"}}).encode()
            req = urllib.request.Request(
                srv.url + "/v1/jobs",
                data=body,
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            error = http_error(req)
            assert error.code == 429
            assert error.headers["Retry-After"] == "2"
            # Client translation: QueueFullError with the advisory delay.
            with pytest.raises(QueueFullError) as exc_info:
                client.submit("stub", {"name": "b"})
            assert exc_info.value.retry_after == 2.0 and not exc_info.value.draining
            gate.set()
        finally:
            client.close()
            stub_requests.release_all()
            srv.shutdown(drain_timeout=10)

    def test_client_retries_429_until_admitted(self, tmp_path, stub_requests):
        srv = ServiceServer(
            ServiceConfig(
                cache_dir=tmp_path, workers=1, max_queue=1, retry_after=0.05
            ),
            port=0,
        ).start()
        client = ServiceClient(srv.url, timeout=10)
        try:
            gate = stub_requests.gate("a")
            client.submit("stub", {"name": "a"})
            stub_requests.started["a"].wait(timeout=5)
            gate.set()  # frees the slot while the client backs off
            submitted = client.submit("stub", {"name": "b"}, retries=20)
            assert client.wait(submitted["id"], timeout=10)["state"] == "done"
        finally:
            client.close()
            srv.shutdown(drain_timeout=10)

    def test_draining_is_503(self, server, client, stub_requests):
        assert client.drain(timeout=5) is True
        assert client.health()["status"] == "draining"
        with pytest.raises(QueueFullError) as exc_info:
            client.submit("stub", {"name": "late"})
        assert exc_info.value.draining


class TestClient:
    def test_default_url_env_override(self, monkeypatch):
        monkeypatch.setenv("SCALTOOL_SERVICE_URL", "http://example:9")
        assert default_service_url() == "http://example:9"
        assert ServiceClient().base_url == "http://example:9"

    def test_unreachable_service_is_service_error(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.2)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()


class TestEndToEnd:
    def test_analyze_over_http_matches_direct_execution(self, warm_root):
        from repro.service.requests import compile_request

        srv = ServiceServer(
            ServiceConfig(cache_dir=warm_root, workers=2), port=0
        ).start()
        client = ServiceClient(srv.url, timeout=30)
        try:
            submitted = client.submit("analyze", WARM_PAYLOAD)
            view = client.wait(submitted["id"], timeout=120)
            assert view["state"] == "done"
            direct = compile_request("analyze", WARM_PAYLOAD).execute(
                cache_root=warm_root
            )
            assert view["result"]["output"] == direct.output
        finally:
            client.close()
            srv.shutdown(drain_timeout=30)
