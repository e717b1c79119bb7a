"""The blame endpoint and the paginated job listing.

``GET /v1/jobs/<id>/blame`` must serve a report whose every finding
carries a diagnostics grade and lineage refs, publish per-segment loss
shares as labelled gauges on ``/metrics``, and agree byte-for-byte with
what ``scaltool blame`` prints for the same campaign.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import JobNotFoundError, ServiceError
from repro.service.client import ServiceClient
from repro.service.core import ServiceConfig
from repro.service.http import ServiceServer

from .conftest import WARM_COUNTS, WARM_PAYLOAD, WARM_S0, http_error
from .test_cli_service import cli_stdout

WARM_ARGS = [
    "synthetic", "--s0", str(WARM_S0), "--counts", ",".join(map(str, WARM_COUNTS)),
]


@pytest.fixture(scope="module")
def server(warm_root):
    srv = ServiceServer(ServiceConfig(cache_dir=warm_root, workers=2), port=0).start()
    yield srv
    srv.shutdown(drain_timeout=30)


@pytest.fixture(scope="module")
def client(server):
    with ServiceClient(server.url, timeout=30) as client:
        yield client


@pytest.fixture(scope="module")
def blame_job(client):
    """One finished blame job everybody in this module can share."""
    submitted = client.submit("blame", WARM_PAYLOAD)
    view = client.wait(submitted["id"], timeout=120)
    assert view["state"] == "done", view.get("error")
    return submitted["id"]


@pytest.fixture
def stub_server(tmp_path, stub_requests):
    srv = ServiceServer(
        ServiceConfig(cache_dir=tmp_path, workers=1, batch_window=0.0), port=0
    ).start()
    yield srv
    srv.service._draining = False
    stub_requests.release_all()
    srv.shutdown(drain_timeout=10)


@pytest.fixture
def stub_client(stub_server):
    with ServiceClient(stub_server.url, timeout=10) as client:
        yield client


class TestBlameEndpoint:
    def test_blame_job_serves_stored_report(self, client, blame_job):
        view = client.blame(blame_job)
        assert view["job"] == blame_job and view["kind"] == "blame"
        report = view["report"]
        assert report["workload"] == "synthetic"
        assert report["processor_counts"] == list(WARM_COUNTS)
        assert view["output"].startswith("scaling-loss blame")
        assert view["lineage"]

    def test_findings_carry_grade_and_lineage(self, client, blame_job):
        report = client.blame(blame_job)["report"]
        for finding in report["findings"]:
            assert finding["grade"] in ("ok", "warn", "suspect")
            assert finding["lineage_refs"]
            assert finding["root_cause"]
        for vertex in report["vertices"]:
            assert vertex["diagnostics"]["grade"] in ("ok", "warn", "suspect")

    def test_loss_share_gauges_on_metrics(self, client, blame_job):
        client.blame(blame_job)  # publish (idempotent)
        exposition = client.metrics()
        assert 'scaltool_blame_loss_share{segment="' in exposition

    def test_blame_derived_from_analyze_job(self, client, blame_job):
        submitted = client.submit("analyze", WARM_PAYLOAD)
        view = client.wait(submitted["id"], timeout=120)
        assert view["state"] == "done", view.get("error")
        derived = client.blame(submitted["id"])
        assert derived["kind"] == "analyze"
        # Same campaign -> same report, whichever job it hangs off.
        assert derived["report"] == client.blame(blame_job)["report"]

    def test_cli_json_matches_endpoint_report(self, client, blame_job, warm_root):
        out = cli_stdout(
            ["blame", *WARM_ARGS, "--cache-dir", str(warm_root), "--json"]
        )
        assert json.loads(out) == client.blame(blame_job)["report"]

    def test_unknown_job_404(self, client):
        with pytest.raises(JobNotFoundError):
            client.blame("j" + "f" * 16)

    def test_blame_of_non_campaign_job_rejected(self, stub_client, stub_requests):
        submitted = stub_client.submit("stub", {"name": "a"})
        stub_client.wait(submitted["id"], timeout=10)
        with pytest.raises(ServiceError, match="no campaign"):
            stub_client.blame(submitted["id"])

    def test_blame_of_active_job_rejected(self, stub_client, stub_requests):
        gate = stub_requests.gate("slow")
        submitted = stub_client.submit("stub", {"name": "slow"})
        try:
            with pytest.raises(ServiceError, match="needs a result"):
                stub_client.blame(submitted["id"])
        finally:
            gate.set()


class TestJobsPagination:
    def _three_done_jobs(self, client, stub_requests):
        ids = []
        for name in ("a", "b", "c"):
            submitted = client.submit("stub", {"name": name})
            client.wait(submitted["id"], timeout=10)
            ids.append(submitted["id"])
        return ids

    def test_limit_and_offset_cut_the_page(self, stub_client, stub_requests):
        ids = self._three_done_jobs(stub_client, stub_requests)
        page = stub_client.jobs_page(limit=2)
        assert [j["id"] for j in page["jobs"]] == ids[:2]
        assert page["total"] == 3 and page["limit"] == 2 and page["offset"] == 0
        rest = stub_client.jobs_page(offset=2)
        assert [j["id"] for j in rest["jobs"]] == ids[2:]
        assert rest["total"] == 3

    def test_state_filter(self, stub_client, stub_requests):
        self._three_done_jobs(stub_client, stub_requests)
        stub_requests.fail_hard.add("broken")
        submitted = stub_client.submit("stub", {"name": "broken"})
        stub_client.wait(submitted["id"], timeout=10)
        assert stub_client.jobs_page(state="done")["total"] == 3
        failed = stub_client.jobs_page(state="failed")
        assert [j["id"] for j in failed["jobs"]] == [submitted["id"]]

    def test_fingerprint_filter_is_id_prefix(self, stub_client, stub_requests):
        ids = self._three_done_jobs(stub_client, stub_requests)
        page = stub_client.jobs_page(fingerprint=ids[0][:8])
        assert ids[0] in [j["id"] for j in page["jobs"]]
        assert stub_client.jobs_page(fingerprint="zzz")["total"] == 0

    def test_since_filter(self, stub_client, stub_requests):
        self._three_done_jobs(stub_client, stub_requests)
        assert stub_client.jobs_page(since=0.0)["total"] == 3
        assert stub_client.jobs_page(since=4e10)["total"] == 0

    def test_unknown_query_param_is_400(self, stub_server):
        assert http_error(stub_server.url + "/v1/jobs?order=lifo").code == 400

    def test_negative_limit_is_400(self, stub_server):
        assert http_error(stub_server.url + "/v1/jobs?limit=-1").code == 400

    def test_plain_jobs_stays_a_bare_list(self, stub_client, stub_requests):
        assert stub_client.jobs() == []
        self._three_done_jobs(stub_client, stub_requests)
        listing = stub_client.jobs()
        assert isinstance(listing, list) and len(listing) == 3
