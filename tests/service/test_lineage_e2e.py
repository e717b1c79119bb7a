"""End-to-end result lineage and diagnostics through the live service.

The tentpole's acceptance path: an ``analyze`` job on a live server must
come back with a :class:`~repro.obs.lineage.Lineage` record (correct
cache hit/miss split, the job's trace id), readable via
``GET /v1/jobs/<id>/lineage``; the ``diagnostics.health`` gauge family
must appear on ``/metrics``; and ``scaltool explain`` / ``scaltool
doctor`` must work *offline* against the persisted job store.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.core import ServiceConfig
from repro.service.http import ServiceServer

from .conftest import WARM_PAYLOAD


class TestLineageEndToEnd:
    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        """One cold analyze job on a live server, shared by every check."""
        root = tmp_path_factory.mktemp("lineage-e2e")
        srv = ServiceServer(ServiceConfig(cache_dir=root, jobs=1), port=0).start()
        try:
            with ServiceClient(srv.url, timeout=60) as client:
                cold = client.submit("analyze", WARM_PAYLOAD)
                client.wait(cold["id"], timeout=300)
                cold_lineage = client.lineage(cold["id"])
                metrics_text = client.metrics()
        finally:
            srv.shutdown(drain_timeout=60)
        return {
            "root": root,
            "job_id": cold["id"],
            "lineage": cold_lineage,
            "metrics": metrics_text,
        }

    def test_lineage_view_shape(self, served):
        view = served["lineage"]
        assert view["job"] == served["job_id"]
        assert view["kind"] == "analyze"
        assert view["state"] == "done"
        assert view["health"] == "ok"

    def test_cold_job_records_executed_specs(self, served):
        lin = served["lineage"]["lineage"]
        assert lin["cache_misses"] > 0
        assert lin["cache_hits"] + lin["cache_misses"] == len(lin["specs"])
        # every spec entry is fully addressed
        for entry in lin["specs"]:
            assert entry["key"] and entry["workload"] and entry["machine_hash"]
        # the analyzed workload itself contributed runs
        assert any(e["workload"] == "synthetic" for e in lin["specs"])

    def test_lineage_carries_the_job_trace_id(self, served):
        assert served["lineage"]["lineage"]["trace_id"]

    def test_metrics_exports_health_gauge_family(self, served):
        text = served["metrics"]
        assert 'scaltool_diagnostics_health{grade="ok"} 1' in text
        assert 'scaltool_diagnostics_health{grade="suspect"} 0' in text

    def test_warm_resubmit_is_all_cache_hits(self, served):
        # the job id is a content address, so drop the stored done job to
        # force re-execution — now against a warm run cache
        (served["root"] / "service" / "jobs" / f"{served['job_id']}.json").unlink()
        srv = ServiceServer(
            ServiceConfig(cache_dir=served["root"], jobs=1), port=0
        ).start()
        try:
            with ServiceClient(srv.url, timeout=60) as client:
                job = client.submit("analyze", WARM_PAYLOAD)
                client.wait(job["id"], timeout=300)
                lin = client.lineage(job["id"])["lineage"]
        finally:
            srv.shutdown(drain_timeout=60)
        assert lin["cache_misses"] == 0
        assert lin["cache_hits"] == len(lin["specs"]) > 0
        assert all(e["cached"] for e in lin["specs"])

    def test_lineage_of_pending_job_rejected(self, served):
        srv = ServiceServer(
            ServiceConfig(cache_dir=served["root"], jobs=1), port=0
        ).start()
        try:
            with pytest.raises(ServiceError):
                srv.service.lineage("j" + "0" * 16)
        finally:
            srv.shutdown(drain_timeout=60)

    # -- offline CLI over the persisted store ---------------------------------

    def test_explain_reads_the_job_store_offline(self, served, capsys):
        rc = main(["explain", served["job_id"], "--cache-dir", str(served["root"])])
        out = capsys.readouterr().out
        assert rc == 0
        assert "result lineage" in out
        assert "estimation diagnostics: ok" in out
        assert "t2_tm_fit" in out

    def test_explain_json_mode(self, served, capsys):
        rc = main(
            ["explain", served["job_id"], "--cache-dir", str(served["root"]), "--json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lineage"]["kind"] == "analyze"
        assert doc["diagnostics"]["health"] == "ok"

    def test_doctor_passes_on_a_healthy_job(self, served, capsys):
        rc = main(["doctor", served["job_id"], "--cache-dir", str(served["root"])])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict: ok" in out

    def test_doctor_fails_on_a_suspect_result(self, served, tmp_path, capsys):
        job_path = served["root"] / "service" / "jobs" / f"{served['job_id']}.json"
        record = json.loads(job_path.read_text())
        checks = record["result"]["data"]["diagnostics"]["checks"]
        fit = next(c for c in checks if c["name"] == "t2_tm_fit")
        # poison the *evidence*, not the grade: doctor re-derives grades
        fit["details"]["rank_deficient"] = True
        fit["grade"] = "ok"
        fit["flags"] = []
        record["result"]["data"]["diagnostics"]["health"] = "ok"
        doctored = tmp_path / "tampered.json"
        doctored.write_text(json.dumps(record))
        rc = main(["doctor", str(doctored)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "SUSPECT" in captured.err
        assert "NO" in captured.out  # the stored-vs-revalidated disagreement

    def test_explain_unknown_job_names_the_store(self, served, capsys):
        rc = main(["explain", "j" + "f" * 16, "--cache-dir", str(served["root"])])
        assert rc == 1
        assert "service" in capsys.readouterr().err
