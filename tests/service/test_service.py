"""AnalysisService: admission, priorities, dedup, retries, drain, recovery.

Queue mechanics run against the event-controlled ``stub_requests``
fixture (no simulator); the end-to-end tests at the bottom run real
requests over the shared warm cache.
"""

import re

import pytest

from repro.errors import QueueFullError, ServiceError
from repro.service.core import AnalysisService, ServiceConfig
from repro.service.requests import compile_request
from repro.service.store import Job, JobStore

from .conftest import WARM_PAYLOAD


def config(tmp_path, **kw):
    defaults = dict(cache_dir=tmp_path, workers=1, batch_window=0.0, retries=0)
    defaults.update(kw)
    return ServiceConfig(**defaults)


@pytest.fixture
def service(tmp_path):
    services = []

    def make(**kw):
        svc = AnalysisService(config(tmp_path, **kw)).start()
        services.append(svc)
        return svc

    yield make
    for svc in services:
        svc.close(drain=False, timeout=5)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ServiceError):
            ServiceConfig(workers=0)
        with pytest.raises(ServiceError):
            ServiceConfig(max_queue=0)
        with pytest.raises(ServiceError):
            ServiceConfig(retries=-1)


class TestLifecycle:
    def test_submit_before_start_rejected(self, tmp_path):
        with pytest.raises(ServiceError, match="not started"):
            AnalysisService(config(tmp_path)).submit("stub", {"name": "x"})

    def test_job_runs_to_done(self, service, stub_requests):
        svc = service()
        gate = stub_requests.gate("a")  # the job cannot finish before we look
        job, deduped = svc.submit("stub", {"name": "a"})
        assert not deduped and job.state in ("queued", "running")
        gate.set()
        finished = svc.wait(job.id, timeout=10)
        assert finished.state == "done"
        assert finished.result["output"] == "stub:a\n"
        assert finished.started is not None and finished.finished is not None
        assert stub_requests.executed == ["a"]

    def test_status_of_unknown_job(self, service):
        from repro.errors import JobNotFoundError

        with pytest.raises(JobNotFoundError):
            service().status("jnope")

    def test_close_is_idempotent(self, service):
        svc = service()
        svc.close(drain=True, timeout=5)
        svc.close(drain=True, timeout=5)

    def test_close_closes_the_event_loop(self, service):
        svc = service()
        loop = svc._loop
        svc.close(drain=True, timeout=5)
        assert loop.is_closed()

    def test_metrics_text_carries_uptime_and_recorded_events(self, service):
        svc = service()
        svc.started_at -= 7.5
        svc._tally("service.http.requests")
        svc._observe("service.job_seconds", 0.25)
        text = svc.prometheus_text()
        uptime = float(re.search(r"^scaltool_uptime_seconds (\S+)$", text, re.M).group(1))
        assert 7.5 <= uptime < 600
        assert 7.5 <= svc.health()["uptime_seconds"] < 600
        assert "scaltool_service_http_requests_total 1" in text.splitlines()
        assert 'scaltool_service_job_seconds_bucket{le="0.25"} 1' in text.splitlines()
        assert svc.stats()["counters"] == {"http.requests": 1}


class TestDedup:
    def test_identical_submit_dedupes(self, service, stub_requests):
        svc = service()
        gate = stub_requests.gate("a")
        first, _ = svc.submit("stub", {"name": "a"})
        again, deduped = svc.submit("stub", {"name": "a"})
        assert deduped and again.id == first.id
        gate.set()
        svc.wait(first.id, timeout=10)
        # Done jobs stay deduped: no re-execution.
        final, deduped = svc.submit("stub", {"name": "a"})
        assert deduped and final.state == "done"
        assert stub_requests.executed == ["a"]

    def test_failed_job_resubmit_requeues(self, service, stub_requests):
        svc = service()
        stub_requests.fail_hard.add("a")
        job, _ = svc.submit("stub", {"name": "a"})
        assert svc.wait(job.id, timeout=10).state == "failed"
        stub_requests.fail_hard.discard("a")
        retried, deduped = svc.submit("stub", {"name": "a"})
        assert not deduped and retried.id == job.id
        assert svc.wait(job.id, timeout=10).state == "done"


class TestBoundedTable:
    """The table holds the active jobs plus the ``max_queue`` most recently
    finished ones; the store answers for every older job."""

    def test_evicted_jobs_answer_from_the_store(self, service, stub_requests):
        svc = service(max_queue=4)
        stub_requests.fail_hard.update({"n1", "n6"})
        ids = []
        for i in range(20):
            job, deduped = svc.submit("stub", {"name": f"n{i}"})
            assert not deduped
            svc.wait(job.id, timeout=10)
            ids.append(job.id)
        assert len(svc._jobs) == 4 and set(svc._jobs) == set(ids[-4:])
        done, failed = ids[0], ids[1]
        # status, result and wait read the store.
        assert svc.status(done).state == "done"
        assert svc.result(done).result["output"] == "stub:n0\n"
        assert svc.wait(failed, timeout=1).error == "hard failure in n1"
        assert done not in svc._jobs and failed not in svc._jobs
        # Listing: every id in creation order, filters included.
        assert [j["id"] for j in svc.jobs()] == ids
        assert [j["id"] for j in svc.jobs(state="failed")] == [ids[1], ids[6]]
        assert [j["id"] for j in svc.jobs(fingerprint=done)] == [done]
        assert svc.jobs(fingerprint=done)[0]["has_result"]
        since = svc.status(ids[10]).created
        assert [j["id"] for j in svc.jobs(since=since)] == ids[10:]
        # Exact counts, evicted jobs included.
        counts = {"queued": 0, "running": 0, "done": 18, "failed": 2}
        assert svc.stats()["jobs"] == counts and svc.health()["jobs"] == counts
        # A done job dedups without running again.
        again, deduped = svc.submit("stub", {"name": "n0"})
        assert deduped and again.id == done and again.state == "done"
        assert stub_requests.executed.count("n0") == 1
        # A failed one is re-queued under its id and runs.
        stub_requests.fail_hard.discard("n1")
        retried, deduped = svc.submit("stub", {"name": "n1"})
        assert not deduped and retried.id == failed
        assert svc.wait(failed, timeout=10).state == "done"
        assert stub_requests.executed.count("n1") == 1
        counts = {"queued": 0, "running": 0, "done": 19, "failed": 1}
        assert svc.stats()["jobs"] == counts and svc.health()["jobs"] == counts
        assert len(svc._jobs) == 4 and failed in svc._jobs


class TestPriorities:
    def test_lower_priority_number_runs_first(self, service, stub_requests):
        svc = service(workers=1)
        gate = stub_requests.gate("blocker")
        blocker, _ = svc.submit("stub", {"name": "blocker"})
        stub_requests.started["blocker"].wait(timeout=5)
        # Queued behind the blocker, in "wrong" submission order.
        low, _ = svc.submit("stub", {"name": "low"}, priority=9)
        high, _ = svc.submit("stub", {"name": "high"}, priority=1)
        gate.set()
        for job in (blocker, low, high):
            assert svc.wait(job.id, timeout=10).state == "done"
        assert stub_requests.executed == ["blocker", "high", "low"]


class TestBackpressure:
    def test_queue_full_raises_with_retry_after(self, service, stub_requests):
        svc = service(workers=1, max_queue=2, retry_after=3.5)
        gate = stub_requests.gate("a")
        svc.submit("stub", {"name": "a"})
        stub_requests.started["a"].wait(timeout=5)
        svc.submit("stub", {"name": "b"})
        with pytest.raises(QueueFullError) as exc_info:
            svc.submit("stub", {"name": "c"})
        assert exc_info.value.retry_after == 3.5
        assert not exc_info.value.draining
        assert svc.stats()["counters"]["admission.rejected"] == 1
        gate.set()
        # Capacity frees up as jobs finish.
        svc.wait(next(j["id"] for j in svc.jobs() if j["payload"]["name"] == "b"), timeout=10)
        svc.submit("stub", {"name": "c"})

    def test_deduped_submit_accepted_even_when_full(self, service, stub_requests):
        svc = service(workers=1, max_queue=1)
        gate = stub_requests.gate("a")
        job, _ = svc.submit("stub", {"name": "a"})
        _, deduped = svc.submit("stub", {"name": "a"})
        assert deduped  # idempotent resubmit is not an admission
        gate.set()
        svc.wait(job.id, timeout=10)


class TestDrain:
    def test_drain_rejects_new_work_and_finishes_old(self, service, stub_requests):
        svc = service(workers=1)
        gate = stub_requests.gate("a")
        job, _ = svc.submit("stub", {"name": "a"})
        stub_requests.started["a"].wait(timeout=5)
        assert svc.drain(timeout=0.05) is False  # still running
        with pytest.raises(QueueFullError) as exc_info:
            svc.submit("stub", {"name": "b"})
        assert exc_info.value.draining
        gate.set()
        assert svc.drain(timeout=10) is True
        assert svc.status(job.id).state == "done"


class TestTimeoutsAndRetries:
    def test_job_timeout_fails_job(self, service, stub_requests):
        svc = service(job_timeout=0.2)
        gate = stub_requests.gate("slow")
        job, _ = svc.submit("stub", {"name": "slow"})
        finished = svc.wait(job.id, timeout=10)
        assert finished.state == "failed"
        assert "timed out" in finished.error
        gate.set()  # unblock the abandoned thread so teardown is clean

    def test_transient_failures_retried(self, service, stub_requests):
        svc = service(retries=2)
        stub_requests.fail_transient["flaky"] = 2
        job, _ = svc.submit("stub", {"name": "flaky"})
        finished = svc.wait(job.id, timeout=10)
        assert finished.state == "done"
        assert finished.attempts == 3
        assert svc.stats()["counters"]["jobs.retries"] == 2

    def test_transient_failures_exhaust_to_failed(self, service, stub_requests):
        svc = service(retries=1)
        stub_requests.fail_transient["doomed"] = 99
        job, _ = svc.submit("stub", {"name": "doomed"})
        finished = svc.wait(job.id, timeout=10)
        assert finished.state == "failed"
        assert "transient failure" in finished.error
        assert finished.attempts == 2

    def test_hard_failure_not_retried(self, service, stub_requests):
        svc = service(retries=3)
        stub_requests.fail_hard.add("broken")
        job, _ = svc.submit("stub", {"name": "broken"})
        finished = svc.wait(job.id, timeout=10)
        assert finished.state == "failed" and finished.attempts == 1


class TestRecovery:
    def test_interrupted_jobs_requeue_on_start(self, tmp_path, stub_requests):
        # A previous process died mid-flight: its store holds one running,
        # one queued, and one done job.
        store = JobStore(tmp_path / "service" / "jobs")
        store.put(Job(id="j" + "1" * 16, kind="stub", payload={"name": "r1"}, state="running"))
        store.put(Job(id="j" + "2" * 16, kind="stub", payload={"name": "r2"}, state="queued"))
        store.put(
            Job(
                id="j" + "3" * 16,
                kind="stub",
                payload={"name": "old"},
                state="done",
                result={"output": "stub:old\n", "data": {}},
            )
        )
        svc = AnalysisService(config(tmp_path)).start()
        try:
            assert svc.wait("j" + "1" * 16, timeout=10).state == "done"
            assert svc.wait("j" + "2" * 16, timeout=10).state == "done"
            # The finished job is served idempotently, not re-executed.
            done = svc.status("j" + "3" * 16)
            assert done.state == "done" and done.result["output"] == "stub:old\n"
            assert sorted(stub_requests.executed) == ["r1", "r2"]
            assert svc.stats()["counters"]["jobs.recovered"] == 2
        finally:
            svc.close(drain=True, timeout=10)

    def test_restart_over_more_than_max_queue_jobs(self, tmp_path, stub_requests):
        store = JobStore(tmp_path / "service" / "jobs")
        finished = []  # ids, the most recently finished last
        for i in range(8):
            state = "failed" if i in (2, 5) else "done"
            # Finish order differs from id (file name) order.
            job = Job(
                id=f"j{i:016x}", kind="stub", payload={"name": f"old{i}"},
                state=state, created=1000.0 + i, finished=2000.0 + (5 * i) % 8,
            )
            store.put(job)
            finished.append(job.id)
        finished.sort(key=lambda job_id: store.get(job_id).finished)
        interrupted = [
            Job(id="j" + "a" * 16, kind="stub", payload={"name": "r1"}, state="running"),
            Job(id="j" + "b" * 16, kind="stub", payload={"name": "r2"}, state="queued"),
        ]
        for job in interrupted:
            store.put(job)
        gates = [stub_requests.gate("r1"), stub_requests.gate("r2")]
        svc = AnalysisService(config(tmp_path, max_queue=4)).start()
        try:
            # The table keeps the re-queued jobs and the four most recently
            # finished ones; the tally counts every stored job.
            assert set(svc._jobs) == {j.id for j in interrupted} | set(finished[-4:])
            jobs = svc.stats()["jobs"]
            assert (jobs["done"], jobs["failed"], jobs["queued"] + jobs["running"]) == (6, 2, 2)
            for gate in gates:
                gate.set()
            for job in interrupted:
                assert svc.wait(job.id, timeout=10).state == "done"
            counts = {"queued": 0, "running": 0, "done": 8, "failed": 2}
            assert svc.stats()["jobs"] == counts and svc.health()["jobs"] == counts
            assert sorted(stub_requests.executed) == ["r1", "r2"]
            assert svc.stats()["counters"]["jobs.recovered"] == 2
            assert svc.status(finished[0]).state == "done"
            assert len(svc._jobs) == 4
        finally:
            svc.close(drain=True, timeout=10)

    def test_no_entries_lost_or_duplicated_across_restart(self, tmp_path, stub_requests):
        svc = AnalysisService(config(tmp_path)).start()
        ids = [svc.submit("stub", {"name": f"n{i}"})[0].id for i in range(4)]
        for job_id in ids:
            svc.wait(job_id, timeout=10)
        svc.close(drain=True, timeout=10)

        svc2 = AnalysisService(config(tmp_path)).start()
        try:
            stored = [j["id"] for j in svc2.jobs()]
            assert sorted(stored) == sorted(ids)  # nothing lost, nothing doubled
            for job_id in ids:
                assert svc2.status(job_id).state == "done"
            # Recovery re-queued nothing: all jobs were terminal.
            assert "jobs.recovered" not in svc2.stats()["counters"]
        finally:
            svc2.close(drain=True, timeout=10)


class TestEndToEnd:
    """Real requests over the shared warm cache."""

    def test_analyze_job_and_batching_stats(self, warm_root):
        svc = AnalysisService(
            ServiceConfig(cache_dir=warm_root, workers=2, batch_window=0.01)
        ).start()
        try:
            job, _ = svc.submit("analyze", WARM_PAYLOAD)
            finished = svc.wait(job.id, timeout=120)
            assert finished.state == "done", finished.error
            assert "synthetic" in finished.result["output"]
            stats = svc.stats()
            # Everything resolved from the warm cache: no batch executed.
            assert stats["counters"]["plan.cache_hits"] == stats["counters"]["plan.specs"]
            assert stats["dedup_hit_ratio"] == 1.0
            # A second job over the campaign reads the run cache's memo,
            # and the service counts those hits.
            job, _ = svc.submit("whatif", {**WARM_PAYLOAD, "tm": 0.5})
            assert svc.wait(job.id, timeout=120).state == "done"
            assert svc.stats()["counters"]["runcache.memo_hits"] > 0
        finally:
            svc.close(drain=True, timeout=30)

    def test_concurrent_jobs_share_one_batch(self, tmp_path):
        # Cold cache + four campaign-backed jobs over the same campaign:
        # the planner + batcher must execute each spec exactly once.
        svc = AnalysisService(
            ServiceConfig(cache_dir=tmp_path / "cold", workers=4, batch_window=0.05)
        ).start()
        try:
            payloads = [
                ("analyze", WARM_PAYLOAD),
                ("campaign", WARM_PAYLOAD),
                ("whatif", {**WARM_PAYLOAD, "tm": 0.5}),
                ("whatif", {**WARM_PAYLOAD, "t2": 0.5}),
            ]
            jobs = [svc.submit(kind, payload)[0] for kind, payload in payloads]
            for job in jobs:
                finished = svc.wait(job.id, timeout=300)
                assert finished.state == "done", finished.error
            counters = svc.stats()["counters"]
            spec_count = len(compile_request("analyze", WARM_PAYLOAD).specs())
            # 4 jobs planned the same specs; only one copy executed.
            assert counters["plan.specs"] == 4 * spec_count
            assert counters["batch.specs"] == spec_count
            assert svc.stats()["dedup_hit_ratio"] == 0.75
        finally:
            svc.close(drain=True, timeout=30)
