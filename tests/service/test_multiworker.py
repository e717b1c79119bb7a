"""Multi-process deployment end-to-end.

Two properties anchor the horizontal-scaling work:

* **Byte-identity**: the same request answered serially (direct library
  execution), by a single-process service, and through a dispatcher
  with two worker processes produces byte-identical ``output`` text.
* **Crash recovery** (the SIGKILL satellite): kill -9 a worker mid-job;
  the supervisor respawns it, the replacement recovers the persisted
  job, the dead owner's claim is reclaimed via pid liveness, and the
  final result is byte-identical to an undisturbed run.
"""

from __future__ import annotations

import os
import shutil
import signal
import time

import pytest

from repro.service import requests as req_mod
from repro.service.client import ServiceClient
from repro.service.core import ServiceConfig
from repro.service.dispatcher import Dispatcher
from repro.service.http import ServiceServer

from .conftest import WARM_PAYLOAD

#: Every campaign-backed request kind over the shared warm campaign.
CASES = [
    ("analyze", WARM_PAYLOAD),
    ("campaign", WARM_PAYLOAD),
    ("whatif", {**WARM_PAYLOAD, "tm": 0.5}),
    ("blame", WARM_PAYLOAD),
]


def _service_outputs(url: str) -> dict[str, str]:
    """Submit every case, then collect ``result.output`` per kind."""
    client = ServiceClient(url, timeout=30)
    try:
        ids = {kind: client.submit(kind, payload)["id"] for kind, payload in CASES}
        return {
            kind: client.wait(job_id, timeout=120)["result"]["output"]
            for kind, job_id in ids.items()
        }
    finally:
        client.close()


class TestByteIdentity:
    """serial ≡ parallel ≡ multi-worker, output byte-for-byte."""

    @pytest.fixture(scope="class")
    def roots(self, tmp_path_factory):
        """Three independent cache roots seeded with the same warm campaign."""
        base = tmp_path_factory.mktemp("identity")
        seed = base / "seed"
        req_mod.compile_request("campaign", WARM_PAYLOAD).execute(cache_root=seed)
        for name in ("serial", "single", "fleet"):
            shutil.copytree(seed, base / name)
        return base

    @pytest.fixture(scope="class")
    def serial_outputs(self, roots):
        return {
            kind: req_mod.compile_request(kind, payload)
            .execute(cache_root=roots / "serial")
            .output
            for kind, payload in CASES
        }

    @pytest.fixture(scope="class")
    def single_outputs(self, roots):
        srv = ServiceServer(
            ServiceConfig(cache_dir=roots / "single", workers=2, batch_window=0.0),
            port=0,
        ).start()
        try:
            yield _service_outputs(srv.url)
        finally:
            srv.shutdown(drain_timeout=10)

    @pytest.fixture(scope="class")
    def fleet_outputs(self, roots):
        disp = Dispatcher(
            ServiceConfig(cache_dir=roots / "fleet", workers=2),
            worker_count=2,
            port=0,
        ).start()
        try:
            yield _service_outputs(disp.url)
        finally:
            disp.shutdown()

    def test_single_process_service_matches_serial(
        self, serial_outputs, single_outputs
    ):
        assert single_outputs == serial_outputs

    def test_two_worker_fleet_matches_serial(self, serial_outputs, fleet_outputs):
        assert fleet_outputs == serial_outputs

    def test_every_kind_produced_output(self, serial_outputs):
        assert all(out.strip() for out in serial_outputs.values())


class TestCrashRecovery:
    def test_sigkill_mid_job_converges_byte_identical(self, tmp_path):
        """The satellite: a worker dies mid-job and the system converges."""
        expected = (
            req_mod.compile_request("campaign", WARM_PAYLOAD)
            .execute(cache_root=tmp_path / "undisturbed")
            .output
        )
        disp = Dispatcher(
            ServiceConfig(cache_dir=tmp_path / "fleet", workers=2),
            worker_count=2,
            port=0,
        ).start()
        client = ServiceClient(disp.url, timeout=30)
        try:
            job_id = client.submit("campaign", WARM_PAYLOAD)["id"]
            home = disp.shard_of(job_id)
            first_pid = home.pid
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if client.status(job_id)["state"] in ("running", "done"):
                    break
                time.sleep(0.02)
            else:  # pragma: no cover - startup hang
                pytest.fail("job never left the queue")
            os.kill(first_pid, signal.SIGKILL)
            view = client.wait(job_id, timeout=180)
            assert view["state"] == "done"
            assert view["result"]["output"] == expected
            # The supervisor replaced the shard, same slot, new process.
            assert home.alive and home.pid != first_pid
            assert home.restarts >= 1
            # The fleet's /metrics merges the workers' expositions with the
            # dispatcher's own registry, which counted the restart.
            samples = dict(
                line.rsplit(" ", 1)
                for line in client.metrics().splitlines()
                if not line.startswith("#")
            )
            assert samples["scaltool_dispatcher_workers"] == "2"
            assert samples["scaltool_dispatcher_workers_alive"] == "2"
            restarted = client.stats()["dispatcher"]["counters"]["workers.restarted"]
            assert restarted == home.restarts
            assert samples["scaltool_dispatcher_workers_restarted_total"] == str(restarted)
            assert float(samples["scaltool_service_jobs_done_total"]) >= 1
        finally:
            client.close()
            disp.shutdown()
