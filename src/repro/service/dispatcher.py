"""The multi-process front: a router over N single-process services.

``scaltool serve --workers N`` (N >= 2) starts this instead of a single
:class:`~repro.service.http.ServiceServer`::

    client ──► Dispatcher (the HTTP front of repro.service.http, this process)
                  │  consistent-hash(job fingerprint) -> home shard
                  ▼
               worker 0..N-1 (subprocess, python -m repro.service.worker:
                  │            a ServiceServer, shard i of N)
                  ▼  shared cache root: run cache, SQLite claim
                     table, job store (shard-filtered)

Each worker is the same service ``scaltool serve --workers 1`` runs, on
the same cache-root files — one run cache, one claim table, one job
store — so the dispatcher only routes.  It shares the HTTP front's
response writer, body and query parsers, server class and lifecycle
(:mod:`repro.service.http`); only its route table is its own.

Routing: every job-scoped request (submit, status, result, trace,
lineage, blame) is forwarded — raw bytes, untouched — to the job's home
shard, chosen by consistent-hashing the content-addressed fingerprint.
Identical requests therefore land on the same worker and dedup there;
no cross-process dedup race exists by construction.  Spec-level overlap
*between different jobs* on different shards is handled by the shared
SQLite claim table underneath.  Forwards ride one keep-alive
:class:`~repro.service.client.ServiceClient` connection per handler
thread and worker.

Whole-system views fan out and merge: ``/healthz`` and ``/v1/stats``
aggregate worker answers, ``/metrics`` merges the Prometheus
expositions (:func:`repro.obs.telemetry.merge_prometheus`),
``GET /v1/jobs`` merges listings, and ``GET /v1/profile`` folds every
worker's sampling profile into one
(:meth:`repro.obs.sampler.SampleProfile.merge`).  Responses proxied from a worker
carry ``X-Scaltool-Worker: <shard>`` for observability.

Supervision: a background thread restarts any worker that dies (the
replacement re-registers on the same shard and *recovers* the dead
worker's persisted jobs — interrupted ones are re-queued, so a SIGKILL
mid-job converges to the same byte-identical result).  Forwarding
retries across a restart window instead of failing the client.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from urllib.parse import urlencode

from ..errors import ReproError, ServiceError
from ..obs import telemetry as _telemetry
from ..obs.logs import get_logger, kv
from ..obs.metrics import MetricsRegistry
from ..runner.engine import default_cache_root
from . import requests as _requests
from .client import ServiceClient
from .core import ServiceConfig
from .http import (
    _drain_timeout,
    _HTTPFront,
    _jobs_page,
    _jobs_query,
    _json_object,
    _JsonHandler,
    _profile_params,
    _submit_kind,
)
from .sharding import HashRing

__all__ = ["Dispatcher", "WorkerHandle"]

_log = get_logger("service.dispatcher")

#: How long a forward waits out a worker restart before giving up.
RESTART_GRACE = 30.0

#: Supervisor poll cadence (seconds).
SUPERVISE_INTERVAL = 0.2


class WorkerHandle:
    """One spawned worker process and the client that reaches it."""

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self.pid: int | None = None
        self.client: ServiceClient | None = None  # replaced on every (re)spawn
        self.restarts = -1  # first spawn brings it to 0

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    @property
    def url(self) -> str | None:
        return f"http://127.0.0.1:{self.port}" if self.port else None

    def view(self) -> dict:
        return {
            "shard": self.shard,
            "pid": self.pid,
            "url": self.url,
            "alive": self.alive,
            "restarts": max(0, self.restarts),
        }


class Dispatcher(_HTTPFront):
    """Spawns, supervises, and routes to the worker fleet."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        worker_count: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        spawn_timeout: float = 30.0,
    ) -> None:
        if worker_count < 1:
            raise ServiceError("worker_count must be >= 1")
        base = config or ServiceConfig()
        self.config = base
        self.worker_count = worker_count
        self.root = (
            Path(base.cache_dir) if base.cache_dir is not None else default_cache_root()
        )
        self.ring = HashRing(worker_count)
        self.spawn_timeout = spawn_timeout
        self.workers = [WorkerHandle(i) for i in range(worker_count)]
        self.started_at = time.time()
        self._stopping = False
        self._lock = threading.Lock()
        # The dispatcher's own metrics (worker restarts, forward retries,
        # merged profiles); /metrics adds them to the workers' merge.
        self.metrics = MetricsRegistry()
        self.metrics.set_gauge("dispatcher.workers", worker_count)
        self._supervisor: threading.Thread | None = None
        super().__init__(_DispatchHandler, host, port)
        # Made once the port is bound, so a failed bind leaves nothing behind.
        self._port_dir = Path(tempfile.mkdtemp(prefix="scaltool-workers-"))

    # -- lifecycle --------------------------------------------------------------

    def _open(self) -> None:
        for handle in self.workers:
            self._spawn(handle)
        self._supervisor = threading.Thread(
            target=self._supervise, name="scaltool-supervisor", daemon=True
        )
        self._supervisor.start()
        _log.debug("dispatcher up %s", kv(workers=self.worker_count, root=self.root))

    def _close(self, drain_timeout: float | None) -> None:
        with self._lock:
            self._stopping = True
        if self._supervisor is not None:
            self._supervisor.join(timeout=5)
            self._supervisor = None
        deadline = time.monotonic() + (drain_timeout if drain_timeout else 10.0)
        for handle in self.workers:
            if handle.proc is not None and handle.proc.poll() is None:
                handle.proc.terminate()  # SIGTERM -> worker drains + exits
        for handle in self.workers:
            if handle.proc is None:
                continue
            remaining = max(0.5, deadline - time.monotonic())
            try:
                handle.proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
                handle.proc.kill()
                handle.proc.wait(timeout=5)
        for handle in self.workers:
            if handle.client is not None:
                handle.client.close()
        shutil.rmtree(self._port_dir, ignore_errors=True)
        _log.debug("dispatcher stopped")

    # -- supervision ------------------------------------------------------------

    def _spawn(self, handle: WorkerHandle) -> None:
        port_file = self._port_dir / f"worker-{handle.shard}.json"
        try:
            port_file.unlink()
        except FileNotFoundError:
            pass
        config = dataclasses.replace(
            self.config,
            cache_dir=str(self.root),
            shard_index=handle.shard,
            shard_count=self.worker_count,
        )
        cmd = [
            sys.executable,
            "-m",
            "repro.service.worker",
            json.dumps(dataclasses.asdict(config)),
            str(port_file),
        ]
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        handle.proc = subprocess.Popen(cmd, env=env)
        deadline = time.monotonic() + self.spawn_timeout
        while time.monotonic() < deadline:
            if handle.proc.poll() is not None:
                raise ServiceError(
                    f"worker {handle.shard} exited during startup"
                    f" (code {handle.proc.returncode})"
                )
            try:
                info = json.loads(port_file.read_text())
                handle.port = int(info["port"])
                handle.pid = int(info["pid"])
                handle.client = ServiceClient(handle.url)
                break
            except (OSError, ValueError, KeyError):
                time.sleep(0.02)
        else:  # pragma: no cover - startup hang
            handle.proc.kill()
            raise ServiceError(f"worker {handle.shard} did not report a port in time")
        handle.restarts += 1
        if handle.restarts:
            self.metrics.inc("dispatcher.workers.restarted")
        _log.debug(
            "worker spawned %s",
            kv(shard=handle.shard, pid=handle.pid, port=handle.port, restarts=handle.restarts),
        )

    def _supervise(self) -> None:
        while True:
            with self._lock:
                if self._stopping:
                    return
            for handle in self.workers:
                if handle.proc is not None and handle.proc.poll() is not None:
                    with self._lock:
                        if self._stopping:
                            return
                    _log.warning(
                        "worker died; restarting %s",
                        kv(shard=handle.shard, code=handle.proc.returncode),
                    )
                    self.metrics.inc("dispatcher.workers.died")
                    try:
                        self._spawn(handle)
                    except ServiceError as exc:  # pragma: no cover - respawn loop
                        _log.warning(
                            "worker respawn failed %s", kv(shard=handle.shard, reason=exc)
                        )
                        time.sleep(1.0)
            time.sleep(SUPERVISE_INTERVAL)

    # -- routing ----------------------------------------------------------------

    def shard_of(self, job_id: str) -> WorkerHandle:
        return self.workers[self.ring.owner(job_id)]

    def forward(
        self,
        handle: WorkerHandle,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: dict | None = None,
        timeout: float = 120.0,
    ) -> tuple[int, dict, bytes]:
        """Proxy one request to a worker; returns (status, headers, body).

        Bytes in, bytes out — the dispatcher never re-serialises a
        worker response, which is what keeps service output byte-
        identical through the extra hop.  A connection failure (worker
        just died / is restarting) retries against the shard until the
        supervisor has it back or :data:`RESTART_GRACE` expires.
        """
        deadline = time.monotonic() + RESTART_GRACE
        last: Exception | None = None
        while time.monotonic() < deadline:
            client = handle.client
            if not handle.alive or client is None:
                time.sleep(0.05)
                continue
            try:
                return client._raw(method, path, data=body, headers=headers, timeout=timeout)
            except ServiceError as exc:
                last = exc
                self.metrics.inc("dispatcher.forward.retries")
                time.sleep(0.05)
        raise ServiceError(
            f"worker {handle.shard} unreachable past restart grace: {last}"
        )

    def close_forwards(self) -> None:
        """Close the calling thread's keep-alive connections to the workers
        (other handler threads may be mid-forward on theirs)."""
        for handle in self.workers:
            if handle.client is not None:
                handle.client.drop_connection()

    def fan_out(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        timeout: float = 120.0,
    ) -> list[tuple[WorkerHandle, int, bytes]]:
        """The same request to every worker; skips ones that stay down."""
        out = []
        for handle in self.workers:
            try:
                status, _, payload = self.forward(
                    handle, method, path, body=body, timeout=timeout
                )
                out.append((handle, status, payload))
            except ServiceError:
                continue
        return out

    # -- merged whole-system views ----------------------------------------------

    def health(self) -> tuple[int, dict]:
        answers = self.fan_out("GET", "/healthz", timeout=10.0)
        views = []
        for handle, _status, payload in answers:
            try:
                views.append(json.loads(payload))
            except json.JSONDecodeError:  # pragma: no cover - torn worker reply
                continue
        jobs = {"queued": 0, "running": 0, "done": 0, "failed": 0}
        for view in views:
            for state, count in view.get("jobs", {}).items():
                jobs[state] = jobs.get(state, 0) + count
        statuses = [v.get("status") for v in views]
        missing = self.worker_count - len(views)
        if missing or "degraded" in statuses:
            status = "degraded"
        elif statuses and all(s == "draining" for s in statuses):
            status = "draining"
        else:
            status = "ok"
        body = {
            "status": status,
            "draining": any(v.get("draining") for v in views),
            "jobs": jobs,
            "queue_depth": sum(v.get("queue_depth", 0) for v in views),
            "inflight": sum(v.get("inflight", 0) for v in views),
            "uptime_seconds": round(max(0.0, time.time() - self.started_at), 3),
            "store": views[0].get("store") if views else {"writable": False},
            "topology": {
                "mode": "dispatcher",
                "workers": [h.view() for h in self.workers],
                "missing": missing,
            },
        }
        return (503 if status == "degraded" else 200), body

    def prometheus_text(self) -> str:
        """``GET /metrics``: the workers' expositions merged, plus the dispatcher's own."""
        answers = self.fan_out("GET", "/metrics", timeout=10.0)
        texts = [payload.decode() for _, status, payload in answers if status == 200]
        alive = sum(1 for h in self.workers if h.alive)
        self.metrics.set_gauge("dispatcher.workers_alive", alive)
        return _telemetry.merge_prometheus(texts + [_telemetry.render_prometheus(self.metrics)])

    def stats(self) -> dict:
        answers = self.fan_out("GET", "/v1/stats", timeout=10.0)
        views = [json.loads(payload) for _, status, payload in answers if status == 200]
        counters: dict[str, float] = {}
        jobs = {"queued": 0, "running": 0, "done": 0, "failed": 0}
        for view in views:
            for name, value in view.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            for state, count in view.get("jobs", {}).items():
                jobs[state] = jobs.get(state, 0) + count
        executed = counters.get("batch.specs", 0)
        planned = counters.get("plan.specs", 0)
        own = {
            name.removeprefix("dispatcher."): int(value)
            for name, value in self.metrics.snapshot()["counters"].items()
        }
        return {
            "draining": any(v.get("draining") for v in views),
            "jobs": jobs,
            "counters": {k: counters[k] for k in sorted(counters)},
            "dedup_hit_ratio": round(1.0 - executed / planned, 4) if planned else 0.0,
            "dispatcher": {
                "workers": self.worker_count,
                "alive": sum(1 for h in self.workers if h.alive),
                "counters": own,
            },
        }

    def profile_view(self, raw_query: str) -> dict:
        """Merged ``GET /v1/profile``: every worker samples itself, the
        dispatcher folds the profiles into one.

        The merge is the same deterministic fold the engine uses for
        worker spools (:meth:`repro.obs.sampler.SampleProfile.merge`),
        so the merged ``profile`` object is byte-stable in structure —
        same keys, same sort orders — regardless of worker count or
        reply arrival order.
        """
        from ..obs.sampler import SampleProfile

        seconds, interval_s = _profile_params(raw_query)
        downstream = "/v1/profile"
        if raw_query:
            downstream += f"?{raw_query}"
        # The budget covers the workers' own sampling windows (clamped
        # worker-side to <= 30 s) plus transport slack.
        answers = self.fan_out("GET", downstream, timeout=min(seconds, 30.0) + 30.0)
        merged = SampleProfile(interval_s=max(0.001, min(interval_s, 1.0)))
        workers = []
        for handle, status, payload in answers:
            if status != 200:
                continue
            try:
                view = json.loads(payload)
            except json.JSONDecodeError:  # pragma: no cover - torn worker reply
                continue
            worker_profile = SampleProfile.from_dict(view.get("profile", {}))
            merged.merge(worker_profile)
            workers.append(
                {
                    "shard": view.get("shard"),
                    "pid": view.get("pid"),
                    "n_samples": worker_profile.n_samples,
                    "overhead_ratio": worker_profile.overhead_ratio(),
                }
            )
        workers.sort(key=lambda w: (w["shard"] is None, w["shard"]))
        self.metrics.inc("dispatcher.profile.requests")
        return {
            "seconds": seconds,
            "interval_s": interval_s,
            "workers": workers,
            "missing": self.worker_count - len(workers),
            "profile": merged.to_dict(),
        }

    def jobs_view(self, raw_query: str) -> dict:
        """Merged ``GET /v1/jobs``: filters pushed down, paging done here."""
        filters, limit, offset = _jobs_query(raw_query)
        downstream = "/v1/jobs" + (f"?{urlencode(filters)}" if filters else "")
        merged: dict[str, dict] = {}
        for _handle, status, payload in self.fan_out("GET", downstream, timeout=30.0):
            body = json.loads(payload)
            if status != 200:
                raise ReproError(body.get("error", f"worker answered {status}"))
            for summary in body.get("jobs", []):
                merged.setdefault(summary["id"], summary)
        ordered = sorted(merged.values(), key=lambda j: j["created"])
        return _jobs_page(ordered, limit, offset)

    def drain(self, timeout: float | None) -> bool:
        body = json.dumps({} if timeout is None else {"timeout": timeout}).encode()
        drained = True
        for _handle, status, payload in self.fan_out(
            "POST",
            "/v1/drain",
            body=body,
            timeout=(timeout or 30.0) + 10.0,
        ):
            try:
                drained = drained and status == 200 and json.loads(payload)["drained"]
            except (json.JSONDecodeError, KeyError):
                drained = False
        return drained

    def workers_view(self) -> dict:
        return {
            "mode": "dispatcher",
            "count": self.worker_count,
            "ring_vnodes": self.ring.vnodes,
            "workers": [h.view() for h in self.workers],
        }


class _DispatchHandler(_JsonHandler):
    """The dispatcher's routes: merged views here, job routes forwarded."""

    server_version = "scaltool-dispatcher"

    #: Request headers worth carrying to the worker.
    _FORWARD_HEADERS = ("content-type", "traceparent", "tracestate")

    @property
    def dispatcher(self) -> Dispatcher:
        return self.front

    def finish(self) -> None:
        # This thread serves one client connection and ends with it, so
        # its keep-alive connections to the workers close here.
        try:
            super().finish()
        finally:
            self.dispatcher.close_forwards()

    def _proxy(self, handle: WorkerHandle, body: bytes) -> None:
        """Forward this request to ``handle``; relay the answer byte-for-byte."""
        headers = {
            name: value
            for name, value in self.headers.items()
            if name.lower() in self._FORWARD_HEADERS
        }
        if body:
            headers["Content-Length"] = str(len(body))
        try:
            status, resp_headers, payload = self.dispatcher.forward(
                handle, self.command, self.path, body=body or None, headers=headers
            )
        except ServiceError as exc:
            self._send(503, {"error": str(exc)})
            return
        relayed = {}
        if "Retry-After" in resp_headers:
            relayed["Retry-After"] = resp_headers["Retry-After"]
        relayed["X-Scaltool-Worker"] = str(handle.shard)
        content_type = resp_headers.get("Content-Type", "application/json")
        self._send_bytes(status, payload, content_type, relayed)

    def _get(self, parts: list[str], query: str) -> None:
        if parts == ["healthz"]:
            status, body = self.dispatcher.health()
            self._send(status, body)
        elif parts == ["metrics"]:
            text = self.dispatcher.prometheus_text()
            self._send_bytes(200, text.encode(), _telemetry.CONTENT_TYPE)
        elif parts == ["v1", "stats"]:
            self._send(200, self.dispatcher.stats())
        elif parts == ["v1", "workers"]:
            self._send(200, self.dispatcher.workers_view())
        elif parts == ["v1", "jobs"]:
            self._send(200, self.dispatcher.jobs_view(query))
        elif parts == ["v1", "profile"]:
            self._send(200, self.dispatcher.profile_view(query))
        elif len(parts) >= 3 and parts[:2] == ["v1", "jobs"]:
            # Job-scoped: status/result/trace/lineage/blame — long polls
            # included — go to the job's home shard untouched.
            self._proxy(self.dispatcher.shard_of(parts[2]), self._read_body())
        else:
            self._no_route()

    def _post(self, parts: list[str], query: str) -> None:
        if parts == ["v1", "jobs"]:
            raw = self._read_body()
            body = _json_object(raw)
            # The fingerprint *is* the route: identical submits home to
            # the same worker and dedup there.
            request = _requests.compile_request(_submit_kind(body), body.get("payload") or {})
            self._proxy(self.dispatcher.shard_of(request.fingerprint()), raw)
        elif parts == ["v1", "drain"]:
            timeout = _drain_timeout(self._body())
            self._send(200, {"drained": self.dispatcher.drain(timeout)})
        else:
            self._no_route()
