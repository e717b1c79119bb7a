"""The multi-process front: dispatcher + N worker processes.

``scaltool serve --workers N`` (N >= 2) starts this instead of a single
:class:`~repro.service.http.ServiceServer`::

    client ──► Dispatcher (ThreadingHTTPServer, this process)
                  │  consistent-hash(job fingerprint) -> home shard
                  ▼
               worker 0..N-1 (subprocess, python -m repro.service.worker)
                  │  shared cache root: run cache + SQLite index,
                  ▼  SQLite claim table, job store (shard-filtered)

Routing: every job-scoped request (submit, status, result, trace,
lineage, blame) is forwarded — raw bytes, untouched — to the job's home
shard, chosen by consistent-hashing the content-addressed fingerprint.
Identical requests therefore land on the same worker and dedup there;
no cross-process dedup race exists by construction.  Spec-level overlap
*between different jobs* on different shards is handled by the shared
SQLite claim table underneath.

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

import http.client
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from ..errors import ReproError, ServiceError
from ..obs import telemetry as _telemetry
from ..obs.logs import get_logger, kv
from ..runner.engine import default_cache_root
from . import requests as _requests
from .core import ServiceConfig
from .sharding import HashRing

__all__ = ["Dispatcher", "WorkerHandle", "serve_dispatcher"]

_log = get_logger("service.dispatcher")

#: How long a forward waits out a worker restart before giving up.
RESTART_GRACE = 30.0

#: Supervisor poll cadence (seconds).
SUPERVISE_INTERVAL = 0.2


class WorkerHandle:
    """One spawned worker process and how to reach it."""

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self.pid: int | None = None
        self.restarts = -1  # first spawn brings it to 0
        self.port_file: Path | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    @property
    def url(self) -> str | None:
        return f"http://127.0.0.1:{self.port}" if self.port else None

    def connection(self, timeout: float) -> http.client.HTTPConnection:
        """A keep-alive connection to this worker, one per calling thread.

        Invalidated (closed + rebuilt) whenever the worker's port moved
        — i.e. after a restart.
        """
        conn = getattr(self._local, "conn", None)
        if conn is not None and getattr(self._local, "port", None) == self.port:
            conn.timeout = timeout
            return conn
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already dead
                pass
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        self._local.conn = conn
        self._local.port = self.port
        return conn

    def drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
            self._local.conn = None

    def view(self) -> dict:
        return {
            "shard": self.shard,
            "pid": self.pid,
            "url": self.url,
            "alive": self.alive,
            "restarts": max(0, self.restarts),
        }


class _DispatchHTTPServer(ThreadingHTTPServer):
    # Stdlib default backlog (5) resets connections under a burst of
    # reconnecting clients; the dispatcher fronts the whole fleet.
    request_queue_size = 128


class Dispatcher:
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
        self._counters: dict[str, int] = {}
        self._supervisor: threading.Thread | None = None
        self._httpd = _DispatchHTTPServer((host, port), _DispatchHandler)
        self._httpd.daemon_threads = True
        self._httpd.dispatcher = self  # type: ignore[attr-defined]
        # Made once the port is bound, so a failed bind leaves nothing behind.
        self._port_dir = Path(tempfile.mkdtemp(prefix="scaltool-workers-"))
        self._thread: threading.Thread | None = None

    # -- lifecycle --------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "Dispatcher":
        for handle in self.workers:
            self._spawn(handle)
        self._supervisor = threading.Thread(
            target=self._supervise, name="scaltool-supervisor", daemon=True
        )
        self._supervisor.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="scaltool-dispatch-http",
            daemon=True,
            kwargs={"poll_interval": 0.05},
        )
        self._thread.start()
        _log.debug(
            "dispatcher up %s",
            kv(url=self.url, workers=self.worker_count, root=self.root),
        )
        return self

    def serve_forever(self) -> None:
        for handle in self.workers:
            self._spawn(handle)
        self._supervisor = threading.Thread(
            target=self._supervise, name="scaltool-supervisor", daemon=True
        )
        self._supervisor.start()
        _log.debug(
            "dispatcher up %s",
            kv(url=self.url, workers=self.worker_count, root=self.root),
        )
        try:
            self._httpd.serve_forever(poll_interval=0.2)
        finally:
            self.shutdown()

    def shutdown(self, drain_timeout: float | None = 30.0) -> None:
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
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
        shutil.rmtree(self._port_dir, ignore_errors=True)
        _log.debug("dispatcher stopped")

    # -- supervision ------------------------------------------------------------

    def _spawn(self, handle: WorkerHandle) -> None:
        port_file = self._port_dir / f"worker-{handle.shard}.json"
        try:
            port_file.unlink()
        except FileNotFoundError:
            pass
        cfg = self.config
        cmd = [
            sys.executable,
            "-m",
            "repro.service.worker",
            "--cache-dir", str(self.root),
            "--shard-index", str(handle.shard),
            "--shard-count", str(self.worker_count),
            "--port-file", str(port_file),
            "--jobs", str(cfg.jobs),
            "--concurrency", str(cfg.workers),
            "--max-queue", str(cfg.max_queue),
            "--job-timeout", str(cfg.job_timeout),
            "--batch-window", str(cfg.batch_window),
            "--claim-ttl", str(cfg.claim_ttl),
        ]
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        handle.proc = subprocess.Popen(cmd, env=env)
        handle.port_file = port_file
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
                break
            except (OSError, ValueError, KeyError):
                time.sleep(0.02)
        else:  # pragma: no cover - startup hang
            handle.proc.kill()
            raise ServiceError(f"worker {handle.shard} did not report a port in time")
        handle.restarts += 1
        if handle.restarts:
            self._tally("workers.restarted")
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
                    self._tally("workers.died")
                    try:
                        self._spawn(handle)
                    except ServiceError as exc:  # pragma: no cover - respawn loop
                        _log.warning(
                            "worker respawn failed %s", kv(shard=handle.shard, reason=exc)
                        )
                        time.sleep(1.0)
            time.sleep(SUPERVISE_INTERVAL)

    def _tally(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

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
            if not handle.alive or handle.port is None:
                time.sleep(0.05)
                continue
            conn = handle.connection(timeout)
            try:
                conn.request(method, path, body=body, headers=headers or {})
                resp = conn.getresponse()
                payload = resp.read()
                resp_headers = {k: v for k, v in resp.getheaders()}
                return resp.status, resp_headers, payload
            except (http.client.HTTPException, OSError) as exc:
                last = exc
                handle.drop_connection()
                self._tally("forward.retries")
                time.sleep(0.05)
        raise ServiceError(
            f"worker {handle.shard} unreachable past restart grace: {last}"
        )

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

    def metrics(self) -> str:
        answers = self.fan_out("GET", "/metrics", timeout=10.0)
        texts = [payload.decode() for _, status, payload in answers if status == 200]
        merged = _telemetry.merge_prometheus(texts)
        with self._lock:
            counters = dict(self._counters)
        extra = [
            "# TYPE scaltool_dispatcher_workers gauge",
            f"scaltool_dispatcher_workers {self.worker_count}",
            "# TYPE scaltool_dispatcher_workers_alive gauge",
            f"scaltool_dispatcher_workers_alive {sum(1 for h in self.workers if h.alive)}",
        ]
        for name in sorted(counters):
            metric = _telemetry.prometheus_name(f"dispatcher.{name}") + "_total"
            extra.append(f"# TYPE {metric} counter")
            extra.append(f"{metric} {counters[name]}")
        return merged + "\n".join(extra) + "\n"

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
        with self._lock:
            own = dict(self._counters)
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
        from .http import _profile_params

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
        self._tally("profile.requests")
        return {
            "seconds": seconds,
            "interval_s": interval_s,
            "workers": workers,
            "missing": self.worker_count - len(workers),
            "profile": merged.to_dict(),
        }

    def jobs_view(self, raw_query: str) -> dict:
        """Merged ``GET /v1/jobs``: filters pushed down, paging done here."""
        from urllib.parse import parse_qsl, urlencode

        params = dict(parse_qsl(raw_query, keep_blank_values=True))
        limit = params.pop("limit", None)
        offset = params.pop("offset", None)
        try:
            limit = int(limit) if limit is not None else None
            offset = int(offset) if offset is not None else 0
        except ValueError as exc:
            raise ReproError(f"bad limit/offset: {exc}") from None
        if (limit is not None and limit < 0) or offset < 0:
            raise ReproError("limit/offset must be non-negative")
        downstream = "/v1/jobs" + (f"?{urlencode(params)}" if params else "")
        merged: dict[str, dict] = {}
        for _handle, status, payload in self.fan_out("GET", downstream, timeout=30.0):
            if status != 200:
                body = {}
                try:
                    body = json.loads(payload)
                except json.JSONDecodeError:
                    pass
                raise ReproError(body.get("error", f"worker answered {status}"))
            for summary in json.loads(payload).get("jobs", []):
                merged.setdefault(summary["id"], summary)
        ordered = sorted(merged.values(), key=lambda j: j["created"])
        total = len(ordered)
        page = ordered[offset:] if limit is None else ordered[offset : offset + limit]
        return {"jobs": page, "total": total, "limit": limit, "offset": offset}

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


class _DispatchHandler(BaseHTTPRequestHandler):
    server_version = "scaltool-dispatcher"
    protocol_version = "HTTP/1.1"

    #: Request headers worth carrying to the worker.
    _FORWARD_HEADERS = ("content-type", "traceparent", "tracestate")

    @property
    def dispatcher(self) -> Dispatcher:
        return self.server.dispatcher  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args) -> None:  # quiet by default
        _log.debug("http %s", kv(client=self.client_address[0], line=fmt % args))

    def _send_json(self, status: int, body: dict, headers: dict | None = None) -> None:
        payload = (json.dumps(body, sort_keys=True) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _relay(self, handle: WorkerHandle, status: int, headers: dict, payload: bytes) -> None:
        """Pass a worker response through byte-for-byte."""
        self.send_response(status)
        self.send_header(
            "Content-Type", headers.get("Content-Type", "application/json")
        )
        self.send_header("Content-Length", str(len(payload)))
        if "Retry-After" in headers:
            self.send_header("Retry-After", headers["Retry-After"])
        self.send_header("X-Scaltool-Worker", str(handle.shard))
        self.end_headers()
        self.wfile.write(payload)

    def _proxy(self, handle: WorkerHandle, timeout: float = 120.0) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else None
        headers = {
            name: value
            for name, value in self.headers.items()
            if name.lower() in self._FORWARD_HEADERS
        }
        if body is not None:
            headers["Content-Length"] = str(len(body))
        try:
            status, resp_headers, payload = self.dispatcher.forward(
                handle, self.command, self.path, body=body, headers=headers, timeout=timeout
            )
        except ServiceError as exc:
            self._send_json(503, {"error": str(exc)})
            return
        self._relay(handle, status, resp_headers, payload)

    def _route_job(self, job_id: str) -> WorkerHandle:
        return self.dispatcher.shard_of(job_id)

    def do_GET(self) -> None:  # noqa: N802 - stdlib API
        try:
            path, _, raw_query = self.path.partition("?")
            parts = [p for p in path.split("/") if p]
            if parts == ["healthz"]:
                status, body = self.dispatcher.health()
                self._send_json(status, body)
            elif parts == ["metrics"]:
                text = self.dispatcher.metrics().encode()
                self.send_response(200)
                self.send_header("Content-Type", _telemetry.CONTENT_TYPE)
                self.send_header("Content-Length", str(len(text)))
                self.end_headers()
                self.wfile.write(text)
            elif parts == ["v1", "stats"]:
                self._send_json(200, self.dispatcher.stats())
            elif parts == ["v1", "workers"]:
                self._send_json(200, self.dispatcher.workers_view())
            elif parts == ["v1", "jobs"]:
                self._send_json(200, self.dispatcher.jobs_view(raw_query))
            elif parts == ["v1", "profile"]:
                self._send_json(200, self.dispatcher.profile_view(raw_query))
            elif len(parts) >= 3 and parts[:2] == ["v1", "jobs"]:
                # Job-scoped: status/result/trace/lineage/blame — long
                # polls included — go to the job's home shard untouched.
                self._proxy(self._route_job(parts[2]))
            else:
                self._send_json(404, {"error": f"no route {self.path!r}"})
        except ReproError as exc:
            self._send_json(400, {"error": str(exc)})

    def do_POST(self) -> None:  # noqa: N802 - stdlib API
        try:
            path = self.path.partition("?")[0]
            parts = [p for p in path.split("/") if p]
            if parts == ["v1", "jobs"]:
                length = int(self.headers.get("Content-Length") or 0)
                body = self.rfile.read(length) if length else b""
                try:
                    parsed = json.loads(body or b"{}")
                except json.JSONDecodeError as exc:
                    raise ReproError(f"request body is not valid JSON: {exc}") from None
                if not isinstance(parsed, dict) or not isinstance(
                    parsed.get("kind"), str
                ):
                    raise ReproError("request needs a string 'kind'")
                # The fingerprint *is* the route: identical submits home
                # to the same worker and dedup there.
                request = _requests.compile_request(
                    parsed["kind"], parsed.get("payload") or {}
                )
                handle = self._route_job(request.fingerprint())
                headers = {
                    name: value
                    for name, value in self.headers.items()
                    if name.lower() in self._FORWARD_HEADERS
                }
                headers["Content-Length"] = str(len(body))
                try:
                    status, resp_headers, payload = self.dispatcher.forward(
                        handle, "POST", self.path, body=body, headers=headers
                    )
                except ServiceError as exc:
                    self._send_json(503, {"error": str(exc)})
                    return
                self._relay(handle, status, resp_headers, payload)
            elif parts == ["v1", "drain"]:
                length = int(self.headers.get("Content-Length") or 0)
                body = json.loads(self.rfile.read(length) or b"{}") if length else {}
                timeout = body.get("timeout")
                drained = self.dispatcher.drain(
                    float(timeout) if timeout is not None else None
                )
                self._send_json(200, {"drained": drained})
            else:
                self._send_json(404, {"error": f"no route {self.path!r}"})
        except ReproError as exc:
            self._send_json(400, {"error": str(exc)})


def serve_dispatcher(
    config: ServiceConfig | None = None,
    worker_count: int = 2,
    host: str = "127.0.0.1",
    port: int = 8032,
) -> Dispatcher:
    """Build (but do not start) a dispatcher — ``scaltool serve --workers N``."""
    return Dispatcher(config, worker_count=worker_count, host=host, port=port)
