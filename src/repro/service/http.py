"""The stdlib HTTP JSON API in front of :class:`AnalysisService`.

Routes (JSON unless noted)::

    GET  /healthz               -> {"status": "ok"|"draining"|"degraded",
                                    "jobs", "queue_depth", "inflight",
                                    "uptime_seconds", "store"}  (503 if degraded)
    GET  /metrics               -> Prometheus text exposition (0.0.4)
    GET  /v1/stats              -> service tallies + queue occupancy
    GET  /v1/jobs               -> {"jobs": [<summary>, ...], "total",
                                    "limit", "offset"}; filters/pagination
                                    via ?limit=&offset=&state=&fingerprint=
                                    &since= (epoch seconds)
    POST /v1/jobs               -> 202 {"id", "state", "deduped", "trace_id"?}
         body: {"kind": ..., "payload": {...}, "priority": 5}
         headers: traceparent / tracestate (optional) join the job to the
         caller's distributed trace
    GET  /v1/jobs/<id>          -> 200 <summary> | 404
    GET  /v1/jobs/<id>/result   -> 200 {"id","state","result","timeline"?} (done)
         [?wait=S]                 200 {"id","state","error","timeline"?}  (failed)
                                   202 {"id","state"}                      (pending)
         ``wait=S`` long-polls up to S seconds (capped at 60) for a
         terminal state before answering — the bundled client uses it
         instead of busy-polling.
    GET  /v1/jobs/<id>/trace    -> 200 {"job","trace_id","complete","spans"}
    GET  /v1/jobs/<id>/lineage  -> 200 {"job","kind","state","health","lineage"}
    GET  /v1/jobs/<id>/blame    -> 200 {"job","kind","state","output","report",
                                    "lineage","trace_id","wall_seconds_by_n"}
    GET  /v1/profile            -> 200 {"seconds","interval_s","shard","pid",
         [?seconds=S&interval_ms=M]  "profile"}; samples this worker's threads
                                   for S seconds (default 1, capped at 30) —
                                   the line-level "what is this worker doing"
                                   view (render with ``scaltool obs hot``)
    POST /v1/drain              -> 200 {"drained": true|false}

Backpressure semantics: a full queue answers **429** and a draining
service **503**, both with a ``Retry-After`` header carrying the
service's advisory back-off — well-behaved clients (the bundled
:class:`~repro.service.client.ServiceClient`) sleep and retry.  Invalid
requests (unknown kind, bad payload, unknown workload) answer **400**
with the validation error.  A service whose job store directory cannot
be written (mis-mounted cache root, read-only disk) starts *degraded*:
submits answer **503** with a structured JSON body instead of a bare
connection failure, while health/metrics/read endpoints keep working.

The server is a :class:`ThreadingHTTPServer`: request handling threads
only validate and enqueue; all heavy work happens on the service's own
queue/batcher machinery.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..errors import (
    JobNotFoundError,
    QueueFullError,
    ReproError,
    StoreUnavailableError,
)
from ..obs import runtime as obs
from ..obs import telemetry as _telemetry
from ..obs.logs import get_logger, kv
from ..obs.trace import (
    TRACEPARENT_HEADER,
    TRACESTATE_HEADER,
    TraceContext,
    parse_traceparent,
    parse_tracestate_name,
)
from .core import AnalysisService, ServiceConfig
from .store import Job

__all__ = ["ServiceServer", "serve"]

_log = get_logger("service.http")


def _jobs_query(raw_query: str) -> dict:
    """Parse ``GET /v1/jobs`` query parameters into jobs_view kwargs.

    Unknown parameters are rejected (400) rather than silently ignored —
    a typoed filter that returns everything is worse than an error.
    """
    from urllib.parse import parse_qsl

    kwargs: dict = {}
    for name, value in parse_qsl(raw_query, keep_blank_values=True):
        if name in ("limit", "offset"):
            try:
                kwargs[name] = int(value)
            except ValueError as exc:
                raise ReproError(f"bad {name!r}: expected an integer, got {value!r}") from exc
        elif name == "since":
            try:
                kwargs[name] = float(value)
            except ValueError as exc:
                raise ReproError(
                    f"bad 'since': expected an epoch timestamp, got {value!r}"
                ) from exc
        elif name in ("state", "fingerprint"):
            kwargs[name] = value
        else:
            raise ReproError(
                f"unknown query parameter {name!r}; "
                "expected limit, offset, state, fingerprint, or since"
            )
    return kwargs


def _wait_param(raw_query: str) -> float:
    """The ``?wait=S`` long-poll budget on the result route (0 = none).

    Other query parameters are ignored here (the route historically took
    none), and the budget is capped so a handler thread can never be
    parked indefinitely by a client.
    """
    from urllib.parse import parse_qsl

    for name, value in parse_qsl(raw_query, keep_blank_values=True):
        if name == "wait":
            try:
                return max(0.0, min(float(value), 60.0))
            except ValueError as exc:
                raise ReproError(
                    f"bad 'wait': expected seconds, got {value!r}"
                ) from exc
    return 0.0


def _profile_params(raw_query: str) -> tuple[float, float]:
    """``(seconds, interval_s)`` from a ``/v1/profile`` query string.

    Values are validated here and clamped by the service; unknown
    parameters are rejected so typos fail loudly instead of silently
    profiling with defaults.
    """
    from urllib.parse import parse_qsl

    seconds, interval_s = 1.0, 0.005
    for name, value in parse_qsl(raw_query, keep_blank_values=True):
        try:
            if name == "seconds":
                seconds = float(value)
            elif name == "interval_ms":
                interval_s = float(value) / 1e3
            else:
                raise ReproError(
                    f"unknown query parameter {name!r}; expected seconds or interval_ms"
                )
        except ValueError as exc:
            raise ReproError(f"bad {name!r}: expected a number, got {value!r}") from exc
    return seconds, interval_s


def _result_view(service: AnalysisService, job: Job) -> tuple[int, dict]:
    if job.state in ("done", "failed"):
        body = {"id": job.id, "state": job.state}
        if job.state == "done":
            body["result"] = job.result
        else:
            body["error"] = job.error
        if job.trace_id:
            timeline = service.store.get_timeline(job.id)
            if timeline is not None:
                body["timeline"] = {"trace_id": job.trace_id, "spans": timeline}
        return 200, body
    return 202, {"id": job.id, "state": job.state}


class _Handler(BaseHTTPRequestHandler):
    server_version = "scaltool-service"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> AnalysisService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing ---------------------------------------------------------------

    def log_message(self, fmt: str, *args) -> None:  # quiet by default
        _log.debug("http %s", kv(client=self.client_address[0], line=fmt % args))

    def _send(self, status: int, body: dict, headers: dict | None = None) -> None:
        payload = (json.dumps(body, sort_keys=True) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.send_header("X-Scaltool-Shard", str(self.service.config.shard_index))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        payload = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ReproError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise ReproError("request body must be a JSON object")
        return body

    # -- routes -----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib API
        obs.registry().inc("service.http.requests")
        self.service.telemetry.inc("service.http.requests")
        try:
            path, _, raw_query = self.path.partition("?")
            parts = [p for p in path.split("/") if p]
            if parts == ["healthz"]:
                health = self.service.health()
                self._send(503 if health["status"] == "degraded" else 200, health)
            elif parts == ["metrics"]:
                self._send_text(
                    200, self.service.telemetry.prometheus_text(), _telemetry.CONTENT_TYPE
                )
            elif parts == ["v1", "stats"]:
                self._send(200, self.service.stats())
            elif parts == ["v1", "jobs"]:
                self._send(200, self.service.jobs_view(**_jobs_query(raw_query)))
            elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                self._send(200, self.service.status(parts[2]).summary())
            elif len(parts) == 4 and parts[:2] == ["v1", "jobs"] and parts[3] == "result":
                # ?wait=S long-polls: park until terminal (or the budget
                # runs out) instead of making the client busy-poll.
                wait_s = _wait_param(raw_query)
                job = self.service.result(parts[2])
                if wait_s and job.state not in ("done", "failed"):
                    try:
                        job = self.service.wait(parts[2], timeout=wait_s)
                    except JobNotFoundError:
                        raise
                    except ReproError:
                        job = self.service.result(parts[2])  # budget expired
                status, body = _result_view(self.service, job)
                self._send(status, body)
            elif len(parts) == 4 and parts[:2] == ["v1", "jobs"] and parts[3] == "trace":
                self._send(200, self.service.trace(parts[2]))
            elif len(parts) == 4 and parts[:2] == ["v1", "jobs"] and parts[3] == "lineage":
                self._send(200, self.service.lineage(parts[2]))
            elif len(parts) == 4 and parts[:2] == ["v1", "jobs"] and parts[3] == "blame":
                self._send(200, self.service.blame(parts[2]))
            elif parts == ["v1", "profile"]:
                seconds, interval_s = _profile_params(raw_query)
                self._send(200, self.service.profile_view(seconds, interval_s))
            else:
                self._send(404, {"error": f"no route {self.path!r}"})
        except JobNotFoundError as exc:
            self._send(404, {"error": str(exc)})
        except ReproError as exc:
            self._send(400, {"error": str(exc)})

    def do_POST(self) -> None:  # noqa: N802 - stdlib API
        obs.registry().inc("service.http.requests")
        self.service.telemetry.inc("service.http.requests")
        try:
            parts = [p for p in self.path.split("?")[0].split("/") if p]
            if parts == ["v1", "jobs"]:
                arrived = time.time()
                body = self._body()
                kind = body.get("kind")
                if not isinstance(kind, str):
                    raise ReproError("request needs a string 'kind'")
                ctx = parse_traceparent(self.headers.get(TRACEPARENT_HEADER))
                if ctx is not None:
                    # The client's root span cannot be shipped to us (the
                    # client process moves on after the response), so record
                    # a placeholder for it now — it anchors the tree — and
                    # do it *before* submit so a fast job cannot finish and
                    # persist its timeline without it.
                    self.service.traces.emit(
                        parse_tracestate_name(self.headers.get(TRACESTATE_HEADER))
                        or "client.request",
                        0.0,
                        context=TraceContext(trace_id=ctx.trace_id, span_id=""),
                        start=arrived,
                        span_id=ctx.span_id,
                        remote=True,
                    )
                try:
                    job, deduped = self.service.submit(
                        kind,
                        body.get("payload") or {},
                        priority=body.get("priority"),
                        trace_ctx=ctx,
                    )
                except ReproError:
                    if ctx is not None:  # nobody will pop the placeholder
                        self.service.traces.pop_trace(ctx.trace_id)
                    raise
                if ctx is not None:
                    if job.trace_id == ctx.trace_id:
                        self.service.traces.emit(
                            "http.request",
                            time.time() - arrived,
                            context=ctx,
                            start=arrived,
                            method="POST",
                            path="/v1/jobs",
                            status=202,
                        )
                    else:
                        # Deduped onto a job that belongs to another trace:
                        # nobody will ever pop ours, so drop it.
                        self.service.traces.pop_trace(ctx.trace_id)
                out = {"id": job.id, "state": job.state, "deduped": deduped}
                if job.trace_id:
                    out["trace_id"] = job.trace_id
                self._send(202, out)
            elif parts == ["v1", "drain"]:
                body = self._body()
                timeout = body.get("timeout")
                drained = self.service.drain(
                    timeout=float(timeout) if timeout is not None else None
                )
                self._send(200, {"drained": drained})
            else:
                self._send(404, {"error": f"no route {self.path!r}"})
        except StoreUnavailableError as exc:
            obs.registry().inc("service.http.rejected")
            self.service.telemetry.inc("service.http.rejected")
            self._send(503, {"error": str(exc), "status": "degraded", "store": {"writable": False}})
        except QueueFullError as exc:
            obs.registry().inc("service.http.rejected")
            self.service.telemetry.inc("service.http.rejected")
            self._send(
                503 if exc.draining else 429,
                {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": f"{max(1, round(exc.retry_after))}"},
            )
        except ReproError as exc:
            self._send(400, {"error": str(exc)})


class _ServiceHTTPServer(ThreadingHTTPServer):
    # The stdlib default listen backlog (5) drops connections when a
    # hundred clients reconnect in the same instant; size it for the
    # concurrency the service is built to absorb.
    request_queue_size = 128


class ServiceServer:
    """An :class:`AnalysisService` bound to a ThreadingHTTPServer.

    ``start()`` runs the HTTP loop on a background thread (tests, embedded
    use); ``serve_forever()`` runs it in the foreground (``scaltool
    serve``).  ``shutdown()`` drains the service before stopping, so an
    orderly exit never abandons admitted jobs.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = AnalysisService(config)
        self._httpd = _ServiceHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = self.service  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ServiceServer":
        self.service.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="scaltool-http",
            daemon=True,
            kwargs={"poll_interval": 0.05},
        )
        self._thread.start()
        _log.debug("http server listening %s", kv(url=self.url))
        return self

    def serve_forever(self) -> None:
        self.service.start()
        _log.debug("http server listening %s", kv(url=self.url))
        try:
            self._httpd.serve_forever(poll_interval=0.2)
        finally:
            self.shutdown()

    def shutdown(self, drain_timeout: float | None = 30.0) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self.service.close(drain=True, timeout=drain_timeout)


def serve(
    config: ServiceConfig | None = None, host: str = "127.0.0.1", port: int = 8032
) -> ServiceServer:
    """Build (but do not start) a server — the ``scaltool serve`` entry."""
    return ServiceServer(config, host=host, port=port)
