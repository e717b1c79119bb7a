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
requests (unknown kind, a payload field the kind does not take, a bad
value, unknown workload) answer **400** with the validation error, and
an unexpected failure in a route answers **500**.  A service whose job
store directory cannot be written (mis-mounted cache root, read-only
disk) starts *degraded*: submits answer **503** with a structured JSON
body instead of a bare connection failure, while health/metrics/read
endpoints keep working.

The server is a :class:`ThreadingHTTPServer`: request handling threads
only validate and enqueue; all heavy work happens on the service's own
queue/batcher machinery.  The dispatcher of ``serve --workers N``
(:mod:`repro.service.dispatcher`) is a second route table on the same
front: it shares this module's response writer, body and query parsers,
server class, and start/serve/shutdown lifecycle, so a malformed request
gets the same answer from either.
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
from ..obs import telemetry as _telemetry
from ..obs.logs import get_logger, kv
from ..obs.trace import (
    TRACEPARENT_HEADER,
    TRACESTATE_HEADER,
    TraceBuffer,
    TraceContext,
    parse_traceparent,
    parse_tracestate_name,
)
from .core import AnalysisService, ServiceConfig
from .store import Job

__all__ = ["ServiceServer"]

_log = get_logger("service.http")


def _jobs_query(raw_query: str) -> tuple[dict, int | None, int]:
    """Parse ``GET /v1/jobs`` query parameters: ``(filters, limit, offset)``.

    ``filters`` are :meth:`AnalysisService.jobs` keyword arguments.
    Unknown parameters are rejected (400) rather than silently ignored —
    a typoed filter that returns everything is worse than an error.
    """
    from urllib.parse import parse_qsl

    filters: dict = {}
    paging = {"limit": None, "offset": 0}
    for name, value in parse_qsl(raw_query, keep_blank_values=True):
        if name in paging:
            try:
                paging[name] = int(value)
            except ValueError as exc:
                raise ReproError(f"bad {name!r}: expected an integer, got {value!r}") from exc
            if paging[name] < 0:
                raise ReproError(
                    f"bad {name} {paging[name]}; expected a non-negative integer"
                )
        elif name == "since":
            try:
                filters[name] = float(value)
            except ValueError as exc:
                raise ReproError(
                    f"bad 'since': expected an epoch timestamp, got {value!r}"
                ) from exc
        elif name in ("state", "fingerprint"):
            filters[name] = value
        else:
            raise ReproError(
                f"unknown query parameter {name!r}; "
                "expected limit, offset, state, fingerprint, or since"
            )
    return filters, paging["limit"], paging["offset"]


def _jobs_page(jobs: list, limit: int | None, offset: int) -> dict:
    """One page of a filtered job list; ``total`` counts the filtered set."""
    page = jobs[offset:] if limit is None else jobs[offset : offset + limit]
    return {"jobs": page, "total": len(jobs), "limit": limit, "offset": offset}


def _drain_timeout(body: dict) -> float | None:
    """The ``POST /v1/drain`` body's ``timeout`` in seconds (None = wait)."""
    timeout = body.get("timeout")
    if timeout is None:
        return None
    try:
        return float(timeout)
    except (TypeError, ValueError):
        raise ReproError(f"bad 'timeout': expected seconds, got {timeout!r}") from None


def _json_object(raw: bytes) -> dict:
    """A request body as a JSON object (an empty body is ``{}``)."""
    if not raw:
        return {}
    try:
        body = json.loads(raw)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ReproError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(body, dict):
        raise ReproError("request body must be a JSON object")
    return body


def _submit_kind(body: dict) -> str:
    """The request kind of a ``POST /v1/jobs`` body."""
    kind = body.get("kind")
    if not isinstance(kind, str):
        raise ReproError("request needs a string 'kind'")
    return kind


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


class _JsonHandler(BaseHTTPRequestHandler):
    """What both fronts share: routing by path, error mapping, I/O.

    Subclasses implement ``_get(parts, query)`` and ``_post(parts,
    query)``; a :class:`~repro.errors.ReproError` they raise becomes the
    matching status (404, 503, 429 or 400) with an ``{"error": ...}``
    body, and any other exception a logged 500.
    """

    protocol_version = "HTTP/1.1"
    # Every reply leaves as two writes (headers, then body).  With Nagle's
    # algorithm on, the body waits for the ACK of the headers, which a
    # client with delayed ACK holds back for up to 40 ms: TCP_NODELAY on
    # each accepted socket sends both at once.
    disable_nagle_algorithm = True

    @property
    def front(self):
        return self.server.front  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args) -> None:  # quiet by default
        _log.debug("http %s", kv(client=self.client_address[0], line=fmt % args))

    def do_GET(self) -> None:  # noqa: N802 - stdlib API
        self._route(self._get)

    def do_POST(self) -> None:  # noqa: N802 - stdlib API
        self._route(self._post)

    def _get(self, parts: list[str], query: str) -> None:
        raise NotImplementedError

    def _post(self, parts: list[str], query: str) -> None:
        raise NotImplementedError

    def _route(self, handler) -> None:
        path, _, query = self.path.partition("?")
        try:
            handler([p for p in path.split("/") if p], query)
        except JobNotFoundError as exc:
            self._send(404, {"error": str(exc)})
        except StoreUnavailableError as exc:
            self._rejected()
            self._send(503, {"error": str(exc), "status": "degraded", "store": {"writable": False}})
        except QueueFullError as exc:
            self._rejected()
            self._send(
                503 if exc.draining else 429,
                {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": f"{max(1, round(exc.retry_after))}"},
            )
        except ReproError as exc:
            self._send(400, {"error": str(exc)})
        except Exception as exc:
            # A bug in a route answers 500 rather than dropping the
            # connection, which a dispatcher would take for a dead worker.
            _log.exception("unhandled error %s", kv(method=self.command, path=self.path))
            self._send(500, {"error": f"internal error: {type(exc).__name__}: {exc}"})

    def _rejected(self) -> None:
        """Count a submit refused by backpressure or a degraded store."""

    def _no_route(self) -> None:
        self._send(404, {"error": f"no route {self.path!r}"})

    def _send(self, status: int, body: dict, headers: dict | None = None) -> None:
        payload = (json.dumps(body, sort_keys=True) + "\n").encode()
        self._send_bytes(status, payload, "application/json", headers)

    def _send_bytes(
        self, status: int, payload: bytes, content_type: str, headers: dict | None = None
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        return self.rfile.read(length) if length else b""

    def _body(self) -> dict:
        return _json_object(self._read_body())


class _Handler(_JsonHandler):
    """The single-process service's routes."""

    server_version = "scaltool-service"

    @property
    def service(self) -> AnalysisService:
        return self.front.service

    def _route(self, handler) -> None:
        self.service._tally("service.http.requests")
        super()._route(handler)

    def _rejected(self) -> None:
        self.service._tally("service.http.rejected")

    def _send(self, status: int, body: dict, headers: dict | None = None) -> None:
        shard = {"X-Scaltool-Shard": str(self.service.config.shard_index)}
        super()._send(status, body, {**shard, **(headers or {})})

    def _get(self, parts: list[str], query: str) -> None:
        if parts == ["healthz"]:
            health = self.service.health()
            self._send(503 if health["status"] == "degraded" else 200, health)
        elif parts == ["metrics"]:
            text = self.service.prometheus_text()
            self._send_bytes(200, text.encode(), _telemetry.CONTENT_TYPE)
        elif parts == ["v1", "stats"]:
            self._send(200, self.service.stats())
        elif parts == ["v1", "jobs"]:
            filters, limit, offset = _jobs_query(query)
            self._send(200, _jobs_page(self.service.jobs(**filters), limit, offset))
        elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            self._send(200, self.service.status(parts[2]).summary())
        elif len(parts) == 4 and parts[:2] == ["v1", "jobs"] and parts[3] == "result":
            # ?wait=S long-polls: park until terminal (or the budget
            # runs out) instead of making the client busy-poll.
            wait_s = _wait_param(query)
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
            seconds, interval_s = _profile_params(query)
            self._send(200, self.service.profile_view(seconds, interval_s))
        else:
            self._no_route()

    def _post(self, parts: list[str], query: str) -> None:
        if parts == ["v1", "jobs"]:
            self._submit()
        elif parts == ["v1", "drain"]:
            timeout = _drain_timeout(self._body())
            self._send(200, {"drained": self.service.drain(timeout=timeout)})
        else:
            self._no_route()

    def _submit(self) -> None:
        arrived = time.time()
        body = self._body()
        kind = _submit_kind(body)
        ctx = parse_traceparent(self.headers.get(TRACEPARENT_HEADER))
        front = TraceBuffer()
        if ctx is not None:
            # The client's root span cannot be shipped to us (the client
            # process moves on after the response), so a placeholder
            # anchors the tree; ``http.request`` covers this front's own
            # work, up to the hand-off.  ``submit`` files both in the job's
            # trace before the job can run, and only if it admits the job.
            front.emit(
                parse_tracestate_name(self.headers.get(TRACESTATE_HEADER))
                or "client.request",
                0.0,
                context=TraceContext(trace_id=ctx.trace_id, span_id=""),
                start=arrived,
                span_id=ctx.span_id,
                remote=True,
            )
            front.emit(
                "http.request",
                time.time() - arrived,
                context=ctx,
                start=arrived,
                method="POST",
                path="/v1/jobs",
                status=202,
            )
        job, deduped = self.service.submit(
            kind,
            body.get("payload") or {},
            priority=body.get("priority"),
            trace_ctx=ctx,
            trace_spans=front.records,
        )
        out = {"id": job.id, "state": job.state, "deduped": deduped}
        if job.trace_id:
            out["trace_id"] = job.trace_id
        self._send(202, out)


class _HTTPServer(ThreadingHTTPServer):
    # The stdlib default listen backlog (5) drops connections when a
    # hundred clients reconnect in the same instant; size it for the
    # concurrency the service is built to absorb.
    request_queue_size = 128
    daemon_threads = True


class _HTTPFront:
    """A route table bound to a ThreadingHTTPServer, with its lifecycle.

    ``start()`` runs the HTTP loop on a background thread (tests, embedded
    use); ``serve_forever()`` runs it in the foreground (``scaltool
    serve``).  Both first ``_open()`` what the front serves.
    ``shutdown()`` stops the HTTP loop and then calls ``_close()``, which
    drains, so an orderly exit never abandons admitted jobs.
    """

    def __init__(self, handler: type[_JsonHandler], host: str, port: int) -> None:
        self._httpd = _HTTPServer((host, port), handler)
        self._httpd.front = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None
        self._closed = False

    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def _open(self) -> None:
        raise NotImplementedError

    def _close(self, drain_timeout: float | None) -> None:
        raise NotImplementedError

    def start(self) -> "_HTTPFront":
        self._open()
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
        self._open()
        _log.debug("http server listening %s", kv(url=self.url))
        try:
            self._httpd.serve_forever(poll_interval=0.2)
        finally:
            self.shutdown()

    def shutdown(self, drain_timeout: float | None = 30.0) -> None:
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self._close(drain_timeout)


class ServiceServer(_HTTPFront):
    """An :class:`AnalysisService` behind the HTTP front (``scaltool serve``)."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = AnalysisService(config)
        super().__init__(_Handler, host, port)

    def _open(self) -> None:
        self.service.start()

    def _close(self, drain_timeout: float | None) -> None:
        self.service.close(drain=True, timeout=drain_timeout)
