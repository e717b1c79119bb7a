"""A minimal stdlib client for the analysis service HTTP API.

Transport: one keep-alive :class:`http.client.HTTPConnection` per
calling thread (the server speaks HTTP/1.1 with persistent
connections), rebuilt transparently when the server drops it — under a
load test this removes a TCP handshake per request, which at 100+
concurrent clients is the difference between measuring the service and
measuring the socket stack.  :meth:`ServiceClient.close` closes every
connection the client opened, whichever thread opened it.  All requests
are safe to retry once on a stale connection: reads are idempotent and
submits are deduplicated by content-addressed fingerprint.

Mirrors the server's backpressure semantics: a 429/503 raises
:class:`~repro.errors.QueueFullError` carrying the server's
``Retry-After`` advice, and :meth:`ServiceClient.submit` can optionally
retry-with-backoff on the caller's behalf.  :meth:`ServiceClient.wait`
uses the result route's ``?wait=S`` long-poll — the server parks the
request until the job settles — instead of busy-polling.  Used by
``scaltool submit`` / ``status`` / ``result`` and the service load
benchmark.

Trace propagation: by default (``SCALTOOL_TRACE`` unset or truthy) every
submit generates a fresh W3C-style trace context and sends it as
``traceparent`` / ``tracestate`` headers, so the server can stitch the
whole job — client intent, HTTP hop, queue wait, batching, worker runs —
into one span tree queryable via ``scaltool obs trace <job-id>``.
``ServiceClient(trace=False)`` (or ``SCALTOOL_TRACE=0``) sends no
headers at all.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
import urllib.parse

from ..errors import (
    JobNotFoundError,
    QueueFullError,
    ServiceError,
    StoreUnavailableError,
)
from ..obs.trace import (
    TRACEPARENT_HEADER,
    TRACESTATE_HEADER,
    TraceContext,
    enabled_from_env,
    format_tracestate,
)

__all__ = ["ServiceClient", "DEFAULT_URL", "default_service_url"]

DEFAULT_URL = "http://127.0.0.1:8032"
_ENV_VAR = "SCALTOOL_SERVICE_URL"


def default_service_url() -> str:
    """$SCALTOOL_SERVICE_URL, or the local default."""
    return os.environ.get(_ENV_VAR, DEFAULT_URL)


class ServiceClient:
    """Talk to a running ``scaltool serve`` instance."""

    def __init__(
        self,
        base_url: str | None = None,
        timeout: float = 30.0,
        trace: bool | None = None,
    ) -> None:
        self.base_url = (base_url or default_service_url()).rstrip("/")
        self.timeout = timeout
        self.trace_enabled = enabled_from_env() if trace is None else bool(trace)
        parsed = urllib.parse.urlsplit(self.base_url)
        if parsed.scheme not in ("http", ""):
            raise ServiceError(f"unsupported scheme in {self.base_url!r}")
        self._host = parsed.hostname or "127.0.0.1"
        self._port = parsed.port or 80
        self._local = threading.local()  # this thread's connection
        self._conns_lock = threading.Lock()
        self._conns: set[http.client.HTTPConnection] = set()  # every thread's

    # -- transport --------------------------------------------------------------

    def _connection(self, timeout: float) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(self._host, self._port, timeout=timeout)
            self._local.conn = conn
        conn.timeout = timeout
        if conn.sock is None:
            # Not connected: new, or closed by close() or by the server.
            # Register it before it connects, so close() reaches it from
            # any thread.
            with self._conns_lock:
                self._conns.add(conn)
        else:
            conn.sock.settimeout(timeout)
        return conn

    def drop_connection(self) -> None:
        """Close the calling thread's keep-alive connection; the client's
        other threads keep theirs."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._local.conn = None
            with self._conns_lock:
                self._conns.discard(conn)
            conn.close()

    def _raw(
        self,
        method: str,
        path: str,
        data: bytes | None = None,
        headers: dict | None = None,
        timeout: float | None = None,
    ) -> tuple[int, dict, bytes]:
        """One round trip; retries once on a stale keep-alive connection."""
        timeout = self.timeout if timeout is None else timeout
        last: Exception | None = None
        for attempt in (0, 1):
            conn = self._connection(timeout)
            try:
                conn.request(method, path, body=data, headers=headers or {})
                resp = conn.getresponse()
                body = resp.read()
                return resp.status, {k: v for k, v in resp.getheaders()}, body
            except (http.client.HTTPException, OSError) as exc:
                last = exc
                self.drop_connection()
                if attempt:
                    break
        raise ServiceError(f"cannot reach service at {self.base_url}: {last}") from last

    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        headers: dict | None = None,
        timeout: float | None = None,
    ) -> tuple[int, dict]:
        data = json.dumps(body).encode() if body is not None else None
        all_headers = {"Content-Type": "application/json", **(headers or {})}
        if data is not None:
            all_headers["Content-Length"] = str(len(data))
        status, resp_headers, raw = self._raw(
            method, path, data=data, headers=all_headers, timeout=timeout
        )
        try:
            payload = json.loads(raw or b"{}")
        except json.JSONDecodeError:
            payload = {}
        if status < 400:
            return status, payload
        message = payload.get("error", f"HTTP {status}")
        if status == 503 and payload.get("status") == "degraded":
            raise StoreUnavailableError(message)
        if status in (429, 503):
            raise QueueFullError(
                message,
                retry_after=float(
                    payload.get("retry_after", resp_headers.get("Retry-After", 1))
                ),
                draining=status == 503,
            )
        if status == 404:
            raise JobNotFoundError(message)
        raise ServiceError(message)

    # -- API --------------------------------------------------------------------

    def health(self) -> dict:
        """The ``/healthz`` view — returned even when the server answers
        503 for a degraded store, since the body carries the diagnosis."""
        status, _, raw = self._raw("GET", "/healthz")
        try:
            return json.loads(raw or b"{}")
        except json.JSONDecodeError:
            raise ServiceError(f"health check failed: HTTP {status}") from None

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")[1]

    def jobs(
        self,
        limit: int | None = None,
        offset: int = 0,
        state: str | None = None,
        fingerprint: str | None = None,
        since: float | None = None,
    ) -> list[dict]:
        """Job summaries, optionally filtered/paginated server-side."""
        return self.jobs_page(
            limit=limit, offset=offset, state=state, fingerprint=fingerprint, since=since
        )["jobs"]

    def jobs_page(
        self,
        limit: int | None = None,
        offset: int = 0,
        state: str | None = None,
        fingerprint: str | None = None,
        since: float | None = None,
    ) -> dict:
        """The full ``GET /v1/jobs`` page: ``{"jobs","total","limit","offset"}``."""
        params = []
        if limit is not None:
            params.append(f"limit={int(limit)}")
        if offset:
            params.append(f"offset={int(offset)}")
        if state is not None:
            params.append(f"state={urllib.parse.quote(state)}")
        if fingerprint is not None:
            params.append(f"fingerprint={urllib.parse.quote(fingerprint)}")
        if since is not None:
            params.append(f"since={float(since)}")
        query = "?" + "&".join(params) if params else ""
        return self._request("GET", f"/v1/jobs{query}")[1]

    def submit(
        self,
        kind: str,
        payload: dict | None = None,
        priority: int | None = None,
        retries: int = 0,
    ) -> dict:
        """Submit a request; returns ``{"id", "state", "deduped", "trace_id"?}``.

        ``retries > 0`` makes the client honour 429 backpressure itself:
        it sleeps the server's ``Retry-After`` and resubmits, up to
        ``retries`` times, before letting :class:`QueueFullError` out.

        With tracing on, each submit (including each backoff retry)
        carries a fresh ``traceparent``; the server answers with the
        ``trace_id`` the job actually joined (an earlier submitter's for
        deduped jobs).
        """
        body: dict = {"kind": kind, "payload": payload or {}}
        if priority is not None:
            body["priority"] = priority
        attempt = 0
        while True:
            headers = None
            if self.trace_enabled:
                ctx = TraceContext.new_root()
                headers = {
                    TRACEPARENT_HEADER: ctx.to_traceparent(),
                    TRACESTATE_HEADER: format_tracestate("client.submit"),
                }
            try:
                return self._request("POST", "/v1/jobs", body, headers=headers)[1]
            except QueueFullError as exc:
                if exc.draining or attempt >= retries:
                    raise
                attempt += 1
                time.sleep(exc.retry_after)

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")[1]

    def result(self, job_id: str) -> dict:
        """The result view: may still be pending (``state`` != done/failed)."""
        return self._request("GET", f"/v1/jobs/{job_id}/result")[1]

    def wait(self, job_id: str, timeout: float = 300.0, poll: float = 0.1) -> dict:
        """Long-poll until the job is done or failed; returns the result view.

        Each round trip asks the server to park up to ~10 s via
        ``?wait=S``; a server that ignores the parameter (or answers
        early) degrades to classic polling at ``poll`` cadence.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(f"timed out waiting for job {job_id}")
            wait_s = max(0.1, min(remaining, 10.0))
            t0 = time.monotonic()
            view = self._request(
                "GET",
                f"/v1/jobs/{job_id}/result?wait={wait_s:.3f}",
                timeout=max(self.timeout, wait_s + 10.0),
            )[1]
            if view["state"] in ("done", "failed"):
                return view
            if time.monotonic() - t0 < 0.05:  # server answered without parking
                time.sleep(min(poll, max(0.0, deadline - time.monotonic())))

    def trace(self, job_id: str) -> dict:
        """The job's distributed span tree (see ``scaltool obs trace``)."""
        return self._request("GET", f"/v1/jobs/{job_id}/trace")[1]

    def lineage(self, job_id: str) -> dict:
        """The job's result lineage (see ``scaltool explain``)."""
        return self._request("GET", f"/v1/jobs/{job_id}/lineage")[1]

    def blame(self, job_id: str) -> dict:
        """The job's scaling-loss blame report (see ``scaltool blame``)."""
        return self._request("GET", f"/v1/jobs/{job_id}/blame")[1]

    def workers(self) -> dict:
        """The dispatcher topology view (``GET /v1/workers``); 404 on a
        single-process server."""
        return self._request("GET", "/v1/workers")[1]

    def profile(self, seconds: float = 1.0, interval_ms: float = 5.0) -> dict:
        """Sample the serving process(es) for ``seconds`` (``GET
        /v1/profile``); against a dispatcher the answer is the merged
        profile of every worker.  Render with ``scaltool obs hot``."""
        query = f"/v1/profile?seconds={float(seconds)}&interval_ms={float(interval_ms)}"
        timeout = max(self.timeout, min(float(seconds), 30.0) + 45.0)
        return self._request("GET", query, timeout=timeout)[1]

    def metrics(self) -> str:
        """The raw Prometheus text exposition from ``GET /metrics``."""
        status, _, raw = self._raw("GET", "/metrics")
        if status != 200:
            raise ServiceError(f"metrics scrape failed: HTTP {status}")
        return raw.decode()

    def drain(self, timeout: float | None = None) -> bool:
        body = {} if timeout is None else {"timeout": timeout}
        request_timeout = self.timeout if timeout is None else max(self.timeout, timeout + 10.0)
        return self._request("POST", "/v1/drain", body, timeout=request_timeout)[1]["drained"]

    def close(self) -> None:
        """Close every connection this client opened, on any thread."""
        with self._conns_lock:
            conns, self._conns = self._conns, set()
        for conn in conns:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
