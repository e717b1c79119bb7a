"""The two HTTP fronts: the single-process server and the dispatcher.

Both are route tables on one front (:mod:`repro.service.http`), so a
malformed request gets the same status and ``error`` text from either;
the single-process messages are the reference.  The dispatcher forwards
over keep-alive connections, and a reused connection must take each
forward's own timeout.
"""

from __future__ import annotations

import http.client
import json
import urllib.parse

import pytest

from repro.service.core import ServiceConfig
from repro.service.dispatcher import Dispatcher
from repro.service.http import ServiceServer

#: (method, path, body) requests both fronts must refuse alike.
MALFORMED = [
    ("POST", "/v1/drain", b'{"timeout": "soon"}'),
    ("POST", "/v1/drain", b"{not json"),
    ("POST", "/v1/drain", b"[1,2]"),
    ("GET", "/v1/jobs?limit=abc", None),
    ("GET", "/v1/jobs?limit=-1", None),
    ("GET", "/v1/jobs?bogus=1", None),
    ("POST", "/v1/jobs", b"[1]"),
    ("POST", "/v1/jobs", b"{}"),
    ("POST", "/v1/jobs", b"{not json"),
    ("POST", "/v1/jobs", b'{"kind": "analyze", "payload": [1]}'),
    (
        "POST",
        "/v1/jobs",
        b'{"kind": "analyze", "payload": {"workload": "synthetic"}, "priority": "high"}',
    ),
    ("POST", "/v1/jobs", b'{"kind": "whatif", "payload": {"workload": "synthetic", "tmm": 0.5}}'),
]


@pytest.fixture(scope="module")
def fronts(tmp_path_factory):
    single = ServiceServer(
        ServiceConfig(cache_dir=tmp_path_factory.mktemp("single"), workers=1), port=0
    ).start()
    fleet = Dispatcher(
        ServiceConfig(cache_dir=tmp_path_factory.mktemp("fleet"), workers=1),
        worker_count=2,
        port=0,
    ).start()
    try:
        yield {"single": single, "fleet": fleet}
    finally:
        fleet.shutdown(drain_timeout=10)
        single.shutdown(drain_timeout=10)


def _call(url: str, method: str, path: str, body: bytes | None) -> tuple[int, dict]:
    """One request on a fresh connection; a dropped connection fails the test."""
    parsed = urllib.parse.urlsplit(url)
    conn = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=30)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


@pytest.mark.parametrize("method,path,body", MALFORMED)
def test_malformed_request_answers_400_alike(fronts, method, path, body):
    single = _call(fronts["single"].url, method, path, body)
    fleet = _call(fronts["fleet"].url, method, path, body)
    assert single[0] == 400 and single[1]["error"]
    assert (fleet[0], fleet[1]["error"]) == (single[0], single[1]["error"])


def test_reused_forward_connection_takes_the_new_timeout(fronts):
    dispatcher = fronts["fleet"]
    handle = dispatcher.workers[0]
    status, _, _ = dispatcher.forward(handle, "GET", "/healthz", timeout=10.0)
    assert status == 200
    conn = handle.client._local.conn
    assert conn.sock.gettimeout() == 10.0
    status, _, _ = dispatcher.forward(handle, "GET", "/healthz", timeout=0.5)
    assert status == 200
    assert handle.client._local.conn is conn  # the same keep-alive connection
    assert conn.sock.gettimeout() == 0.5


def _boom(*args, **kwargs):
    raise RuntimeError("boom")


def test_unhandled_error_in_a_service_route_answers_500(fronts, monkeypatch):
    # Not a dropped connection, which a dispatcher in front of this
    # worker would take for a dead worker and re-send for its whole
    # restart grace; a worker's 500 passes through the dispatcher as is.
    monkeypatch.setattr(fronts["single"].service, "stats", _boom)
    status, body = _call(fronts["single"].url, "GET", "/v1/stats", None)
    assert status == 500 and "RuntimeError: boom" in body["error"]


def test_unhandled_error_in_a_dispatcher_route_answers_500(fronts, monkeypatch):
    monkeypatch.setattr(fronts["fleet"], "health", _boom)
    status, body = _call(fronts["fleet"].url, "GET", "/healthz", None)
    assert status == 500 and "RuntimeError: boom" in body["error"]
