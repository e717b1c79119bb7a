"""``scaltool serve --workers 2`` stops cleanly on SIGTERM.

SIGTERM takes the same drain-and-shutdown path as Ctrl-C: the
dispatcher stops both workers before it exits, and removes the
temporary directory its workers report their ports through.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.service.core import ServiceConfig
from repro.service.dispatcher import Dispatcher

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as resp:
        return json.loads(resp.read().decode())


def test_sigterm_stops_dispatcher_and_workers(tmp_path):
    env = {
        **os.environ,
        "TMPDIR": str(tmp_path),
        "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
    }
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", "--workers", "2", "--port", "0",
            "--cache-dir", str(tmp_path / "cache"),
        ],
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    worker_pids: list[int] = []
    try:
        match = re.search(r"listening on (http://\S+)", proc.stderr.readline())
        assert match, "serve did not announce its URL"
        url = match.group(1)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                view = _get(url + "/v1/workers")
            except OSError:
                view = {"workers": []}
            worker_pids = [w["pid"] for w in view["workers"] if w.get("pid")]
            if len(worker_pids) == 2:
                break
            time.sleep(0.1)
        assert len(worker_pids) == 2
        assert list(tmp_path.glob("scaltool-workers-*"))

        # The dispatcher compiles a submit to route it, so a bad sweep
        # axis is refused with a 400 before any worker sees it.
        body = json.dumps(
            {"kind": "sweep", "payload": {"workload": "synthetic",
                                          "workload_axes": {"sharing_frac": [0.55]}}}
        ).encode()
        request = urllib.request.Request(
            url + "/v1/jobs", data=body, method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as refused:
            urllib.request.urlopen(request, timeout=10)
        refused.value.close()
        assert refused.value.code == 400

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
        deadline = time.monotonic() + 30
        while any(_alive(pid) for pid in worker_pids) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(_alive(pid) for pid in worker_pids)
        assert not list(tmp_path.glob("scaltool-workers-*"))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        proc.stderr.close()
        for pid in worker_pids:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)


def test_failed_bind_leaves_no_port_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        with pytest.raises(OSError):
            Dispatcher(
                ServiceConfig(cache_dir=tmp_path / "cache"),
                worker_count=2,
                port=taken.getsockname()[1],
            )
    assert not list(tmp_path.glob("scaltool-workers-*"))
