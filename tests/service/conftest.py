"""Service-layer fixtures.

Two kinds of test run here:

* **engine-free tests** use ``stub_requests`` to monkeypatch the request
  compiler with an event-controlled stub, so queueing, priorities,
  backpressure, timeouts, retries, drain and recovery are all tested
  deterministically without touching the simulator;
* **end-to-end tests** share one module-scoped warm run cache (the
  smallest synthetic campaign the analysis accepts: s0 = 163840 on the
  default machine) so each request resolves from cache in milliseconds.
"""

from __future__ import annotations

import sqlite3
import threading
from contextlib import closing
from pathlib import Path

import pytest

from repro.errors import TransientRunError
from repro.service import requests as req_mod

# The smallest synthetic campaign the default machine's analysis accepts
# (below this the triplet plan collapses and ScalTool raises
# InsufficientDataError).  One cold run costs ~3 s; everything after
# resolves from the shared cache.
WARM_S0 = 163840
WARM_COUNTS = (1, 2)
WARM_PAYLOAD = {"workload": "synthetic", "s0": WARM_S0, "counts": list(WARM_COUNTS)}


def age_claim(db: Path, key: str, seconds: float) -> None:
    """Move a claim's last heartbeat ``seconds`` into the past.

    Claim-TTL tests age claims this way instead of sleeping past a short
    TTL, so they never depend on how fast the machine runs them.
    """
    with closing(sqlite3.connect(db)) as conn, conn:
        conn.execute(
            "UPDATE claims SET heartbeat = heartbeat - ? WHERE key = ?", (seconds, key)
        )


@pytest.fixture(scope="module")
def warm_root(tmp_path_factory):
    """A cache root whose run cache already holds the shared campaign."""
    root = tmp_path_factory.mktemp("service-cache")
    req_mod.compile_request("campaign", WARM_PAYLOAD).execute(cache_root=root)
    return root


class StubBehavior:
    """Controls what stub jobs do: block on events, fail, record order."""

    def __init__(self) -> None:
        self.executed: list[str] = []
        self.lock = threading.Lock()
        self.gates: dict[str, threading.Event] = {}
        self.started: dict[str, threading.Event] = {}
        self.fail_transient: dict[str, int] = {}  # name -> remaining failures
        self.fail_hard: set[str] = set()

    def gate(self, name: str) -> threading.Event:
        """Make job ``name`` block until the returned event is set."""
        self.started[name] = threading.Event()
        self.gates[name] = threading.Event()
        return self.gates[name]

    def release_all(self) -> None:
        for event in self.gates.values():
            event.set()

    def run(self, name: str) -> None:
        started = self.started.get(name)
        if started is not None:
            started.set()
        gate = self.gates.get(name)
        if gate is not None:
            gate.wait(timeout=30)
        with self.lock:
            if self.fail_transient.get(name, 0) > 0:
                self.fail_transient[name] -= 1
                raise TransientRunError(f"transient failure in {name}")
            if name in self.fail_hard:
                raise ValueError(f"hard failure in {name}")
            self.executed.append(name)


@pytest.fixture
def stub_requests(monkeypatch):
    """Route kind='stub' requests to an event-controlled in-test handler.

    The stub compiles to zero run specs (the planner sees an empty plan)
    and its ``execute`` defers to the returned :class:`StubBehavior`, so
    tests drive the queue/worker machinery without the engine.
    """
    behavior = StubBehavior()

    class StubRequest(req_mod.CompiledRequest):
        kind = "stub"

        def _canonicalize(self, payload):
            return dict(payload)

        def specs(self):
            return []

        def _execute(self, cache_root, executor, progress):
            name = self.canonical.get("name", "")
            behavior.run(name)
            return req_mod.RequestResult(output=f"stub:{name}\n", data={"name": name})

    real = req_mod.compile_request

    def fake_compile(kind, payload=None):
        if kind == "stub":
            return StubRequest(payload or {})
        return real(kind, payload)

    monkeypatch.setattr(req_mod, "compile_request", fake_compile)
    return behavior
