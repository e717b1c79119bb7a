"""The observability switch: one process-wide session, off by default.

Instrumented modules bind the active tracer/registry through the two
accessors::

    from ..obs import runtime as obs

    tracer = obs.tracer()          # NOOP_TRACER when disabled
    with tracer.span("machine.run", n=8):
        ...
    obs.registry().inc("campaign.runs")

Both accessors are one global read plus one attribute read — no dict
lookups, no allocation — and return module-level no-op singletons when
no session is active, so the disabled cost of an instrumentation point
is a single no-op method call.  The contract for instrumented code:
call these at *run / phase / stage* granularity only, never inside
per-reference simulator loops (those are observed via always-on integer
tallies that get folded into metrics at run boundaries).

Sessions nest: :func:`enable` returns the new session and
:func:`disable` restores whatever was active before, so a library user
can profile a region inside a larger profiled program.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator

from .metrics import NOOP_REGISTRY, MetricsRegistry
from .trace import NOOP_TRACER, TraceBuffer

__all__ = [
    "ObsSession",
    "enable",
    "disable",
    "active",
    "is_enabled",
    "tracer",
    "registry",
    "inc",
    "session",
]


class ObsSession:
    """One enable()..disable() window: a tracer (a :class:`TraceBuffer`
    holding the session's local trace) plus a metrics registry.

    The clock is wall time by default so spans spooled back from worker
    processes and spans copied from service job trees share its axis;
    tests inject a deterministic one.
    """

    def __init__(self, clock: Callable[[], float] = time.time) -> None:
        self.clock = clock
        self.tracer = TraceBuffer(clock=clock)
        self.registry = MetricsRegistry()
        self._previous: "ObsSession | None" = None


_active: ObsSession | None = None


def enable(clock: Callable[[], float] = time.time) -> ObsSession:
    """Install (and return) a fresh session; the previous one is stacked."""
    global _active
    new = ObsSession(clock=clock)
    new._previous = _active
    _active = new
    return new


def disable() -> ObsSession | None:
    """Deactivate the current session (its data stays readable); returns it."""
    global _active
    finished = _active
    if finished is not None:
        _active = finished._previous
    return finished


def active() -> ObsSession | None:
    return _active


def is_enabled() -> bool:
    return _active is not None


def tracer():
    """The active tracer, or the no-op singleton."""
    s = _active
    return s.tracer if s is not None else NOOP_TRACER


def registry():
    """The active metrics registry, or the no-op singleton."""
    s = _active
    return s.registry if s is not None else NOOP_REGISTRY


def inc(name: str, value: float = 1) -> None:
    """Count ``value`` into the active session's counter ``name``."""
    registry().inc(name, value)


@contextmanager
def session(clock: Callable[[], float] = time.time) -> Iterator[ObsSession]:
    """``with obs.session() as s:`` — enable for a block, always disable."""
    s = enable(clock=clock)
    try:
        yield s
    finally:
        # Unwind to *this* session even if the block leaked an enable().
        while True:
            finished = disable()
            if finished is s or finished is None:
                break
