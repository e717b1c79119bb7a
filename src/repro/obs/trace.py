"""Spans: the one span model, from a profiling session to a request trace.

Every timed region in the program is a :class:`TraceSpan` with explicit
``span_id``/``parent_id`` edges, whether it was recorded by an
observability session (``scaltool profile``, ``--metrics-out``, the
line sampler) or by the service for one request's trace across
processes — client → HTTP → job queue → planner/batcher →
``ProcessPoolExecutor`` workers.

* :class:`TraceContext` — W3C ``traceparent``-style identity
  (``00-<32 hex trace id>-<16 hex span id>-<flags>``), generated by the
  client, carried as an HTTP header, attached to jobs, and serialised
  into engine execution context.
* :class:`TraceSpan` — one finished span: explicit edges (not implicit
  nesting), wall-clock ``start`` so spans from different processes
  order on a shared axis, and the recording ``pid``.
* :class:`TraceBuffer` — a thread-safe collector keyed by trace id.  An
  obs session's tracer is one (its parentless spans form the session's
  local trace); the service keeps another for every in-flight request
  and extracts a job's tree by trace id when the job finishes.

Nesting uses one module-level :class:`contextvars.ContextVar` holding
the innermost open span, so it is per thread and per ``asyncio`` task;
thread and process hops are explicit (:func:`attach` a
:class:`TraceContext`, or pass ``context=``).  A span's path and depth
are not stored: readers derive them from the parent edges
(:func:`repro.obs.export.span_rows`, :func:`open_span_path`).

The disabled fast path is :data:`NOOP_TRACER` / :data:`NOOP_SPAN`:
module-level singletons whose methods do nothing and allocate nothing,
so instrumented code calls ``obs.tracer().span(...)`` unconditionally at
run/phase granularity and pays one no-op call when observability is
off.  Hot loops (per-reference code) never call a tracer.

Propagation is on by default and costs a few dict writes per request;
``SCALTOOL_TRACE=0`` (or ``ServiceClient(trace=False)``) disables it
entirely — no headers, no spans, no spool files.
"""

from __future__ import annotations

import contextvars
import os
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Iterator

__all__ = [
    "TRACEPARENT_HEADER",
    "TRACESTATE_HEADER",
    "TraceContext",
    "TraceSpan",
    "TraceBuffer",
    "TraceHandle",
    "NoopSpan",
    "NOOP_SPAN",
    "NoopTracer",
    "NOOP_TRACER",
    "current",
    "attach",
    "open_span_path",
    "new_trace_id",
    "new_span_id",
    "set_id_source",
    "parse_traceparent",
    "parse_tracestate_name",
    "format_tracestate",
    "enabled_from_env",
    "retarget",
]

TRACEPARENT_HEADER = "traceparent"
TRACESTATE_HEADER = "tracestate"

_ENV_VAR = "SCALTOOL_TRACE"
_TRACEPARENT_RE = re.compile(r"^00-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$")
_STATE_RE = re.compile(r"scaltool=([A-Za-z0-9._-]+)")


def enabled_from_env() -> bool:
    """Trace propagation switch: on unless ``SCALTOOL_TRACE`` is 0/false/off."""
    return os.environ.get(_ENV_VAR, "1").strip().lower() not in ("0", "false", "off", "no")


def _random_hex(n_bytes: int) -> str:
    return os.urandom(n_bytes).hex()


_id_source: Callable[[int], str] = _random_hex


def set_id_source(source: Callable[[int], str] | None) -> None:
    """Override id generation (tests inject a deterministic counter)."""
    global _id_source
    _id_source = source if source is not None else _random_hex


def new_trace_id() -> str:
    return _id_source(16)


def new_span_id() -> str:
    return _id_source(8)


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity: which trace, and which span is the parent."""

    trace_id: str  # 32 lowercase hex chars
    span_id: str  # 16 lowercase hex chars
    sampled: bool = True

    @classmethod
    def new_root(cls) -> "TraceContext":
        return cls(trace_id=new_trace_id(), span_id=new_span_id())

    def child(self, span_id: str | None = None) -> "TraceContext":
        """The context a span started under this one propagates onward."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=span_id if span_id is not None else new_span_id(),
            sampled=self.sampled,
        )

    def to_traceparent(self) -> str:
        return f"00-{self.trace_id}-{self.span_id}-{'01' if self.sampled else '00'}"


def parse_traceparent(header: str | None) -> TraceContext | None:
    """Parse a ``traceparent`` header; malformed or absent -> None."""
    if not header:
        return None
    match = _TRACEPARENT_RE.match(header.strip().lower())
    if match is None:
        return None
    trace_id, span_id, flags = match.groups()
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return TraceContext(trace_id=trace_id, span_id=span_id, sampled=flags != "00")


def format_tracestate(name: str) -> str:
    """Our ``tracestate`` entry: names the span the traceparent points at."""
    return f"scaltool={name}"


def parse_tracestate_name(header: str | None) -> str | None:
    """The span name carried in our ``tracestate`` entry, if any."""
    if not header:
        return None
    match = _STATE_RE.search(header)
    return match.group(1) if match else None


@dataclass(frozen=True)
class TraceHandle:
    """A buffer + the context to record under: what crosses an API boundary.

    The engine takes one of these so it can add distributed spans to the
    caller's trace without knowing anything about jobs or services.
    """

    buffer: "TraceBuffer"
    context: TraceContext


@dataclass
class TraceSpan:
    """One finished span of a distributed trace."""

    trace_id: str
    span_id: str
    parent_id: str  # "" for a root span
    name: str
    start: float  # wall-clock seconds (time.time())
    duration_s: float
    attrs: dict = field(default_factory=dict)
    pid: int = 0

    def to_dict(self) -> dict:
        return {**asdict(self), "attrs": dict(sorted(self.attrs.items()))}

    @classmethod
    def from_dict(cls, d: dict) -> "TraceSpan":
        return cls(
            trace_id=d["trace_id"],
            span_id=d["span_id"],
            parent_id=d.get("parent_id", ""),
            name=d["name"],
            start=float(d.get("start", 0.0)),
            duration_s=float(d.get("duration_s", 0.0)),
            attrs=dict(d.get("attrs", {})),
            pid=int(d.get("pid", 0)),
        )


#: The innermost open span (a live span, or a context attached across a
#: thread/process hop); new spans nest under it.
_current: contextvars.ContextVar["_LiveSpan | TraceContext | None"] = contextvars.ContextVar(
    "scaltool_span", default=None
)

#: Thread ident -> that thread's innermost open live span.  The sampler
#: reads it from its watcher thread, which cannot see another thread's
#: context variables.
_open_by_thread: dict[int, "_LiveSpan"] = {}


def _forget_open_spans() -> None:
    """A forked child (a pool worker) starts with no span open: the
    parent's open spans are not the child's to nest under."""
    _open_by_thread.clear()
    _current.set(None)


os.register_at_fork(after_in_child=_forget_open_spans)


def current() -> TraceContext | None:
    """The context a new span would nest under here, or None (a root)."""
    cur = _current.get()
    return cur.context if isinstance(cur, _LiveSpan) else cur


@contextmanager
def attach(context: TraceContext | None) -> Iterator[TraceContext | None]:
    """Make ``context`` current for the block (thread/process handoff)."""
    token = _current.set(context)
    try:
        yield context
    finally:
        _current.reset(token)


def open_span_path(ident: int) -> str:
    """``/``-joined names from the outermost to thread ``ident``'s innermost
    open span, following parent edges; ``""`` when none is open.

    The walk stops at a context attached across a thread hop, since that
    parent is open in another thread.
    """
    span = _open_by_thread.get(ident)
    names = []
    while span is not None:
        names.append(span.name)
        span = span.parent
    return "/".join(reversed(names))


class _LiveSpan:
    """An open span (the context manager a buffer hands out)."""

    __slots__ = ("_buffer", "context", "parent_id", "parent", "name", "attrs", "_t0", "_token")

    def __init__(
        self,
        buffer: "TraceBuffer",
        name: str,
        attrs: dict,
        parent: "_LiveSpan | TraceContext | None",
    ) -> None:
        self._buffer = buffer
        self.name = name
        self.attrs = attrs
        self._t0 = 0.0
        self._token = None
        #: The enclosing live span in this thread (None past a hop).
        self.parent = parent if isinstance(parent, _LiveSpan) else None
        if parent is None:
            self.context = TraceContext(trace_id=buffer.trace_id, span_id=new_span_id())
            self.parent_id = ""
        else:
            outer = parent.context if self.parent is not None else parent
            self.context = outer.child()
            self.parent_id = outer.span_id

    def set(self, **attrs) -> "_LiveSpan":
        """Attach attributes after the span has started."""
        self.attrs.update(attrs)
        return self

    def elapsed(self) -> float:
        """Seconds since the span started (it must be entered)."""
        return self._buffer._clock() - self._t0

    def __enter__(self) -> "_LiveSpan":
        self._t0 = self._buffer._clock()
        self._token = _current.set(self)
        _open_by_thread[threading.get_ident()] = self
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration_s = self._buffer._clock() - self._t0
        _current.reset(self._token)
        outer = _current.get()
        if isinstance(outer, _LiveSpan):
            _open_by_thread[threading.get_ident()] = outer
        else:
            _open_by_thread.pop(threading.get_ident(), None)
        if exc_type is not None:
            self.attrs.setdefault("error", str(exc) or exc_type.__name__)
        self._buffer.extend(
            [
                TraceSpan(
                    trace_id=self.context.trace_id,
                    span_id=self.context.span_id,
                    parent_id=self.parent_id,
                    name=self.name,
                    start=self._t0,
                    duration_s=duration_s,
                    attrs=self.attrs,
                    pid=os.getpid(),
                )
            ]
        )
        return False


class TraceBuffer:
    """Thread-safe collector of :class:`TraceSpan` records, keyed by trace.

    A span started with no parent becomes a root of the buffer's own
    local trace (:attr:`trace_id`).  The service keeps one buffer per
    process: spans for every in-flight trace accumulate here, and
    :meth:`pop_trace` extracts (and forgets) one trace's spans when its
    job settles, so memory tracks in-flight work, not uptime.
    """

    def __init__(self, clock: Callable[[], float] = time.time) -> None:
        self._clock = clock
        self.epoch = clock()  # manifests report start offsets from here
        self.trace_id = new_trace_id()
        self._lock = threading.Lock()
        self._spans: dict[str, list[TraceSpan]] = {}

    # -- recording ----------------------------------------------------------------

    def span(self, name: str, context: TraceContext | None = None, **attrs) -> _LiveSpan:
        """Start a span under ``context`` (default: the current span).

        Entering makes the new span current, so nested ``span()`` calls
        in the same thread/task chain correctly.
        """
        return _LiveSpan(self, name, attrs, context if context is not None else _current.get())

    def emit(
        self,
        name: str,
        duration_s: float,
        context: TraceContext | None = None,
        start: float | None = None,
        span_id: str | None = None,
        pid: int | None = None,
        **attrs,
    ) -> TraceSpan:
        """Record a pre-measured span as a child of ``context`` (default:
        the current span); a context with an empty span id makes it a
        root of that trace.  ``start`` defaults to ``duration_s`` ago."""
        parent = context if context is not None else current()
        span = TraceSpan(
            trace_id=parent.trace_id if parent is not None else self.trace_id,
            span_id=span_id or new_span_id(),
            parent_id=parent.span_id if parent is not None else "",
            name=name,
            start=self._clock() - duration_s if start is None else start,
            duration_s=duration_s,
            attrs=attrs,
            pid=pid or os.getpid(),
        )
        self.extend([span])
        return span

    def extend(self, spans: list[TraceSpan]) -> None:
        with self._lock:
            for span in spans:
                self._spans.setdefault(span.trace_id, []).append(span)

    # -- reads --------------------------------------------------------------------

    @property
    def records(self) -> list[TraceSpan]:
        """Every span held, trace by trace, each in recording order."""
        with self._lock:
            return [span for spans in self._spans.values() for span in spans]

    def by_name(self, name: str) -> list[TraceSpan]:
        return [span for span in self.records if span.name == name]

    def spans_for(self, trace_id: str) -> list[TraceSpan]:
        with self._lock:
            return list(self._spans.get(trace_id, []))

    def pop_trace(self, trace_id: str) -> list[TraceSpan]:
        """Extract and forget one trace's spans."""
        with self._lock:
            return self._spans.pop(trace_id, [])

    def __len__(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._spans.values())


class NoopSpan:
    """The disabled span: every method is a no-op; a shared singleton."""

    __slots__ = ()
    context = None

    def set(self, **attrs) -> "NoopSpan":
        return self

    def elapsed(self) -> float:
        return 0.0

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = NoopSpan()


class NoopTracer:
    """The disabled tracer: hands out :data:`NOOP_SPAN`, records nothing."""

    __slots__ = ()

    records: list = []  # shared, always empty by construction

    def span(self, name: str, context: TraceContext | None = None, **attrs) -> NoopSpan:
        return NOOP_SPAN

    def emit(self, name: str, duration_s: float, **kwargs) -> None:
        return None

    def extend(self, spans: list[TraceSpan]) -> None:
        return None


NOOP_TRACER = NoopTracer()


def retarget(
    spans: list[TraceSpan], trace_id: str, root_parent_id: str
) -> list[TraceSpan]:
    """Copy a span set into another trace (shared batch -> each job's tree).

    Spans whose parent is not in the set (the roots) are re-parented under
    ``root_parent_id``; internal edges are preserved.  Span ids carry over
    unchanged — they were freshly generated, so they stay unique within
    the target trace.
    """
    ids = {span.span_id for span in spans}
    return [
        replace(
            span,
            trace_id=trace_id,
            parent_id=span.parent_id if span.parent_id in ids else root_parent_id,
            attrs=dict(span.attrs),
        )
        for span in spans
    ]
