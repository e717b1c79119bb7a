"""Unit tests for distributed trace context (repro.obs.trace)."""

from __future__ import annotations

import itertools

import pytest

from repro.obs.trace import (
    TraceBuffer,
    TraceContext,
    TraceSpan,
    attach,
    current,
    enabled_from_env,
    format_tracestate,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    parse_tracestate_name,
    retarget,
    set_id_source,
)


@pytest.fixture
def deterministic_ids():
    """Replace os.urandom-backed id generation with a counter."""
    counter = itertools.count(1)

    def source(n_bytes: int) -> str:
        return f"{next(counter):0{2 * n_bytes}x}"

    set_id_source(source)
    yield
    set_id_source(None)


# -- traceparent ----------------------------------------------------------------


def test_traceparent_roundtrip():
    ctx = TraceContext.new_root()
    parsed = parse_traceparent(ctx.to_traceparent())
    assert parsed == ctx
    assert len(ctx.trace_id) == 32
    assert len(ctx.span_id) == 16


def test_traceparent_flags():
    ctx = TraceContext(trace_id="ab" * 16, span_id="cd" * 8, sampled=False)
    header = ctx.to_traceparent()
    assert header.endswith("-00")
    assert parse_traceparent(header) == ctx


@pytest.mark.parametrize(
    "header",
    [
        None,
        "",
        "garbage",
        "01-" + "a" * 32 + "-" + "b" * 16 + "-01",  # unknown version
        "00-" + "a" * 31 + "-" + "b" * 16 + "-01",  # short trace id
        "00-" + "a" * 32 + "-" + "b" * 15 + "-01",  # short span id
        "00-" + "A" * 32 + "-" + "b" * 16 + "-01X",  # trailing junk
        "00-" + "0" * 32 + "-" + "b" * 16 + "-01",  # all-zero trace id
        "00-" + "a" * 32 + "-" + "0" * 16 + "-01",  # all-zero span id
    ],
)
def test_traceparent_malformed_rejected(header):
    assert parse_traceparent(header) is None


def test_traceparent_case_and_whitespace_tolerant():
    header = "  00-" + "AB" * 16 + "-" + "CD" * 8 + "-01  "
    parsed = parse_traceparent(header)
    assert parsed is not None
    assert parsed.trace_id == "ab" * 16


def test_tracestate_roundtrip():
    assert parse_tracestate_name(format_tracestate("client.submit")) == "client.submit"
    assert parse_tracestate_name("vendor=x,scaltool=obs.test,other=y") == "obs.test"
    assert parse_tracestate_name("vendor=x") is None
    assert parse_tracestate_name(None) is None


def test_child_context_keeps_trace_id(deterministic_ids):
    root = TraceContext.new_root()
    child = root.child()
    assert child.trace_id == root.trace_id
    assert child.span_id != root.span_id


def test_enabled_from_env(monkeypatch):
    monkeypatch.delenv("SCALTOOL_TRACE", raising=False)
    assert enabled_from_env() is True
    for off in ("0", "false", "OFF", " no "):
        monkeypatch.setenv("SCALTOOL_TRACE", off)
        assert enabled_from_env() is False
    monkeypatch.setenv("SCALTOOL_TRACE", "1")
    assert enabled_from_env() is True


def test_id_lengths(deterministic_ids):
    assert len(new_trace_id()) == 32
    assert len(new_span_id()) == 16


# -- buffer ---------------------------------------------------------------------


def test_buffer_span_nesting_chains_parent_ids():
    buf = TraceBuffer()
    root_ctx = TraceContext.new_root()
    with buf.span("outer", context=root_ctx) as outer:
        with buf.span("inner") as inner:  # picks up `outer` as current
            pass
    spans = {s.name: s for s in buf.spans_for(root_ctx.trace_id)}
    assert spans["outer"].parent_id == root_ctx.span_id
    assert spans["inner"].parent_id == outer.context.span_id
    assert spans["inner"].span_id == inner.context.span_id
    # inner finished first (recorded on exit)
    names = [s.name for s in buf.spans_for(root_ctx.trace_id)]
    assert names == ["inner", "outer"]


def test_buffer_span_without_context_starts_fresh_root():
    buf = TraceBuffer()
    with buf.span("lonely") as live:
        pass
    [span] = buf.spans_for(live.context.trace_id)
    assert span.parent_id == ""


def test_buffer_error_annotation():
    buf = TraceBuffer()
    ctx = TraceContext.new_root()
    with pytest.raises(RuntimeError):
        with buf.span("boom", context=ctx):
            raise RuntimeError("bad batch")
    [span] = buf.spans_for(ctx.trace_id)
    assert span.attrs["error"] == "bad batch"


def test_buffer_pop_trace_forgets():
    buf = TraceBuffer()
    ctx = TraceContext.new_root()
    buf.emit("x", 1.0, context=ctx, start=0.0)
    assert len(buf) == 1
    popped = buf.pop_trace(ctx.trace_id)
    assert [s.name for s in popped] == ["x"]
    assert len(buf) == 0
    assert buf.pop_trace(ctx.trace_id) == []


def test_buffer_attach_sets_current():
    buf = TraceBuffer()
    ctx = TraceContext.new_root()
    assert current() is None
    with attach(ctx):
        assert current() == ctx
        with buf.span("child"):
            pass
    assert current() is None
    [span] = buf.spans_for(ctx.trace_id)
    assert span.parent_id == ctx.span_id


def test_span_dict_roundtrip():
    span = TraceSpan(
        trace_id="t" * 32, span_id="s" * 16, parent_id="p" * 16,
        name="n", start=12.5, duration_s=0.25, attrs={"k": 1}, pid=7,
    )
    assert TraceSpan.from_dict(span.to_dict()) == span


# -- retarget -------------------------------------------------------------------


def test_retarget_reparents_roots_and_keeps_internal_edges(deterministic_ids):
    batch_root = TraceContext.new_root()
    buf = TraceBuffer()
    with buf.span("engine.run", context=batch_root) as run:
        buf.emit("engine.execute", 0.1, context=run.context, start=0.0)
        buf.emit("engine.execute", 0.1, context=run.context, start=0.1)
    spans = buf.pop_trace(batch_root.trace_id)

    out = retarget(spans, trace_id="f" * 32, root_parent_id="a" * 16)
    assert all(s.trace_id == "f" * 32 for s in out)
    by_name = {}
    for s in out:
        by_name.setdefault(s.name, []).append(s)
    # engine.run's parent was outside the set -> re-rooted
    [run_span] = by_name["engine.run"]
    assert run_span.parent_id == "a" * 16
    # the executes stay children of engine.run
    assert all(s.parent_id == run_span.span_id for s in by_name["engine.execute"])
    # the originals are untouched (copies, not mutation)
    assert all(s.trace_id == batch_root.trace_id for s in spans)
