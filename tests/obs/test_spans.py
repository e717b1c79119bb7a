"""Spans: nesting through parent edges, ordering, timing, threads, and the
disabled fast path."""

import itertools
import sys
import threading

import pytest

from repro import obs
from repro.obs import manifest_records
from repro.obs.export import span_rows
from repro.obs.trace import NOOP_SPAN, NOOP_TRACER, NoopSpan, NoopTracer, TraceBuffer


def tick_clock(step=1.0):
    """A deterministic monotonic clock: 0, step, 2*step, ..."""
    counter = itertools.count()
    return lambda: next(counter) * step


def rows_by_name(tracer: TraceBuffer) -> dict:
    return {row["name"]: row for row in span_rows(tracer.records)}


class TestSpanNesting:
    def test_paths_and_depths(self):
        tracer = TraceBuffer(clock=tick_clock())
        with tracer.span("outer"):
            with tracer.span("middle"):
                with tracer.span("inner"):
                    pass
            with tracer.span("sibling"):
                pass
        rows = rows_by_name(tracer)
        paths = {name: row["path"] for name, row in rows.items()}
        assert paths["outer"] == "outer"
        assert paths["middle"] == "outer/middle"
        assert paths["inner"] == "outer/middle/inner"
        assert paths["sibling"] == "outer/sibling"
        depths = {name: row["depth"] for name, row in rows.items()}
        assert depths == {"outer": 0, "middle": 1, "inner": 2, "sibling": 1}

    def test_records_complete_children_first(self):
        tracer = TraceBuffer(clock=tick_clock())
        with tracer.span("parent") as parent:
            with tracer.span("child"):
                pass
        assert [r.name for r in tracer.records] == ["child", "parent"]
        assert tracer.records[0].parent_id == parent.context.span_id

    def test_start_order_is_seq(self):
        tracer = TraceBuffer(clock=tick_clock())
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        ordered = span_rows(tracer.records)
        assert [r["name"] for r in ordered] == ["a", "b", "c"]
        assert [r["seq"] for r in ordered] == [0, 1, 2]

    def test_sequential_spans_do_not_nest(self):
        tracer = TraceBuffer(clock=tick_clock())
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert all(r.parent_id == "" for r in tracer.records)
        assert span_rows(tracer.records)[1]["path"] == "second"


class TestSpanTiming:
    def test_duration_from_injected_clock(self):
        # Clock ticks once on enter and once on exit: duration == 1 tick.
        tracer = TraceBuffer(clock=tick_clock(step=0.5))
        with tracer.span("timed"):
            pass
        assert tracer.records[0].duration_s == pytest.approx(0.5)

    def test_parent_duration_covers_children(self):
        tracer = TraceBuffer(clock=tick_clock())
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        child, parent = tracer.records
        assert parent.duration_s > child.duration_s

    def test_elapsed_while_open(self):
        tracer = TraceBuffer(clock=tick_clock())
        with tracer.span("open") as span:
            assert span.elapsed() >= 1.0

    def test_total_seconds_sums_by_name(self):
        tracer = TraceBuffer(clock=tick_clock())
        for _ in range(3):
            with tracer.span("rep"):
                pass
        assert sum(r.duration_s for r in tracer.by_name("rep")) == pytest.approx(3.0)
        assert len(tracer.by_name("rep")) == 3


class TestSpanAttrs:
    def test_attrs_at_creation_and_set(self):
        tracer = TraceBuffer(clock=tick_clock())
        with tracer.span("s", n=4) as span:
            span.set(extra="yes")
        rec = tracer.records[0]
        assert rec.attrs == {"n": 4, "extra": "yes"}

    def test_to_dict_sorts_attr_keys(self):
        tracer = TraceBuffer(clock=tick_clock())
        with tracer.span("s", zebra=1, apple=2):
            pass
        assert list(tracer.records[0].to_dict()["attrs"]) == ["apple", "zebra"]
        (row,) = span_rows(tracer.records)
        assert list(row["attrs"]) == ["apple", "zebra"]
        assert row["kind"] == "span"


class TestEmit:
    def test_emit_under_open_span(self):
        tracer = TraceBuffer(clock=tick_clock())
        with tracer.span("run") as run:
            rec = tracer.emit("component.cache", 0.25, cycles=100)
        assert rec.parent_id == run.context.span_id
        row = rows_by_name(tracer)["component.cache"]
        assert row["path"] == "run/component.cache"
        assert row["depth"] == 1
        assert rec.duration_s == 0.25
        assert rec.attrs == {"cycles": 100}

    def test_emit_top_level(self):
        tracer = TraceBuffer(clock=tick_clock())
        rec = tracer.emit("solo", 1.5)
        row = rows_by_name(tracer)["solo"]
        assert rec.parent_id == "" and row["path"] == "solo" and row["depth"] == 0

    def test_span_survives_exception(self):
        tracer = TraceBuffer(clock=tick_clock())
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
        assert [r.name for r in tracer.records] == ["failing"]
        assert tracer.records[0].attrs["error"] == "boom"
        # The nesting unwound: a new span is top-level again.
        with tracer.span("after"):
            pass
        assert tracer.records[-1].parent_id == ""


class TestThreads:
    def test_overlapping_spans_in_two_threads_nest_per_thread(self):
        """Two threads hold overlapping spans in one session: both finish,
        and each span's parent is the enclosing span in its own thread."""
        both_open = threading.Barrier(2, timeout=10)
        both_inner = threading.Barrier(2, timeout=10)
        errors: list[BaseException] = []

        def work(tag: str) -> None:
            try:
                tracer = obs.tracer()
                with tracer.span(f"outer-{tag}"):
                    both_open.wait()
                    with tracer.span(f"inner-{tag}"):
                        both_inner.wait()
                        tracer.emit(f"emit-{tag}", 0.0)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        with obs.session() as session:
            threads = [threading.Thread(target=work, args=(tag,)) for tag in "ab"]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        paths = {r["name"]: r["path"] for r in manifest_records(session) if r["kind"] == "span"}
        for tag in "ab":
            assert paths[f"outer-{tag}"] == f"outer-{tag}"
            assert paths[f"inner-{tag}"] == f"outer-{tag}/inner-{tag}"
            assert paths[f"emit-{tag}"] == f"outer-{tag}/inner-{tag}/emit-{tag}"

    def test_many_threads_lose_no_span_and_keep_their_own_parents(self):
        """More threads than cores, forced switches: every span is recorded
        once, under the span its own thread had open."""
        n_threads, n_loops = 8, 200
        tracer = TraceBuffer()
        start = threading.Barrier(n_threads, timeout=10)

        def work(tag: int) -> None:
            start.wait()
            with tracer.span("outer", thread=tag):
                for i in range(n_loops):
                    with tracer.span("inner", thread=tag, i=i):
                        tracer.emit("leaf", 0.0, thread=tag)

        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(saved)
        assert not any(thread.is_alive() for thread in threads)
        spans = tracer.records
        assert len(spans) == n_threads * (1 + 2 * n_loops)
        by_id = {span.span_id: span for span in spans}
        for span in spans:
            if span.name == "outer":
                assert span.parent_id == ""
            else:
                parent = by_id[span.parent_id]
                assert parent.attrs["thread"] == span.attrs["thread"]
                assert parent.name == {"inner": "outer", "leaf": "inner"}[span.name]


class TestNoop:
    def test_noop_singletons(self):
        assert isinstance(NOOP_SPAN, NoopSpan)
        assert isinstance(NOOP_TRACER, NoopTracer)
        assert NOOP_TRACER.span("anything", n=1) is NOOP_SPAN

    def test_noop_records_nothing(self):
        with NOOP_TRACER.span("x") as span:
            span.set(a=1)
            assert span.elapsed() == 0.0
            assert span.context is None
        assert NOOP_TRACER.emit("y", 1.0) is None
        NOOP_TRACER.extend([])
        assert NOOP_TRACER.records == []

    def test_noop_span_allocates_nothing(self):
        # The disabled fast path hands back the same object every time.
        spans = {id(NOOP_TRACER.span(f"s{i}")) for i in range(10)}
        assert len(spans) == 1
