"""The statistical line sampler: folding, attribution, merge, lifecycle.

Most tests drive :meth:`Sampler.sample_once` synchronously from the
target thread itself — one deterministic tick, no watcher, no timing —
and only two tests let the real watcher thread run.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.obs import runtime as obs
from repro.obs.sampler import (
    NOOP_SAMPLER,
    ROOT_SPAN,
    SampleProfile,
    Sampler,
    active_sampler,
    frame_label,
    sampler,
    split_frame,
)


def _tick(s: Sampler) -> None:
    """One synchronous sample of the calling thread."""
    s._target_ident = threading.get_ident()
    s.sample_once()


# -- frame labels ----------------------------------------------------------------


def test_frame_label_round_trips_through_split():
    label = frame_label("/home/x/proj/src/repro/machine/cache.py", "insert", 120)
    assert label == "repro/machine/cache.py:insert:120"
    assert split_frame(label) == ("repro/machine/cache.py", "insert", 120)


def test_frame_label_is_checkout_independent_for_project_files():
    a = frame_label("/home/alice/repo/src/repro/obs/spool.py", "merge_spool", 7)
    b = frame_label("/tmp/ci/build/src/repro/obs/spool.py", "merge_spool", 7)
    assert a == b


def test_frame_label_keeps_two_components_for_foreign_files():
    label = frame_label("/usr/lib/python3/numpy/_core/_methods.py", "_amin", 45)
    assert label == "_core/_methods.py:_amin:45"


def test_frame_label_tolerates_missing_lineno():
    # A frame walked from another thread can be caught before it has a
    # line number assigned.
    assert frame_label("/x/repro/a.py", "f", None) == "repro/a.py:f:0"


# -- SampleProfile ---------------------------------------------------------------


def _profile_with(*entries) -> SampleProfile:
    p = SampleProfile(interval_s=0.01)
    for span, frames, count in entries:
        p.note(span, frames, count)
    return p


def test_line_table_attributes_self_samples_per_span():
    p = _profile_with(
        ("run/a", ("f.py:outer:1", "f.py:hot:9"), 3),
        ("run/b", ("f.py:outer:1", "f.py:hot:9"), 2),
        ("run/a", ("f.py:outer:1",), 1),
    )
    top = p.line_table()[0]
    assert (top["file"], top["func"], top["line"]) == ("f.py", "hot", 9)
    assert top["self"] == 5
    assert top["spans"] == {"run/a": 3, "run/b": 2}
    assert top["self_seconds"] == pytest.approx(0.05)


def test_function_table_counts_cumulative_once_per_sample():
    # A recursive stack must not double-count its own cumulative samples.
    p = _profile_with(("", ("f.py:rec:1", "f.py:rec:2", "f.py:rec:1"), 4),)
    (row,) = p.function_table()
    assert row["func"] == "rec"
    assert row["cumulative"] == 4
    assert row["self"] == 4


def test_tables_break_ties_by_name_then_path():
    p = _profile_with(
        ("", ("z.py:beta:5",), 2),
        ("", ("a.py:beta:9",), 2),
        ("", ("m.py:alpha:1",), 2),
    )
    names = [(r["func"], r["file"]) for r in p.line_table()]
    assert names == [("alpha", "m.py"), ("beta", "a.py"), ("beta", "z.py")]


def test_folded_output_is_sorted_and_span_led():
    p = _profile_with(
        ("run/x", ("a.py:f:1", "b.py:g:2"), 3),
        ("", ("a.py:f:1",), 1),
    )
    assert p.folded() == [
        f"{ROOT_SPAN};a.py:f:1 1",
        "run/x;a.py:f:1;b.py:g:2 3",
    ]


def test_folded_sanitizes_separator_inside_span_names():
    p = _profile_with(("run;weird", ("a.py:f:1",), 1),)
    (line,) = p.folded()
    assert line.startswith("run,weird;")


def test_to_dict_from_dict_round_trip_is_exact():
    p = _profile_with(
        ("run/a", ("a.py:f:1", "b.py:g:2"), 3),
        ("", ("c.py:h:3",), 2),
    )
    p.duration_s = 1.5
    p.overhead_s = 0.03
    back = SampleProfile.from_dict(p.to_dict())
    assert back.counts == p.counts
    assert back.n_samples == p.n_samples
    assert back.interval_s == p.interval_s
    assert back.duration_s == p.duration_s
    assert back.to_dict() == p.to_dict()


def test_merge_reparents_spans_under_prefix():
    worker = _profile_with(
        ("engine.execute/machine.run", ("a.py:f:1",), 2),
        ("", ("b.py:g:2",), 1),
    )
    parent = SampleProfile()
    parent.merge(worker, span_prefix="profile/engine.run")
    assert set(span for span, _ in parent.counts) == {
        "profile/engine.run/engine.execute/machine.run",
        "profile/engine.run",
    }
    assert parent.n_samples == 3


def test_merge_accumulates_time_and_memory():
    a = SampleProfile(
        duration_s=1.0,
        overhead_s=0.1,
        memory={"peak_bytes": 100, "top": [{"file": "a.py", "line": 1, "size_bytes": 50}]},
    )
    b = SampleProfile(
        duration_s=2.0,
        overhead_s=0.2,
        memory={"peak_bytes": 300, "top": [{"file": "b.py", "line": 2, "size_bytes": 80}]},
    )
    a.merge(b)
    assert a.duration_s == pytest.approx(3.0)
    assert a.overhead_s == pytest.approx(0.3)
    assert a.memory["peak_bytes"] == 300
    assert [t["file"] for t in a.memory["top"]] == ["b.py", "a.py"]


def test_overhead_ratio_guards_degenerate_windows():
    assert SampleProfile().overhead_ratio() == 1.0
    assert SampleProfile(duration_s=1.0, overhead_s=2.0).overhead_ratio() == 1.0
    assert SampleProfile(duration_s=2.0, overhead_s=1.0).overhead_ratio() == pytest.approx(2.0)


# -- Sampler ---------------------------------------------------------------------


def test_sample_once_records_calling_frame_and_excludes_sampler():
    s = Sampler()
    _tick(s)
    assert s.profile.n_samples == 1
    ((span, frames),) = list(s.profile.counts)
    assert span == ""  # no obs session active
    assert any(":test_sample_once_records_calling_frame_and_excludes_sampler:" in f for f in frames)
    assert not any(f.split(":")[0] == "repro/obs/sampler.py" for f in frames)


def test_sample_once_attributes_to_open_span():
    with obs.session() as session:
        with session.tracer.span("outer"):
            with session.tracer.span("inner"):
                s = Sampler()
                _tick(s)
    ((span, _frames),) = list(s.profile.counts)
    assert span == "outer/inner"


def test_pause_resume_accounts_unpaused_duration_only():
    now = [0.0]
    s = Sampler(clock=lambda: now[0])
    s._segment_t0 = now[0]
    now[0] = 2.0
    s.pause()
    assert s.profile.duration_s == pytest.approx(2.0)
    now[0] = 5.0  # paused gap, must not count
    s.resume()
    now[0] = 6.0
    s.pause()
    assert s.profile.duration_s == pytest.approx(3.0)


def test_paused_or_stopping_tick_drops_its_sample():
    s = Sampler()
    s._pause_event.set()
    _tick(s)
    s._pause_event.clear()
    s._stopping = True
    _tick(s)
    assert s.profile.n_samples == 0


def test_start_stop_registers_globally_and_shrinks_switch_interval():
    before = sys.getswitchinterval()
    assert active_sampler() is None
    s = Sampler(interval_s=0.05).start()
    try:
        assert active_sampler() is s
        assert sampler() is s
        assert sys.getswitchinterval() < before
        inner = Sampler(interval_s=0.05).start()
        assert active_sampler() is inner
        profile = inner.stop()
        assert profile is inner.profile
        assert active_sampler() is s
    finally:
        s.stop()
    assert active_sampler() is None
    assert sampler() is NOOP_SAMPLER
    assert sys.getswitchinterval() == pytest.approx(before)


def test_watcher_samples_hot_loop():
    s = Sampler(interval_s=0.002).start()
    deadline = time.perf_counter() + 0.2
    x = 0
    while time.perf_counter() < deadline:
        x += 1
    profile = s.stop()
    assert profile.n_samples > 10
    assert any(func == "test_watcher_samples_hot_loop" for _f, func in profile.frame_set())
    # The window's wall time and the 1.10 overhead budget depend on
    # machine load; benchmarks/check_regression.py gates the budget
    # (bench_profiler_overhead.BUDGET_RATIO), not tier-1.


def test_memory_mode_records_peak_and_top_allocators():
    s = Sampler(interval_s=0.01, memory=True).start()
    blob = [bytearray(256 * 1024) for _ in range(8)]
    profile = s.stop()
    assert len(blob) == 8
    assert profile.memory is not None
    assert profile.memory["peak_bytes"] >= 8 * 256 * 1024
    assert profile.memory["top"], "top allocators recorded"
    import tracemalloc

    assert not tracemalloc.is_tracing(), "self-started tracemalloc is stopped"


def test_noop_sampler_is_inert():
    assert NOOP_SAMPLER.start() is NOOP_SAMPLER
    assert NOOP_SAMPLER.stop() is None
    NOOP_SAMPLER.pause()
    NOOP_SAMPLER.resume()
    NOOP_SAMPLER.sample_once()
    assert NOOP_SAMPLER.profile is None


def test_sampler_rejects_nonpositive_interval():
    with pytest.raises(ValueError):
        Sampler(interval_s=0.0)
