"""Worker obs spooling: parallel profiles must match serial ones.

The satellite this guards: ``scaltool profile --jobs N`` used to lose
every worker-process span and metric because ``ProcessPoolExecutor``
workers cannot write into the parent's session.  The engine now spools
each worker run's private session to disk and merges the files back in
plan order, so the merged session is *structurally identical* to a
serial one — same span (path, name, depth) sequence in start order, same
counters — with only the timing values free to differ.

Also the disabled-mode contract: no obs session + no trace context means
no spool directory is ever created.
"""

from __future__ import annotations

import time

import pytest

from repro.obs import runtime as obs
from repro.obs import spool as obs_spool
from repro.obs.export import span_rows
from repro.obs.sampler import SampleProfile, Sampler
from repro.runner.engine import ParallelExecutor, RunSpec, SerialExecutor, execute_spec

from ..conftest import small_synthetic, tiny_machine_config


def _specs(counts=(1, 2), size=16 * 1024):
    wl = small_synthetic()
    return [
        RunSpec.compile(wl, size, n, machine=tiny_machine_config(n_processors=n))
        for n in counts
    ]


def _canonical_shape(session) -> list[tuple[str, str, int]]:
    """Structure only: (path, name, depth) in start order, timings dropped."""
    return [(r["path"], r["name"], r["depth"]) for r in span_rows(session.tracer.records)]


def _path_depths(spans) -> list[tuple[str, int]]:
    """(path, depth) in start order, derived from the spans' parent edges."""
    return [(r["path"], r["depth"]) for r in span_rows(spans)]


def _counters(session) -> dict:
    return dict(session.registry.snapshot()["counters"])


def test_parallel_merged_session_matches_serial_structure():
    specs = _specs()

    with obs.session() as serial_session:
        serial_records = SerialExecutor().run(list(specs))
    with obs.session() as parallel_session:
        parallel_records = ParallelExecutor(jobs=2).run(list(specs))

    # The run records themselves are byte-identical (determinism).
    assert [r.to_dict() for r in serial_records] == [r.to_dict() for r in parallel_records]
    # The merged parallel profile has the serial profile's exact shape.
    serial_shape = _canonical_shape(serial_session)
    assert _canonical_shape(parallel_session) == serial_shape
    # Worker spans actually made it across: the simulator's machine.run
    # spans only ever happen inside the executed run.
    assert any(name == "machine.run" for _, name, _ in serial_shape)
    # Event-volume counters fold in identically.
    assert _counters(parallel_session) == _counters(serial_session)


def test_parallel_merge_is_in_plan_order_regardless_of_finish_order():
    # 4 specs with different sizes finish out of submission order under
    # 2 workers often enough; plan-order merging hides that entirely.
    specs = _specs(counts=(1, 2, 1, 2), size=8 * 1024)
    specs[2:] = _specs(counts=(1, 2), size=32 * 1024)

    with obs.session() as serial_session:
        SerialExecutor().run(list(specs))
    with obs.session() as parallel_session:
        ParallelExecutor(jobs=2).run(list(specs))

    assert _canonical_shape(parallel_session) == _canonical_shape(serial_session)


def test_disabled_mode_creates_no_spool_dir(monkeypatch):
    created = []
    original = obs_spool.SpoolDir.__init__

    def counting_init(self):
        created.append(1)
        original(self)

    monkeypatch.setattr(obs_spool.SpoolDir, "__init__", counting_init)

    assert obs.active() is None
    records = ParallelExecutor(jobs=2).run(_specs())
    assert len(records) == 2
    assert created == [], "disabled mode must not touch the filesystem"

    # ...and with a session live, the spool dir is used and cleaned up.
    with obs.session():
        ParallelExecutor(jobs=2).run(_specs())
    assert created == [1]


def test_spool_roundtrip_preserves_spans_and_metrics(tmp_path):
    session = obs.ObsSession()
    with session.tracer.span("outer", n=2):
        with session.tracer.span("inner"):
            pass
    session.registry.inc("events", 3)
    session.registry.observe("lat", 0.5)

    path = obs_spool.write_spool(tmp_path / "run.jsonl", session, meta={"spec": "k"})
    meta, spans, metrics, profile = obs_spool.read_spool(path)
    assert meta["spec"] == "k"
    assert _path_depths(spans) == [("outer", 0), ("outer/inner", 1)]
    assert metrics["counters"] == {"events": 3}
    assert metrics["histograms"] == {"lat": [0.5]}
    assert profile is None  # no sampler ran in this worker


def test_spool_roundtrip_preserves_sampler_profile(tmp_path):
    session = obs.ObsSession()
    worker_profile = SampleProfile(interval_s=0.002)
    worker_profile.note("engine.execute/machine.run", ("a.py:f:1", "b.py:g:2"), 3)
    worker_profile.duration_s = 0.5
    worker_profile.overhead_s = 0.01

    path = obs_spool.write_spool(tmp_path / "run.jsonl", session, sampler=worker_profile)
    _meta, _spans, _metrics, profile = obs_spool.read_spool(path)
    assert profile is not None
    assert profile.counts == worker_profile.counts
    assert profile.n_samples == 3
    assert profile.interval_s == 0.002
    assert profile.duration_s == 0.5


def test_merge_spool_grafts_sampler_spans_under_open_span(tmp_path):
    worker = obs.ObsSession()
    worker_profile = SampleProfile()
    worker_profile.note("engine.execute", ("a.py:f:1",), 2)
    worker_profile.note("", ("b.py:g:2",), 1)  # sample outside any span
    path = obs_spool.write_spool(tmp_path / "w.jsonl", worker, sampler=worker_profile)

    parent = obs.ObsSession()
    merged = SampleProfile()
    with parent.tracer.span("engine.run"):
        assert obs_spool.merge_spool(path, parent.tracer, parent.registry, profile=merged)
    spans = {span for (span, _frames) in merged.counts}
    # Worker span paths re-root under the span open at merge time; the
    # span-less sample lands directly under it.
    assert spans == {"engine.run/engine.execute", "engine.run"}
    assert merged.n_samples == 3


def test_merge_spool_grafts_under_open_span(tmp_path):
    worker = obs.ObsSession()
    with worker.tracer.span("work"):
        pass
    path = obs_spool.write_spool(tmp_path / "w.jsonl", worker)

    parent = obs.ObsSession()
    with parent.tracer.span("engine.run"):
        assert obs_spool.merge_spool(path, parent.tracer, parent.registry)
    paths = [path for path, _depth in _path_depths(parent.tracer.records)]
    assert paths == ["engine.run", "engine.run/work"]


def _hot_spin(deadline: float) -> int:
    """A one-line busy loop every sampler tick must land on."""
    x = 0
    while time.perf_counter() < deadline:
        x += 1
    return x


def _busy_execute(spec):
    """Module-level (picklable) execute_fn: spin hot, then really run."""
    _hot_spin(time.perf_counter() + 0.3)
    return execute_spec(spec)


def test_serial_and_parallel_profiles_sample_the_same_hot_frames():
    """serial ≡ --jobs N for the folded-stack profile (timings aside).

    The spin dominates every run, so both samplers must catch it; in
    parallel mode the spin happens in pool workers while the parent
    sampler is paused, so it can only appear via worker self-sampling
    spooled back and merged — under the very span path the serial
    profile records it at.
    """
    specs = _specs(counts=(1, 2), size=4 * 1024)

    with obs.session():
        sampler = Sampler(interval_s=0.001).start()
        try:
            SerialExecutor(execute_fn=_busy_execute).run(list(specs))
        finally:
            serial_profile = sampler.stop()

    with obs.session():
        sampler = Sampler(interval_s=0.001).start()
        try:
            ParallelExecutor(jobs=2, execute_fn=_busy_execute).run(list(specs))
        finally:
            parallel_profile = sampler.stop()

    def hot_frames(profile):
        return {
            (file, func)
            for file, func in profile.frame_set()
            if func in ("_busy_execute", "_hot_spin")
        }

    assert hot_frames(serial_profile) == hot_frames(parallel_profile) != set()

    def spin_spans(profile):
        return {
            span
            for (span, frames) in profile.counts
            if any(":_hot_spin:" in label for label in frames)
        }

    assert (
        spin_spans(parallel_profile)
        == spin_spans(serial_profile)
        == {"engine.run/engine.execute"}
    )


def test_merge_spool_tolerates_garbage(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    parent = obs.ObsSession()
    assert obs_spool.merge_spool(bad, parent.tracer, parent.registry) is False
    assert obs_spool.merge_spool(tmp_path / "missing.jsonl", parent.tracer, parent.registry) is False
    assert parent.tracer.records == []
