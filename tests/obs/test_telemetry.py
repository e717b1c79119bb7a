"""Tests for BucketHistogram and the Prometheus exposition: render and fleet merge."""

from __future__ import annotations

import math
import re

import pytest

from repro.obs.metrics import DEFAULT_BUCKETS, BucketHistogram, MetricsRegistry
from repro.obs.telemetry import merge_prometheus, prometheus_name, render_prometheus


# -- BucketHistogram ------------------------------------------------------------


def test_bucket_histogram_counts_and_sum():
    h = BucketHistogram()
    for v in (0.001, 0.002, 0.2, 1000.0):
        h.observe(v)
    assert h.count == 4
    assert h.sum == pytest.approx(1000.203)
    assert h.mean == pytest.approx(1000.203 / 4)


def test_bucket_histogram_rejects_unsorted_bounds():
    with pytest.raises(ValueError):
        BucketHistogram(bounds=(1.0, 0.5))
    with pytest.raises(ValueError):
        BucketHistogram(bounds=(1.0, 1.0))


def test_bucket_histogram_cumulative_is_monotone_and_ends_at_count():
    h = BucketHistogram()
    for v in (0.0001, 0.03, 0.03, 7.0, 500.0):  # incl. +Inf overflow
        h.observe(v)
    cumulative = h.cumulative()
    counts = [c for _, c in cumulative]
    assert counts == sorted(counts)
    le_last, n_last = cumulative[-1]
    assert le_last == math.inf
    assert n_last == h.count == 5
    # bounds are exactly the configured layout
    assert [le for le, _ in cumulative[:-1]] == list(DEFAULT_BUCKETS)


def test_bucket_histogram_percentile_estimates_within_bucket():
    h = BucketHistogram()
    for _ in range(100):
        h.observe(0.03)  # lands in (0.025, 0.05]
    # All mass in one bucket clamped by min/max -> estimate is exact.
    assert h.percentile(50) == pytest.approx(0.03)
    assert h.percentile(99) == pytest.approx(0.03)
    assert h.summary()["min"] == pytest.approx(0.03)
    assert h.summary()["max"] == pytest.approx(0.03)


def test_bucket_histogram_percentile_ordering():
    h = BucketHistogram()
    for i in range(1, 101):
        h.observe(i / 100.0)  # 0.01 .. 1.0
    p50, p90, p99 = h.percentile(50), h.percentile(90), h.percentile(99)
    assert p50 <= p90 <= p99
    # estimates stay inside the observed range
    assert 0.01 <= p50 <= 1.0 and 0.01 <= p99 <= 1.0
    with pytest.raises(ValueError):
        h.percentile(101)


def test_bucket_histogram_empty_summary():
    h = BucketHistogram()
    s = h.summary()
    assert s["count"] == 0
    assert s["min"] == 0.0 and s["max"] == 0.0
    assert h.percentile(99) == 0.0


def test_registry_with_bucket_factory_merge():
    a = MetricsRegistry(histogram_factory=BucketHistogram)
    a.observe("lat", 0.01)
    assert isinstance(a._histograms["lat"], BucketHistogram)


# -- Prometheus exposition ------------------------------------------------------


def test_prometheus_name_sanitises():
    assert prometheus_name("service.queue.wait_seconds") == "scaltool_service_queue_wait_seconds"
    assert prometheus_name("a-b.c d") == "scaltool_a_b_c_d"
    assert prometheus_name("..x..") == "scaltool_x"
    assert prometheus_name("x", prefix="") == "x"


_LINE_RE = re.compile(
    r"^(# TYPE [a-zA-Z_][a-zA-Z0-9_]* (counter|gauge|histogram)"
    r'|[a-zA-Z_][a-zA-Z0-9_]*(\{le="[^"]+"\})? [-+0-9.eEinfNa]+)$'
)


def test_render_prometheus_is_valid_exposition():
    reg = MetricsRegistry(histogram_factory=BucketHistogram)
    reg.inc("jobs.done", 3)
    reg.set_gauge("queue.depth", 2)
    reg.observe("job_seconds", 0.12)
    reg.observe("job_seconds", 1.5)
    text = render_prometheus(reg)
    assert text.endswith("\n")
    for line in text.strip().splitlines():
        assert _LINE_RE.match(line), f"bad exposition line: {line!r}"
    assert "# TYPE scaltool_jobs_done_total counter" in text
    assert "scaltool_jobs_done_total 3" in text
    assert "scaltool_queue_depth 2" in text
    assert '# TYPE scaltool_job_seconds histogram' in text
    assert 'scaltool_job_seconds_bucket{le="+Inf"} 2' in text
    assert "scaltool_job_seconds_count 2" in text


def test_render_prometheus_deterministic():
    def build():
        reg = MetricsRegistry(histogram_factory=BucketHistogram)
        reg.inc("b", 1)
        reg.inc("a", 2)
        reg.observe("h", 0.5)
        return render_prometheus(reg)

    assert build() == build()
    # names sort, so counter `a` renders before `b`
    text = build()
    assert text.index("scaltool_a_total") < text.index("scaltool_b_total")


def test_render_prometheus_exact_histogram_still_valid():
    reg = MetricsRegistry()  # exact Histogram factory
    reg.observe("h", 0.5)
    text = render_prometheus(reg)
    assert 'scaltool_h_bucket{le="+Inf"} 1' in text
    assert "scaltool_h_count 1" in text


def test_render_prometheus_groups_labelled_gauges_under_one_type_line():
    reg = MetricsRegistry(histogram_factory=BucketHistogram)
    reg.set_gauge("diagnostics.health", 2, grade="ok")
    reg.set_gauge("diagnostics.health", 1, grade="suspect")
    reg.set_gauge("blame.loss_share", 0.25, segment="vector steps")
    reg.set_gauge("queue.depth", 3)
    text = render_prometheus(reg)
    lines = text.splitlines()
    assert lines.count("# TYPE scaltool_diagnostics_health gauge") == 1
    at = lines.index("# TYPE scaltool_diagnostics_health gauge")
    assert lines[at + 1 : at + 3] == [
        'scaltool_diagnostics_health{grade="ok"} 2',
        'scaltool_diagnostics_health{grade="suspect"} 1',
    ]
    assert 'scaltool_blame_loss_share{segment="vector steps"} 0.25' in lines
    assert "scaltool_queue_depth 3" in lines


# -- fleet merge ----------------------------------------------------------------


def _worker_text(overhead: float, share: float, uptime: float, segment: str) -> str:
    reg = MetricsRegistry(histogram_factory=BucketHistogram)
    reg.inc("service.jobs.done", 2)
    reg.observe("service.job_seconds", 0.003)
    reg.set_gauge("service.queue.depth", 1)
    reg.set_gauge("diagnostics.health", 3, grade="ok")
    reg.set_gauge("profile.overhead_ratio", overhead)
    reg.set_gauge("blame.loss_share", share, segment="spmv")
    reg.set_gauge("blame.loss_share", 0.1, segment=segment)
    reg.set_gauge("uptime_seconds", uptime)
    return render_prometheus(reg)


def _samples(text: str) -> dict[str, float]:
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            sample, _, value = line.rpartition(" ")
            out[sample] = float(value)
    return out


def test_merge_prometheus_adds_extensive_series_and_maxes_ratios():
    merged = merge_prometheus(
        [_worker_text(1.05, 0.6, 10.0, "init"), _worker_text(1.07, 0.6, 12.5, "halo")]
    )
    samples = _samples(merged)
    # Counters and histogram series add.
    assert samples["scaltool_service_jobs_done_total"] == 4
    assert samples['scaltool_service_job_seconds_bucket{le="0.005"}'] == 2
    assert samples['scaltool_service_job_seconds_bucket{le="+Inf"}'] == 2
    assert samples["scaltool_service_job_seconds_count"] == 2
    assert samples["scaltool_service_job_seconds_sum"] == pytest.approx(0.006)
    # Queue depths and per-grade health counts are extensive: they add.
    assert samples["scaltool_service_queue_depth"] == 2
    assert samples['scaltool_diagnostics_health{grade="ok"}'] == 6
    # Ratios and uptime take the max over processes.
    assert samples["scaltool_profile_overhead_ratio"] == pytest.approx(1.07)
    assert samples['scaltool_blame_loss_share{segment="spmv"}'] == pytest.approx(0.6)
    assert samples["scaltool_uptime_seconds"] == 12.5
    # Each family is declared once and its samples stay one group, even
    # the series only the second process has.
    assert merged.count("# TYPE scaltool_service_job_seconds histogram") == 1
    lines = merged.splitlines()
    at = lines.index("# TYPE scaltool_blame_loss_share gauge")
    assert lines[at + 1 : at + 4] == [
        'scaltool_blame_loss_share{segment="init"} 0.1',
        'scaltool_blame_loss_share{segment="spmv"} 0.6',
        'scaltool_blame_loss_share{segment="halo"} 0.1',
    ]
