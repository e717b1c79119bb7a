"""Metrics registry: counters, gauges, histogram percentiles, snapshots."""

import sys
import threading

import pytest

from repro.obs.metrics import NOOP_REGISTRY, Histogram, MetricsRegistry


class TestCountersAndGauges:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 2.5)
        assert reg.counter("a") == pytest.approx(3.5)
        assert reg.counter("missing") == 0.0

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 1.0)
        reg.set_gauge("g", 7.0)
        assert reg.gauge("g") == 7.0
        assert reg.gauge("missing") is None

    def test_labelled_gauges_are_one_series_per_label_set(self):
        reg = MetricsRegistry()
        reg.set_gauge("health", 1.0, grade="ok")
        reg.set_gauge("health", 4.0, grade="suspect")
        reg.set_gauge("health", 2.0, grade="ok")
        assert reg.gauge("health", grade="ok") == 2.0
        assert reg.gauge("health", grade="suspect") == 4.0
        assert reg.gauge("health") is None
        assert list(reg.snapshot()["gauges"]) == ['health{grade="ok"}', 'health{grade="suspect"}']


class TestConcurrentWrites:
    THREADS = 4
    PER_THREAD = 50_000

    def test_no_increment_is_lost_under_preemption(self):
        """HTTP handler, job and batch threads write one serving registry at
        once; a 1 µs switch interval preempts them mid read-modify-write."""
        reg = MetricsRegistry()
        start = threading.Barrier(self.THREADS)

        def hammer():
            start.wait()
            for _ in range(self.PER_THREAD):
                reg.inc("requests")

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(self.THREADS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert reg.counter("requests") == self.THREADS * self.PER_THREAD


class TestHistogram:
    def test_summary_stats(self):
        h = Histogram()
        for v in (4.0, 1.0, 3.0, 2.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(10.0)
        assert h.mean == pytest.approx(2.5)
        s = h.summary()
        assert s["min"] == 1.0 and s["max"] == 4.0

    def test_percentiles_interpolate(self):
        h = Histogram()
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(90) == pytest.approx(90.1)
        assert h.percentile(99) == pytest.approx(99.01)

    def test_percentile_edge_cases(self):
        h = Histogram()
        assert h.percentile(50) == 0.0  # empty
        h.observe(42.0)
        assert h.percentile(0) == 42.0
        assert h.percentile(100) == 42.0
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_percentile_order_independent(self):
        a, b = Histogram(), Histogram()
        values = [5.0, 1.0, 9.0, 3.0, 7.0]
        for v in values:
            a.observe(v)
        for v in sorted(values):
            b.observe(v)
        assert a.summary() == b.summary()


class TestSnapshot:
    def test_names_sorted_and_shape_fixed(self):
        reg = MetricsRegistry()
        reg.inc("zebra")
        reg.inc("apple")
        reg.set_gauge("mid", 1.0)
        reg.observe("hist", 2.0)
        snap = reg.snapshot()
        assert list(snap) == ["counters", "gauges", "histograms"]
        assert list(snap["counters"]) == ["apple", "zebra"]
        assert list(snap["histograms"]["hist"]) == [
            "count", "sum", "mean", "min", "max", "p50", "p90", "p99",
        ]

    def test_snapshot_deterministic_across_registries(self):
        def build():
            reg = MetricsRegistry()
            reg.inc("runs", 3)
            reg.observe("seconds", 1.0)
            reg.observe("seconds", 2.0)
            reg.set_gauge("t2", 3.25)
            return reg.snapshot()

        assert build() == build()


class TestNoopRegistry:
    def test_writes_are_dropped(self):
        NOOP_REGISTRY.inc("c", 5)
        NOOP_REGISTRY.set_gauge("g", 1.0)
        NOOP_REGISTRY.observe("h", 2.0)
        assert NOOP_REGISTRY.counter("c") == 0.0
        assert NOOP_REGISTRY.gauge("g") is None
        assert NOOP_REGISTRY.histogram("h") is None
        assert NOOP_REGISTRY.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
