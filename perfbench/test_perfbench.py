"""Tests of the benchmark's own logic.

Run from the root of a checkout::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import numpy as np
import pytest

import layers
import program
import run
import stats
import steady
from repro.trace.events import Phase, Segment


class TestPercentileRule:
    def test_median_alone_below_forty_samples(self):
        # 39 samples leave 19 beyond the median, but are still too few.
        assert stats.beyond(39, 50.0) >= stats.MIN_BEYOND
        assert not stats.tail_ok(39, 50.0)
        assert stats.tail_ok(40, 50.0)
        assert layers.latency_summary([0.001 * i for i in range(39)]) == {"n": 39, "p50_ms": 19.0}

    @pytest.mark.parametrize("n, ok", [(40, False), (199, False), (200, True), (1000, True)])
    def test_p95_needs_ten_beyond(self, n, ok):
        assert stats.tail_ok(n, 95.0) is ok
        assert (stats.beyond(n, 95.0) >= stats.MIN_BEYOND) is ok

    def test_nearest_rank_returns_a_sample(self):
        values = [float(v) for v in range(1, 201)]
        assert stats.nearest_rank(values, 95.0) == 190.0
        assert stats.beyond(200, 95.0) == 10

    def test_p95_needs_two_hundred_samples(self):
        assert "p95_ms" in layers.latency_summary([0.01] * 200)
        assert "p95_ms" not in layers.latency_summary([0.01] * 199)
        assert layers.latency_summary([0.01, 0.03])["p50_ms"] == 20.0


class TestBounds:
    def test_lower_is_better(self):
        assert stats.within_bound(100.0, 109.9, "lower", 0.1)
        assert not stats.within_bound(100.0, 110.1, "lower", 0.1)
        assert stats.within_bound(100.0, 50.0, "lower", 0.1)

    def test_higher_is_better(self):
        assert stats.within_bound(100.0, 90.1, "higher", 0.1)
        assert not stats.within_bound(100.0, 89.9, "higher", 0.1)
        assert stats.worsening(100.0, 120.0, "higher") == pytest.approx(-0.2)

    def test_direction_is_validated(self):
        with pytest.raises(ValueError):
            stats.worsening(1.0, 2.0, "faster")

    def test_spread_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
        q1, q2, q3 = stats.quartiles(values)
        assert stats.spread(values) == pytest.approx((q3 - q1) / q2)

    def test_compare_sets(self):
        first = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.0, 1.01, 0.99]
        slower = [v * 1.2 for v in first]
        ok = stats.compare_sets(first, first, "lower", 0.1)
        assert ok["medians_agree"] and ok["spreads_within_bound"]
        bad = stats.compare_sets(first, slower, "lower", 0.1)
        assert not bad["medians_agree"]
        assert bad["worsening"] == pytest.approx(0.2)


class TestManifest:
    """Every run prints every metric of BENCHMARK.json, in its unit."""

    def test_end_to_end(self):
        metrics = layers.end_to_end([0.5, 0.4, 0.6], [1.0, 2.0, 3.0], 0.2, 97.0)
        assert {k: u for k, (_, u) in metrics.items()} == run.manifest_metrics(0)
        assert metrics["op_p50_ms"] == (2000.0, "ms")

    def test_per_layer_on_a_workload_that_bypasses_every_layer(self):
        tallies = {"self_s": {}, "counts": {}, "overhead_s": 0.0, "processes": 0}
        metrics = layers.per_layer(tallies, 11, 50.0)
        assert {k: u for k, (_, u) in metrics.items()} == run.manifest_metrics(1)
        assert all(v == 0 for v, _ in metrics.values())

    def test_server_counts_replace_the_wrappers(self):
        tallies = {"self_s": {}, "counts": {"runner.cache_hits": 3}, "overhead_s": 0.0, "processes": 1}
        after = {"counters": {"plan.specs": 10, "plan.cache_hits": 8, "batch.specs": 2}}
        metrics = layers.per_layer(tallies, 4, 5.0, delta=layers.stats_delta({}, after))
        assert metrics["runner.cache_hits"] == (8, "runs")
        assert metrics["runner.cache_misses"] == (2, "runs")
        assert metrics["service.specs_executed"] == (2, "specs")


def _segment(n_refs: int) -> Segment:
    return Segment(
        addrs=np.arange(n_refs, dtype=np.int64),
        writes=np.zeros(n_refs, dtype=bool),
        n_instructions=3 * n_refs + 1,
    )


class TestReferenceCount:
    def test_hand_built_phases(self):
        phases = [
            Phase("init", [_segment(5), _segment(7), None]),
            Phase("serial", [None, None, None]),
            Phase("work", [_segment(0), _segment(11), _segment(2)], barrier=False),
        ]
        assert program.phase_refs(phases) == 25

    def test_consumes_a_generator_once(self):
        phases = (Phase(f"p{i}", [_segment(i)]) for i in range(4))
        assert program.phase_refs(phases) == 6

    def test_spec_count_is_the_trace_not_the_counters(self):
        # The spin kernel's trace holds no references, whatever the
        # graduated-load counter reports for it.
        specs = program.request_specs("analyze", {"workload": "synthetic", "s0": 8192, "counts": [1, 2]})
        kernels = [s for s in specs if s.role == "spin_kernel"]
        assert kernels and all(program.spec_refs(s) == 0 for s in kernels)


def _run(workload, seed, metric, failed=0, stats_=None):
    return {
        "result": {
            "correct": True,
            "attempted": 10,
            "failed": failed,
            "metrics": {"latency_ms": {"value": metric, "unit": "ms"}},
        },
        "detail": {"workload": workload, "seed": seed, "host_cpus": 2, "sim_stats": stats_ or {}},
    }


class TestSteadiness:
    BENCH = {"end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}

    def test_agreeing_sets(self):
        first = [_run("w", s, 10.0 + 0.01 * s, stats_={f"k{s}": [1, 2]}) for s in range(1, 11)]
        second = [_run("w", s, 10.0 + 0.01 * s, stats_={f"k{s}": [1, 2]}) for s in range(1, 11)]
        report = steady.evaluate(self.BENCH, [first, second])
        assert report["ok"]
        assert report["sim_stats"] == {"compared": 10, "mismatches": []}

    def test_simulated_statistics_must_repeat_exactly(self):
        first = [_run("w", 1, 10.0, stats_={"k": [1.0, 2.0]})] * 4
        second = [_run("w", 1, 10.0, stats_={"k": [1.0, 2.5]})] * 4
        report = steady.evaluate(self.BENCH, [first, second])
        assert not report["ok"] and report["sim_stats"]["mismatches"]

    def test_failed_share_must_match(self):
        first = [_run("w", s, 10.0) for s in range(1, 5)]
        second = [_run("w", s, 10.0, failed=1 if s == 1 else 0) for s in range(1, 5)]
        assert not steady.evaluate(self.BENCH, [first, second])["ok"]
