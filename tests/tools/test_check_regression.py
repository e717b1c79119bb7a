"""Unit tests for the benchmark regression gate's pure compare logic."""

from __future__ import annotations

import json

import pytest

from benchmarks.check_regression import (
    OBS_OVERHEAD_METRICS,
    SERVICE_LOAD_METRICS,
    compare,
    format_rows,
    main,
)


def _load_result(wall: float, cpu_count: int = 2) -> dict:
    phase = {"wall_seconds": wall, "latency_mean_s": wall / 10}
    config = lambda: {"cold": dict(phase), "warm": dict(phase)}  # noqa: E731
    return {"serial": config(), "parallel": config(), "cpu_count": cpu_count,
            "fleet": {"workers": {n: config() for n in ("1", "2", "4")}}}


def test_compare_flags_only_past_threshold():
    rows = compare(_load_result(1.0), _load_result(1.19), SERVICE_LOAD_METRICS, 0.2)
    assert all(r["status"] == "ok" for r in rows)
    rows = compare(_load_result(1.0), _load_result(1.25), SERVICE_LOAD_METRICS, 0.2)
    assert all(r["regressed"] for r in rows)
    assert rows[0]["delta"] == pytest.approx(0.25)


def test_compare_improvement_never_fails():
    rows = compare(_load_result(1.0), _load_result(0.5), SERVICE_LOAD_METRICS, 0.0)
    assert not any(r["regressed"] for r in rows)


def test_compare_missing_metric_is_reported_not_failed():
    baseline = {"ratio": 1.1}  # no hook_fraction recorded
    fresh = {"ratio": 1.1, "hook_fraction": 0.001}
    rows = compare(baseline, fresh, OBS_OVERHEAD_METRICS, 0.2)
    by_metric = {r["metric"]: r for r in rows}
    assert by_metric["obs hook_fraction"]["status"] == "missing"
    assert by_metric["obs hook_fraction"]["regressed"] is False
    assert by_metric["obs enabled/disabled ratio"]["status"] == "ok"


@pytest.mark.parametrize(
    "fresh, regressed",
    [(0.0, False), (0.15, False), (2.0, True)],
    ids=["still-zero", "within-threshold", "ok-to-suspect"],
)
def test_compare_zero_baseline_compares_absolutely(fresh, regressed):
    metrics = [("models agreement_grade_score", ("agreement_grade_score",))]
    rows = compare({"agreement_grade_score": 0}, {"agreement_grade_score": fresh}, metrics, 0.2)
    assert rows[0]["absolute"] is True
    assert rows[0]["delta"] == pytest.approx(fresh)
    assert rows[0]["regressed"] is regressed
    assert rows[0]["status"] == ("regressed" if regressed else "ok")
    text = format_rows("models", rows, 0.2)
    assert "not comparable" not in text
    assert f"{fresh:+.4f} abs" in text


def test_format_rows_mentions_regressions():
    rows = compare({"ratio": 1.0}, {"ratio": 2.0}, [("r", ("ratio",))], 0.2)
    text = format_rows("t", rows, 0.2)
    assert "REGRESSED" in text and "+100.0%" in text


def test_main_exit_codes_with_stub_baselines(tmp_path, monkeypatch, capsys):
    """Drive main() against a synthetic obs baseline; skip the load bench."""
    import benchmarks.check_regression as cr

    # A fresh "measurement" that doubles the recorded ratio.
    monkeypatch.setattr(
        "benchmarks.bench_obs_overhead.measure",
        lambda repeats=5: {"ratio": 2.0, "hook_fraction": 0.002},
    )
    (tmp_path / "obs_overhead.json").write_text(
        json.dumps({"ratio": 1.0, "hook_fraction": 0.002})
    )
    args = ["--skip-load", "--skip-profiler", "--baseline-dir", str(tmp_path)]
    assert cr.main(args) == 1
    assert cr.main(args + ["--report-only"]) == 0
    assert cr.main(args + ["--threshold", "1.5"]) == 0
    out = capsys.readouterr()
    assert "REGRESSED" in out.out


def test_main_hook_fraction_contract_fails_even_without_baseline(tmp_path, monkeypatch):
    monkeypatch.setattr(
        "benchmarks.bench_obs_overhead.measure",
        lambda repeats=5: {"ratio": 1.0, "hook_fraction": 0.5},
    )
    args = ["--skip-load", "--skip-profiler", "--baseline-dir", str(tmp_path)]
    assert main(args) == 1
    assert main(args + ["--report-only"]) == 0


def test_main_profiler_budget_fails_even_without_baseline(tmp_path, monkeypatch):
    monkeypatch.setattr(
        "benchmarks.bench_obs_overhead.measure",
        lambda repeats=5: {"ratio": 1.0, "hook_fraction": 0.002},
    )
    monkeypatch.setattr(
        "benchmarks.bench_profiler_overhead.measure",
        lambda repeats=5: {"overhead_ratio": 1.25, "tick_fraction": 0.01},
    )
    args = ["--skip-load", "--baseline-dir", str(tmp_path)]
    assert main(args) == 1
    assert main(args + ["--report-only"]) == 0
    # Under budget, the absolute gate stays quiet.
    monkeypatch.setattr(
        "benchmarks.bench_profiler_overhead.measure",
        lambda repeats=5: {"overhead_ratio": 1.03, "tick_fraction": 0.01},
    )
    assert main(args) == 0


@pytest.mark.parametrize(
    "baseline_cpus, exit_code, text",
    [(1, 0, "no baseline recorded at cpu_count 2; comparison skipped"), (2, 1, "REGRESSED")],
    ids=["other-cpu-count-skipped", "same-cpu-count-regression"],
)
def test_main_service_load_compares_only_at_the_same_cpu_count(
    tmp_path, monkeypatch, capsys, baseline_cpus, exit_code, text
):
    # A 25% slower fresh run: a regression only against a like baseline.
    monkeypatch.setattr(
        "benchmarks.bench_service_load.run_benchmark",
        lambda **kwargs: _load_result(1.25, cpu_count=2),
    )
    (tmp_path / "service_load.json").write_text(
        json.dumps(_load_result(1.0, cpu_count=baseline_cpus))
    )
    args = ["--skip-obs", "--skip-profiler", "--skip-segments", "--skip-models",
            "--baseline-dir", str(tmp_path)]
    assert main(args) == exit_code
    assert text in capsys.readouterr().out
