"""Tier-1 smoke run of the service load benchmark (8 concurrent clients)."""


def test_service_load_benchmark_smoke(tmp_path):
    from benchmarks.bench_service_load import run_benchmark

    result = run_benchmark(
        clients=8,
        requests_per_client=1,
        engine_jobs=1,
        cache_dir=tmp_path / "cache",
        results_dir=tmp_path / "results",
    )
    for cfg in (result["serial"], result["parallel"]):
        assert cfg["jobs_failed"] == 0
        assert cfg["jobs_done"] == 16  # 8 cold + 8 warm
        # 16 campaign-backed jobs, each spec executed exactly once.
        assert cfg["batch_specs"] <= cfg["plan_specs"] / 8
        assert cfg["dedup_hit_ratio"] > 0.9
        # Warm-vs-cold wall time depends on machine load; check_regression
        # gates both against the recorded service_load baseline instead.
    assert (tmp_path / "results" / "service_load.json").exists()
    assert (tmp_path / "results" / "service_load.txt").exists()
