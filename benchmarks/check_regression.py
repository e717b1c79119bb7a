"""Compare a fresh benchmark run against the recorded results.

``python benchmarks/check_regression.py`` reruns the service load bench
(:mod:`bench_service_load`), the segment-decomposition structural check
(:mod:`bench_segments`), the cross-model agreement check
(:mod:`bench_models`), the obs overhead bench
(:mod:`bench_obs_overhead`), and the line-sampler overhead bench
(:mod:`bench_profiler_overhead`), compares the fresh numbers against the JSON
recorded in ``benchmarks/results/``, and exits non-zero when any tracked
metric regressed past the threshold (default 20%).

Only *worse-is-higher* metrics are tracked (wall times, latencies, the
enabled/disabled overhead ratio, per-segment residual fractions, the
segment tiling error); getting faster never fails.  A baseline of 0
compares absolutely: the row regresses when the fresh value exceeds 0 by
more than the threshold.  Counter metrics
(dedup ratio, spec counts) are workload-deterministic and asserted by
the benches themselves, so they are not re-checked here.

Flags:

* ``--threshold 0.2``   allowed relative slowdown before failing
* ``--report-only``     print the comparison but always exit 0
* ``--smoke``           tiny configuration (CI: seconds, not minutes)
* ``--export-dir DIR``  also capture /metrics + one job trace from the
  load bench's parallel run (uploaded as a CI artifact)
* ``--baseline-dir``    where the recorded JSON lives (default:
  ``benchmarks/results/``)

The compare logic (:func:`compare`) is pure and unit-tested; wall-clock
enters only through the fresh measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).parent
DEFAULT_THRESHOLD = 0.2

#: (metric label, path into the result dict) — higher is worse for all.
SERVICE_LOAD_METRICS = [
    ("serial cold wall_seconds", ("serial", "cold", "wall_seconds")),
    ("serial warm wall_seconds", ("serial", "warm", "wall_seconds")),
    ("serial cold latency_mean_s", ("serial", "cold", "latency_mean_s")),
    ("serial warm latency_mean_s", ("serial", "warm", "latency_mean_s")),
    ("parallel cold wall_seconds", ("parallel", "cold", "wall_seconds")),
    ("parallel warm wall_seconds", ("parallel", "warm", "wall_seconds")),
    ("parallel cold latency_mean_s", ("parallel", "cold", "latency_mean_s")),
    ("parallel warm latency_mean_s", ("parallel", "warm", "latency_mean_s")),
    # Multi-process fleet sweep (dispatcher + N workers, 100 clients).
    ("fleet w1 warm wall_seconds", ("fleet", "workers", "1", "warm", "wall_seconds")),
    ("fleet w2 warm wall_seconds", ("fleet", "workers", "2", "warm", "wall_seconds")),
    ("fleet w4 cold wall_seconds", ("fleet", "workers", "4", "cold", "wall_seconds")),
    ("fleet w4 warm wall_seconds", ("fleet", "workers", "4", "warm", "wall_seconds")),
    ("fleet w4 warm latency_mean_s", ("fleet", "workers", "4", "warm", "latency_mean_s")),
]

OBS_OVERHEAD_METRICS = [
    ("obs hook_fraction", ("hook_fraction",)),
    ("obs enabled/disabled ratio", ("ratio",)),
]

#: Line-sampler cost: profiled / unprofiled campaign wall time and the
#: sampler's own per-tick accounting.  Both worse-is-higher; the ratio
#: additionally gates against the absolute 1.10 budget below, baseline
#: or not.
PROFILER_METRICS = [
    ("profiler overhead_ratio", ("overhead_ratio",)),
    ("profiler tick_fraction", ("tick_fraction",)),
]

#: Structural model-quality metrics from the segment decomposition: the
#: unmodeled residual share per segment and the tiling error.  All are
#: worse-is-higher and wall-clock free, so they gate at a tight threshold.
SEGMENTS_METRICS = [
    ("segments tiling_rel_error_max", ("tiling_rel_error_max",)),
    ("spmv residual_fraction n=1", ("segments", "spmv", "1", "residual_fraction")),
    ("init residual_fraction n=1", ("segments", "init", "1", "residual_fraction")),
    (
        "vector steps residual_fraction n=1",
        ("segments", "vector steps", "1", "residual_fraction"),
    ),
]

#: Structural quality metrics from the cross-model comparison: how well
#: each scalability law tracks the measured curve, how far the fitted
#: curves spread from each other, and the agreement grade (0 ok / 1 warn
#: / 2 suspect).  All worse-is-higher and wall-clock free except the fit
#: time itself.
MODELS_METRICS = [
    ("models usl residual_rms", ("models", "usl", "residual_rms")),
    ("models granularity residual_rms", ("models", "granularity", "residual_rms")),
    ("models scaltool residual_rms", ("models", "scaltool", "residual_rms")),
    ("models cross_model_rms", ("cross_model_rms",)),
    ("models agreement_grade_score", ("agreement_grade_score",)),
    ("models fit_wall_seconds", ("fit_wall_seconds",)),
]


def _dig(data: dict, path: tuple) -> float | None:
    node = data
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node) if isinstance(node, (int, float)) else None


def compare(
    baseline: dict, fresh: dict, metrics: list[tuple], threshold: float
) -> list[dict]:
    """Per-metric comparison rows; ``regressed`` marks threshold breaches.

    A positive baseline compares relatively (``delta`` is the fractional
    change).  A baseline of 0 has no relative change, so it compares
    absolutely (``absolute: True``, ``delta`` is ``fresh - baseline``):
    a models grade of 0 (ok) that comes back 2 (suspect) regresses.  A
    metric missing on either side is reported (``status: missing``) but
    never fails the check — recorded baselines predate some metrics.
    """
    rows = []
    for label, path in metrics:
        base = _dig(baseline, path)
        new = _dig(fresh, path)
        if base is None or new is None:
            rows.append(
                {"metric": label, "baseline": base, "fresh": new,
                 "delta": None, "status": "missing", "regressed": False}
            )
            continue
        absolute = base <= 0
        delta = new - base if absolute else (new - base) / base
        regressed = delta > threshold
        rows.append(
            {
                "metric": label,
                "baseline": base,
                "fresh": new,
                "delta": delta,
                "absolute": absolute,
                "status": "regressed" if regressed else "ok",
                "regressed": regressed,
            }
        )
    return rows


def format_rows(title: str, rows: list[dict], threshold: float) -> str:
    lines = [f"[{title}] threshold +{threshold:.0%}"]
    for r in rows:
        if r["status"] == "missing":
            lines.append(f"  {r['metric']:.<46s} (not comparable)")
            continue
        delta = f"{r['delta']:>+7.4f} abs" if r["absolute"] else f"{r['delta']:>+7.1%}"
        lines.append(
            f"  {r['metric']:.<46s} {r['baseline']:>9.4f} -> {r['fresh']:>9.4f}"
            f"  {delta}  {'REGRESSED' if r['regressed'] else 'ok'}"
        )
    return "\n".join(lines)


def _load_baseline(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="allowed relative slowdown (default 0.2 = 20%%)")
    parser.add_argument("--report-only", action="store_true",
                        help="print the comparison but always exit 0")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for CI (fewer clients/repeats)")
    parser.add_argument("--export-dir", default=None, metavar="DIR",
                        help="capture /metrics + one job trace here (CI artifact)")
    parser.add_argument("--baseline-dir", default=str(HERE / "results"), metavar="DIR",
                        help="directory holding the recorded baseline JSON")
    parser.add_argument("--skip-load", action="store_true",
                        help="skip the service load bench")
    parser.add_argument("--skip-obs", action="store_true",
                        help="skip the obs overhead bench")
    parser.add_argument("--skip-profiler", action="store_true",
                        help="skip the line-sampler overhead bench")
    parser.add_argument("--skip-segments", action="store_true",
                        help="skip the segment-decomposition structural check")
    parser.add_argument("--skip-models", action="store_true",
                        help="skip the cross-model agreement check")
    args = parser.parse_args(argv)

    # Import the benches through the package so monkeypatching
    # ``benchmarks.bench_*`` in tests affects what runs here.
    sys.path.insert(0, str(HERE.parent))
    baseline_dir = Path(args.baseline_dir)
    failed = False
    reports: list[str] = []

    if not args.skip_load:
        from benchmarks.bench_service_load import run_benchmark

        if args.smoke:
            fresh_load = run_benchmark(
                clients=2, requests_per_client=1,
                engine_jobs=min(2, os.cpu_count() or 1),
                export_dir=args.export_dir,
            )
        else:
            fresh_load = run_benchmark(
                export_dir=args.export_dir,
                fleet_clients=100,
                fleet_worker_counts=(1, 2, 4),
            )
        baseline_load = _load_baseline(baseline_dir / "service_load.json")
        if baseline_load is None:
            reports.append("[service_load] no recorded baseline; skipping comparison")
        elif args.smoke and (
            baseline_load.get("clients") != fresh_load.get("clients")
            or baseline_load.get("requests_per_client") != fresh_load.get("requests_per_client")
        ):
            # A smoke run is a different workload than the recorded full
            # run: absolute comparison would be meaningless noise.
            reports.append(
                "[service_load] smoke configuration differs from baseline; "
                "ran the bench (pass/fail is its own assertions), comparison skipped"
            )
        else:
            rows = compare(baseline_load, fresh_load, SERVICE_LOAD_METRICS, args.threshold)
            reports.append(format_rows("service_load", rows, args.threshold))
            failed |= any(r["regressed"] for r in rows)

    if not args.skip_segments:
        from benchmarks.bench_segments import run_benchmark as run_segments

        seg_counts = (1, 2) if args.smoke else (1, 8, 32)
        fresh_seg = run_segments(counts=seg_counts)
        baseline_seg = _load_baseline(baseline_dir / "segments_t3dheat.json")
        if baseline_seg is None:
            reports.append("[segments] no recorded baseline; skipping comparison")
        elif baseline_seg.get("counts") != fresh_seg.get("counts") or baseline_seg.get(
            "s0"
        ) != fresh_seg.get("s0"):
            # A smoke decomposition covers different counts than the
            # recorded full run; residual fractions are not comparable.
            reports.append(
                "[segments] smoke configuration differs from baseline; "
                "ran the decomposition (tiling invariant checked), comparison skipped"
            )
        else:
            rows = compare(baseline_seg, fresh_seg, SEGMENTS_METRICS, args.threshold)
            reports.append(format_rows("segments", rows, args.threshold))
            failed |= any(r["regressed"] for r in rows)
        # The structural invariant holds at any configuration.
        if fresh_seg["tiling_rel_error_max"] >= 1e-6:
            reports.append(
                f"[segments] tiling error {fresh_seg['tiling_rel_error_max']:.3g} "
                ">= 1e-6: segments no longer tile the run"
            )
            failed = True

    if not args.skip_models:
        from benchmarks.bench_models import run_benchmark as run_models

        models_counts = (1, 2, 4, 8) if args.smoke else (1, 2, 4, 8, 16)
        fresh_models = run_models(counts=models_counts)
        baseline_models = _load_baseline(baseline_dir / "models_fit.json")
        if baseline_models is None:
            reports.append("[models] no recorded baseline; skipping comparison")
        elif baseline_models.get("counts") != fresh_models.get("counts") or (
            baseline_models.get("s0") != fresh_models.get("s0")
        ):
            # Fit quality depends on how much of the curve the fit saw;
            # a smoke fit over fewer counts is a different problem.
            reports.append(
                "[models] smoke configuration differs from baseline; "
                "ran the comparison (agreement invariant checked), comparison skipped"
            )
        else:
            rows = compare(baseline_models, fresh_models, MODELS_METRICS, args.threshold)
            reports.append(format_rows("models", rows, args.threshold))
            failed |= any(r["regressed"] for r in rows)
        # The two-roads invariant holds at any configuration: on a
        # campaign with known injected contention, the closed-form laws
        # and the decomposition must name the same dominant bottleneck.
        mapping = fresh_models.get("mapping") or {}
        if (
            mapping.get("dominant_usl") != "contention"
            or mapping.get("dominant_scaltool") != "sync+imb"
        ):
            reports.append(
                "[models] dominance disagreement on the contention campaign: "
                f"usl={mapping.get('dominant_usl')} "
                f"scaltool={mapping.get('dominant_scaltool')}"
            )
            failed = True

    if not args.skip_obs:
        from benchmarks import bench_obs_overhead

        measure = bench_obs_overhead.measure

        fresh_obs = measure(repeats=2 if args.smoke else 5)
        baseline_obs = _load_baseline(baseline_dir / "obs_overhead.json")
        if baseline_obs is None:
            reports.append("[obs_overhead] no recorded baseline; skipping comparison")
        else:
            rows = compare(baseline_obs, fresh_obs, OBS_OVERHEAD_METRICS, args.threshold)
            reports.append(format_rows("obs_overhead", rows, args.threshold))
            failed |= any(r["regressed"] for r in rows)
        # The bench's own invariant holds regardless of any baseline.
        if fresh_obs["hook_fraction"] >= 0.05:
            reports.append(
                f"[obs_overhead] disabled-mode hook cost "
                f"{fresh_obs['hook_fraction']:.2%} >= 5% contract"
            )
            failed = True

    if not args.skip_profiler:
        from benchmarks import bench_profiler_overhead

        fresh_prof = bench_profiler_overhead.measure(repeats=2 if args.smoke else 5)
        baseline_prof = _load_baseline(baseline_dir / "profiler_overhead.json")
        if baseline_prof is None:
            reports.append("[profiler_overhead] no recorded baseline; skipping comparison")
        else:
            rows = compare(baseline_prof, fresh_prof, PROFILER_METRICS, args.threshold)
            reports.append(format_rows("profiler_overhead", rows, args.threshold))
            failed |= any(r["regressed"] for r in rows)
        # The absolute budget holds regardless of any baseline: a sampler
        # that distorts the workload by >10% reports the wrong hot path.
        budget = bench_profiler_overhead.BUDGET_RATIO
        if fresh_prof["overhead_ratio"] > budget:
            reports.append(
                f"[profiler_overhead] sampling overhead ratio "
                f"{fresh_prof['overhead_ratio']:.3f} > {budget} budget"
            )
            failed = True

    print("\n\n".join(reports))
    if failed and not args.report_only:
        print("\nbenchmark regression detected", file=sys.stderr)
        return 1
    if failed:
        print("\nbenchmark regression detected (report-only mode, exiting 0)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
