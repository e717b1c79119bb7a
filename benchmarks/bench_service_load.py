"""Service load benchmark: concurrent clients against ``scaltool serve``.

Measures what the serving layer is for: N concurrent HTTP clients each
submitting campaign-backed requests over the *same* underlying campaign,
so the planner + batcher should execute each run spec exactly once while
every client still gets its own byte-exact result.

Two phases per configuration:

* **cold** — empty run cache: the first wave of jobs shares one batched
  campaign execution (spec-level dedup across jobs);
* **warm** — a second wave of *distinct* requests (different what-if
  factors) over the same campaign: every spec resolves from the run
  cache, so jobs are pure assembly.

Recorded per phase: wall time, throughput (jobs/s), mean/p95 job
latency, and the service's own ``dedup_hit_ratio`` / batch counters from
``/v1/stats``.  The bench runs the whole thing twice — engine executor
serial (``jobs=1``) and parallel (``jobs=N``) — since the executor width
only matters for the one cold batch.

``run_benchmark`` is importable (the tier-1 suite smoke-runs it with a
tiny configuration); the pytest bench below records the real numbers
into ``benchmarks/results/`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.service.client import ServiceClient
from repro.service.core import ServiceConfig
from repro.service.dispatcher import Dispatcher
from repro.service.http import ServiceServer

#: The smallest synthetic campaign the analysis accepts on the default machine.
BASE_PAYLOAD = {"workload": "synthetic", "s0": 163840, "counts": [1, 2]}


def _request_mix(clients: int, requests_per_client: int, phase: str) -> list[list[tuple]]:
    """Per-client request lists: distinct factors, one shared campaign."""
    mixes = []
    # The warm offset must clear the whole cold factor range, or warm
    # requests at high client counts collide with cold job ids and the
    # "warm" phase quietly measures job-level dedup instead of assembly.
    offset = 0.5 + 0.01 * clients * requests_per_client
    for c in range(clients):
        mix = []
        for r in range(requests_per_client):
            # Unique (phase, client, request) factor -> unique job id, so
            # job-level dedup never hides the spec-level dedup being measured.
            factor = 1.0 + 0.01 * (c * requests_per_client + r) + (offset if phase == "warm" else 0.0)
            mix.append(("whatif", {**BASE_PAYLOAD, "tm": round(factor, 4)}))
        mixes.append(mix)
    return mixes


def _drive_phase(url: str, clients: int, requests_per_client: int, phase: str) -> dict:
    latencies: list[float] = []

    def one_client(mix: list[tuple]) -> list[float]:
        out = []
        with ServiceClient(url, timeout=60) as client:
            for kind, payload in mix:
                t0 = time.perf_counter()
                submitted = client.submit(kind, payload, retries=50)
                view = client.wait(submitted["id"], timeout=600)
                if view["state"] != "done":
                    raise RuntimeError(f"job failed: {view.get('error')}")
                out.append(time.perf_counter() - t0)
        return out

    mixes = _request_mix(clients, requests_per_client, phase)
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=clients) as pool:
        for result in pool.map(one_client, mixes):
            latencies.extend(result)
    wall = time.perf_counter() - t0
    latencies.sort()
    n = len(latencies)
    return {
        "jobs": n,
        "wall_seconds": wall,
        "throughput_jobs_per_s": n / wall if wall else 0.0,
        "latency_mean_s": sum(latencies) / n,
        "latency_p95_s": latencies[min(n - 1, int(0.95 * n))],
    }


def _run_config(
    clients: int,
    requests_per_client: int,
    jobs: int,
    cache_dir: Path,
    export_dir: Path | None = None,
) -> dict:
    server = ServiceServer(
        ServiceConfig(
            cache_dir=cache_dir,
            jobs=jobs,
            workers=min(8, clients),
            max_queue=4 * clients * requests_per_client,
            batch_window=0.05,
        ),
        port=0,
    ).start()
    try:
        cold = _drive_phase(server.url, clients, requests_per_client, "cold")
        warm = _drive_phase(server.url, clients, requests_per_client, "warm")
        with ServiceClient(server.url) as client:
            stats = client.stats()
            if export_dir is not None:
                # CI artifact: the live Prometheus exposition plus one job's
                # merged distributed trace, proving the whole pipeline worked.
                export_dir.mkdir(parents=True, exist_ok=True)
                (export_dir / "metrics.prom").write_text(client.metrics())
                traced = [j for j in client.jobs() if j.get("trace_id")]
                if traced:
                    tree = client.trace(traced[-1]["id"])
                    (export_dir / "job_trace.json").write_text(
                        json.dumps(tree, indent=2, sort_keys=True) + "\n"
                    )
    finally:
        server.shutdown(drain_timeout=60)
    counters = stats["counters"]
    return {
        "engine_jobs": jobs,
        "cold": cold,
        "warm": warm,
        "dedup_hit_ratio": stats["dedup_hit_ratio"],
        "plan_specs": counters.get("plan.specs", 0),
        "batch_specs": counters.get("batch.specs", 0),
        "batches": counters.get("batches", 0),
        "jobs_done": stats["jobs"]["done"],
        "jobs_failed": stats["jobs"]["failed"],
    }


def _run_fleet_config(
    clients: int,
    requests_per_client: int,
    worker_count: int,
    engine_jobs: int,
    cache_dir: Path,
    export_dir: Path | None = None,
) -> dict:
    """One dispatcher + ``worker_count`` worker processes, both phases."""
    dispatcher = Dispatcher(
        ServiceConfig(
            cache_dir=cache_dir,
            jobs=engine_jobs,
            workers=min(8, clients),
            max_queue=4 * clients * requests_per_client,
            batch_window=0.05,
        ),
        worker_count=worker_count,
        port=0,
    ).start()
    try:
        cold = _drive_phase(dispatcher.url, clients, requests_per_client, "cold")
        warm = _drive_phase(dispatcher.url, clients, requests_per_client, "warm")
        with ServiceClient(dispatcher.url) as client:
            stats = client.stats()
            if export_dir is not None:
                export_dir.mkdir(parents=True, exist_ok=True)
                (export_dir / f"metrics_w{worker_count}.prom").write_text(client.metrics())
    finally:
        dispatcher.shutdown()
    counters = stats["counters"]
    return {
        "worker_processes": worker_count,
        "engine_jobs": engine_jobs,
        "cold": cold,
        "warm": warm,
        "dedup_hit_ratio": stats["dedup_hit_ratio"],
        "plan_specs": counters.get("plan.specs", 0),
        "batch_specs": counters.get("batch.specs", 0),
        "batches": counters.get("batches", 0),
        "jobs_done": stats["jobs"]["done"],
        "jobs_failed": stats["jobs"]["failed"],
    }


def run_fleet_benchmark(
    clients: int = 100,
    requests_per_client: int = 1,
    worker_counts: tuple = (1, 2, 4),
    engine_jobs: int = 1,
    cache_dir: str | Path | None = None,
    export_dir: str | Path | None = None,
) -> dict:
    """The multi-process sweep: same load, ``--workers`` 1 / 2 / 4.

    Every worker count gets a fresh cache root (a true cold phase); the
    merged ``/v1/stats`` proves the cross-process claim table still
    executed each spec exactly once system-wide.
    """
    import tempfile

    with tempfile.TemporaryDirectory(prefix="scaltool-fleet-") as tmp:
        base = Path(cache_dir) if cache_dir is not None else Path(tmp)
        workers = {
            str(n): _run_fleet_config(
                clients,
                requests_per_client,
                n,
                engine_jobs,
                base / f"fleet-w{n}",
                export_dir=Path(export_dir) if export_dir is not None else None,
            )
            for n in worker_counts
        }
    return {
        "clients": clients,
        "requests_per_client": requests_per_client,
        "cpu_count": os.cpu_count(),
        "workers": workers,
    }


def run_benchmark(
    clients: int = 8,
    requests_per_client: int = 3,
    engine_jobs: int = 4,
    cache_dir: str | Path | None = None,
    results_dir: str | Path | None = None,
    export_dir: str | Path | None = None,
    fleet_clients: int = 0,
    fleet_worker_counts: tuple = (),
) -> dict:
    """Drive the service with concurrent clients; serial vs parallel engine.

    Each configuration gets a fresh cache root, so both see a true cold
    phase.  Returns the measurement dict and, when ``results_dir`` is
    given, writes ``service_load.json`` + ``service_load.txt`` there.
    ``export_dir`` additionally captures the parallel run's ``/metrics``
    exposition and one job's distributed trace (the CI smoke artifact).
    """
    import tempfile

    with tempfile.TemporaryDirectory(prefix="scaltool-bench-") as tmp:
        base = Path(cache_dir) if cache_dir is not None else Path(tmp)
        serial = _run_config(clients, requests_per_client, 1, base / "serial")
        parallel = _run_config(
            clients,
            requests_per_client,
            engine_jobs,
            base / "parallel",
            export_dir=Path(export_dir) if export_dir is not None else None,
        )

    result = {
        "clients": clients,
        "requests_per_client": requests_per_client,
        "cpu_count": os.cpu_count(),
        "payload": BASE_PAYLOAD,
        "serial": serial,
        "parallel": parallel,
    }
    if fleet_worker_counts:
        result["fleet"] = run_fleet_benchmark(
            clients=fleet_clients or clients,
            requests_per_client=1,
            worker_counts=tuple(fleet_worker_counts),
            engine_jobs=engine_jobs,
            export_dir=export_dir,
        )
    if results_dir is not None:
        results_dir = Path(results_dir)
        results_dir.mkdir(parents=True, exist_ok=True)
        (results_dir / "service_load.json").write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n"
        )
        (results_dir / "service_load.txt").write_text(format_result(result) + "\n")
    return result


def format_result(result: dict) -> str:
    lines = [
        f"service load (whatif over one shared campaign, "
        f"{result['clients']} clients x {result['requests_per_client']} requests)",
        f"{'host cpu count':.<52s} {result['cpu_count']:>10d}",
    ]
    for name in ("serial", "parallel"):
        cfg = result[name]
        lines.append("")
        lines.append(f"[{name} engine, --jobs {cfg['engine_jobs']}]")
        for phase in ("cold", "warm"):
            p = cfg[phase]
            lines.append(
                f"{f'{phase}: wall / throughput':.<52s} "
                f"{p['wall_seconds']:>7.2f} s / {p['throughput_jobs_per_s']:>6.1f} jobs/s"
            )
            lines.append(
                f"{f'{phase}: latency mean / p95':.<52s} "
                f"{p['latency_mean_s'] * 1e3:>7.0f} ms / {p['latency_p95_s'] * 1e3:>6.0f} ms"
            )
        lines.append(f"{'dedup hit ratio (1 - executed/planned specs)':.<52s} {cfg['dedup_hit_ratio']:>10.4f}")
        lines.append(
            f"{'specs planned / executed / batches':.<52s} "
            f"{cfg['plan_specs']:>5.0f} / {cfg['batch_specs']:>4.0f} / {cfg['batches']:>3.0f}"
        )
        lines.append(f"{'jobs done / failed':.<52s} {cfg['jobs_done']:>6d} / {cfg['jobs_failed']:>3d}")
    fleet = result.get("fleet")
    if fleet:
        lines.append("")
        lines.append(
            f"fleet sweep ({fleet['clients']} clients x "
            f"{fleet['requests_per_client']} requests, dispatcher + N workers)"
        )
        for n, cfg in sorted(fleet["workers"].items(), key=lambda kv: int(kv[0])):
            lines.append(f"[--workers {n}]")
            for phase in ("cold", "warm"):
                p = cfg[phase]
                lines.append(
                    f"{f'{phase}: wall / throughput':.<52s} "
                    f"{p['wall_seconds']:>7.2f} s / {p['throughput_jobs_per_s']:>6.1f} jobs/s"
                )
                lines.append(
                    f"{f'{phase}: latency mean / p95':.<52s} "
                    f"{p['latency_mean_s'] * 1e3:>7.0f} ms / {p['latency_p95_s'] * 1e3:>6.0f} ms"
                )
            lines.append(
                f"{'dedup hit ratio / jobs done / failed':.<52s} "
                f"{cfg['dedup_hit_ratio']:>7.4f} / {cfg['jobs_done']:>4d} / {cfg['jobs_failed']:>3d}"
            )
    return "\n".join(lines)


def test_service_load(emit):
    result = run_benchmark(
        clients=8,
        requests_per_client=3,
        engine_jobs=min(4, os.cpu_count() or 1),
        results_dir=Path(__file__).parent / "results",
        fleet_clients=100,
        fleet_worker_counts=(1, 2, 4),
    )
    emit("service_load", format_result(result))
    for cfg in (result["serial"], result["parallel"]):
        # Every job completed; no client saw a failure.
        assert cfg["jobs_failed"] == 0
        assert cfg["jobs_done"] == 2 * 8 * 3
        # The whole point: 48 campaign-backed jobs executed each spec once.
        assert cfg["batch_specs"] <= cfg["plan_specs"] / 8
        assert cfg["dedup_hit_ratio"] > 0.9
        # Warm phase never executes a spec, so it must be much faster.
        assert cfg["warm"]["wall_seconds"] <= cfg["cold"]["wall_seconds"]
    for cfg in result["fleet"]["workers"].values():
        assert cfg["jobs_failed"] == 0
        assert cfg["jobs_done"] == 2 * result["fleet"]["clients"]
        # Cross-process spec dedup: the whole fleet still executed each
        # spec once (the SQLite claim table, not per-process luck).
        assert cfg["batch_specs"] <= cfg["plan_specs"] / 8
        assert cfg["dedup_hit_ratio"] > 0.9


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="service load bench: N concurrent clients, optional fleet sweep"
    )
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--requests-per-client", type=int, default=3)
    parser.add_argument("--engine-jobs", type=int, default=min(4, os.cpu_count() or 1))
    parser.add_argument(
        "--workers",
        type=lambda s: tuple(int(x) for x in s.split(",")),
        default=(),
        metavar="N[,N...]",
        help="also sweep a dispatcher with these worker-process counts (e.g. 1,2,4)",
    )
    parser.add_argument("--fleet-clients", type=int, default=100)
    parser.add_argument("--results-dir", default=None)
    parser.add_argument("--export-dir", default=None)
    args = parser.parse_args()
    out = run_benchmark(
        clients=args.clients,
        requests_per_client=args.requests_per_client,
        engine_jobs=args.engine_jobs,
        results_dir=args.results_dir,
        export_dir=args.export_dir,
        fleet_clients=args.fleet_clients,
        fleet_worker_counts=args.workers,
    )
    print(format_result(out))
