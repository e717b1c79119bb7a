"""Benchmark of the Scal-Tool reproduction itself: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cli_session --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the program untouched and prints the end-to-end
metrics; ``--trace 1`` is a separate run with per-layer wrappers loaded
into every program process and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from procs import ROOT, SRC, BenchError, Processes

WORKLOADS = ("cli_session", "service_warm", "fleet_cold")


@dataclass
class Context:
    work: Path
    seed: int
    seconds: float
    trace_dir: Path | None
    procs: Processes


def manifest_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit that a run must print: ``BENCHMARK.json``'s
    end-to-end metrics untraced, its per-layer metrics traced."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--detail", default=None, metavar="PATH",
        help="also write per-run detail (simulated statistics, timings, host) as JSON",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program to run: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    expected = manifest_metrics(args.trace)

    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}-{time.time_ns()}"
    work.mkdir(parents=True)
    trace_dir = work / "trace" if args.trace else None
    if trace_dir is not None:
        trace_dir.mkdir()
    procs = Processes(work)
    ctx = Context(work, args.seed, args.seconds, trace_dir, procs)
    # A terminated run still stops the servers it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    try:
        result = importlib.import_module(args.workload).run(ctx)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        procs.close()
        shutil.rmtree(work, ignore_errors=True)

    got = {name: unit for name, (_, unit) in result["metrics"].items()}
    if got != expected:
        print(
            f"perfbench: the run measured {sorted(got.items())}, "
            f"BENCHMARK.json lists {sorted(expected.items())}",
            file=sys.stderr,
        )
        return 1

    problems = result["problems"]
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    host_cpus = os.cpu_count()
    print(
        f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
        f"host_cpus={host_cpus} attempted={result['attempted']} failed={result['failed']} "
        f"checks={'ok' if not problems else 'FAILED'}"
    )
    for name, (value, unit) in sorted(result["metrics"].items()):
        print(f"perfbench:   {name} = {value:.6g} {unit}")
    for name, value in sorted(result["detail"].get("figures", {}).items()):
        print(f"perfbench:   ({name} = {value if isinstance(value, dict) else f'{value:.6g}'})")
    if args.detail:
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "seconds": args.seconds,
            "host_cpus": host_cpus,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "problems": problems,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
            **result["detail"],
        }
        Path(args.detail).write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    final = {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(result["metrics"].items())},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
