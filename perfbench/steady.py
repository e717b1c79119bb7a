"""Steadiness check: two sets of runs of the same code must agree.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --out steady.json

Each set runs every workload in ``BENCHMARK.json`` once per seed 1–10,
untraced, interleaving the workloads.  For every pair of end-to-end
metric and workload the report gives each set's median and quartiles,
the spread (Q3 − Q1 over the median) and whether the sets agree within
the bounds in ``BENCHMARK.json``: each spread within the bound, and the
second median no worse than the first by more than it.  It also compares
the simulated statistics of every run executed in both sets exactly
(cycles, L1 and L2 misses, event 31), the share of failed operations,
and lists attempted and failed operations and the host CPU count of
every run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Every set runs each workload once per seed.
SEEDS = range(1, 11)
SETS = 2


def _run(workload: str, seed: int, seconds: int) -> dict:
    with tempfile.NamedTemporaryFile(dir=HERE.parent / ".perfbench", suffix=".json") as tmp:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0", "--detail", tmp.name],
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=900,
        )
        if proc.returncode != 0:
            raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        detail = json.loads(Path(tmp.name).read_text())
    return {"result": last, "detail": detail}


def evaluate(bench: dict, sets: list[list[dict]]) -> dict:
    """Compare the sets; ``sets[i]`` is a list of run dicts from :func:`_run`."""
    report: dict = {"pairs": [], "runs": [], "ok": True}
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = sorted({r["detail"]["workload"] for runs in sets for r in runs})
    for workload in workloads:
        per_set = [[r for r in runs if r["detail"]["workload"] == workload] for runs in sets]
        names = sorted({n for runs in per_set for r in runs for n in r["result"]["metrics"]})
        for name in names:
            spec = metrics[name]
            values = [[r["result"]["metrics"][name]["value"] for r in runs] for runs in per_set]
            pair = stats.compare_sets(values[0], values[1], spec["better"], spec["bound"])
            pair.update(workload=workload, metric=name, unit=spec["unit"])
            pair["ok"] = pair["medians_agree"] and pair["spreads_within_bound"]
            pair["within_third"] = all(
                pair[s]["spread"] <= spec["bound"] / 3 for s in ("first", "second")
            )
            report["pairs"].append(pair)
            report["ok"] &= pair["ok"]
        shares = [
            sum(r["result"]["failed"] for r in runs) / max(1, sum(r["result"]["attempted"] for r in runs))
            for runs in per_set
        ]
        report.setdefault("failed_share", {})[workload] = shares
        report["ok"] &= len(set(shares)) == 1
    # Simulated statistics repeat exactly for every run both sets executed.
    seen: dict[str, list] = {}
    mismatches = []
    compared = 0
    for runs in sets:
        for r in runs:
            for key, values in r["detail"].get("sim_stats", {}).items():
                if key in seen:
                    compared += 1
                    if seen[key] != values:
                        mismatches.append({"key": key, "first": seen[key], "second": values})
                else:
                    seen[key] = values
    report["sim_stats"] = {"compared": compared, "mismatches": mismatches}
    report["ok"] &= not mismatches
    for index, runs in enumerate(sets):
        for r in runs:
            d = r["detail"]
            report["runs"].append(
                {
                    "set": index + 1,
                    "workload": d["workload"],
                    "seed": d["seed"],
                    "host_cpus": d["host_cpus"],
                    "correct": r["result"]["correct"],
                    "attempted": r["result"]["attempted"],
                    "failed": r["result"]["failed"],
                    "metrics": {k: m["value"] for k, m in r["result"]["metrics"].items()},
                }
            )
            report["ok"] &= r["result"]["correct"]
    return report


def render(report: dict) -> str:
    lines = [
        f"{'workload':<13} {'metric':<16} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
        f"{'spread':>7} {'bound':>6}  verdict"
    ]
    for p in report["pairs"]:
        for label in ("first", "second"):
            s = p[label]
            verdict = ""
            if label == "second":
                verdict = ("agree" if p["ok"] else "DISAGREE") + (
                    "" if p["within_third"] else " (spread above a third of the bound)"
                )
            lines.append(
                f"{p['workload']:<13} {p['metric']:<16} {label[0]:>3} {s['median']:>12.5g} "
                f"{s['q1']:>12.5g} {s['q3']:>12.5g} {s['spread']:>7.2%} {p['bound']:>6.2f}  {verdict}"
            )
    sim = report["sim_stats"]
    lines.append(f"simulated statistics: {sim['compared']} repeated runs, {len(sim['mismatches'])} mismatches")
    for workload, shares in sorted(report.get("failed_share", {}).items()):
        lines.append(f"failed share {workload}: {shares}")
    cpus = sorted({r["host_cpus"] for r in report["runs"]})
    lines.append(f"host CPUs: {cpus}; runs: {len(report['runs'])}; verdict: {'OK' if report['ok'] else 'NOT STEADY'}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write the full report as JSON")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    sets = []
    for index in range(SETS):
        runs = []
        for seed in SEEDS:
            for workload in (w["name"] for w in bench["workloads"]):
                run = _run(workload, seed, bench["run_seconds"])
                print(
                    f"set {index + 1} {workload} seed {seed}: "
                    + json.dumps(run["result"]["metrics"]),
                    file=sys.stderr,
                )
                runs.append(run)
        sets.append(runs)
    report = evaluate(bench, sets)
    print(render(report))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
