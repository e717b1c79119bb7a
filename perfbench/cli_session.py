"""``cli_session``: an analyst's session, one fresh ``python -m repro.cli`` per command.

A round is a cold ``scaltool analyze t3dheat`` at the paper's counts
1–32 on an empty run cache, then ten follow-up commands on the warm
cache.  The cold command spends almost all of its time in the simulator;
the follow-ups run no simulation and spend theirs on interpreter
start-up, run-cache reads, manifest export and the analysis, which is
not memoised across processes.
"""

from __future__ import annotations

import json
import random
import re
import time

import layers
import stats
from procs import SETUPS, program_env

WORKLOAD = "t3dheat"
COUNTS = (1, 2, 4, 8, 16, 32)

#: |estimated − ledger| MP as a share of the accumulated base cycles; see README.
MP_TOLERANCE = 0.15

def follow_ups(seed: int) -> list[list[str]]:
    """The warm commands of a round; ``seed`` picks their parameters."""
    rng = random.Random(f"cli_session/{seed}")

    def factor() -> str:
        return f"{rng.uniform(0.5, 0.95):.3f}"

    to = ",".join(str(n) for n in sorted(rng.sample(range(40, 257, 8), 3)))
    return [
        ["whatif", WORKLOAD, "--tm", factor()],
        ["whatif", WORKLOAD, "--t2", factor()],
        ["whatif", WORKLOAD, "--tsyn", factor()],
        ["whatif", WORKLOAD, "--l2", f"{rng.uniform(1.5, 8.0):.2f}"],
        ["predict", WORKLOAD, "--to", to],
        ["blame", WORKLOAD, "--json"],
        ["models", "compare", WORKLOAD],
        ["models", "fit", WORKLOAD],
        ["validate", WORKLOAD],
        ["analyze", WORKLOAD],
    ]


_TABLE_ROW = re.compile(r"^\s*(\d+) \|\s*([-\d,.]+) \|\s*([-\d,.]+) \|", re.MULTILINE)


def _speedups(report: str) -> dict[int, str]:
    """The ``-- speedup --`` table of an analyze report, as printed."""
    section = report.split("-- speedup --", 1)[-1]
    return {int(n): s for n, s in re.findall(r"^\s*(\d+) \|\s*([\d.]+)\s*$", section, re.MULTILINE)}


def _check_round(cache, cold, warm, problems: list[str]) -> tuple[int, dict]:
    """Check one round's outputs; returns (traced references, sim stats by spec key)."""
    import program
    from repro.core import ScalTool
    from repro.runner import CampaignConfig
    from repro.runner.cache import cached_campaign
    from repro.workloads import make_workload

    payload = {"workload": WORKLOAD, "counts": list(COUNTS)}
    specs = program.request_specs("analyze", payload)
    records = program.run_records(cache)
    if set(records) != {s.key() for s in specs}:
        problems.append(
            f"cold analyze: the cache holds {len(records)} runs, not the "
            f"{len(specs)} planned runs once each"
        )
        return 0, {}
    refs = sum(program.spec_refs(spec) for spec in specs)
    digest = {key: program.sim_stats(rec) for key, rec in records.items()}

    base = {r["n_processors"]: r for r in records.values() if r["role"] == "app_base"}
    speedup = {n: base[1]["wall_cycles"] / base[n]["wall_cycles"] for n in base}
    printed = _speedups(cold.stdout)
    for n in COUNTS:
        if printed.get(n) != f"{speedup[n]:.2f}":
            problems.append(
                f"analyze prints speedup {printed.get(n)} at n={n}; the run records give {speedup[n]:.4f}"
            )
    # Figs. 5-6: good speedup through 16 processors, then saturation, and
    # synchronization the dominant multiprocessor overhead at 32.
    for n in (2, 4, 8, 16):
        if speedup[n] < 0.75 * n:
            problems.append(f"speedup {speedup[n]:.2f} at n={n} is below 0.75 n")
    if speedup[32] / 32 > 0.8 * speedup[16] / 16:
        problems.append("no saturation: efficiency at 32 is within 20% of that at 16")
    if "dominant bottleneck at n=32: synchronization" not in cold.stdout:
        problems.append("analyze does not name synchronization the dominant bottleneck at 32")
    ledger = base[32]["ground_truth"]
    if ledger["sync_cycles"] <= ledger["spin_cycles"]:
        problems.append("ledger: synchronization is not the larger MP overhead at 32")

    workload = make_workload(WORKLOAD)
    campaign = cached_campaign(
        workload,
        CampaignConfig(s0=workload.default_size(), processor_counts=COUNTS),
        cache_dir=cache,
    )
    analysis = ScalTool(campaign).analyze()
    for n in COUNTS:
        truth = base[n]["ground_truth"]
        measured = truth["sync_cycles"] + truth["spin_cycles"]
        gap = abs(analysis.curves.mp_cost(n) - measured) / base[n]["counters"]["cycles"]
        if gap > MP_TOLERANCE:
            problems.append(f"MP estimate at n={n} is {gap:.1%} of base away from the ledger")

    identity = program.replay("whatif", payload, cache).data["rows"]
    for row in identity:
        cycles = base[row["n"]]["counters"]["cycles"]
        if abs(row["predicted"] - cycles) > 1e-9 * cycles:
            problems.append(f"whatif at factor 1.0 predicts {row['predicted']} at n={row['n']}, not {cycles}")
    tm = next(c for c in warm if c.args[0] == "whatif" and c.args[2] == "--tm")
    for n, baseline, predicted in _TABLE_ROW.findall(tm.stdout):
        b, p = float(baseline.replace(",", "")), float(predicted.replace(",", ""))
        if p > b:
            problems.append(f"whatif {tm.args[2:4]} predicts more cycles at n={n}")
        if abs(b - base[int(n)]["counters"]["cycles"]) > 1.0:
            problems.append(f"whatif baseline at n={n} is not the measured cycles")
    report = json.loads(next(c for c in warm if c.args[0] == "blame").stdout)
    losses = sum(v["cycle_loss"] for v in report["vertices"])
    if abs(losses - report["total_loss"]) > 1e-6 * max(1.0, abs(report["total_loss"])):
        problems.append(f"blame vertex losses sum to {losses}, not the total {report['total_loss']}")
    if warm[-1].stdout != cold.stdout:
        problems.append("the warm analyze does not print what the cold one printed")
    return refs, digest


def run(ctx) -> dict:
    env = program_env(ctx.work)
    startups = [ctx.procs.cli(["list"], env) for _ in range(SETUPS)]
    trace_dir = ctx.trace_dir
    run_env = program_env(ctx.work, trace_dir)

    problems: list[str] = []
    commands = []
    cold_s, refs_per_s, warm_s, digest = [], [], [], {}
    total_refs = 0
    measured = 0.0
    rounds = 0
    while rounds == 0 or measured < ctx.seconds:
        cache = ctx.work / f"cache-{rounds}"
        cache_arg = ["--cache-dir", str(cache)]
        t0 = time.perf_counter()
        cold = ctx.procs.cli(["analyze", WORKLOAD, *cache_arg], run_env)
        warm = [ctx.procs.cli([*args, *cache_arg], run_env) for args in follow_ups(ctx.seed)]
        measured += time.perf_counter() - t0
        rounds += 1
        commands += [cold, *warm]
        cold_s.append(cold.seconds)
        warm_s += [c.seconds for c in warm if c.returncode == 0]
        if all(c.returncode == 0 for c in [cold, *warm]):
            refs, round_digest = _check_round(cache, cold, warm, problems)
            digest.update(round_digest)
            total_refs += refs
            if refs:
                refs_per_s.append(refs / cold.seconds)

    failed = [c for c in commands if c.returncode != 0]
    latencies = [c.seconds for c in commands if c.returncode == 0]
    figures = {"cold_analyze_s": stats.median(cold_s), "latency": layers.latency_summary(latencies)}
    if warm_s:
        figures["warm_cmd_p50_ms"] = 1000.0 * stats.median(warm_s)
    if refs_per_s:
        figures["sim_refs_per_s"] = stats.median(refs_per_s)
    result = {
        "attempted": len(commands),
        "failed": len(failed),
        "problems": problems,
        "detail": {
            "rounds": rounds,
            "figures": figures,
            "sim_stats": digest,
            "failed": [{"args": c.args, "stderr": c.stderr[-400:]} for c in failed],
            "commands": [{"args": c.args, "seconds": c.seconds, "rc": c.returncode} for c in commands],
        },
    }
    if trace_dir is None:
        result["metrics"] = layers.end_to_end(
            [c.seconds for c in startups],
            latencies,
            len(latencies) / measured,
            max(c.maxrss_mb for c in commands),
        )
    else:
        tallies = layers.read_tallies(trace_dir)
        result["metrics"] = layers.per_layer(
            tallies,
            len(commands),
            sum(c.seconds for c in commands),
            startups_s=[c.seconds for c in startups],
        )
        traced = tallies["counts"].get("machine.refs", 0)
        if not failed and traced != total_refs:
            problems.append(f"the simulator traced {traced} references; the trace builds hold {total_refs}")
    return result
