"""``service_warm``: the default single-process ``scaltool serve`` on a warm run cache.

Set-up fills the run cache for three small campaigns, fewer than the
service's 8-entry analysis memo, so no job executes a run: HTTP
transport, queueing, planning, the job store and memoised assembly do
all the work.  Two client threads of the program's own ``ServiceClient``
each submit a job, wait for it, then submit the next (a closed loop).
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import layers
import stats
from procs import SETUPS, BenchError, program_env

COUNTS = [1, 2, 4, 8]
CAMPAIGNS = (("synthetic", 65536), ("swim", 65536), ("hydro2d", 65536))
CLIENTS = 2

#: Jobs every run completes at least, so ten lie beyond the 95th percentile.
MIN_JOBS = 200

def _campaign(workload: str, s0: int) -> dict:
    return {"workload": workload, "s0": s0, "counts": list(COUNTS)}


def prologue() -> list[tuple[str, dict]]:
    """Jobs with one possible payload per campaign: each is submitted once per run."""
    jobs = []
    for workload, s0 in CAMPAIGNS:
        base = _campaign(workload, s0)
        jobs += [
            ("analyze", {**base, "markdown": False}),
            ("analyze", {**base, "markdown": True}),
            ("whatif", dict(base)),
            ("models", {**base, "action": "fit"}),
            ("models", {**base, "action": "compare"}),
            ("blame", dict(base)),
        ]
    return jobs


def round_jobs(rng: random.Random, client: int, index: int, prefixes: dict) -> list[tuple[str, dict]]:
    """One client's round: five jobs per campaign with freshly drawn parameters.

    Prediction targets of the two clients are disjoint (multiples of 8
    against 4 mod 8), and blame labels carry the client and round, so no
    payload repeats within a run.
    """
    jobs = []
    for workload, s0 in CAMPAIGNS:
        base = _campaign(workload, s0)

        def targets() -> list[int]:
            return sorted(rng.sample(range(40 + 4 * client, 1025, 8), 3))

        tag = f"c{client}r{index}"
        jobs += [
            ("whatif", {**base, **{k: round(rng.uniform(0.5, 1.0), 4) for k in ("t2", "tm", "tsyn", "cpi0")}}),
            ("whatif", {**base, "l2": round(rng.uniform(1.5, 8.0), 4)}),
            ("predict", {**base, "to": targets()}),
            ("models", {**base, "action": "predict", "to": targets()}),
            ("blame", {**base, "groups": {f"{p}.{tag}": f"{p}*" for p in prefixes[workload]}}),
        ]
    return jobs


def _prefixes(root) -> dict:
    """Phase-name prefixes of each campaign (the default blame grouping)."""
    import program

    out: dict[str, list[str]] = {}
    for rec in program.run_records(root).values():
        if rec["role"] == "app_base" and rec["n_processors"] == 1:
            out[rec["workload"]] = sorted({name.split("_")[0] for name, _ in rec["phase_counters"]})
    return out


def _fill(ctx, root) -> float:
    """Run the campaigns through CLI processes, two at a time."""
    env = program_env(ctx.work)
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
        commands = list(
            pool.map(
                lambda c: ctx.procs.cli(
                    ["analyze", c[0], "--s0", str(c[1]), "--counts", ",".join(map(str, COUNTS)),
                     "--cache-dir", str(root)],
                    env,
                ),
                CAMPAIGNS,
            )
        )
    seconds = time.perf_counter() - t0
    bad = [c for c in commands if c.returncode != 0]
    if bad:
        raise BenchError(f"set-up campaign failed: {bad[0].args}: {bad[0].stderr[-500:]}")
    return seconds


class _Loop:
    """Closed-loop clients: whole rounds until the time and job floor are met."""

    def __init__(self, client, seed: int, seconds: float, prefixes: dict) -> None:
        self.client = client
        self.seed = seed
        self.seconds = seconds
        self.prefixes = prefixes
        self.jobs: list[dict] = []
        self.lock = threading.Lock()
        self.seen: set[str] = set()

    def _unique(self, jobs):
        import program

        for kind, payload in jobs:
            fp = program.fingerprint(kind, payload)
            with self.lock:
                if fp in self.seen:
                    raise BenchError(f"payload repeats within the run: {kind} {payload}")
                self.seen.add(fp)
        return jobs

    def run(self, client_id: int, first: list) -> None:
        import program

        rng = random.Random(f"service_warm/{self.seed}/{client_id}")
        index = 0
        batch = first
        while True:
            for kind, payload in batch:
                job = program.submit_and_wait(self.client, kind, payload, timeout=120.0)
                with self.lock:
                    self.jobs.append(job)
            with self.lock:
                done = len(self.jobs)
            if time.perf_counter() - self.t0 >= self.seconds and done >= MIN_JOBS:
                return
            batch = self._unique(round_jobs(rng, client_id, index, self.prefixes))
            index += 1

    def measure(self) -> float:
        opening = self._unique(prologue())
        shares = [opening[i::CLIENTS] for i in range(CLIENTS)]
        self.t0 = time.perf_counter()
        threads = [threading.Thread(target=self.run, args=(i, shares[i])) for i in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.perf_counter() - self.t0


def _check(jobs: list[dict], root, seed: int, problems: list[str]) -> None:
    import program

    done = [j for j in jobs if j["state"] == "done"]
    records = program.run_records(root)
    cycles = {
        (r["workload"], r["n_processors"]): r["counters"]["cycles"]
        for r in records.values()
        if r["role"] == "app_base"
    }
    for job in done:
        if job["kind"] != "whatif" or job["payload"].get("l2") is not None:
            continue
        factors = [job["payload"].get(k, 1.0) for k in ("t2", "tm", "tsyn", "cpi0")]
        for row in job["result"]["data"]["rows"]:
            if abs(row["baseline"] - cycles[(job["payload"]["workload"], row["n"])]) > 1e-9 * row["baseline"]:
                problems.append(f"whatif baseline is not the measured cycles: {job['payload']}")
            if all(f == 1.0 for f in factors) and row["predicted"] != row["baseline"]:
                problems.append(f"whatif at factor 1.0 changes the cycles: {job['payload']}")
            if row["predicted"] > row["baseline"] * (1 + 1e-12):
                problems.append(f"whatif with factors <= 1 predicts more cycles: {job['payload']}")
    rng = random.Random(f"service_warm/{seed}/sample")
    by_kind: dict[str, list[dict]] = {}
    for job in done:
        by_kind.setdefault(job["kind"], []).append(job)
    sample = [rng.choice(group) for _, group in sorted(by_kind.items())]
    sample += rng.sample(done, min(len(done), 12))
    for job in sample:
        replayed = program.replay(job["kind"], job["payload"], root)
        if replayed.output != job["result"]["output"]:
            problems.append(f"{job['kind']} job {job['id']} differs from the in-process handler")


def run(ctx) -> dict:
    import program  # noqa: F401 - puts the program on the path
    from repro.service.client import ServiceClient

    root = ctx.work / "cache"
    fill_s = _fill(ctx, root)
    prefixes = _prefixes(root)
    env = program_env(ctx.work, ctx.trace_dir)
    problems: list[str] = []
    starts = []
    server = None
    for _ in range(1 if ctx.trace_dir else SETUPS):
        if server is not None and not server.stop():
            problems.append("a server start-up did not shut down cleanly on SIGINT")
        started = time.perf_counter()
        server = ctx.procs.serve(["--cache-dir", str(root)], env)
        starts.append(time.perf_counter() - started)

    before = server.stats()
    loop = _Loop(ServiceClient(server.url), ctx.seed, ctx.seconds, prefixes)
    measured = loop.measure()
    after = server.stats()
    peak = server.peak_rss_mb()
    clean = server.stop()
    served_s = time.perf_counter() - started

    jobs = loop.jobs
    if not clean:
        problems.append("the server did not shut down cleanly on SIGINT")
    delta = layers.stats_delta(before, after)
    if delta["service.specs_executed"][0] != 0:
        problems.append(f"{delta['service.specs_executed'][0]} runs executed on a warm cache")
    if delta["runner.cache_misses"][0] != 0:
        problems.append(f"{delta['runner.cache_misses'][0]} planned runs missed the warm cache")
    failed = [j for j in jobs if j["state"] != "done"]
    if any(j.get("deduped") for j in jobs):
        problems.append("a payload repeated: job-level dedup answered instead of the service")
    _check(jobs, root, ctx.seed, problems)

    done = [j for j in jobs if j["state"] == "done"]
    latencies = [j["latency_s"] for j in done]
    result = {
        "attempted": len(jobs),
        "failed": len(failed),
        "problems": problems,
        "detail": {
            "jobs": len(jobs),
            "figures": {"fill_s": fill_s, "latency": layers.latency_summary(latencies)},
            "starts_s": starts,
            "sim_stats": {k: program.sim_stats(r) for k, r in program.run_records(root).items()},
            "failed": [{"kind": j["kind"], "error": j.get("error")} for j in failed],
        },
    }
    if ctx.trace_dir is None:
        result["metrics"] = layers.end_to_end(starts, latencies, len(done) / measured, peak)
    else:
        tallies = layers.read_tallies(ctx.trace_dir)
        result["metrics"] = layers.per_layer(tallies, len(jobs), served_s, done, delta)
    return result
