"""``fleet_cold``: ``scaltool serve --workers 2`` sweeping sharing-heavy inputs on an empty cache.

Two client threads submit ``sweep`` jobs at 8 and 16 processors over
false sharing, Swim halo widths and synthetic sharing fractions, each
under MESI and MSI.  Per family and round the two clients' jobs share
one axis value, so half of each client's grid points are also requested
by the other client, at the same moment: the shared SQLite claim table
must make each of those runs execute once, across shards.  Nothing runs
on one processor, and the run cache is written, not read.
"""

from __future__ import annotations

import random
import threading
import time

import layers
import stats
from procs import SETUPS, BenchError, program_env

CLIENTS = 2
WORKERS = 2

#: (workload, sharing axis, processors, data-set bytes)
FAMILIES = (
    ("falseshare", "shared_frac", 8, 20480),
    ("swim", "halo_blocks", 16, 32768),
    ("synthetic", "sharing_frac", 16, 32768),
)
SIM_METRICS = ["cycles", "l1_data_misses", "l2_misses", "store_exclusive_to_shared"]

#: Three values of each sharing axis, low to high across its valid range.
#: Every sub-round gives the shared value and each client's own value a
#: different one of the three, rotating by sub-round, so every round
#: covers the whole range with the same work.
AXIS_VALUES = {
    "shared_frac": (0.2, 0.5, 0.8),
    "halo_blocks": (1, 2, 3),
    "sharing_frac": (0.125, 0.275, 0.425),
}


def _axis_values(axis: str, index: int) -> list:
    """Sub-round ``index``'s three values: the shared one, then one per client."""
    return [AXIS_VALUES[axis][(index + role) % 3] for role in range(3)]


def round_jobs(rng: random.Random, index: int) -> list[list[dict]]:
    """Round ``index``'s sweep payloads, a list per client.

    Every round draws a fresh workload seed per family, so its runs are
    new.  Redrawn until the two clients' jobs of each family live on
    different shards: both workers receive the same work, and each
    shared point is requested from both shards at once.
    """
    import program

    while True:
        per_client: list[list[dict]] = [[] for _ in range(CLIENTS)]
        for workload, axis, n, size in FAMILIES:
            params = {"seed": rng.randrange(1, 2**31)}
            shared, *own = _axis_values(axis, index)
            for client in range(CLIENTS):
                per_client[client].append(
                    {
                        "workload": workload,
                        "params": params,
                        "size": size,
                        "n": n,
                        "workload_axes": {axis: [shared, own[client]]},
                        "machine_axes": {"protocol": ["mesi", "msi"]},
                        "metrics": list(SIM_METRICS),
                    }
                )
        owners = [[program.shard("sweep", p, WORKERS) for p in jobs] for jobs in per_client]
        if all(a != b for a, b in zip(*owners)):
            return per_client


#: Sub-rounds per round: one per rotation of the axis strata, so every
#: round holds the same mix of work.
ROTATIONS = 3

#: Rounds every run measures at least: the throughputs are medians over
#: sub-rounds, and a sub-round's wall time swings by a quarter on a
#: shared two-CPU host.
MIN_ROUNDS = 3


class _Loop:
    """Both clients start each sub-round together and wait for every reply."""

    def __init__(self, client, seed: int) -> None:
        self.client = client
        self.rng = random.Random(f"fleet_cold/{seed}")
        self.index = 0
        self.barrier = threading.Barrier(CLIENTS, action=self._next_round)

    def _next_round(self) -> None:
        self.marks.append(time.perf_counter())
        if not self.keep_going(self.step, time.perf_counter() - self.t0):
            self.stop = True
            return
        self.current = round_jobs(self.rng, self.index)
        self.index += 1
        self.step += 1

    def _client(self, index: int) -> None:
        import program

        while True:
            self.barrier.wait()
            if self.stop:
                return
            for payload in self.current[index]:
                job = program.submit_and_wait(self.client, "sweep", payload)
                job["round"] = self.step - 1
                with self.lock:
                    self.jobs.append(job)

    def phase(self, keep_going) -> tuple[list[float], list[dict]]:
        """Sub-rounds while ``keep_going(sub-rounds done, seconds)``.

        Returns each sub-round's wall time and every job, tagged with the
        sub-round it belongs to.
        """
        self.keep_going = keep_going
        self.marks: list[float] = []
        self.step = 0
        self.stop = False
        self.jobs: list[dict] = []
        self.lock = threading.Lock()
        self.t0 = time.perf_counter()
        threads = [threading.Thread(target=self._client, args=(i,)) for i in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return [b - a for a, b in zip(self.marks, self.marks[1:])], self.jobs


def _check(jobs: list[dict], root, executed: float, problems: list[str]) -> tuple[dict, dict]:
    import program

    done = [j for j in jobs if j["state"] == "done"]
    specs = program.distinct_specs([("sweep", j["payload"]) for j in done])
    records = program.run_records(root)
    if executed != len(specs) or set(records) != set(specs):
        problems.append(
            f"the fleet executed {executed:g} runs and cached {len(records)}; "
            f"the jobs hold {len(specs)} distinct specs"
        )
    for job in done:
        rows: dict = {}
        for row in job["result"]["data"]["rows"]:
            point = tuple(v for k, v in sorted(row.items()) if k in job["payload"]["workload_axes"])
            rows.setdefault(point, {})[row["protocol"]] = row["store_exclusive_to_shared"]
        for point, by_protocol in rows.items():
            if by_protocol["msi"] < by_protocol["mesi"]:
                problems.append(f"MSI event 31 below MESI at {job['payload']['workload']} {point}")
        replayed = program.replay("sweep", job["payload"], root)
        if replayed.output != job["result"]["output"]:
            problems.append(f"sweep job {job['id']} differs from an in-process replay")
    if len(program.run_records(root)) != len(records):
        problems.append("the in-process replay executed runs the fleet had cached")
    refs = {key: program.spec_refs(spec) for key, spec in specs.items()}
    return refs, {k: program.sim_stats(records[k]) for k in specs if k in records}


def run(ctx) -> dict:
    import program
    from repro.service.client import ServiceClient

    root = ctx.work / "cache"
    env = program_env(ctx.work, ctx.trace_dir)
    problems: list[str] = []
    starts = []
    server = None
    for _ in range(1 if ctx.trace_dir else SETUPS):
        if server is not None and not server.stop():
            problems.append("a dispatcher start-up did not shut down cleanly on SIGINT")
        started = time.perf_counter()
        server = ctx.procs.serve(
            ["--workers", str(WORKERS), "--cache-dir", str(root)], env, workers=WORKERS
        )
        starts.append(time.perf_counter() - started)
    if list((root / "runs").glob("*.json")):
        raise BenchError("the fleet's cache is not empty before the measured phase")

    # The workers' first jobs pay their lazy imports: one untimed sub-round
    # lets that set-up finish; its runs are distinct from the measured ones.
    loop = _Loop(ServiceClient(server.url), ctx.seed)
    _, warmup = loop.phase(lambda step, elapsed: step < 1)
    before = server.stats()
    walls, timed = loop.phase(
        lambda step, elapsed: step % ROTATIONS
        or step < MIN_ROUNDS * ROTATIONS
        or elapsed < ctx.seconds
    )
    after = server.stats()
    peak = server.peak_rss_mb()
    if not server.stop():
        problems.append("a server process outlived SIGINT")
    served_s = time.perf_counter() - started

    jobs = warmup + timed
    failed = [j for j in jobs if j["state"] != "done"]
    delta = layers.stats_delta(before, after)
    executed = layers.stats_delta({}, after)["service.specs_executed"][0]
    refs, digest = _check(jobs, root, executed, problems)
    done = [j for j in timed if j["state"] == "done"]
    # Throughputs are medians over sub-rounds, which keeps a burst of
    # host noise in one sub-round out of the run's figure.
    jobs_rate, refs_rate = [], []
    for index, wall in enumerate(walls):
        jobs_in = [j for j in done if j["round"] == index]
        specs = program.distinct_specs([("sweep", j["payload"]) for j in jobs_in])
        jobs_rate.append(len(jobs_in) / wall)
        refs_rate.append(sum(refs.get(key, 0) for key in specs) / wall)
    result = {
        "attempted": len(jobs),
        "failed": len(failed),
        "problems": problems,
        "detail": {
            "jobs": len(jobs),
            "sub_rounds": loop.index,
            "starts_s": starts,
            "executed": delta["service.specs_executed"][0],
            "claim_waits": delta["service.claim_waits"][0],
            "sub_round_s": walls,
            "figures": {
                "sim_refs_per_s": stats.median(refs_rate),
                "latency": layers.latency_summary([j["latency_s"] for j in done]),
            },
            "sim_stats": digest,
            "failed": [{"error": j.get("error")} for j in failed],
            "jobs_s": [
                {
                    "workload": j["payload"]["workload"],
                    "latency": j["latency_s"],
                    **{
                        name: sum(s["duration_s"] for s in j.get("spans", []) if s["name"] == name)
                        for name in ("service.job", "service.batch", "service.inflight.wait")
                    },
                    "executed": sum(1 for s in j.get("spans", []) if s["name"] == "engine.execute"),
                }
                for j in jobs
            ],
        },
    }
    if ctx.trace_dir is None:
        result["metrics"] = layers.end_to_end(
            starts, [j["latency_s"] for j in done], stats.median(jobs_rate), peak
        )
    else:
        tallies = layers.read_tallies(ctx.trace_dir)
        result["metrics"] = layers.per_layer(tallies, len(jobs), served_s, done, delta)
        traced = tallies["counts"].get("machine.refs", 0)
        if traced != sum(refs.values()):
            problems.append(f"the simulator traced {traced} references; the trace builds hold {sum(refs.values())}")
    return result
