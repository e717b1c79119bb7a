"""In-process access to the program, for making inputs and checking outputs.

Nothing here runs inside a timed window: the measured work always runs
in ``python -m repro.cli`` processes.  The benchmark imports the program
only to compile the same requests the processes receive, to count the
references in their address traces independently of the simulator, and
to replay requests for the byte-identity checks.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from procs import SRC

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.errors import ReproError  # noqa: E402
from repro.runner.engine import RunSpec  # noqa: E402
from repro.runner.experiment import build_machine  # noqa: E402
from repro.service.requests import compile_request  # noqa: E402
from repro.service.sharding import shard_for  # noqa: E402

#: The simulated statistics compared exactly between two sets of runs.
SIM_STATS = ("cycles", "l1_data_misses", "l2_misses", "store_exclusive_to_shared")


def phase_refs(phases) -> int:
    """Data references in a run's address traces: the sum of ``Segment.n_refs``."""
    return sum(seg.n_refs for phase in phases for seg in phase.segments if seg is not None)


def spec_refs(spec: RunSpec) -> int:
    """References one spec's run simulates, built on a throwaway machine.

    The phases come from the spec's own workload on a fresh machine of
    the spec's configuration, which is what the engine runs; the
    simulator itself is never called.
    """
    machine = build_machine(spec.machine)
    return phase_refs(spec.build_workload().build(machine, spec.size_bytes))


def request_specs(kind: str, payload: dict) -> list[RunSpec]:
    return compile_request(kind, payload).specs()


def distinct_specs(requests: list[tuple[str, dict]]) -> dict[str, RunSpec]:
    """Spec key -> spec over every request, each key once."""
    out: dict[str, RunSpec] = {}
    for kind, payload in requests:
        for spec in request_specs(kind, payload):
            out.setdefault(spec.key(), spec)
    return out


def fingerprint(kind: str, payload: dict) -> str:
    return compile_request(kind, payload).fingerprint()


def shard(kind: str, payload: dict, count: int) -> int:
    """The shard a dispatcher with ``count`` workers routes this job to."""
    return shard_for(fingerprint(kind, payload), count)


def replay(kind: str, payload: dict, cache_root: Path):
    """The in-process request handler's result for ``payload``."""
    return compile_request(kind, payload).execute(cache_root=cache_root)


def run_records(cache_root: Path) -> dict[str, dict]:
    """Every run record in the cache, by spec key."""
    return {
        path.stem: json.loads(path.read_text())
        for path in sorted((cache_root / "runs").glob("*.json"))
    }


def sim_stats(record: dict) -> list[float]:
    counters = record["counters"]
    return [counters[name] for name in SIM_STATS]


def submit_and_wait(client, kind: str, payload: dict, timeout: float = 150.0) -> dict:
    """One closed-loop job through the program's own ``ServiceClient``.

    Returns the job with its state, result, span timeline (the one
    ``GET /v1/jobs/<id>/trace`` serves, carried in the result view) and
    client-side timings.  A refused or unreachable submit is a job in
    state ``refused``.
    """
    job = {"kind": kind, "payload": payload}
    t0 = time.perf_counter()
    try:
        submitted = client.submit(kind, payload)
        t1 = time.perf_counter()
        view = client.wait(submitted["id"], timeout=timeout)
    except ReproError as exc:
        job.update(state="refused", error=str(exc), latency_s=time.perf_counter() - t0)
        return job
    t2 = time.perf_counter()
    job.update(
        id=submitted["id"],
        deduped=submitted.get("deduped", False),
        state=view["state"],
        error=view.get("error"),
        result=view.get("result"),
        spans=(view.get("timeline") or {}).get("spans", []),
        latency_s=t2 - t0,
        submit_s=t1 - t0,
        wait_s=t2 - t1,
    )
    return job
