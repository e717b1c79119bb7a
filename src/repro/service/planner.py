"""The request planner: spec-level dedup across concurrent jobs.

Two service jobs frequently need the same runs — an ``analyze`` and a
``predict`` over the same workload share the entire Table-3 campaign;
two sweeps share their grid intersection.  The engine's
:class:`~repro.runner.engine.RunCache` already dedups *completed* runs;
the planner closes the remaining window by dedupping runs that are
*currently executing* on behalf of another job:

* specs whose cache entry exists are counted as cache hits and dropped
  from the work list;
* specs another job has already claimed are *waited on* (the claiming
  job's batch will populate the cache);
* the remainder is *claimed* by this job and handed to the batcher.

Claims live in one table for every deployment:
:class:`repro.service.shared.SqliteClaimTable` at
``<root>/service/claims.sqlite``.  A single-process service is simply
shard 0 of 1 on it; ``serve --workers N`` runs N such processes over the
same file.  Claiming is atomic over the whole key set (one SQLite
``IMMEDIATE`` transaction), so two jobs that plan concurrently — in one
process or in two — partition the overlap instead of both executing it.
A claim is always released — even when the claiming batch fails — and a
waiter re-checks the cache afterwards: if the owner failed, the waiter
simply executes the spec itself during result assembly, so a crashed
job never wedges its peers.

Claims also *expire*: each carries a heartbeat timestamp, refreshed by
the owner during long batches, and a claim whose heartbeat is older
than the TTL, or whose owning process is gone, is reaped by the next
``claim``.  A claim orphaned by a dead worker therefore blocks dedup for
at most one TTL instead of forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs import runtime as obs
from ..runner.engine import RunCache, RunSpec
from .requests import CompiledRequest
from .shared import ClaimWaiter, SqliteClaimTable

__all__ = ["RequestPlan", "RequestPlanner"]


@dataclass
class RequestPlan:
    """How one request's spec set resolved at planning time."""

    specs: list[RunSpec]  # unique specs, in request order
    claimed: list[RunSpec]  # this job executes these (via the batcher)
    waiting: dict[str, ClaimWaiter] = field(default_factory=dict)
    cache_hits: int = 0

    @property
    def claimed_keys(self) -> list[str]:
        return [spec.key() for spec in self.claimed]


class RequestPlanner:
    """Compile a request into a deduplicated execution plan over ``claims``."""

    def __init__(self, cache: RunCache, claims: SqliteClaimTable) -> None:
        self.cache = cache
        self.claims = claims

    def plan(self, request: CompiledRequest) -> RequestPlan:
        """Resolve the request's specs (the caller tallies the outcome)."""
        with obs.tracer().span("service.plan", kind=request.kind) as span:
            unique: dict[str, RunSpec] = {}
            for spec in request.specs():
                unique.setdefault(spec.key(), spec)
            cached = {k for k, s in unique.items() if self.cache.contains(s)}
            claimed_keys, waiting = self.claims.claim(
                [k for k in unique if k not in cached]
            )
            plan = RequestPlan(
                specs=list(unique.values()),
                claimed=[unique[k] for k in claimed_keys],
                waiting=waiting,
                cache_hits=len(cached),
            )
            span.set(
                specs=len(unique),
                cache_hits=plan.cache_hits,
                claimed=len(plan.claimed),
                waiting=len(waiting),
            )
        return plan

    def complete(self, plan: RequestPlan) -> None:
        """Release this plan's claims (call exactly once, success or not)."""
        self.claims.release(plan.claimed_keys)

    def heartbeat(self, plan: RequestPlan) -> None:
        """Refresh this plan's claims while its batch is still executing."""
        self.claims.heartbeat(plan.claimed_keys)

    def wait(self, plan: RequestPlan, timeout: float | None = None) -> bool:
        """Block until every spec claimed by *other* jobs has settled.

        Returns False if ``timeout`` expired first; result assembly then
        just executes whatever is still missing itself.
        """
        ok = True
        for waiter in plan.waiting.values():
            ok = waiter.wait(timeout) and ok
        return ok
