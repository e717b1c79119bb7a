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

Claims live in one table for every deployment: :class:`SqliteClaimTable`,
a SQLite (WAL) table at ``<root>/service/claims.sqlite``.  A
single-process service is simply shard 0 of 1 on it; ``serve --workers
N`` runs N such processes over the same file.  WAL mode gives
multi-process readers and one writer with no daemon.  Claiming is
atomic over the whole key set (one ``IMMEDIATE`` transaction), so two
jobs that plan concurrently — in one process or in two — partition the
overlap instead of both executing it.  A claim is always released —
even when the claiming batch fails — and a waiter, which polls the table
(across processes there is no shared ``threading.Event``), re-checks
the cache afterwards: if the owner failed, the waiter simply executes
the spec itself during result assembly, so a crashed job never wedges
its peers.

Claims also *expire*: each carries its owner (``pid:uuid``) and a
heartbeat timestamp, refreshed by the owner during long batches, and a
claim whose heartbeat is older than the TTL, or whose owning process is
gone, is reaped by the next ``claim``.  A claim orphaned by a dead
worker therefore blocks dedup for at most one TTL instead of forever.
Reaped claims are counted as ``service.claims.expired`` through the
``tally`` the owning service passes.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..obs import runtime as obs
from ..runner.engine import RunCache, RunSpec
from .requests import CompiledRequest

__all__ = ["RequestPlan", "RequestPlanner", "SqliteClaimTable", "owner_alive"]

#: How often a waiter polls another owner's claim (seconds).
POLL_INTERVAL = 0.02


def owner_alive(owner: str) -> bool:
    """Whether the claiming process still exists (best effort).

    ``os.kill(pid, 0)`` probes without signalling.  A recycled pid makes
    a dead owner look alive for up to one TTL — acceptable: TTL expiry
    is the backstop, liveness just reclaims *faster*.
    """
    try:
        pid = int(owner.split(":", 1)[0])
        os.kill(pid, 0)
    except (ValueError, ProcessLookupError):
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


class SqliteClaimTable:
    """The planner's in-flight claim table, shared by every process on a root.

    ``claim(keys) -> (claimed, waiting)`` and ``release(keys)``, plus
    ``heartbeat(keys)`` for long batches and TTL/owner-liveness expiry
    so claims die with their owner instead of leaking forever.
    """

    def __init__(
        self, path: str | Path, ttl: float, *, tally: Callable[[str, float], None]
    ) -> None:
        self.path = Path(path)
        self.ttl = float(ttl)
        self.owner = f"{os.getpid()}:{uuid.uuid4().hex[:12]}"
        self._tally = tally
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path), timeout=30.0, check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA busy_timeout=30000")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS claims ("
            " key TEXT PRIMARY KEY,"
            " owner TEXT NOT NULL,"
            " created REAL NOT NULL,"
            " heartbeat REAL NOT NULL)"
        )
        self._conn.commit()

    def _expire(self, now: float) -> None:
        """Drop claims whose owner is dead or whose heartbeat exceeded TTL
        (lock held, inside the caller's transaction)."""
        rows = self._conn.execute("SELECT key, owner, heartbeat FROM claims").fetchall()
        stale = [
            key
            for key, owner, hb in rows
            if now - hb > self.ttl or not owner_alive(owner)
        ]
        for key in stale:
            self._conn.execute("DELETE FROM claims WHERE key = ?", (key,))
        if stale:
            self._tally("service.claims.expired", len(stale))

    def claim(self, keys: list[str]) -> tuple[list[str], list[str]]:
        """Partition ``keys`` into (claimed by me, claimed elsewhere).

        Atomic over the whole key set (one IMMEDIATE transaction), so
        concurrent planners partition an overlap.  Stale claims are
        expired inside the same transaction, so a dead worker's keys are
        reclaimed on the very next plan that wants them.
        """
        claimed: list[str] = []
        waiting: list[str] = []
        if not keys:  # fully-cached plan: skip the write transaction
            return claimed, waiting
        now = time.time()
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._expire(now)
                for key in keys:
                    cur = self._conn.execute(
                        "INSERT OR IGNORE INTO claims (key, owner, created, heartbeat)"
                        " VALUES (?, ?, ?, ?)",
                        (key, self.owner, now, now),
                    )
                    (claimed if cur.rowcount else waiting).append(key)
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise
        return claimed, waiting

    def release(self, keys: list[str]) -> None:
        """Drop claims (success *or* failure) so waiters can proceed."""
        if not keys:
            return
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                for key in keys:
                    self._conn.execute("DELETE FROM claims WHERE key = ?", (key,))
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise

    def heartbeat(self, keys: list[str]) -> None:
        """Refresh my claims' heartbeats (call periodically during a batch)."""
        if not keys:
            return
        now = time.time()
        with self._lock:
            for key in keys:
                self._conn.execute(
                    "UPDATE claims SET heartbeat = ? WHERE key = ? AND owner = ?",
                    (now, key, self.owner),
                )
            self._conn.commit()

    def is_claimed(self, key: str) -> bool:
        """Whether a *live* claim on ``key`` exists (expired ones don't count)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT owner, heartbeat FROM claims WHERE key = ?", (key,)
            ).fetchone()
        if row is None:
            return False
        owner, hb = row
        if time.time() - hb > self.ttl or not owner_alive(owner):
            # Reap lazily so waiters never spin a full TTL on a ghost.
            self.release([key])
            return False
        return True

    def __len__(self) -> int:
        with self._lock:
            (n,) = self._conn.execute("SELECT COUNT(*) FROM claims").fetchone()
        return int(n)

    def close(self) -> None:
        with self._lock:
            self._conn.close()


@dataclass
class RequestPlan:
    """How one request's spec set resolved at planning time."""

    specs: list[RunSpec]  # unique specs, in request order
    claimed: list[RunSpec]  # this job executes these (via the batcher)
    waiting: list[str] = field(default_factory=list)  # keys claimed by other jobs
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
        """Block, polling the table, until every spec claimed by *other*
        jobs has settled (released, or expired and reaped).

        Returns False if ``timeout`` expired first; result assembly then
        just executes whatever is still missing itself.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        pending = plan.waiting
        while True:
            pending = [key for key in pending if self.claims.is_claimed(key)]
            if not pending:
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(POLL_INTERVAL)
