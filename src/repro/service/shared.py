"""Shared state under the cache root: the claim table and run-cache index.

Every service process — the single-process ``scaltool serve`` as well as
each worker of ``serve --workers N`` — keeps its in-flight claims and its
run-cache index in SQLite files under ``<root>/service/``, so any number
of processes on one cache root see the same state *atomically*:

* :class:`SqliteClaimTable` — the planner's in-flight claim table as a
  SQLite (WAL) table.  Claims carry an owner id (``pid:uuid``), a
  creation time, and a heartbeat; a claim whose owner is dead or whose
  heartbeat is older than the TTL is *expired* and can be reclaimed, so
  a worker SIGKILLed mid-batch never wedges its peers.  Waiters poll the
  table — cross-process, there is no shared ``threading.Event`` —
  re-checking the run cache as they go.

* :class:`RunCacheIndex` + :class:`IndexedRunCache` — the run cache
  keeps its atomic per-spec JSON payloads (write-then-rename files; the
  engine contract), while a WAL-mode SQLite index makes membership a
  query instead of a ``stat`` and lets one process memoise parsed
  records safely: a record may be cached in memory only while the index
  row's generation matches, so a refresh by *any* process invalidates
  every process's memo.

SQLite is in the standard library, WAL mode gives multi-process
readers + single-writer semantics with no daemon, and every mutation
here is a single statement or one short ``BEGIN IMMEDIATE`` block —
well inside what WAL handles at this fan-in.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
import uuid
from pathlib import Path

from ..obs import runtime as obs
from ..runner.engine import RunCache, RunRecord, RunSpec

__all__ = [
    "SqliteClaimTable",
    "ClaimWaiter",
    "RunCacheIndex",
    "IndexedRunCache",
    "owner_alive",
]

#: A claim whose heartbeat is older than this is reclaimable even if the
#: owner pid still answers (a wedged worker must not block dedup forever).
DEFAULT_CLAIM_TTL = 60.0

#: How often waiters poll a cross-process claim (seconds).
POLL_INTERVAL = 0.02


def make_owner_id() -> str:
    """An owner token: ``pid:uuid`` — liveness-checkable and unique."""
    return f"{os.getpid()}:{uuid.uuid4().hex[:12]}"


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


def _connect(path: Path) -> sqlite3.Connection:
    path.parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(str(path), timeout=30.0, check_same_thread=False)
    conn.execute("PRAGMA journal_mode=WAL")
    conn.execute("PRAGMA synchronous=NORMAL")
    conn.execute("PRAGMA busy_timeout=30000")
    return conn


class ClaimWaiter:
    """Waits, by polling, for another owner's claim on one key to go.

    ``wait`` returns True once the claim row is gone (owner released) or
    expired+reclaimed-away; the planner's contract — "after wait(),
    re-check the cache; execute yourself what is still missing" — makes
    a false-positive wake merely a little extra work.
    """

    def __init__(self, table: "SqliteClaimTable", key: str) -> None:
        self._table = table
        self._key = key

    def wait(self, timeout: float | None = None) -> bool:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if not self._table.is_claimed(self._key):
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(POLL_INTERVAL)


class SqliteClaimTable:
    """The planner's in-flight claim table, shared by every process on a root.

    ``claim(keys) -> (claimed, waiting)`` and ``release(keys)``, plus
    ``heartbeat(keys)`` for long batches and TTL/owner-liveness expiry
    so claims die with their owner instead of leaking forever.
    """

    def __init__(
        self,
        path: str | Path,
        ttl: float = DEFAULT_CLAIM_TTL,
        owner: str | None = None,
    ) -> None:
        self.path = Path(path)
        self.ttl = float(ttl)
        self.owner = owner or make_owner_id()
        self._lock = threading.Lock()
        self._conn = _connect(self.path)
        with self._lock:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS claims ("
                " key TEXT PRIMARY KEY,"
                " owner TEXT NOT NULL,"
                " created REAL NOT NULL,"
                " heartbeat REAL NOT NULL)"
            )
            self._conn.commit()

    # -- expiry -----------------------------------------------------------------

    def _expire_locked(self, now: float) -> int:
        """Drop claims whose owner is dead or whose heartbeat exceeded TTL."""
        rows = self._conn.execute(
            "SELECT key, owner, heartbeat FROM claims"
        ).fetchall()
        stale = [
            key
            for key, owner, hb in rows
            if now - hb > self.ttl or not owner_alive(owner)
        ]
        for key in stale:
            self._conn.execute("DELETE FROM claims WHERE key = ?", (key,))
        if stale:
            obs.registry().inc("service.claims.expired", len(stale))
        return len(stale)

    def expire(self) -> int:
        """Reap stale claims now; returns how many were dropped."""
        with self._lock:
            now = time.time()
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                n = self._expire_locked(now)
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise
        return n

    # -- claim / release --------------------------------------------------------

    def claim(self, keys: list[str]) -> tuple[list[str], dict[str, ClaimWaiter]]:
        """Partition ``keys`` into (claimed by me, claimed elsewhere).

        Atomic over the whole key set (one IMMEDIATE transaction), so
        concurrent planners partition an overlap.  Stale claims are
        expired inside the same transaction, so a dead worker's keys are
        reclaimed on the very next plan that wants them.
        """
        claimed: list[str] = []
        waiting: dict[str, ClaimWaiter] = {}
        if not keys:  # fully-cached plan: skip the write transaction
            return claimed, waiting
        now = time.time()
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._expire_locked(now)
                for key in keys:
                    cur = self._conn.execute(
                        "INSERT OR IGNORE INTO claims (key, owner, created, heartbeat)"
                        " VALUES (?, ?, ?, ?)",
                        (key, self.owner, now, now),
                    )
                    if cur.rowcount:
                        claimed.append(key)
                    else:
                        waiting[key] = ClaimWaiter(self, key)
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

    def owner_of(self, key: str) -> str | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT owner FROM claims WHERE key = ?", (key,)
            ).fetchone()
        return row[0] if row else None

    def __len__(self) -> int:
        with self._lock:
            (n,) = self._conn.execute("SELECT COUNT(*) FROM claims").fetchone()
        return int(n)

    def close(self) -> None:
        with self._lock:
            self._conn.close()


class RunCacheIndex:
    """WAL-mode SQLite membership index over the run cache.

    Rows are ``(key, generation)``.  The generation bumps whenever the
    entry is (re)written, which is what lets per-process record memos
    stay correct: a memo is valid only while its generation matches.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._conn = _connect(self.path)
        with self._lock:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS runs ("
                " key TEXT PRIMARY KEY,"
                " generation INTEGER NOT NULL,"
                " created REAL NOT NULL)"
            )
            self._conn.commit()

    def add(self, key: str) -> int:
        """Record ``key`` as present; returns its new generation."""
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute(
                    "INSERT INTO runs (key, generation, created) VALUES (?, 1, ?)"
                    " ON CONFLICT(key) DO UPDATE SET generation = generation + 1",
                    (key, time.time()),
                )
                (gen,) = self._conn.execute(
                    "SELECT generation FROM runs WHERE key = ?", (key,)
                ).fetchone()
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise
        return int(gen)

    def generation(self, key: str) -> int | None:
        """The key's generation, or None if unindexed."""
        with self._lock:
            row = self._conn.execute(
                "SELECT generation FROM runs WHERE key = ?", (key,)
            ).fetchone()
        return int(row[0]) if row else None

    def discard(self, key: str) -> None:
        with self._lock:
            self._conn.execute("DELETE FROM runs WHERE key = ?", (key,))
            self._conn.commit()

    def __len__(self) -> int:
        with self._lock:
            (n,) = self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()
        return int(n)

    def close(self) -> None:
        with self._lock:
            self._conn.close()


class IndexedRunCache(RunCache):
    """A :class:`RunCache` backed by the shared index + a record memo.

    Payloads stay exactly where the engine contract puts them — one
    atomic JSON file per spec under ``<root>/`` — so a bare ``RunCache``
    pointed at the same directory (the CLI path) interoperates freely.
    On top of that:

    * ``contains`` consults the index first and falls back to ``stat``
      (a CLI-written entry predating the index is adopted on sight);
    * ``get`` memoises parsed records per process, keyed by (key,
      generation), so the service's warm path stops re-parsing JSON for
      every job — and stays correct across processes because any
      rewrite bumps the generation.
    """

    def __init__(self, root: str | Path, index: RunCacheIndex, memo_cap: int = 4096):
        super().__init__(root)
        self.index = index
        self._memo_cap = int(memo_cap)
        self._memo_lock = threading.Lock()
        self._memo: dict[str, tuple[int, RunRecord]] = {}

    def contains(self, spec: RunSpec) -> bool:
        key = spec.key()
        if self.index.generation(key) is not None:
            return True
        if self.path(spec).exists():
            self.index.add(key)
            return True
        return False

    def get(self, spec: RunSpec) -> RunRecord | None:
        key = spec.key()
        gen = self.index.generation(key)
        if gen is not None:
            with self._memo_lock:
                hit = self._memo.get(key)
                if hit is not None and hit[0] == gen:
                    obs.registry().inc("service.runcache.memo_hits")
                    return hit[1]
        record = super().get(spec)
        if record is None:
            if gen is not None and not self.path(spec).exists():
                self.index.discard(key)  # index row outlived its payload
            return None
        if gen is None:
            gen = self.index.add(key)
        with self._memo_lock:
            if len(self._memo) >= self._memo_cap:
                self._memo.clear()  # simple flush; cap >> working set
            self._memo[key] = (gen, record)
        return record

    def put(self, spec: RunSpec, record: RunRecord) -> Path:
        path = super().put(spec, record)
        gen = self.index.add(spec.key())
        with self._memo_lock:
            if len(self._memo) >= self._memo_cap:
                self._memo.clear()
            self._memo[spec.key()] = (gen, record)
        return path
