""":class:`AnalysisService` — the async job engine behind ``scaltool serve``.

Shape (one box per component, all inside one process)::

    submit()  ──admission──►  asyncio.PriorityQueue
                                   │  worker tasks (config.workers)
                                   ▼
                            _execute_job (thread pool)
                                   │  planner: cache / in-flight dedup
                                   ▼
                            _SpecBatcher (asyncio task)
                                   │  coalesces claimed specs across jobs
                                   ▼
                            Executor.run(batch, cache=RunCache)
                                   │
                                   ▼
                            result assembly (all cache hits) -> JobStore

Guarantees:

* **admission control** — at most ``max_queue`` jobs queued+running;
  beyond that :class:`~repro.errors.QueueFullError` (HTTP 429 with
  ``Retry-After``), and while draining every submit is rejected (503).
* **idempotent submits** — the job id is a content address over the
  canonical request, so resubmitting an identical request returns the
  existing job instead of duplicating work.
* **dedup + batching** — the planner drops specs already on disk, waits
  on specs claimed by other jobs, and the batcher merges what remains
  from concurrently admitted jobs into single ``Executor.run`` calls.
* **durability** — every state transition is persisted atomically; a
  restarted service re-queues interrupted jobs and keeps serving
  ``status``/``result`` for finished ones.
* **bounded memory** — the job table holds the active jobs plus the
  ``max_queue`` most recently finished ones; the store serves the rest.
* **graceful lifecycle** — ``drain()`` stops admission and waits for
  in-flight jobs; per-job ``job_timeout``; transient failures
  (:data:`~repro.runner.engine.TRANSIENT_EXCEPTIONS`) retried a bounded
  number of times on top of the engine's own per-run retries.

The simulator itself is CPU-bound and deterministic, so job *threads*
exist to overlap planning/waiting, while actual runs execute through the
configured engine executor (``jobs > 1`` -> a process pool) — the same
split an inference server makes between request handling and the
compute backend.
"""

from __future__ import annotations

import asyncio
import collections
import heapq
import itertools
import os
import sqlite3
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from pathlib import Path

from ..errors import (
    JobNotFoundError,
    QueueFullError,
    ServiceError,
    StoreUnavailableError,
)
from ..obs import diagnostics
from ..obs import runtime as obs
from ..obs.logs import get_logger, kv
from ..obs.metrics import BucketHistogram, MetricsRegistry
from ..obs.telemetry import render_prometheus
from ..obs.trace import TraceBuffer, TraceContext, TraceHandle, attach, new_span_id, retarget
from ..runner.engine import (
    TRANSIENT_EXCEPTIONS,
    RunCache,
    RunSpec,
    SerialExecutor,
    default_cache_root,
    default_executor,
)
from . import requests as _requests
from .planner import RequestPlanner
from .sharding import HashRing
from .shared import IndexedRunCache, RunCacheIndex, SqliteClaimTable
from .store import ACTIVE_STATES, TERMINAL_STATES, Job, JobStore

__all__ = ["ServiceConfig", "AnalysisService"]

_log = get_logger("service.core")

#: Queue sentinel that sorts after every real job (priorities are finite).
_STOP = (float("inf"), 0, None)


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one :class:`AnalysisService`."""

    cache_dir: str | Path | None = None  # default: $SCALTOOL_CACHE_DIR / .scaltool_cache
    jobs: int = 1  # engine executor width (1 = serial, N = process pool)
    workers: int = 2  # concurrent jobs in flight
    max_queue: int = 32  # admission bound on queued+running jobs; finished jobs kept in memory
    job_timeout: float = 600.0  # seconds before a running job is failed
    retries: int = 1  # service-level retries of transient job failures
    batch_window: float = 0.02  # seconds the batcher waits to coalesce claims
    retry_after: float = 1.0  # advisory back-off handed to rejected clients
    default_priority: int = 5  # lower sorts sooner
    shard_index: int = 0  # this process's shard id on the hash ring
    shard_count: int = 1  # total worker processes sharing the cache root
    claim_ttl: float = 60.0  # seconds before an unheartbeated claim expires

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServiceError("workers must be >= 1")
        if self.max_queue < 1:
            raise ServiceError("max_queue must be >= 1")
        if self.retries < 0:
            raise ServiceError("retries must be >= 0")
        if self.shard_count < 1:
            raise ServiceError("shard_count must be >= 1")
        if not 0 <= self.shard_index < self.shard_count:
            raise ServiceError(
                f"shard_index must be in [0, {self.shard_count}), got {self.shard_index}"
            )
        if self.claim_ttl <= 0:
            raise ServiceError("claim_ttl must be > 0")


class _SpecBatcher:
    """Coalesces claimed spec lists from concurrent jobs into engine batches.

    Lives on the service event loop.  ``submit()`` parks the caller until
    the batch containing its specs has executed (and therefore populated
    the run cache).  One batch executes at a time, through the service's
    configured executor, in a dedicated thread so the loop stays free.
    """

    def __init__(self, service: "AnalysisService") -> None:
        self._service = service
        self._pending: list[tuple[list[RunSpec], asyncio.Future, TraceHandle | None]] = []
        self._wakeup = asyncio.Event()
        self._stopping = False

    async def submit(self, specs: list[RunSpec], trace: TraceHandle | None = None) -> None:
        if self._stopping:
            raise ServiceError("service is shutting down")
        fut = asyncio.get_running_loop().create_future()
        self._pending.append((specs, fut, trace))
        self._wakeup.set()
        await fut

    def stop(self) -> None:
        self._stopping = True
        self._wakeup.set()

    async def run(self) -> None:
        svc = self._service
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            if self._pending and svc.config.batch_window > 0:
                # Give concurrently admitted jobs a beat to join the batch.
                await asyncio.sleep(svc.config.batch_window)
            batch, self._pending = self._pending, []
            if not batch:
                if self._stopping:
                    return
                continue
            specs: list[RunSpec] = []
            seen: set[str] = set()
            for spec_list, _, _ in batch:
                for spec in spec_list:
                    if spec.key() not in seen:
                        seen.add(spec.key())
                        specs.append(spec)
            svc._tally("service.batches")
            svc._tally("service.batch.specs", len(specs))
            svc._observe("service.batch.size", len(specs))
            # The batch is shared across jobs, so it records under a private
            # trace; afterwards the spans are copied into every traced
            # participant's tree (re-rooted under its waiting span).
            batch_ctx = (
                TraceContext.new_root()
                if any(trace is not None for _, _, trace in batch)
                else None
            )
            failure: BaseException | None = None
            try:
                await asyncio.get_running_loop().run_in_executor(
                    svc._batch_pool, svc._run_batch, specs, batch_ctx
                )
            except Exception as exc:  # noqa: BLE001 - fan the failure out to the jobs
                failure = exc
            # Retarget *before* waking the jobs: a woken job may finish (and
            # pop its trace for persistence) at any point after its future
            # resolves, so its copy of the batch spans must already be there.
            if batch_ctx is not None:
                spans = svc.traces.pop_trace(batch_ctx.trace_id)
                for _, _, trace in batch:
                    if trace is not None:
                        trace.buffer.extend(
                            retarget(spans, trace.context.trace_id, trace.context.span_id)
                        )
            for _, fut, _ in batch:
                if not fut.done():
                    if failure is not None:
                        fut.set_exception(failure)
                    else:
                        fut.set_result(None)


class AnalysisService:
    """The serving layer: accepts requests, executes them through the engine."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.root = (
            Path(self.config.cache_dir)
            if self.config.cache_dir is not None
            else default_cache_root()
        )
        # The one metrics store behind /metrics, /v1/stats and /healthz:
        # always on, so its histograms are bucketed (bounded memory).  The
        # job store, claim table and run cache count their events into it.
        self.metrics = MetricsRegistry(histogram_factory=BucketHistogram)
        self.store = JobStore(self.root / "service" / "jobs", tally=self._tally)
        self.ring = HashRing(self.config.shard_count)
        # Every service, one process or a worker of many, keeps its run-cache
        # index and its claim table in SQLite-WAL files under the cache root,
        # so every process on that root sees the same state.  A root where
        # they cannot be made degrades the service (503s from start()); a
        # degraded service admits no job, so it plans nothing and needs no
        # claim table — a plain run cache serves its read endpoints.
        self.degraded: str | None = None
        self.planner: RequestPlanner | None = None
        try:
            self.run_cache: RunCache = IndexedRunCache(
                self.root / "runs",
                RunCacheIndex(self.root / "service" / "run_index.sqlite"),
                tally=self._tally,
            )
            claims = SqliteClaimTable(
                self.root / "service" / "claims.sqlite",
                ttl=self.config.claim_ttl,
                tally=self._tally,
            )
        except (OSError, sqlite3.OperationalError) as exc:
            self.degraded = f"{type(exc).__name__}: {exc}"
            self.run_cache = RunCache(self.root / "runs")
        else:
            self.planner = RequestPlanner(self.run_cache, claims)
        self.executor = default_executor(self.config.jobs)
        self.traces = TraceBuffer()
        self.started_at = time.time()

        self._lock = threading.Lock()
        self._done_cv = threading.Condition(self._lock)
        # The job table: every active job, plus the ``max_queue`` most
        # recently finished ones (``_finished``, oldest first).  Older jobs
        # are read back from the store.  ``_states`` counts every job this
        # shard owns by state, the ones the table no longer holds included.
        self._jobs: dict[str, Job] = {}
        self._finished: collections.OrderedDict[str, None] = collections.OrderedDict()
        self._states: collections.Counter[str] = collections.Counter()
        self._enqueued_at: dict[str, float] = {}  # job id -> wall time of enqueue
        self._seq = itertools.count()
        self._draining = False
        self._started = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._queue: asyncio.PriorityQueue | None = None
        self._batcher: _SpecBatcher | None = None
        self._tasks: list[asyncio.Task] = []
        self._job_pool = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="scaltool-job"
        )
        self._batch_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="scaltool-batch"
        )

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> "AnalysisService":
        """Start the event loop, workers, and batcher; recover stored jobs."""
        if self._started:
            return self
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="scaltool-service", daemon=True
        )
        self._thread.start()
        asyncio.run_coroutine_threadsafe(self._setup(), self._loop).result(timeout=10)
        self._started = True
        self.degraded = self.degraded or self.store.check_writable()
        if self.degraded is None:
            self._recover()
        else:
            # The service stays up for read-only endpoints (health, metrics,
            # stored results if any); submits are refused with a clear error.
            self._tally("service.store.degraded")
            _log.warning("job store is not writable %s", kv(reason=self.degraded))
        _log.debug(
            "service started %s",
            kv(root=self.root, workers=self.config.workers, jobs=self.config.jobs),
        )
        return self

    async def _setup(self) -> None:
        self._queue = asyncio.PriorityQueue()
        self._batcher = _SpecBatcher(self)
        self._tasks = [asyncio.create_task(self._batcher.run())]
        for _ in range(self.config.workers):
            self._tasks.append(asyncio.create_task(self._worker()))

    def owns(self, job_id: str) -> bool:
        """Whether the hash ring routes ``job_id`` to this shard."""
        return self.ring.owner(job_id) == self.config.shard_index

    def _recover(self) -> None:
        """Count stored jobs; interrupted ones go back on the queue.

        The store is read one job at a time: the table takes the
        re-queued jobs and the most recently finished ones, and the state
        tally counts them all.  Workers under a dispatcher share one store
        directory, so each recovers only the jobs the ring routes to it —
        re-queuing a peer's interrupted job would double-execute it once
        the peer restarts.
        """
        requeue: list[Job] = []
        latest: list[tuple] = []  # min-heap of (finished, id, job), max_queue long
        with self._lock:
            for job in self.store.scan(predicate=self.owns):
                self._states[job.state] += 1
                if job.state in ACTIVE_STATES:
                    self._set_state(job, "queued")
                    self.store.put(job)
                    requeue.append(job)
                else:
                    heapq.heappush(latest, (job.finished or 0.0, job.id, job))
                    if len(latest) > self.config.max_queue:
                        heapq.heappop(latest)
            for _, _, job in sorted(latest):
                self._keep_finished(job)
        requeue.sort(key=lambda j: j.created)
        for job in requeue:
            self._tally("service.jobs.recovered")
            self._enqueue(job)
        if requeue:
            _log.debug("recovered %d interrupted job(s)", len(requeue))

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting work and wait for queued+running jobs to finish.

        Returns True once no job is active; False if ``timeout`` expired
        first (remaining jobs stay persisted as queued/running and are
        recovered by the next start).
        """
        with self._lock:
            self._draining = True
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                active = self._active_count()
            if not active:
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.02)

    def close(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Drain (optionally), stop all tasks, tear the loop down, close the SQLite files."""
        if not self._started:
            return
        if drain:
            self.drain(timeout=timeout)
        loop = self._loop
        assert loop is not None and self._queue is not None
        try:
            asyncio.run_coroutine_threadsafe(self._shutdown(), loop).result(
                timeout=timeout
            )
        except TimeoutError:  # pragma: no cover - jobs stuck past the deadline
            _log.warning("service shutdown timed out; abandoning worker tasks")
        loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=5)
        if not loop.is_running():
            loop.close()
        self._job_pool.shutdown(wait=False)
        self._batch_pool.shutdown(wait=False)
        if self.planner is not None:  # the SQLite files this service opened
            self.planner.claims.close()
            self.planner.cache.index.close()
        self._started = False
        _log.debug("service stopped")

    async def _shutdown(self) -> None:
        assert self._queue is not None and self._batcher is not None
        for _ in range(self.config.workers):
            self._queue.put_nowait(_STOP)
        self._batcher.stop()
        await asyncio.gather(*self._tasks, return_exceptions=True)

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    # -- the public request surface ---------------------------------------------------

    def submit(
        self,
        kind: str,
        payload: dict | None = None,
        priority: int | None = None,
        trace_ctx: TraceContext | None = None,
    ) -> tuple[Job, bool]:
        """Admit one request; returns ``(job, deduped)``.

        ``deduped`` is True when an identical request was already queued,
        running, or done — the existing job is returned and no new work
        is created.  A previously *failed* identical request is re-queued.
        Raises :class:`~repro.errors.QueueFullError` when the queue is at
        capacity or the service is draining.

        ``trace_ctx`` is the caller's trace context (parsed from a
        ``traceparent`` header); when present the job joins that trace —
        its whole lifecycle becomes child spans of the caller's span, and
        the assembled tree is persisted with the job.  A deduped submit
        keeps the first submitter's trace.
        """
        if not self._started:
            raise ServiceError("service is not started")
        if self.degraded is not None:
            self._tally("service.admission.rejected")
            raise StoreUnavailableError(f"job store is not writable: {self.degraded}")
        request = _requests.compile_request(kind, payload)
        job_id = request.fingerprint()
        if priority is None:
            priority = self.config.default_priority
        else:
            try:
                priority = int(priority)
            except (TypeError, ValueError):
                raise ServiceError(f"bad priority {priority!r}; expected an integer") from None
        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is None and self.owns(job_id):
                # A finished job the table no longer holds.
                stored = self.store.get(job_id)
                if stored is not None and stored.state in TERMINAL_STATES:
                    existing = stored
            if existing is not None and existing.state != "failed":
                self._tally("service.jobs.deduped")
                return existing, True
            if self._draining:
                raise QueueFullError(
                    "service is draining and not accepting new jobs",
                    retry_after=self.config.retry_after,
                    draining=True,
                )
            active = self._active_count()
            if active >= self.config.max_queue:
                self._tally("service.admission.rejected")
                raise QueueFullError(
                    f"job queue is full ({active}/{self.config.max_queue})",
                    retry_after=self.config.retry_after,
                )
            if existing is not None:  # failed -> re-queue under the same id
                job = existing
                job.error = None
                job.result = None
                job.finished = None
                job.priority = priority
                self._set_state(job, "queued")
            else:
                job = Job(id=job_id, kind=kind, payload=request.canonical, priority=priority)
                self._states[job.state] += 1
                self._jobs[job.id] = job
            if trace_ctx is not None:
                job.trace_id = trace_ctx.trace_id
                job.trace_parent = trace_ctx.span_id
                job.trace_span = new_span_id()
            self.store.put(job)
            self._tally("service.jobs.submitted")
        self._enqueue(job)
        return job, False

    def status(self, job_id: str) -> Job:
        """The job as last persisted (idempotent; survives restarts)."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            job = self.store.get(job_id)
        if job is None:
            raise JobNotFoundError(f"no job {job_id!r}")
        return job

    def result(self, job_id: str) -> Job:
        """Like :meth:`status`; callers read ``job.result`` / ``job.error``."""
        return self.status(job_id)

    def wait(self, job_id: str, timeout: float = 300.0, poll: float = 0.02) -> Job:
        """Block until the job reaches a terminal state.

        In-memory jobs wait on a condition variable that :meth:`_finish`
        notifies — no polling on the hot path.  Jobs known only to the
        store (another worker's, or finished ones the table no longer
        holds) fall back to polling.
        """
        deadline = time.monotonic() + timeout
        while True:
            with self._done_cv:
                job = self._jobs.get(job_id)
                if job is not None:
                    if job.state in TERMINAL_STATES:
                        return job
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise ServiceError(f"timed out waiting for job {job_id}")
                    self._done_cv.wait(min(remaining, 1.0))
                    continue
            job = self.status(job_id)
            if job.state in TERMINAL_STATES:
                return job
            if time.monotonic() >= deadline:
                raise ServiceError(f"timed out waiting for job {job_id}")
            time.sleep(poll)

    def jobs(
        self,
        state: str | None = None,
        fingerprint: str | None = None,
        since: float | None = None,
    ) -> list[dict]:
        """Job summaries in submission order, filtered (``GET /v1/jobs?...``).

        Filters compose: ``state`` matches the job state exactly,
        ``fingerprint`` is a job-id prefix (the fingerprint *is* the id),
        ``since`` keeps jobs submitted at or after the epoch timestamp.
        Jobs the table no longer holds are read from the store one at a
        time and only their summaries kept, so a listing holds no result.
        """
        with self._lock:
            held = dict(self._jobs)
        stored = self.store.scan(
            predicate=lambda job_id: job_id not in held
            and self.owns(job_id)
            and (fingerprint is None or job_id.startswith(fingerprint))
        )
        summaries = [
            j.summary()
            for j in itertools.chain(held.values(), stored)
            if (state is None or j.state == state)
            and (fingerprint is None or j.id.startswith(fingerprint))
            and (since is None or j.created >= since)
        ]
        return sorted(summaries, key=lambda s: s["created"])

    def stats(self) -> dict:
        """Always-on service tallies plus current queue occupancy."""
        with self._lock:
            states = dict(self._states)
            draining = self._draining
        counters = {
            name.removeprefix("service."): int(value)
            for name, value in self.metrics.snapshot()["counters"].items()
            if name.startswith("service.")
        }
        executed = counters.get("batch.specs", 0)
        planned = counters.get("plan.specs", 0)
        return {
            "draining": draining,
            "jobs": {state: states.get(state, 0) for state in ("queued", "running", "done", "failed")},
            "counters": counters,
            "dedup_hit_ratio": round(1.0 - executed / planned, 4) if planned else 0.0,
        }

    def trace(self, job_id: str) -> dict:
        """The job's distributed span tree (persisted, or live if running).

        Returns ``{"job", "trace_id", "complete", "spans"}``; ``complete``
        is False while the job is still active (the spans shown are the
        buffer's view so far).  Raises
        :class:`~repro.errors.JobNotFoundError` for unknown jobs and
        :class:`~repro.errors.ServiceError` for jobs submitted without
        trace propagation.
        """
        job = self.status(job_id)
        if not job.trace_id:
            raise ServiceError(f"job {job_id} was submitted without trace propagation")
        stored = self.store.get_timeline(job_id)
        if stored is not None:
            return {
                "job": job.id,
                "trace_id": job.trace_id,
                "complete": True,
                "spans": stored,
            }
        live = self.traces.spans_for(job.trace_id)
        return {
            "job": job.id,
            "trace_id": job.trace_id,
            "complete": False,
            "spans": [s.to_dict() for s in live],
        }

    def profile_view(self, seconds: float = 1.0, interval: float = 0.005) -> dict:
        """``GET /v1/profile``: sample this process for ``seconds``.

        Runs a :class:`~repro.obs.sampler.Sampler` over **all** threads
        (the handler thread calling this is just sleeping; the work is
        on the executor pool and the asyncio loop), so the answer to
        "what is this worker doing right now" covers the threads doing
        it.  The window is clamped to [0.05, 30] s so a handler thread
        can never be parked indefinitely; the sampler's self-measured
        ``scaltool_profile_overhead_ratio`` gauge is updated on every
        call, which is how the overhead budget stays observable in
        production.
        """
        from ..obs.sampler import Sampler

        seconds = max(0.05, min(float(seconds), 30.0))
        interval = max(0.001, min(float(interval), 1.0))
        self._tally("profile.requests")
        with obs.tracer().span("profile.sample", seconds=seconds):
            sampler = Sampler(interval_s=interval, all_threads=True)
            sampler.start()
            try:
                time.sleep(seconds)
            finally:
                profile = sampler.stop()
        ratio = profile.overhead_ratio()
        self._gauge("profile.overhead_ratio", ratio)
        self._gauge("profile.samples", float(profile.n_samples))
        return {
            "seconds": seconds,
            "interval_s": interval,
            "shard": self.config.shard_index,
            "pid": os.getpid(),
            "profile": profile.to_dict(),
        }

    def health(self) -> dict:
        """The liveness view served by ``GET /healthz``."""
        with self._lock:
            states = dict(self._states)
            draining = self._draining
        queued = states.get("queued", 0)
        running = states.get("running", 0)
        if self.degraded is not None:
            status = "degraded"
        elif draining:
            status = "draining"
        else:
            status = "ok"
        return {
            "status": status,
            "draining": draining,
            "jobs": {state: states.get(state, 0) for state in ("queued", "running", "done", "failed")},
            "queue_depth": queued,
            "inflight": running,
            "uptime_seconds": round(self.uptime_seconds(), 3),
            "store": {
                "writable": self.degraded is None,
                "error": self.degraded,
                "path": str(self.store.root),
            },
            "shard": {
                "index": self.config.shard_index,
                "count": self.config.shard_count,
                "pid": os.getpid(),
            },
        }

    # -- internals --------------------------------------------------------------------

    def _active_count(self) -> int:
        return self._states["queued"] + self._states["running"]

    def _set_state(self, job: Job, state: str) -> None:
        """Move ``job`` to ``state`` in the tally and the table (lock held)."""
        self._states[job.state] -= 1
        self._states[state] += 1
        job.state = state
        if state in TERMINAL_STATES:
            self._keep_finished(job)
        else:
            self._finished.pop(job.id, None)
            self._jobs[job.id] = job

    def _keep_finished(self, job: Job) -> None:
        """Hold a finished job in the table (lock held); past ``max_queue``
        finished jobs, the oldest leaves it and the store serves it."""
        self._jobs[job.id] = job
        self._finished[job.id] = None
        while len(self._finished) > self.config.max_queue:
            evicted, _ = self._finished.popitem(last=False)
            del self._jobs[evicted]

    def _enqueue(self, job: Job) -> None:
        assert self._loop is not None and self._queue is not None
        with self._lock:
            seq = next(self._seq)
            self._enqueued_at[job.id] = time.time()
        asyncio.run_coroutine_threadsafe(
            self._queue.put((job.priority, seq, job.id)), self._loop
        ).result(timeout=5)
        self._gauge("service.queue.depth", self._queue.qsize())

    async def _worker(self) -> None:
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        while True:
            item = await self._queue.get()
            try:
                if item is _STOP:
                    return
                job_id = item[2]
                with self._lock:
                    job = self._jobs.get(job_id)
                    enqueued_at = self._enqueued_at.pop(job_id, None)
                    if job is None or job.state != "queued":
                        continue  # stale queue entry (deduped resubmit, recovery)
                    self._set_state(job, "running")
                    job.started = time.time()
                    self.store.put(job)
                if enqueued_at is not None:
                    wait = max(0.0, job.started - enqueued_at)
                    self._observe("service.queue.wait_seconds", wait)
                    if job.trace_id and job.trace_span:
                        self.traces.emit(
                            "service.queue.wait",
                            wait,
                            context=TraceContext(trace_id=job.trace_id, span_id=job.trace_span),
                            start=enqueued_at,
                            job=job.id,
                            priority=job.priority,
                        )
                t0 = time.perf_counter()
                try:
                    result = await asyncio.wait_for(
                        loop.run_in_executor(self._job_pool, self._execute_job, job),
                        timeout=self.config.job_timeout,
                    )
                except asyncio.TimeoutError:
                    self._finish(
                        job,
                        "failed",
                        error=f"job timed out after {self.config.job_timeout:g}s",
                        seconds=time.perf_counter() - t0,
                    )
                except Exception as exc:  # noqa: BLE001 - job failure, not service failure
                    self._finish(
                        job, "failed", error=str(exc), seconds=time.perf_counter() - t0
                    )
                else:
                    self._finish(job, "done", result=result, seconds=time.perf_counter() - t0)
            finally:
                self._queue.task_done()

    def _finish(
        self,
        job: Job,
        state: str,
        result: dict | None = None,
        error: str | None = None,
        seconds: float = 0.0,
    ) -> None:
        if result is not None and isinstance(result.get("lineage"), dict):
            result["lineage"]["trace_id"] = job.trace_id
        finished = time.time()
        if job.trace_id and job.trace_span:
            # Close the job's own span (the parent of every lifecycle span
            # recorded above) and persist the finished tree beside the job
            # — *before* the state flips to terminal: a long-polling
            # waiter wakes the instant the state changes, and its very
            # next read must already see the complete timeline.
            self.traces.emit(
                "service.job",
                max(0.0, finished - job.created),
                context=TraceContext(trace_id=job.trace_id, span_id=job.trace_parent or ""),
                start=job.created,
                span_id=job.trace_span,
                job=job.id,
                kind=job.kind,
                state=state,
            )
            spans = self.traces.pop_trace(job.trace_id)
            try:
                self.store.put_timeline(job.id, [s.to_dict() for s in spans])
            except OSError as exc:  # pragma: no cover - disk full/readonly race
                _log.warning("could not persist job timeline %s", kv(job=job.id, reason=exc))
            # A live obs session receives the finished tree too.
            obs.tracer().extend(spans)
        with self._lock:
            job.result = result
            job.error = error
            job.finished = finished
            self._set_state(job, state)
            self.store.put(job)
            self._tally("service.jobs.done" if state == "done" else "service.jobs.failed")
            self._done_cv.notify_all()
        if result is not None:
            self._publish_health(result.get("data", {}).get("health"))
        self._observe("service.job_seconds", seconds)
        self._observe("service.e2e_seconds", max(0.0, job.finished - job.created))
        self._gauge("service.queue.depth", self._queue.qsize() if self._queue else 0)
        _log.debug(
            "job finished %s",
            kv(job=job.id, kind=job.kind, state=state, seconds=f"{seconds:.3f}", error=error),
        )

    def _publish_health(self, health: str | None) -> None:
        """Export a finished job's diagnostics grade to ``/metrics``.

        ``diagnostics.health{grade=...}`` gauges count finished jobs per
        grade, so a scrape shows immediately whether any served number
        shipped with a `suspect` estimation.
        """
        if not health:
            return
        # Under the service lock, so concurrent finishes publish in tally order.
        with self._lock:
            self._tally(f"service.jobs.health.{health}")
            for grade in diagnostics.GRADES:
                count = self.metrics.counter(f"service.jobs.health.{grade}")
                self._gauge("diagnostics.health", count, grade=grade)

    def lineage(self, job_id: str) -> dict:
        """A finished job's result lineage (``GET /v1/jobs/<id>/lineage``).

        Raises :class:`~repro.errors.JobNotFoundError` for unknown jobs
        and :class:`~repro.errors.ServiceError` while the job is still
        active or when its result predates lineage collection.
        """
        job = self.status(job_id)
        if job.state in ACTIVE_STATES:
            raise ServiceError(f"job {job_id} is still {job.state}; lineage arrives with the result")
        if job.state == "failed" or not job.result:
            raise ServiceError(f"job {job_id} failed; no result lineage")
        lineage = job.result.get("lineage")
        if not lineage:
            raise ServiceError(f"job {job_id} carries no lineage record")
        return {
            "job": job.id,
            "kind": job.kind,
            "state": job.state,
            "health": job.result.get("data", {}).get("health"),
            "lineage": lineage,
        }

    def blame(self, job_id: str) -> dict:
        """Scaling-loss localization for a finished campaign-backed job
        (``GET /v1/jobs/<id>/blame``).

        A ``blame`` job serves its stored report; for any other
        campaign-backed kind (``analyze``, ``campaign``, ...) the report
        is derived on the spot — every run is already in the cache, so
        the derivation re-reads records and never re-executes.  Publishes
        the per-segment loss shares as labelled
        ``blame.loss_share{segment=...}`` gauges on ``/metrics``.
        """
        from ..analysis.blame import wall_by_count

        job = self.status(job_id)
        if job.state in ACTIVE_STATES:
            raise ServiceError(f"job {job_id} is still {job.state}; blame needs a result")
        if job.state == "failed" or not job.result:
            raise ServiceError(f"job {job_id} failed; nothing to blame")
        payload = job.payload or {}
        if not all(k in payload for k in ("workload", "s0", "counts")):
            raise ServiceError(
                f"job {job_id} ({job.kind}) carries no campaign to blame"
            )
        if job.kind == "blame":
            report = job.result.get("data", {}).get("report")
            output = job.result.get("output", "")
            result_lineage = job.result.get("lineage")
        else:
            request = _requests.compile_request(
                "blame",
                {
                    "workload": payload["workload"],
                    "params": payload.get("params", {}),
                    "s0": payload["s0"],
                    "counts": payload["counts"],
                },
            )
            with obs.tracer().span("service.blame", job=job.id):
                derived = request.execute(
                    cache_root=self.root,
                    executor=SerialExecutor(),
                    progress=None,
                    run_cache=self.run_cache,
                )
            report = derived.data["report"]
            output = derived.output
            result_lineage = derived.lineage
            self._tally("service.blame.derived")
        if not report:
            raise ServiceError(f"job {job_id} result carries no blame report")
        for vertex in report.get("vertices", []):
            self._gauge(
                "blame.loss_share",
                float(vertex["cycle_loss_share"]),
                segment=vertex["vertex"],
            )
        self._tally("service.blame.requests")
        spans = self.store.get_timeline(job_id) or []
        wall = wall_by_count(spans)
        return {
            "job": job.id,
            "kind": job.kind,
            "state": job.state,
            "output": output,
            "report": report,
            "lineage": result_lineage,
            "trace_id": job.trace_id,
            "wall_seconds_by_n": {str(n): wall[n] for n in sorted(wall)},
        }

    def _execute_job(self, job: Job) -> dict:
        """The job body (runs in a job-pool thread): plan, batch, assemble.

        A traced job records its lifecycle spans into the service's trace
        buffer, under its own span (emitted by :meth:`_finish`); any other
        job records them into the obs session, if one is live, under a
        ``service.job`` span.
        """
        if job.trace_id and job.trace_span:
            tracer = self.traces
            scope = attach(TraceContext(trace_id=job.trace_id, span_id=job.trace_span))
        else:
            tracer = obs.tracer()
            scope = tracer.span("service.job", kind=job.kind, job=job.id)
        with scope:
            request = _requests.compile_request(job.kind, job.payload)
            last_exc: BaseException | None = None
            for attempt in range(self.config.retries + 1):
                with self._lock:
                    job.attempts += 1
                    self.store.put(job)
                if attempt:
                    self._tally("service.jobs.retries")
                    _log.warning(
                        "retrying job %s",
                        kv(job=job.id, attempt=attempt + 1, max=self.config.retries + 1),
                    )
                try:
                    with tracer.span("service.attempt", attempt=attempt + 1):
                        return self._execute_once(request, tracer).to_dict()
                except TRANSIENT_EXCEPTIONS as exc:
                    last_exc = exc
            assert last_exc is not None
            raise last_exc

    def _execute_once(
        self, request: _requests.CompiledRequest, tracer
    ) -> _requests.RequestResult:
        plan = self.planner.plan(request)
        claimed_keys = {spec.key() for spec in plan.claimed}
        self._tally("service.plan.specs", len(plan.specs))
        self._tally("service.plan.cache_hits", plan.cache_hits)
        self._tally("service.plan.claimed", len(plan.claimed))
        self._tally("service.plan.inflight_waits", len(plan.waiting))
        if plan.claimed:
            assert self._loop is not None and self._batcher is not None
            with tracer.span("service.batch.wait", claimed=len(plan.claimed)) as wait_span:
                handle = (
                    TraceHandle(tracer, wait_span.context)
                    if wait_span.context is not None
                    else None
                )
                fut = asyncio.run_coroutine_threadsafe(
                    self._batcher.submit(plan.claimed, handle), self._loop
                )
                # Re-heartbeat the claims while the batch runs so a long
                # batch never trips the claim TTL out from under us.
                hb_interval = max(0.5, self.config.claim_ttl / 3.0)
                try:
                    while True:
                        try:
                            fut.result(timeout=hb_interval)
                            break
                        except FuturesTimeoutError:
                            self.planner.heartbeat(plan)
                except Exception as exc:  # noqa: BLE001 - assembly below retries serially
                    self._tally("service.batch.failures")
                    _log.warning("spec batch failed %s", kv(reason=exc))
                finally:
                    self.planner.complete(plan)
        if plan.waiting:
            with tracer.span("service.inflight.wait", waiting=len(plan.waiting)):
                self.planner.wait(plan, timeout=self.config.job_timeout)
        # Everything is (normally) cached now; assembly re-reads the records
        # in request order and runs the pure-analysis stage.  Anything still
        # missing — a failed batch, a corrupt entry — executes serially here,
        # with the engine's own transient-retry logic.
        with tracer.span("service.assemble", kind=request.kind):
            result = request.execute(
                cache_root=self.root,
                executor=SerialExecutor(),
                progress=None,
                run_cache=self.run_cache,
            )
        if result.lineage and claimed_keys:
            # Assembly re-reads from a cache the batcher just filled on this
            # job's behalf, so its collector saw only hits; specs this job
            # claimed were really executed for it — mark them so.
            for entry in result.lineage.get("specs", []):
                if entry["key"] in claimed_keys:
                    entry["cached"] = False
            specs = result.lineage.get("specs", [])
            result.lineage["cache_hits"] = sum(1 for e in specs if e["cached"])
            result.lineage["cache_misses"] = sum(1 for e in specs if not e["cached"])
        return result

    def _run_batch(self, specs: list[RunSpec], batch_ctx: TraceContext | None = None) -> None:
        """Batch body (runs in the dedicated batch thread)."""
        t0 = time.perf_counter()
        if batch_ctx is not None:
            with self.traces.span("service.batch", context=batch_ctx, specs=len(specs)) as span:
                self.executor.run(
                    specs, cache=self.run_cache, trace=TraceHandle(self.traces, span.context)
                )
        else:
            self.executor.run(specs, cache=self.run_cache)
        self._observe("engine.batch_seconds", time.perf_counter() - t0)

    # -- metrics ----------------------------------------------------------------------
    # Each event is recorded by one call, into this service's registry and, when
    # one is live, the obs session.

    def _tally(self, name: str, value: float = 1) -> None:
        self.metrics.inc(name, value)
        obs.registry().inc(name, value)

    def _gauge(self, name: str, value: float, **labels: str) -> None:
        self.metrics.set_gauge(name, value, **labels)
        obs.registry().set_gauge(name, value, **labels)

    def _observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)
        obs.registry().observe(name, value)

    def uptime_seconds(self) -> float:
        return max(0.0, time.time() - self.started_at)

    def prometheus_text(self) -> str:
        """``GET /metrics``: this service's registry as Prometheus text."""
        # Uptime is read, not an event: it goes to the registry alone.
        self.metrics.set_gauge("uptime_seconds", self.uptime_seconds())
        return render_prometheus(self.metrics)
