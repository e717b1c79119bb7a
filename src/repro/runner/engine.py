"""The run-execution engine: RunSpec -> Executor with per-run caching.

The paper's whole method is a *run matrix* (Table 3 plus the two
micro-kernels): dozens of independent program executions whose counters
feed the Section 2 model.  Every execution site in this repository —
campaign rows, sweep grid points, topology probes — compiles its work
into :class:`RunSpec` values and hands them to an :class:`Executor`:

* :class:`RunSpec` is a frozen, hashable, serialisable description of
  exactly one run: workload name + constructor parameters + data-set
  size + processor count + role + the **full** :class:`MachineConfig`
  used for that run + the workload seed.  Its :meth:`RunSpec.key` is a
  content address over all of that, so two specs collide iff the runs
  are byte-identical by construction (the simulator is deterministic).
* :class:`RunCache` memoises finished :class:`RunRecord` values on disk
  under ``<cache root>/runs/<key>.json`` — one file per run, exactly the
  paper's "one output file" accounting.  A corrupt entry is never fatal:
  it is logged, counted (``engine.cache.corrupt``), and re-executed.
  Each instance also keeps the records its ``get`` parsed, keyed by spec
  key alone, so a process that reads a run again (a service assembling
  a campaign per job) parses it once.  That memo needs no invalidation:
  the key hashes everything a run depends on, the simulator is seeded,
  and a record holds no wall-clock value, so a rewritten file is
  byte-identical to the one the memo parsed.
* :class:`SerialExecutor` runs specs in order in-process;
  :class:`ParallelExecutor` fans them out over a
  :class:`~concurrent.futures.ProcessPoolExecutor` and reassembles the
  results in spec order, so both produce *identical* record lists for
  the same plan.  Both retry transient per-run failures
  (:class:`~repro.errors.TransientRunError`, :class:`OSError`) a bounded
  number of times.

Observability: the engine emits ``engine.run`` (one per batch),
``engine.execute`` (one per executed run) and ``engine.map`` spans, and
the ``engine.runs`` / ``engine.retries`` / ``engine.run_seconds`` /
``engine.cache.{hit,miss,corrupt}`` metrics.  Callers see per-run
completions through the ``on_outcome`` callback (cache hits included),
which is how ``scaltool -v`` stays live on warm caches.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from ..errors import ConfigError, CounterFormatError, TransientRunError
from ..machine.config import MachineConfig
from ..obs import lineage
from ..obs import runtime as obs
from ..obs import sampler as obs_sampler
from ..obs import spool as obs_spool
from ..obs.logs import get_logger, kv
from ..obs.trace import TraceHandle
from ..workloads.base import Workload
from ..workloads.registry import make_workload
from .experiment import run_experiment
from .records import ROLE_APP_BASE, RunRecord

__all__ = [
    "RunSpec",
    "RunOutcome",
    "RunCache",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "execute_spec",
    "default_cache_root",
    "default_executor",
    "TRANSIENT_EXCEPTIONS",
]

_log = get_logger("runner.engine")

#: Cache-key format version; bump when the record or identity layout changes.
SPEC_FORMAT = 1

#: Process-wide memos, keyed by value (specs/machines are frozen, so a
#: compiled spec or computed key is shareable).  Dict access is
#: GIL-atomic; a rare duplicate compute is harmless.
_spec_key_memo: dict["RunSpec", str] = {}
_spec_compile_memo: dict[tuple, "RunSpec"] = {}
_machine_hash_memo: dict["MachineConfig", str] = {}

_ENV_VAR = "SCALTOOL_CACHE_DIR"

#: Parsed records one :class:`RunCache` keeps; the memo is cleared when
#: full (a service's working set is a few campaigns, far below this).
MEMO_CAP = 4096

#: Exception types the executors treat as retryable.
TRANSIENT_EXCEPTIONS: tuple[type[BaseException], ...] = (TransientRunError, OSError)

#: Called after every completed run (executed or loaded from cache).
OnOutcome = Callable[["RunOutcome"], None]


def default_cache_root() -> Path:
    """Cache root: $SCALTOOL_CACHE_DIR or .scaltool_cache in the cwd."""
    return Path(os.environ.get(_ENV_VAR, ".scaltool_cache"))


@dataclass(frozen=True)
class RunSpec:
    """One run, fully specified: hash it, ship it to a worker, cache it.

    ``params`` is a canonical (sorted) tuple of ``(name, value)`` pairs
    that reconstructs the workload through the registry; ``machine`` is
    the *complete* configuration actually used at this processor count —
    not a summary — so any machine-factory variation with ``n`` lands in
    the cache key.
    """

    workload: str
    params: tuple
    size_bytes: int
    n_processors: int
    machine: MachineConfig
    role: str = ROLE_APP_BASE
    seed: int = 1234
    keep_ground_truth: bool = True

    # -- construction ------------------------------------------------------------

    @classmethod
    def compile(
        cls,
        workload: Workload,
        size_bytes: int,
        n_processors: int,
        machine: MachineConfig,
        role: str = ROLE_APP_BASE,
        keep_ground_truth: bool = True,
    ) -> "RunSpec":
        """Compile a workload instance into a spec, verifying it round-trips.

        The spec must be able to rebuild the workload in another process
        from ``(name, params)`` alone, so compilation rebuilds it once and
        rejects workloads whose ``describe_params`` does not reproduce
        them (those cannot be cached or parallelised safely).
        """
        params = dict(workload.describe_params())
        params.setdefault("seed", workload.seed)
        memo_key = (
            workload.name,
            tuple(sorted(params.items())),
            int(size_bytes),
            int(n_processors),
            machine,
            role,
            bool(keep_ground_truth),
        )
        memoised = _spec_compile_memo.get(memo_key)
        if memoised is not None:
            return memoised
        spec = cls(
            workload=workload.name,
            params=tuple(sorted(params.items())),
            size_bytes=int(size_bytes),
            n_processors=int(n_processors),
            machine=machine.with_processors(int(n_processors)),
            role=role,
            seed=int(params["seed"]),
            keep_ground_truth=keep_ground_truth,
        )
        rebuilt = spec.build_workload()
        if (
            rebuilt.describe_params() != workload.describe_params()
            or rebuilt.seed != workload.seed
        ):
            raise ConfigError(
                f"workload {workload.name!r} cannot be reconstructed from its "
                f"describe_params(); engine execution requires a faithful "
                f"(name, params) round-trip"
            )
        if len(_spec_compile_memo) >= 8192:
            _spec_compile_memo.clear()
        _spec_compile_memo[memo_key] = spec
        return spec

    def workload_params(self) -> dict:
        return dict(self.params)

    def build_workload(self) -> Workload:
        """Rebuild the workload through the registry (works in any process)."""
        return make_workload(self.workload, **self.workload_params())

    # -- identity ---------------------------------------------------------------

    def ident(self) -> dict:
        """The canonical JSON-able identity the cache key hashes."""
        return {
            "format": SPEC_FORMAT,
            "workload": self.workload,
            "params": self.workload_params(),
            "size_bytes": self.size_bytes,
            "n_processors": self.n_processors,
            "role": self.role,
            "seed": self.seed,
            "keep_ground_truth": self.keep_ground_truth,
            "machine": asdict(self.machine),
        }

    def key(self) -> str:
        """Content address of this run (sha256 over the full identity).

        The hash covers the full machine configuration, so it is not free;
        a spec is immutable, so the first computation is memoised (every
        layer — planner, cache, lineage — keys the same spec repeatedly).
        Specs are *values* (frozen, hashable), so the memo is also shared
        process-wide: a freshly compiled spec equal to one any earlier
        request keyed skips the asdict/json/sha round entirely — under a
        serving workload the same few dozen specs are rebuilt per request.
        """
        cached = self.__dict__.get("_key")
        if cached is not None:
            return cached
        key = _spec_key_memo.get(self)
        if key is None:
            try:
                blob = json.dumps(self.ident(), sort_keys=True)
            except TypeError as exc:
                raise ConfigError(f"run spec is not serialisable: {exc}") from exc
            key = hashlib.sha256(blob.encode()).hexdigest()[:24]
            if len(_spec_key_memo) >= 8192:
                _spec_key_memo.clear()
            _spec_key_memo[self] = key
        object.__setattr__(self, "_key", key)
        return key

    def machine_hash(self) -> str:
        """Content address of the machine configuration alone.

        Lineage records carry this next to the spec key so "same runs,
        different machine" is visible at a glance without diffing full
        configurations.
        """
        digest = _machine_hash_memo.get(self.machine)
        if digest is None:
            blob = json.dumps(asdict(self.machine), sort_keys=True)
            digest = hashlib.sha256(blob.encode()).hexdigest()[:12]
            if len(_machine_hash_memo) >= 1024:
                _machine_hash_memo.clear()
            _machine_hash_memo[self.machine] = digest
        return digest

    def describe(self) -> str:
        return f"{self.workload} {self.role} size={self.size_bytes} n={self.n_processors}"


def execute_spec(spec: RunSpec) -> RunRecord:
    """Execute one spec (the engine's unit of work; safe in any process)."""
    workload = spec.build_workload()
    return run_experiment(
        workload,
        spec.size_bytes,
        spec.n_processors,
        machine_factory=lambda n: spec.machine.with_processors(n),
        role=spec.role,
        keep_ground_truth=spec.keep_ground_truth,
    )


@dataclass(frozen=True)
class RunOutcome:
    """One completed run as the executor saw it."""

    index: int  # 0-based position in the submitted spec list
    total: int
    spec: RunSpec
    record: RunRecord
    cached: bool
    seconds: float
    attempts: int = 1


class RunCache:
    """Content-addressed on-disk memoisation of individual runs.

    ``get`` memoises the records it parses (see the module docstring for
    why the memo never goes stale); ``put`` does not, so the instance
    that wrote a run still reads the file back and notices corruption.
    A memo hit is counted as ``service.runcache.memo_hits`` through
    ``tally``: a service passes its own, so the hits show on its
    ``/v1/stats`` and ``/metrics``.
    """

    def __init__(
        self, root: str | Path, tally: Callable[[str, float], None] = obs.inc
    ) -> None:
        self.root = Path(root)
        self._tally = tally
        # Dict access is GIL-atomic; a clear racing a fill costs one re-parse.
        self._memo: dict[str, RunRecord] = {}

    def path(self, spec: RunSpec) -> Path:
        return self.root / f"{spec.key()}.json"

    def contains(self, spec: RunSpec) -> bool:
        """Whether the run is memoised or on disk (without reading the file)."""
        return spec.key() in self._memo or self.path(spec).exists()

    def get(self, spec: RunSpec) -> RunRecord | None:
        """The cached record, or None (missing *or* unreadable — re-run)."""
        key = spec.key()
        record = self._memo.get(key)
        if record is not None:
            self._tally("service.runcache.memo_hits", 1)
            return record
        path = self.path(spec)
        try:
            record = RunRecord.from_json(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, CounterFormatError) as exc:
            obs.registry().inc("engine.cache.corrupt")
            _log.warning(
                "run cache entry unreadable, re-running %s", kv(path=path, reason=exc)
            )
            return None
        if len(self._memo) >= MEMO_CAP:
            self._memo.clear()
        self._memo[key] = record
        return record

    def put(self, spec: RunSpec, record: RunRecord) -> Path:
        """Store atomically (write-then-rename) so readers never see a torn file.

        The temp name carries pid *and* thread id: service jobs write
        concurrently from threads of one process.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(spec)
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
        tmp.write_text(record.to_json() + "\n")
        os.replace(tmp, path)
        return path


def _timed_execute(
    execute_fn: Callable[[RunSpec], RunRecord],
    spec: RunSpec,
    spool_path: str | None = None,
    sample_interval: float | None = None,
):
    """Worker body: run one spec, report its wall time (module-level: picklable).

    With ``spool_path``, the run executes under a private obs session
    whose spans/metrics are spooled to that file for the parent to merge
    — this is how ``scaltool profile --jobs N`` sees worker activity.
    The span structure mirrors the serial path exactly (an
    ``engine.execute`` root wrapping the run), so merged parallel
    sessions are structurally identical to serial ones.  With
    ``sample_interval``, the worker also samples its own stacks (the
    parent's sampler cannot see across the process boundary) and spools
    the folded profile beside the spans for the same plan-order merge.
    """
    if spool_path is None:
        t0 = time.perf_counter()
        record = execute_fn(spec)
        return record, time.perf_counter() - t0, os.getpid()
    session = obs.enable()
    sampler = (
        obs_sampler.Sampler(interval_s=sample_interval)
        if sample_interval is not None
        else None
    )
    try:
        t0 = time.perf_counter()
        with session.tracer.span(
            "engine.execute",
            workload=spec.workload,
            role=spec.role,
            size=spec.size_bytes,
            n=spec.n_processors,
        ):
            if sampler is not None:
                sampler.start()
            record = execute_fn(spec)
        seconds = time.perf_counter() - t0
    finally:
        profile = sampler.stop() if sampler is not None else None
        obs.disable()
    obs_spool.write_spool(spool_path, session, meta={"spec": spec.key()}, sampler=profile)
    return record, seconds, os.getpid()


class Executor:
    """Shared batch logic: cache resolution, obs, deterministic reassembly.

    Subclasses implement :meth:`_execute_many` (yield completed misses in
    any order) and :meth:`map` (generic deterministic-order task map used
    by the analysis-side loops: what-if, sensitivity, validation).
    """

    def __init__(
        self,
        retries: int = 2,
        transient: tuple[type[BaseException], ...] = TRANSIENT_EXCEPTIONS,
        execute_fn: Callable[[RunSpec], RunRecord] = execute_spec,
    ) -> None:
        if retries < 0:
            raise ConfigError("retries must be >= 0")
        self.retries = retries
        self.transient = transient
        self._execute_fn = execute_fn

    # -- subclass hooks ---------------------------------------------------------

    def _execute_many(
        self, pending: list[tuple[int, RunSpec]], tracer
    ) -> Iterator[tuple[int, RunRecord, float, int]]:
        """Yield ``(index, record, seconds, attempts)`` per executed run,
        recording one ``engine.execute`` span per run into ``tracer``."""
        raise NotImplementedError

    def map(self, fn: Callable, items: Iterable) -> list:
        raise NotImplementedError

    # -- the engine entry point -------------------------------------------------

    def run(
        self,
        specs: Sequence[RunSpec],
        cache: RunCache | None = None,
        refresh: bool = False,
        on_outcome: OnOutcome | None = None,
        trace: TraceHandle | None = None,
    ) -> list[RunRecord]:
        """Execute ``specs``; the result list is index-aligned with the input.

        With a ``cache``, previously executed specs load from disk (and
        still produce an outcome event, so progress rendering never goes
        silent on a warm cache); misses execute and are stored.
        ``refresh=True`` bypasses cache reads but rewrites entries.
        With a ``trace`` handle, the batch and every executed run become
        spans of the caller's distributed trace instead of the obs
        session's (``engine.run`` framing one ``engine.execute`` per
        executed spec, tagged with the pid that ran it) — this is how
        the serving path stitches worker-process activity into a job's
        span tree.
        """
        specs = list(specs)
        total = len(specs)
        # One engine.run span: in the caller's trace when handed one, else
        # in the obs session (a no-op without one).
        tracer = trace.buffer if trace is not None else obs.tracer()
        reg = obs.registry()
        lin = lineage.current()
        results: list[RunRecord | None] = [None] * total
        with tracer.span(
            "engine.run",
            context=trace.context if trace is not None else None,
            runs=total,
            executor=type(self).__name__,
            jobs=getattr(self, "jobs", 1),
            cached_reads=cache is not None and not refresh,
        ) as span:
            pending: list[tuple[int, RunSpec]] = []
            hits = 0
            for i, spec in enumerate(specs):
                record = None
                if cache is not None and not refresh:
                    t0 = time.perf_counter()
                    record = cache.get(spec)
                    if record is not None:
                        hits += 1
                        reg.inc("engine.cache.hit")
                        results[i] = record
                        if lin is not None:
                            lin.note(spec, cached=True, seconds=time.perf_counter() - t0)
                        if on_outcome is not None:
                            on_outcome(
                                RunOutcome(
                                    index=i,
                                    total=total,
                                    spec=spec,
                                    record=record,
                                    cached=True,
                                    seconds=time.perf_counter() - t0,
                                    attempts=0,
                                )
                            )
                if record is None:
                    if cache is not None:
                        reg.inc("engine.cache.miss")
                    pending.append((i, spec))
            span.set(cache_hits=hits)
            for i, record, seconds, attempts in self._execute_many(pending, tracer):
                reg.inc("engine.runs")
                reg.observe("engine.run_seconds", seconds)
                if cache is not None:
                    cache.put(specs[i], record)
                results[i] = record
                if lin is not None:
                    lin.note(specs[i], cached=False, seconds=seconds, attempts=attempts)
                if on_outcome is not None:
                    on_outcome(
                        RunOutcome(
                            index=i,
                            total=total,
                            spec=specs[i],
                            record=record,
                            cached=False,
                            seconds=seconds,
                            attempts=attempts,
                        )
                    )
        return results  # type: ignore[return-value]  # every slot is filled above

    # -- shared retry bookkeeping ------------------------------------------------

    def _note_retry(self, spec: RunSpec, attempt: int, exc: BaseException) -> None:
        obs.registry().inc("engine.retries")
        _log.warning(
            "transient run failure, retrying %s",
            kv(spec=spec.describe(), attempt=attempt, max=self.retries + 1, reason=exc),
        )


class SerialExecutor(Executor):
    """In-order, in-process execution (the default)."""

    jobs = 1

    def _execute_one(self, spec: RunSpec, tracer) -> tuple[RunRecord, float, int]:
        attempts = 0
        while True:
            attempts += 1
            t0 = time.perf_counter()
            try:
                with tracer.span(
                    "engine.execute",
                    workload=spec.workload,
                    role=spec.role,
                    size=spec.size_bytes,
                    n=spec.n_processors,
                ):
                    record = self._execute_fn(spec)
                return record, time.perf_counter() - t0, attempts
            except self.transient as exc:
                if attempts > self.retries:
                    raise
                self._note_retry(spec, attempts, exc)

    def _execute_many(self, pending, tracer):
        for i, spec in pending:
            yield (i, *self._execute_one(spec, tracer))

    def map(self, fn: Callable, items: Iterable) -> list:
        items = list(items)
        with obs.tracer().span("engine.map", tasks=len(items), jobs=1):
            return [fn(item) for item in items]


class ParallelExecutor(Executor):
    """Process-pool execution with deterministic result ordering.

    Workers rebuild each spec's workload and machine from the spec itself
    (everything is picklable), so a worker run is bit-for-bit the run a
    :class:`SerialExecutor` would have produced — the simulator is seeded
    and single-threaded.  Results are reassembled in spec order
    regardless of completion order.  Worker processes cannot write into
    the parent's observability session directly; when the parent has a
    session live, each worker run records into a private session that is
    spooled to disk and merged back in plan order after the batch (see
    :mod:`repro.obs.spool`), so ``scaltool profile --jobs N`` and
    ``--metrics-out`` capture worker activity, not just the main process.
    """

    def __init__(
        self,
        jobs: int | None = None,
        retries: int = 2,
        transient: tuple[type[BaseException], ...] = TRANSIENT_EXCEPTIONS,
        execute_fn: Callable[[RunSpec], RunRecord] = execute_spec,
    ) -> None:
        super().__init__(retries=retries, transient=transient, execute_fn=execute_fn)
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")

    def _execute_many(self, pending, tracer):
        if not pending:
            return
        # With a live obs session, each worker run spools its spans/metrics
        # to a file keyed by spec index; after the batch the parent merges
        # the spools in plan order, so the merged spans are structurally
        # identical to what a SerialExecutor would have recorded.  Without
        # one, the parent records each run's engine.execute span itself.
        spool = obs_spool.SpoolDir() if obs.is_enabled() else None
        # With a live sampler, the pool workers sample themselves (the
        # parent cannot see their stacks) and spool folded profiles; the
        # parent sampler pauses meanwhile so the batch is not double
        # counted as time spent waiting in concurrent.futures.
        parent_sampler = obs_sampler.active_sampler() if spool is not None else None
        sample_interval = parent_sampler.interval_s if parent_sampler is not None else None
        attempts = {i: 0 for i, _ in pending}
        if parent_sampler is not None:
            parent_sampler.pause()
        try:
            with ProcessPoolExecutor(max_workers=min(self.jobs, len(pending))) as pool:

                def submit(i: int, spec: RunSpec):
                    path = str(spool.path(i)) if spool is not None else None
                    return pool.submit(
                        _timed_execute, self._execute_fn, spec, path, sample_interval
                    )

                futures = {}
                for i, spec in pending:
                    attempts[i] += 1
                    futures[submit(i, spec)] = (i, spec)
                while futures:
                    done, _ = wait(futures, return_when=FIRST_COMPLETED)
                    for fut in done:
                        i, spec = futures.pop(fut)
                        try:
                            record, seconds, pid = fut.result()
                        except self.transient as exc:
                            if attempts[i] > self.retries:
                                raise
                            self._note_retry(spec, attempts[i], exc)
                            attempts[i] += 1
                            futures[submit(i, spec)] = (i, spec)
                            continue
                        if spool is None:
                            tracer.emit(
                                "engine.execute",
                                seconds,
                                pid=pid,
                                workload=spec.workload,
                                role=spec.role,
                                n=spec.n_processors,
                                attempts=attempts[i],
                            )
                        yield i, record, seconds, attempts[i]
            if spool is not None:
                registry = obs.registry()
                profile = parent_sampler.profile if parent_sampler is not None else None
                for i, _spec in pending:
                    path = spool.path(i)
                    if path.exists():
                        obs_spool.merge_spool(path, tracer, registry, profile=profile)
        finally:
            if parent_sampler is not None:
                parent_sampler.resume()
            if spool is not None:
                spool.cleanup()

    def map(self, fn: Callable, items: Iterable) -> list:
        """Order-preserving parallel map; ``fn`` and items must be picklable."""
        items = list(items)
        if not items:
            return []
        with obs.tracer().span("engine.map", tasks=len(items), jobs=self.jobs):
            with ProcessPoolExecutor(max_workers=min(self.jobs, len(items))) as pool:
                return list(pool.map(fn, items, chunksize=1))


def default_executor(jobs: int = 1, **kwargs) -> Executor:
    """``jobs <= 1`` -> :class:`SerialExecutor`, else :class:`ParallelExecutor`."""
    if jobs <= 1:
        return SerialExecutor(**kwargs)
    return ParallelExecutor(jobs=jobs, **kwargs)
