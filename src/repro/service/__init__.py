"""The analysis service: a serving layer over the run engine.

Scal-Tool is meant to be run *on demand* over counter measurements; this
package turns the deterministic :mod:`repro.runner.engine` into a small
inference-serving-shaped stack (queue -> planner -> batcher -> executor
-> cache) that many concurrent clients can share:

* :mod:`repro.service.requests` — the request model.  Every request kind
  declares its payload fields in one table, from which the ``scaltool``
  request verbs are built, and compiles to the *same* code path the CLI
  runs, so a service result is byte-identical to the corresponding
  ``scaltool`` invocation.
* :mod:`repro.service.planner` — compiles a request to its
  :class:`~repro.runner.engine.RunSpec` set and deduplicates specs that
  are already cached on disk or in flight on behalf of another job,
  through the one claim table every deployment shares: a SQLite (WAL)
  file under the cache root, with TTL/heartbeat and owner-liveness
  expiry (:class:`~repro.service.planner.SqliteClaimTable`).  A single
  process is shard 0 of 1 on it.
* :mod:`repro.service.store` — the persistent job store (one atomic JSON
  file per job under the cache root): jobs survive a restart and the
  ``status`` / ``result`` endpoints are idempotent.
* :mod:`repro.service.core` — :class:`AnalysisService`: an asyncio
  priority job queue with admission control (bounded backpressure), a
  spec batcher that coalesces concurrent jobs' outstanding runs into
  single :meth:`Executor.run` batches, per-job timeouts, bounded retry
  of transient failures, and drain-on-shutdown.
* :mod:`repro.service.http` / :mod:`repro.service.client` — a stdlib
  HTTP JSON API (``scaltool serve``) and the matching Python client.
* :mod:`repro.service.sharding` / :mod:`repro.service.dispatcher` /
  :mod:`repro.service.worker` — ``scaltool serve --workers N``: a thin
  router on the same HTTP front consistent-hashes content-addressed job
  fingerprints onto N worker processes, each a full single-process
  service on the shared cache root; ``/metrics`` and ``/healthz`` serve
  merged whole-system views.  A root whose job store or claim table
  cannot be made starts every service degraded (503 on submit), at any
  worker count.

Library use (import from the submodules; this package re-exports nothing,
so a request never pays for the serving stack)::

    from repro.service.core import AnalysisService, ServiceConfig

    svc = AnalysisService(ServiceConfig(cache_dir=".scaltool_cache"))
    svc.start()
    job, deduped = svc.submit("analyze", {"workload": "swim"})
    job = svc.wait(job.id)
    print(job.result["output"])
    svc.close()

Every stage emits ``service.*`` spans and metrics through
:mod:`repro.obs`; always-on integer tallies back the ``/v1/stats``
endpoint even when no obs session is enabled.  See ``docs/service.md``.
"""
