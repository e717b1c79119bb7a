"""On-disk memoisation of campaigns, built on the engine's per-run cache.

Campaigns are deterministic (seeded simulator, seeded workloads), so every
run is fully identified by its :class:`~repro.runner.engine.RunSpec`.
Caching happens at *run* granularity in the engine's content-addressed
:class:`~repro.runner.engine.RunCache` (``<cache root>/runs/``): a changed
grid point, processor count, or machine parameter re-executes only the
affected runs, and sweeps/what-ifs that share runs with a past campaign
reuse them for free.

The runs are the whole cache.  A campaign's JSONL manifest is an export:
``CampaignData.save`` writes it (``scaltool campaign --out``), and it is
the output of a ``campaign`` request.
"""

from __future__ import annotations

from pathlib import Path

from .campaign import CampaignConfig, CampaignData, ProgressCallback, ScalToolCampaign
from .engine import Executor, RunCache, default_cache_root
from .experiment import MachineFactory, default_machine_factory
from ..obs import runtime as obs
from ..obs.logs import get_logger, kv
from ..workloads.base import Workload

__all__ = ["cached_campaign"]

_log = get_logger("runner.cache")


def cached_campaign(
    workload: Workload,
    config: CampaignConfig,
    machine_factory: MachineFactory | None = None,
    cache_dir: str | Path | None = None,
    refresh: bool = False,
    progress: ProgressCallback | None = None,
    executor: Executor | None = None,
    run_cache: RunCache | None = None,
) -> CampaignData:
    """Run the campaign for ``workload`` under ``config``, reusing cached runs.

    Every planned run resolves against the engine's per-run cache under
    ``<cache dir>/runs/``: hits load from disk (and *still* report through
    ``progress``, so verbose campaigns never look hung on a warm cache),
    misses execute — serially or via ``executor`` — and are stored.  A
    corrupt cache entry is never silently fatal: it is logged with path
    and reason, counted (``engine.cache.corrupt``), and re-executed.  The
    campaign-level ``cache.hit`` / ``cache.miss`` / ``cache.partial`` /
    ``cache.refresh`` metrics summarise how the batch resolved.

    ``run_cache`` substitutes the per-run cache instance itself (the
    serving layer passes its long-lived one, so every assembly in the
    process reuses the records it parsed); it must be rooted at
    ``<cache dir>/runs``.
    """
    if run_cache is None:
        root = Path(cache_dir) if cache_dir else default_cache_root()
        run_cache = RunCache(root / "runs")
    factory = machine_factory or default_machine_factory()
    campaign = ScalToolCampaign(workload, config, machine_factory=factory)
    reg = obs.registry()

    hits = 0
    misses = 0

    def _count(outcome) -> None:
        nonlocal hits, misses
        if outcome.cached:
            hits += 1
        else:
            misses += 1

    data = campaign.run(
        progress=progress,
        executor=executor,
        cache=run_cache,
        refresh=refresh,
        on_outcome=_count,
    )

    if refresh:
        reg.inc("cache.refresh")
    elif misses == 0 and hits:
        reg.inc("cache.hit")
        _log.debug("campaign cache hit %s", kv(workload=workload.name, records=hits))
    elif hits == 0:
        reg.inc("cache.miss")
    else:
        reg.inc("cache.partial")
        _log.debug(
            "campaign cache partial %s", kv(workload=workload.name, hits=hits, misses=misses)
        )
    return data
