"""The Scal-Tool measurement campaign (paper Table 3 + Section 2.4.2 kernels).

Given an application and a machine family, the campaign executes

* the application at the base data-set size ``s0`` for every processor
  count 1, 2, 4, ..., 2^(k-1)   (Table 3, top row),
* the application on a uniprocessor at fractional sizes s0/2, s0/4, ...
  (Table 3, left column) — extended below s0/2^(k-1) down to the L1
  capacity, which supplies the compulsory-miss plateau of Figure 3-(a)
  and the small-data-set run used to estimate cpi0 (Section 2.2),
* the synchronization and spin micro-kernels (Section 2.4.2) at each
  processor count, which calibrate cpi_sync(n), tsyn(n), and cpi_imb.

Each run produces one :class:`~repro.runner.records.RunRecord` ("one
output file"); :meth:`CampaignData.save` writes them out both as a JSONL
manifest and as individual perfex-format text files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..errors import ConfigError, InsufficientDataError
from ..obs import runtime as obs
from ..obs.logs import get_logger, kv
from ..tools.perfex import format_report
from ..workloads.base import Workload
from ..workloads.kernels import SpinKernel, SyncKernel
from .engine import Executor, OnOutcome, RunCache, RunSpec, SerialExecutor
from .experiment import MachineFactory, default_machine_factory
from .records import (
    ROLE_APP_BASE,
    ROLE_APP_FRAC,
    ROLE_SPIN_KERNEL,
    ROLE_SYNC_KERNEL,
    RunRecord,
    load_records,
    save_records,
)

__all__ = ["CampaignConfig", "CampaignData", "ScalToolCampaign", "ProgressCallback"]

_log = get_logger("runner.campaign")

# Called after each completed run with (1-based run number, total_runs, record).
ProgressCallback = Callable[[int, int, RunRecord], None]

#: The paper's processor counts: 1 to 32, doubling.
DEFAULT_COUNTS = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class CampaignConfig:
    """What to run."""

    s0: int
    processor_counts: tuple[int, ...] = DEFAULT_COUNTS
    min_fraction_bytes: int | None = None  # default: half the L1
    sync_kernel_barriers: int = 200
    spin_kernel_episodes: int = 20
    run_kernels: bool = True

    def __post_init__(self) -> None:
        if self.s0 < 1:
            raise ConfigError("s0 must be positive")
        if not self.processor_counts or self.processor_counts[0] != 1:
            raise ConfigError("processor_counts must start at 1 (the model needs uniprocessor runs)")
        if list(self.processor_counts) != sorted(set(self.processor_counts)):
            raise ConfigError("processor_counts must be strictly increasing and unique")


@dataclass
class CampaignData:
    """Every record a campaign produced, with the lookups the model needs."""

    workload: str
    s0: int
    records: list[RunRecord] = field(default_factory=list)

    # -- lookups ------------------------------------------------------------------

    def base_runs(self) -> dict[int, RunRecord]:
        """Processor count -> the run at the base size s0."""
        return {
            r.n_processors: r
            for r in self.records
            if r.role == ROLE_APP_BASE and r.size_bytes == self.s0
        }

    def uniprocessor_runs(self) -> dict[int, RunRecord]:
        """Data-set size -> uniprocessor application run (includes s0)."""
        out = {}
        for r in self.records:
            if r.n_processors == 1 and r.role in (ROLE_APP_BASE, ROLE_APP_FRAC):
                out[r.size_bytes] = r
        return out

    def sync_kernel_runs(self) -> dict[int, RunRecord]:
        return {r.n_processors: r for r in self.records if r.role == ROLE_SYNC_KERNEL}

    def spin_kernel_runs(self) -> dict[int, RunRecord]:
        return {r.n_processors: r for r in self.records if r.role == ROLE_SPIN_KERNEL}

    def processor_counts(self) -> list[int]:
        return sorted(self.base_runs())

    def require(self, what: str, mapping: dict) -> dict:
        if not mapping:
            raise InsufficientDataError(f"campaign for {self.workload!r} has no {what}")
        return mapping

    # -- persistence -----------------------------------------------------------------

    def save(self, directory: str | Path, perfex_files: bool = True) -> Path:
        """Write the manifest (and one perfex file per run) under ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = directory / "campaign.jsonl"
        save_records(self.records, manifest)
        if perfex_files:
            for i, rec in enumerate(self.records):
                name = f"run_{i:03d}_{rec.role}_n{rec.n_processors}_s{rec.size_bytes}.perfex"
                meta = {
                    "workload": rec.workload,
                    "role": rec.role,
                    "size_bytes": rec.size_bytes,
                    "n_processors": rec.n_processors,
                    "params": rec.params,
                }
                (directory / name).write_text(
                    format_report(rec.counters, rec.per_cpu, metadata=meta)
                )
        return manifest

    @classmethod
    def load(cls, directory: str | Path) -> "CampaignData":
        """Reload a campaign saved by :meth:`save`."""
        directory = Path(directory)
        records = load_records(directory / "campaign.jsonl")
        if not records:
            raise InsufficientDataError(f"no records in {directory}")
        app = next(
            (r for r in records if r.role in (ROLE_APP_BASE, ROLE_APP_FRAC)), records[0]
        )
        s0 = max(r.size_bytes for r in records if r.role == ROLE_APP_BASE) if any(
            r.role == ROLE_APP_BASE for r in records
        ) else app.size_bytes
        return cls(workload=app.workload, s0=s0, records=records)


class ScalToolCampaign:
    """Executes the full Table-3 + kernels plan for one application."""

    def __init__(
        self,
        workload: Workload,
        config: CampaignConfig,
        machine_factory: MachineFactory | None = None,
        progress: Callable[[str], None] | None = None,
    ) -> None:
        self.workload = workload
        self.config = config
        self.machine_factory = machine_factory or default_machine_factory()
        self._progress = progress or (lambda msg: None)

    def planned_runs(self) -> list[tuple[str, int, int]]:
        """(role, size, n) of every run the campaign will execute."""
        cfg = self.config
        plan: list[tuple[str, int, int]] = []
        for n in cfg.processor_counts:
            plan.append((ROLE_APP_BASE, cfg.s0, n))
        for size in self.fraction_sizes():
            plan.append((ROLE_APP_FRAC, size, 1))
        if cfg.run_kernels:
            for n in cfg.processor_counts:
                plan.append((ROLE_SYNC_KERNEL, 4096, n))
                plan.append((ROLE_SPIN_KERNEL, 4096, n))
        return plan

    def fraction_sizes(self) -> list[int]:
        """The uniprocessor fractional sizes.

        The halving chain of Table 3 (s0/2, s0/4, ...) extended in two
        ways, both within the paper's methodology: a parallel 3*s0/4
        halving chain, so the t2/tm regression gets the "3-4 data set
        sizes" of Section 2.3 even when s0 is only a few times the L2; and
        a tail reaching the L1 capacity, which supplies the
        compulsory-plateau sweep of Figure 3-(a) and the cpi0 run.
        """
        cfg = self.config
        l1_bytes = self.machine_factory(1).l1.size
        floor = cfg.min_fraction_bytes if cfg.min_fraction_bytes else max(128, l1_bytes // 2)
        sizes: set[int] = set()
        for start in (cfg.s0 // 2, (3 * cfg.s0) // 4):
            s = start
            while s >= floor:
                sizes.add(s)
                s //= 2
        sizes.add(floor)
        return sorted(sizes, reverse=True)

    def compile_plan(self) -> list[RunSpec]:
        """The full plan as engine specs, one per Table-3 cell / kernel run.

        Each spec carries the *complete* machine configuration produced by
        the factory at that run's processor count, so machine families
        that vary anything with ``n`` hash (and cache) correctly.
        """
        cfg = self.config
        sync_kernel = SyncKernel(n_barriers=cfg.sync_kernel_barriers)
        spin_kernel = SpinKernel(episodes=cfg.spin_kernel_episodes)
        specs: list[RunSpec] = []
        for role, size, n in self.planned_runs():
            if role == ROLE_SYNC_KERNEL:
                wl: Workload = sync_kernel
            elif role == ROLE_SPIN_KERNEL:
                wl = spin_kernel
            else:
                wl = self.workload
            specs.append(
                RunSpec.compile(wl, size, n, machine=self.machine_factory(n), role=role)
            )
        return specs

    def run(
        self,
        progress: ProgressCallback | None = None,
        executor: Executor | None = None,
        cache: RunCache | None = None,
        refresh: bool = False,
        on_outcome: OnOutcome | None = None,
    ) -> CampaignData:
        """Execute the plan through the shared engine; returns all records.

        ``progress`` (if given) is called after every completed run with
        ``(i, total, record)``, ``i`` 1-based — the hook long campaigns
        use to report ``run 7/23 hydro2d n=8``-style liveness.  Runs
        loaded from ``cache`` report through the same callback, so warm
        campaigns stay visibly live.  ``executor`` defaults to serial
        execution; a :class:`~repro.runner.engine.ParallelExecutor`
        produces an identical record list (the plan order), just faster.
        ``on_outcome`` (if given) additionally receives every
        :class:`~repro.runner.engine.RunOutcome`.
        """
        cfg = self.config
        data = CampaignData(workload=self.workload.name, s0=cfg.s0)
        specs = self.compile_plan()
        total = len(specs)
        executor = executor or SerialExecutor()
        tracer = obs.tracer()
        reg = obs.registry()
        _log.debug("campaign start %s", kv(workload=self.workload.name, s0=cfg.s0, runs=total))
        for spec in specs:
            self._progress(
                f"{spec.workload}: {spec.role} size={spec.size_bytes} n={spec.n_processors}"
            )

        completed = 0

        def _on_outcome(outcome) -> None:
            nonlocal completed
            completed += 1
            rec = outcome.record
            reg.inc("campaign.runs")
            reg.inc(f"campaign.runs.{rec.role}")
            reg.observe("campaign.run_seconds", outcome.seconds)
            tracer.emit(
                "campaign.experiment",
                outcome.seconds,
                role=rec.role,
                size=rec.size_bytes,
                n=rec.n_processors,
                cached=outcome.cached,
            )
            _log.debug(
                "campaign run %d/%d %s",
                completed,
                total,
                kv(
                    workload=rec.workload,
                    role=rec.role,
                    size=rec.size_bytes,
                    n=rec.n_processors,
                    cached=outcome.cached,
                    seconds=f"{outcome.seconds:.3f}",
                ),
            )
            if progress is not None:
                progress(completed, total, rec)
            if on_outcome is not None:
                on_outcome(outcome)

        with tracer.span("campaign.run", workload=self.workload.name, s0=cfg.s0, runs=total):
            data.records = executor.run(
                specs, cache=cache, refresh=refresh, on_outcome=_on_outcome
            )
        return data
