"""Campaign cache observability: corrupt/empty manifests and progress hooks."""

import logging

import pytest

from repro.obs import runtime as obs
from repro.runner.campaign import CampaignConfig, ScalToolCampaign
from repro.runner.cache import cached_campaign
from repro.runner.records import RunRecord

from ..conftest import small_synthetic, tiny_machine_config


@pytest.fixture(autouse=True)
def propagate_repro_logs():
    """Let caplog see ``repro`` records even if the CLI configured the
    namespace (configure_logging sets propagate=False)."""
    logger = logging.getLogger("repro")
    old = logger.propagate
    logger.propagate = True
    yield
    logger.propagate = old


def factory(n):
    return tiny_machine_config(n_processors=n)


def quick_config(**kw):
    defaults = dict(
        s0=16 * 1024,
        processor_counts=(1, 2),
        sync_kernel_barriers=10,
        spin_kernel_episodes=3,
    )
    defaults.update(kw)
    return CampaignConfig(**defaults)


def manifest_of(tmp_path):
    manifests = list(tmp_path.glob("*.jsonl"))
    assert len(manifests) == 1
    return manifests[0]


def run_entries_of(tmp_path):
    entries = sorted((tmp_path / "runs").glob("*.json"))
    assert entries
    return entries


class TestCorruptRunCache:
    def test_corrupt_run_entry_reruns_with_warning(self, tmp_path, caplog):
        wl, cfg = small_synthetic(), quick_config()
        first = cached_campaign(wl, cfg, machine_factory=factory, cache_dir=tmp_path)
        victim = run_entries_of(tmp_path)[0]
        victim.write_text("this is { not json\n")

        with obs.session() as s:
            with caplog.at_level(logging.WARNING, logger="repro.runner.engine"):
                again = cached_campaign(wl, cfg, machine_factory=factory, cache_dir=tmp_path)

        assert len(again.records) == len(first.records)
        assert s.registry.counter("engine.cache.corrupt") == 1.0
        # Exactly the one corrupt entry re-executed; everything else hit.
        assert s.registry.counter("engine.runs") == 1.0
        assert s.registry.counter("cache.partial") == 1.0
        warning = next(r for r in caplog.records if r.levelno == logging.WARNING)
        assert str(victim) in warning.getMessage()
        assert "re-running" in warning.getMessage()
        # The re-run repaired the entry in place.
        with obs.session() as s2:
            third = cached_campaign(wl, cfg, machine_factory=factory, cache_dir=tmp_path)
        assert len(third.records) == len(first.records)
        assert s2.registry.counter("engine.runs") == 0.0

    def test_empty_run_entry_reruns_with_warning(self, tmp_path, caplog):
        wl, cfg = small_synthetic(), quick_config()
        cached_campaign(wl, cfg, machine_factory=factory, cache_dir=tmp_path)
        victim = run_entries_of(tmp_path)[0]
        victim.write_text("")

        with obs.session() as s:
            with caplog.at_level(logging.WARNING, logger="repro.runner.engine"):
                again = cached_campaign(wl, cfg, machine_factory=factory, cache_dir=tmp_path)

        assert again.records
        assert s.registry.counter("engine.cache.corrupt") == 1.0
        warning = next(r for r in caplog.records if r.levelno == logging.WARNING)
        assert "re-running" in warning.getMessage()

    def test_corrupt_manifest_is_harmless(self, tmp_path):
        # The JSONL manifest is an export, not the cache: breaking it must
        # not force a re-run, and it is rewritten on the next call.
        wl, cfg = small_synthetic(), quick_config()
        first = cached_campaign(wl, cfg, machine_factory=factory, cache_dir=tmp_path)
        manifest = manifest_of(tmp_path)
        manifest.write_text("this is { not json\n")
        with obs.session() as s:
            again = cached_campaign(wl, cfg, machine_factory=factory, cache_dir=tmp_path)
        assert len(again.records) == len(first.records)
        assert s.registry.counter("engine.runs") == 0.0
        assert s.registry.counter("cache.hit") == 1.0
        from repro.runner.records import load_records

        assert len(load_records(manifest)) == len(first.records)

    def test_hit_and_miss_metrics(self, tmp_path):
        wl, cfg = small_synthetic(), quick_config()
        with obs.session() as s:
            cached_campaign(wl, cfg, machine_factory=factory, cache_dir=tmp_path)
            cached_campaign(wl, cfg, machine_factory=factory, cache_dir=tmp_path)
        assert s.registry.counter("cache.miss") == 1.0
        assert s.registry.counter("cache.hit") == 1.0
        assert s.registry.counter("cache.corrupt") == 0.0

    def test_refresh_metric(self, tmp_path):
        wl, cfg = small_synthetic(), quick_config()
        cached_campaign(wl, cfg, machine_factory=factory, cache_dir=tmp_path)
        with obs.session() as s:
            cached_campaign(wl, cfg, machine_factory=factory, cache_dir=tmp_path, refresh=True)
        assert s.registry.counter("cache.refresh") == 1.0


class TestProgressHook:
    def test_campaign_run_reports_progress(self):
        campaign = ScalToolCampaign(small_synthetic(), quick_config(), machine_factory=factory)
        events = []
        data = campaign.run(progress=lambda i, total, rec: events.append((i, total, rec)))
        total = len(campaign.planned_runs())
        assert [e[0] for e in events] == list(range(1, total + 1))
        assert all(e[1] == total for e in events)
        assert all(isinstance(e[2], RunRecord) for e in events)
        assert [e[2] for e in events] == data.records

    def test_cached_campaign_forwards_progress(self, tmp_path):
        wl, cfg = small_synthetic(), quick_config()
        events = []
        cached_campaign(
            wl, cfg, machine_factory=factory, cache_dir=tmp_path,
            progress=lambda i, t, r: events.append(i),
        )
        assert events  # campaign actually executed
        # Cache hits report through the same callback: a warm campaign
        # emits the full 1..total progress sequence instead of going silent.
        cold = list(events)
        events.clear()
        cached_campaign(
            wl, cfg, machine_factory=factory, cache_dir=tmp_path,
            progress=lambda i, t, r: events.append(i),
        )
        assert events == cold

    def test_campaign_spans_when_enabled(self):
        campaign = ScalToolCampaign(small_synthetic(), quick_config(), machine_factory=factory)
        with obs.session() as s:
            campaign.run()
        runs = s.registry.counter("campaign.runs")
        assert runs == len(campaign.planned_runs())
        experiments = s.tracer.by_name("campaign.experiment")
        assert len(experiments) == runs
        assert s.registry.histogram("campaign.run_seconds").count == runs
        top = s.tracer.by_name("campaign.run")
        assert len(top) == 1 and top[0].parent_id == ""  # a root span
