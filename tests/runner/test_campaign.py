"""Campaign runner: plan, execution, persistence, caching."""

import pytest

from repro.errors import ConfigError
from repro.runner.campaign import CampaignConfig, CampaignData, ScalToolCampaign
from repro.runner.cache import cached_campaign
from repro.runner.records import ROLE_APP_BASE, ROLE_APP_FRAC, ROLE_SPIN_KERNEL, ROLE_SYNC_KERNEL

from ..conftest import small_synthetic, tiny_machine_config


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


class TestConfig:
    def test_must_start_at_one(self):
        with pytest.raises(ConfigError):
            CampaignConfig(s0=1024, processor_counts=(2, 4))

    def test_must_be_increasing(self):
        with pytest.raises(ConfigError):
            CampaignConfig(s0=1024, processor_counts=(1, 4, 2))

    def test_positive_s0(self):
        with pytest.raises(ConfigError):
            CampaignConfig(s0=0)


class TestPlan:
    def test_matches_table3_shape(self):
        campaign = ScalToolCampaign(small_synthetic(), quick_config(), machine_factory=factory)
        plan = campaign.planned_runs()
        base = [(s, n) for role, s, n in plan if role == ROLE_APP_BASE]
        assert base == [(16 * 1024, 1), (16 * 1024, 2)]
        fracs = [(s, n) for role, s, n in plan if role == ROLE_APP_FRAC]
        assert all(n == 1 for _, n in fracs)
        assert all(s < 16 * 1024 for s, _ in fracs)

    def test_fraction_sizes_reach_l1(self):
        campaign = ScalToolCampaign(small_synthetic(), quick_config(), machine_factory=factory)
        sizes = campaign.fraction_sizes()
        assert min(sizes) <= factory(1).l1.size
        assert sizes == sorted(sizes, reverse=True)

    def test_fractions_include_three_quarter_chain(self):
        campaign = ScalToolCampaign(small_synthetic(), quick_config(), machine_factory=factory)
        sizes = campaign.fraction_sizes()
        assert 16 * 1024 // 2 in sizes
        assert (3 * 16 * 1024) // 4 in sizes

    def test_kernels_planned_per_count(self):
        campaign = ScalToolCampaign(small_synthetic(), quick_config(), machine_factory=factory)
        plan = campaign.planned_runs()
        assert sum(1 for r, _, _ in plan if r == ROLE_SYNC_KERNEL) == 2
        assert sum(1 for r, _, _ in plan if r == ROLE_SPIN_KERNEL) == 2

    def test_kernels_can_be_disabled(self):
        campaign = ScalToolCampaign(
            small_synthetic(), quick_config(run_kernels=False), machine_factory=factory
        )
        assert all(r in (ROLE_APP_BASE, ROLE_APP_FRAC) for r, _, _ in campaign.planned_runs())


class TestExecution:
    def test_runs_everything(self, mini_campaign):
        assert len(mini_campaign.records) == len(
            ScalToolCampaign(
                small_synthetic(iters=3, imbalance_amp=0.2),
                CampaignConfig(s0=32 * 1024, processor_counts=(1, 2, 4)),
                machine_factory=factory,
            ).planned_runs()
        )

    def test_base_runs_lookup(self, mini_campaign):
        base = mini_campaign.base_runs()
        assert sorted(base) == [1, 2, 4]
        assert all(rec.size_bytes == mini_campaign.s0 for rec in base.values())

    def test_uniprocessor_runs_include_s0(self, mini_campaign):
        uni = mini_campaign.uniprocessor_runs()
        assert mini_campaign.s0 in uni
        assert len(uni) > 4

    def test_kernel_lookups(self, mini_campaign):
        assert sorted(mini_campaign.sync_kernel_runs()) == [1, 2, 4]
        assert sorted(mini_campaign.spin_kernel_runs()) == [1, 2, 4]

    def test_progress_callback(self):
        messages = []
        ScalToolCampaign(
            small_synthetic(),
            quick_config(processor_counts=(1,), run_kernels=False),
            machine_factory=factory,
            progress=messages.append,
        ).run()
        assert messages and "synthetic" in messages[0]


class TestPersistence:
    def test_save_and_load(self, mini_campaign, tmp_path):
        mini_campaign.save(tmp_path / "camp")
        back = CampaignData.load(tmp_path / "camp")
        assert back.workload == mini_campaign.workload
        assert back.s0 == mini_campaign.s0
        assert len(back.records) == len(mini_campaign.records)

    def test_perfex_files_written(self, mini_campaign, tmp_path):
        mini_campaign.save(tmp_path / "camp")
        perfex_files = list((tmp_path / "camp").glob("*.perfex"))
        assert len(perfex_files) == len(mini_campaign.records)
        from repro.tools.perfex import parse_report

        meta, totals, per_cpu = parse_report(perfex_files[0].read_text())
        assert "workload" in meta

    def test_one_file_per_run(self, mini_campaign, tmp_path):
        # the paper's Table 1 resource accounting: one output file per run
        mini_campaign.save(tmp_path / "camp")
        files = list((tmp_path / "camp").glob("*.perfex"))
        assert len(files) == len(mini_campaign.records)


class TestDiskCache:
    def test_cache_hit_skips_rerun(self, tmp_path):
        wl = small_synthetic()
        cfg = quick_config(processor_counts=(1,), run_kernels=False)
        first = cached_campaign(wl, cfg, machine_factory=factory, cache_dir=tmp_path)
        second = cached_campaign(wl, cfg, machine_factory=factory, cache_dir=tmp_path)
        assert [r.counters for r in first.records] == [r.counters for r in second.records]
        assert len(list((tmp_path / "runs").glob("*.json"))) == len(first.records)
        assert not list(tmp_path.glob("*.jsonl"))  # the runs are the whole cache

    def test_different_params_different_cache(self, tmp_path):
        cfg = quick_config(processor_counts=(1,), run_kernels=False)
        one, two = (
            cached_campaign(
                small_synthetic(iters=i), cfg, machine_factory=factory, cache_dir=tmp_path
            )
            for i in (1, 2)
        )
        runs = len(list((tmp_path / "runs").glob("*.json")))
        assert runs == len(one.records) + len(two.records)

    def test_refresh_forces_rerun(self, tmp_path):
        wl = small_synthetic()
        cfg = quick_config(processor_counts=(1,), run_kernels=False)
        cached_campaign(wl, cfg, machine_factory=factory, cache_dir=tmp_path)
        data = cached_campaign(wl, cfg, machine_factory=factory, cache_dir=tmp_path, refresh=True)
        assert data.records
