"""Parameter estimation on fabricated counter data with known truth."""

import pytest

from repro.core.estimators import (
    L2_OVERFLOW_FACTOR,
    adjust_cpi0,
    cpi0_run,
    estimate_cpi0_biased,
    estimate_parameters,
    estimate_tm_by_n,
    fit_t2_tm,
    overflow_sizes,
)
from repro.errors import InsufficientDataError
from repro.machine.counters import CounterSet
from repro.runner.records import RunRecord

L2_BYTES = 4096
L1_BYTES = 256

TRUE = dict(cpi0=1.2, t2=10.0, tm=70.0)


def fabricate(size, n=1, l1_miss_rate=0.1, l2_hit_of_miss=0.3, m=0.4, inst=100_000,
              tm=None, cpi0=None):
    """A record whose counters satisfy Eq. 1 exactly for the TRUE params."""
    tm = TRUE["tm"] if tm is None else tm
    cpi0 = TRUE["cpi0"] if cpi0 is None else cpi0
    refs = inst * m
    l1_misses = refs * l1_miss_rate
    l2_misses = l1_misses * (1 - l2_hit_of_miss)
    h2 = (l1_misses - l2_misses) / inst
    hm = l2_misses / inst
    cycles = inst * (cpi0 + h2 * TRUE["t2"] + hm * tm)
    counters = CounterSet(
        cycles=cycles,
        graduated_instructions=inst,
        graduated_loads=refs * 0.7,
        graduated_stores=refs * 0.3,
        l1_data_misses=l1_misses,
        l2_misses=l2_misses,
    )
    return RunRecord(
        workload="synthetic-math",
        params={},
        size_bytes=size,
        n_processors=n,
        role="app_frac" if n == 1 else "app_base",
        machine={"l1_bytes": L1_BYTES, "l2_bytes": L2_BYTES},
        counters=counters,
    )


def uniproc_suite():
    """Fractional runs: overflow sizes with varying L2 hit rates + a small run."""
    runs = {
        32 * L2_BYTES: fabricate(32 * L2_BYTES, l2_hit_of_miss=0.05),
        8 * L2_BYTES: fabricate(8 * L2_BYTES, l2_hit_of_miss=0.15),
        2 * L2_BYTES: fabricate(2 * L2_BYTES, l2_hit_of_miss=0.45),
        L2_BYTES // 2: fabricate(L2_BYTES // 2, l2_hit_of_miss=0.98),
        # the cpi0 run: nearly everything hits, a whiff of compulsory misses
        L1_BYTES: fabricate(L1_BYTES, l1_miss_rate=0.01, l2_hit_of_miss=0.5),
    }
    return runs


def collinear_runs():
    """Identical hit rates at every overflow size: t2 is unidentifiable."""
    return {
        s: fabricate(s, l2_hit_of_miss=0.10)
        for s in (8 * L2_BYTES, 16 * L2_BYTES, 32 * L2_BYTES)
    }


class TestCpi0Selection:
    def test_picks_lowest_cpi_small_run(self):
        runs = uniproc_suite()
        assert cpi0_run(runs, L2_BYTES).size_bytes == L1_BYTES

    def test_biased_estimate_above_truth(self):
        # Lubeck's estimate carries the small run's compulsory-miss cycles
        # (here 0.02 of t2 + 0.14 of tm = +0.16 over the true 1.2).
        biased = estimate_cpi0_biased(uniproc_suite(), L2_BYTES)
        assert biased > TRUE["cpi0"]
        assert biased == pytest.approx(1.36, abs=0.01)

    def test_empty_runs_rejected(self):
        with pytest.raises(InsufficientDataError):
            cpi0_run({}, L2_BYTES)


class TestFit:
    def test_recovers_t2_tm(self):
        runs = uniproc_suite()
        t2, tm, diag = fit_t2_tm(runs, TRUE["cpi0"], L2_BYTES)
        assert t2 == pytest.approx(TRUE["t2"], rel=0.02)
        assert tm == pytest.approx(TRUE["tm"], rel=0.02)
        assert diag["rms"] < 0.01

    def test_overflow_filter(self):
        sizes = overflow_sizes(uniproc_suite(), L2_BYTES)
        assert all(s >= L2_OVERFLOW_FACTOR * L2_BYTES for s in sizes)
        assert len(sizes) == 3

    def test_filter_excludes_fitting_sizes(self):
        runs = uniproc_suite()
        _, _, diag = fit_t2_tm(runs, TRUE["cpi0"], L2_BYTES)
        assert L2_BYTES // 2 not in diag["sizes"]

    def test_unfiltered_fit_available_for_ablation(self):
        runs = uniproc_suite()
        t2, tm, diag = fit_t2_tm(runs, TRUE["cpi0"], L2_BYTES, overflow_only=False)
        assert len(diag["sizes"]) == 5

    def test_too_few_triplets_rejected(self):
        runs = {32 * L2_BYTES: fabricate(32 * L2_BYTES)}
        with pytest.raises(InsufficientDataError):
            fit_t2_tm(runs, TRUE["cpi0"], L2_BYTES)

    def test_nonnegative_under_noise(self):
        # near-collinear triplets plus an inflated cpi0 push the
        # unconstrained fit negative; the nnls fallback keeps latencies >= 0
        runs = {
            8 * L2_BYTES: fabricate(8 * L2_BYTES, l2_hit_of_miss=0.10),
            16 * L2_BYTES: fabricate(16 * L2_BYTES, l2_hit_of_miss=0.11),
            32 * L2_BYTES: fabricate(32 * L2_BYTES, l2_hit_of_miss=0.12),
        }
        t2, tm, diag = fit_t2_tm(runs, TRUE["cpi0"] + 0.8, L2_BYTES)
        assert t2 >= 0 and tm >= 0

    def test_perfectly_collinear_degrades_gracefully(self):
        # the fit must fall back to a non-negative solution and flag the rank
        t2, tm, diag = fit_t2_tm(collinear_runs(), TRUE["cpi0"], L2_BYTES)
        assert diag["rank_deficient"] and diag["constrained"]
        # h2 is a ninth of hm in every row: the hm column correlates more
        # with the target, so it takes t2's share, as Lawson-Hanson's does
        assert t2 == 0.0
        assert tm == pytest.approx(TRUE["tm"] + TRUE["t2"] / 9, rel=1e-12)
        # the identified combination still predicts the triplets
        assert diag["rms"] < 0.02


class TestAdjustment:
    def test_eq2_removes_compulsory_bias(self):
        runs = uniproc_suite()
        small = cpi0_run(runs, L2_BYTES)
        biased = small.counters.cpi
        unbiased = adjust_cpi0(biased, small, TRUE["t2"], TRUE["tm"])
        assert abs(unbiased - TRUE["cpi0"]) < abs(biased - TRUE["cpi0"])
        assert unbiased == pytest.approx(TRUE["cpi0"], abs=1e-6)


class TestTmByN:
    def base_runs(self):
        return {
            1: fabricate(64 * 1024, n=1, tm=70.0),
            4: fabricate(64 * 1024, n=4, tm=90.0),
            16: fabricate(64 * 1024, n=16, tm=130.0),
        }

    def test_recovers_tm_growth(self):
        tm = estimate_tm_by_n(self.base_runs(), TRUE["cpi0"], TRUE["t2"], tm1=70.0)
        assert tm[1] == pytest.approx(70.0, rel=1e-6)
        assert tm[4] == pytest.approx(90.0, rel=1e-6)
        assert tm[16] == pytest.approx(130.0, rel=1e-6)

    def test_unidentifiable_falls_back(self):
        runs = {8: fabricate(64 * 1024, n=8, tm=70.0, cpi0=0.2)}  # cpi below cpi0 est
        warnings: list[str] = []
        tm = estimate_tm_by_n(runs, TRUE["cpi0"], TRUE["t2"], tm1=70.0, warnings=warnings)
        assert tm[8] == 70.0
        assert warnings

    def test_growth_profile_floor(self):
        runs = {8: fabricate(64 * 1024, n=8, tm=70.0, cpi0=0.2)}
        tm = estimate_tm_by_n(
            runs, TRUE["cpi0"], TRUE["t2"], tm1=70.0, tm_growth={1: 100.0, 8: 250.0}
        )
        assert tm[8] == pytest.approx(175.0)  # 70 * 250/100


class TestFullPipeline:
    def test_end_to_end_recovery(self):
        uniproc = uniproc_suite()
        base = {
            1: uniproc[32 * L2_BYTES],
            4: fabricate(32 * L2_BYTES, n=4, tm=95.0, l2_hit_of_miss=0.2),
        }
        est = estimate_parameters(uniproc, base, L1_BYTES, L2_BYTES)
        assert est.cpi0 == pytest.approx(TRUE["cpi0"], rel=0.02)
        # t2/tm are fitted against the *biased* first-pass cpi0 (the paper's
        # procedure), so they absorb part of its offset; what must hold is
        # positivity and that the identified combination predicts the
        # triplet CPIs accurately (rms below 2%).
        assert est.t2 > 0 and est.tm1 > 0
        assert est.fit_residual_rms < 0.02
        assert est.tm_by_n[4] > est.tm_by_n[1]
        assert est.n_triplets == 3

    def test_summary_renders(self):
        uniproc = uniproc_suite()
        base = {1: uniproc[32 * L2_BYTES]}
        est = estimate_parameters(uniproc, base, L1_BYTES, L2_BYTES)
        text = est.summary()
        assert "cpi0" in text and "t2" in text
