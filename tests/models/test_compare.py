"""Cross-validation: two independent roads must name the same bottleneck."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.models import (
    PAYBACK_GAIN,
    ScalToolModel,
    SpeedupDataset,
    SpeedupPoint,
    USLModel,
    compare_models,
    payback_edge,
    predict_report,
    usl_speedup,
)
from repro.obs.diagnostics import (
    GRADE_OK,
    GRADE_SUSPECT,
    GRADE_WARN,
    FitDiagnostics,
    apply_rules,
)


@pytest.fixture(scope="module")
def clean_report(contention_campaign, contention_analysis):
    dataset = SpeedupDataset.from_campaign(contention_campaign)
    return compare_models(dataset, analysis=contention_analysis)


class TestCleanCampaign:
    def test_agreement_grades_ok(self, clean_report):
        assert clean_report["grade"] == GRADE_OK
        assert clean_report["agreement"]["flags"] == []

    def test_acceptance_both_roads_rank_contention(self, clean_report):
        mapping = clean_report["mapping"]
        assert mapping["dominant_usl"] == "contention"
        assert mapping["dominant_scaltool"] == "sync+imb"
        usl = mapping["shares"]["usl"]
        scal = mapping["shares"]["scaltool"]
        assert usl["contention_share"] > usl["coherency_share"]
        assert scal["sync_imb_share"] > scal["l2lim_share"]

    def test_scaltool_projection_is_exact_at_measured_counts(self, clean_report):
        fit = clean_report["models"]["scaltool"]
        assert fit["r_squared"] == pytest.approx(1.0)
        assert fit["residual_rms"] == pytest.approx(0.0, abs=1e-12)

    def test_report_is_json_serializable(self, clean_report):
        text = json.dumps(clean_report, sort_keys=True)
        assert "Infinity" not in text and "NaN" not in text

    def test_per_fit_grades_travel_separately(self, clean_report):
        assert set(clean_report["fit_grades"]) == {"usl", "granularity", "scaltool"}
        assert clean_report["worst_fit_grade"] in (GRADE_OK, GRADE_WARN, GRADE_SUSPECT)


class TestAdversarialCurve:
    def test_mislabeled_retrograde_curve_grades_suspect(self, contention_analysis):
        # a heavy-coherency curve (kappa-dominant, retrograde) attributed
        # to the contention campaign's decomposition: the roads disagree
        points = [
            SpeedupPoint(n=n, speedup=usl_speedup(n, 0.02, 0.08)) for n in (1, 2, 4, 8)
        ]
        dataset = SpeedupDataset(label="mislabeled", points=points)
        report = compare_models(dataset, analysis=contention_analysis)
        assert report["grade"] == GRADE_SUSPECT
        flags = " ".join(report["agreement"]["flags"])
        assert "coherency" in flags or "drift" in flags or "dominan" in flags

    def test_dataset_only_compare_warns_no_decomposition(self):
        points = [
            SpeedupPoint(n=n, speedup=usl_speedup(n, 0.05, 0.001))
            for n in (1, 2, 4, 8, 16)
        ]
        report = compare_models(SpeedupDataset(label="external", points=points))
        assert report["agreement"]["details"]["has_decomposition"] is False
        assert report["grade"] == GRADE_WARN
        assert "scaltool" not in report["models"]


class TestAgreementFlag:
    """The disagreement flag prints shares the way the report does."""

    @staticmethod
    def _flags(shares):
        details = {
            "top_n": 32,
            "has_decomposition": True,
            "dominant_usl": "coherency",
            "dominant_scaltool": "sync+imb",
            "dominance_mismatch": True,
            "dominant_share": shares["scaltool"]["sync_imb_share"],
            "dominance_margin": 187.4,
            "shares": shares,
        }
        fd = FitDiagnostics(name="model_agreement", kind="model_agreement", details=details)
        return apply_rules(fd).flags

    SHARES = {
        "usl": {"contention_share": 0.0, "coherency_share": 0.2614058291428282},
        "scaltool": {"sync_imb_share": 0.5570365546367027, "l2lim_share": 0.002971691958987521},
    }

    def test_shares_as_percentages(self):
        assert self._flags(self.SHARES) == [
            "[suspect] dominant bottleneck disagrees at n=32: USL says coherency, "
            "Scal-Tool says sync+imb (shares: USL contention 0.0%, coherency 26.1%; "
            "Scal-Tool Sync+Imb 55.7%, L2Lim 0.3%)"
        ]

    def test_one_ulp_leaves_the_text(self):
        bumped = {
            model: {k: float(np.nextafter(v, np.inf)) for k, v in parts.items()}
            for model, parts in self.SHARES.items()
        }
        assert self._flags(bumped) == self._flags(self.SHARES)


class TestPeakFlag:
    """The peak-disagreement flag prints peaks at a fixed precision."""

    @staticmethod
    def _flags(peaks):
        details = {
            "top_n": 32,
            "has_decomposition": True,
            "peak_ratio": max(peaks.values()) / min(peaks.values()),
            "peaks": peaks,
        }
        fd = FitDiagnostics(name="model_agreement", kind="model_agreement", details=details)
        return apply_rules(fd).flags

    PEAKS = {"usl": 301.18155929577216, "scaltool": 32.0}

    def test_peaks_sorted_at_fixed_precision(self):
        assert self._flags(self.PEAKS) == [
            "[warn] predicted peak-speedup counts differ by 9.41x "
            "(scaltool: n=32.0, usl: n=301.2)"
        ]

    def test_one_ulp_leaves_the_text(self):
        bumped = {name: float(np.nextafter(peak, np.inf)) for name, peak in self.PEAKS.items()}
        assert self._flags(bumped) == self._flags(self.PEAKS)


class TestScalToolModel:
    def test_requires_enough_analysis_counts(self):
        from types import SimpleNamespace

        from repro.errors import InsufficientDataError

        narrow = SimpleNamespace(curves=SimpleNamespace(processor_counts=[1, 2]))
        points = [SpeedupPoint(n=n, speedup=float(n)) for n in (1, 2, 4, 8)]
        with pytest.raises(InsufficientDataError) as err:
            ScalToolModel(narrow).fit(SpeedupDataset(label="short", points=points))
        assert err.value.inputs["counts"] == [1, 2]


class TestPredict:
    def test_report_extends_past_measured(self, contention_campaign, contention_analysis):
        dataset = SpeedupDataset.from_campaign(contention_campaign)
        report = predict_report(dataset, (16, 32), analysis=contention_analysis)
        ns = [row["n"] for row in report["rows"]]
        assert ns == sorted(set(dataset.counts) | {16, 32})
        for row in report["rows"]:
            if row["n"] in dataset.counts:
                assert row["measured"] is not None
            else:
                assert row["measured"] is None
            assert row["models"]["usl"]["speedup"] > 0

    def test_payback_edge_semantics(self):
        points = [
            SpeedupPoint(n=n, speedup=usl_speedup(n, 0.05, 0.002))
            for n in (1, 2, 4, 8, 16, 32)
        ]
        fit = USLModel().fit(SpeedupDataset(label="edge", points=points))
        edge = payback_edge(fit)
        assert edge > 1
        # the doubling that reached the edge paid; the next one does not
        assert fit.predict(edge) >= PAYBACK_GAIN * fit.predict(edge / 2)
        assert fit.predict(2 * edge) < PAYBACK_GAIN * fit.predict(edge)
        # for this curve the payback zone ends before the retrograde peak
        assert edge <= fit.peak_n

    def test_rejects_counts_below_one(self, contention_campaign):
        from repro.errors import EstimationError

        dataset = SpeedupDataset.from_campaign(contention_campaign)
        with pytest.raises(EstimationError):
            predict_report(dataset, (0, 32))
