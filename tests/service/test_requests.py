"""Request compilation: validation, canonicalisation, fingerprints, specs."""

import pytest

from repro.errors import ServiceError
from repro.service.requests import (
    DEFAULT_COUNTS,
    REQUEST_KINDS,
    RequestResult,
    compile_request,
    request_fingerprint,
)
from repro.workloads import make_workload

PAYLOAD = {"workload": "synthetic", "s0": 163840, "counts": [1, 2]}


class TestCompile:
    def test_kinds_registry(self):
        assert REQUEST_KINDS == (
            "analyze", "blame", "campaign", "models", "predict", "sweep", "whatif",
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ServiceError, match="unknown request kind"):
            compile_request("explode", {})

    def test_missing_workload_rejected(self):
        with pytest.raises(ServiceError, match="workload"):
            compile_request("analyze", {})

    def test_unknown_workload_propagates(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            compile_request("analyze", {"workload": "doom"})

    def test_bad_counts_rejected(self):
        with pytest.raises(ServiceError, match="counts"):
            compile_request("analyze", {"workload": "synthetic", "counts": ["x"]})

    def test_unknown_sweep_metric_rejected(self):
        with pytest.raises(ServiceError, match="unknown metric"):
            compile_request("sweep", {"workload": "synthetic", "metrics": ["tachyons"]})

    def test_bad_sweep_axes_rejected(self):
        with pytest.raises(ServiceError, match="workload_axes"):
            compile_request(
                "sweep", {"workload": "synthetic", "workload_axes": {"iters": []}}
            )

    @pytest.mark.parametrize(
        "axes, message",
        [
            ({"workload_axes": {"sharing_frac": [0.25, 0.55]}}, "workload axis sharing_frac=0.55"),
            ({"machine_axes": {"protocol": ["mesi", "bogus"]}}, "machine axis protocol='bogus'"),
            ({"workload_axes": {"no_such_param": [1]}}, "workload axis no_such_param=1"),
        ],
    )
    def test_bad_sweep_axis_value_rejected_on_admission(self, axes, message):
        # Rejected while compiling (HTTP 400, CLI `error:`), not when the
        # job runs, and the message names the axis and the value.
        with pytest.raises(ServiceError, match=message):
            compile_request("sweep", {"workload": "synthetic", "n": 2, **axes})


class TestCanonicalisation:
    def test_defaults_resolved(self):
        req = compile_request("analyze", {"workload": "synthetic"})
        assert req.canonical["s0"] == make_workload("synthetic").default_size()
        assert tuple(req.canonical["counts"]) == DEFAULT_COUNTS
        assert req.canonical["markdown"] is False

    def test_counts_accept_string_form(self):
        a = compile_request("analyze", {**PAYLOAD, "counts": "1,2"})
        b = compile_request("analyze", {**PAYLOAD, "counts": [1, 2]})
        assert a.canonical == b.canonical

    def test_fingerprint_is_canonical(self):
        # Different spellings of the same request share one job id.
        explicit = compile_request("analyze", PAYLOAD)
        spelled = compile_request(
            "analyze", {"workload": "synthetic", "s0": "163840", "counts": "1,2"}
        )
        assert explicit.fingerprint() == spelled.fingerprint()
        assert explicit.fingerprint().startswith("j")
        assert len(explicit.fingerprint()) == 17

    def test_fingerprint_separates_kinds_and_payloads(self):
        fps = {
            compile_request("analyze", PAYLOAD).fingerprint(),
            compile_request("campaign", PAYLOAD).fingerprint(),
            compile_request("analyze", {**PAYLOAD, "s0": 327680}).fingerprint(),
            compile_request("whatif", {**PAYLOAD, "tm": 0.5}).fingerprint(),
        }
        assert len(fps) == 4

    def test_fingerprint_function_is_deterministic(self):
        fp = request_fingerprint("analyze", {"a": 1, "b": 2})
        assert fp == request_fingerprint("analyze", {"b": 2, "a": 1})


class TestSpecs:
    def test_campaign_kinds_share_spec_set(self):
        # analyze/whatif/predict over the same campaign need the same runs:
        # this is what the planner's dedup exploits.
        analyze = compile_request("analyze", PAYLOAD)
        whatif = compile_request("whatif", {**PAYLOAD, "tm": 0.5})
        keys = lambda req: sorted(s.key() for s in req.specs())  # noqa: E731
        assert keys(analyze) == keys(whatif)
        assert len(analyze.specs()) > 0

    def test_sweep_specs_cover_grid(self):
        req = compile_request(
            "sweep",
            {
                "workload": "synthetic",
                "size": 8192,
                "n": 2,
                "workload_axes": {"iters": [1, 2]},
            },
        )
        assert len(req.specs()) == 2


class TestResult:
    def test_result_roundtrip(self):
        res = RequestResult(output="table\n", data={"rows": [1, 2]})
        assert RequestResult.from_dict(res.to_dict()) == res

    def test_campaign_execute_writes_cache(self, tmp_path):
        res = compile_request(
            "campaign", {"workload": "synthetic", "s0": 163840, "counts": [1]}
        ).execute(cache_root=tmp_path)
        assert res.data["records"] > 0
        assert res.output.count("\n") == res.data["records"]
        assert list((tmp_path / "runs").glob("*.json"))
