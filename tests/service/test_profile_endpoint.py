"""``GET /v1/profile``: live stack sampling of the serving processes.

Engine-free: profiling an idle service still samples its own machinery
(HTTP threads, queue workers), which is all these tests need — the
structural contract matters, not what the threads happen to be doing.
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.service.client import ServiceClient
from repro.service.core import ServiceConfig
from repro.service.dispatcher import Dispatcher
from repro.service.http import ServiceServer, _profile_params

from .conftest import http_error

PROFILE_KEYS = {"seconds", "interval_s", "shard", "pid", "profile"}
SAMPLE_PROFILE_KEYS = {
    "interval_s",
    "n_samples",
    "duration_s",
    "overhead_s",
    "overhead_ratio",
    "folded",
    "spans",
    "functions",
    "lines",
    "memory",
}


class TestProfileParams:
    def test_defaults(self):
        assert _profile_params("") == (1.0, 0.005)

    def test_explicit_values(self):
        assert _profile_params("seconds=0.25&interval_ms=2") == (0.25, 0.002)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ReproError):
            _profile_params("second=1")

    def test_non_numeric_rejected(self):
        with pytest.raises(ReproError):
            _profile_params("seconds=fast")


class TestSingleProcess:
    @pytest.fixture
    def server(self, tmp_path, stub_requests):
        srv = ServiceServer(
            ServiceConfig(cache_dir=tmp_path, workers=1, batch_window=0.0), port=0
        ).start()
        yield srv
        srv.shutdown(drain_timeout=10)

    def test_profile_view_shape_and_clamping(self, server):
        client = ServiceClient(server.url, timeout=10)
        try:
            view = client.profile(seconds=0.1, interval_ms=2.0)
        finally:
            client.close()
        assert set(view) == PROFILE_KEYS
        assert view["seconds"] == pytest.approx(0.1)
        assert view["interval_s"] == pytest.approx(0.002)
        assert view["shard"] == 0
        assert set(view["profile"]) == SAMPLE_PROFILE_KEYS
        # An idle service still has live threads to observe.
        assert view["profile"]["n_samples"] > 0

    def test_profile_updates_overhead_gauge_in_metrics(self, server):
        client = ServiceClient(server.url, timeout=10)
        try:
            client.profile(seconds=0.1, interval_ms=5.0)
            text = client.metrics()
        finally:
            client.close()
        assert "scaltool_profile_overhead_ratio" in text
        assert "scaltool_profile_requests_total 1" in text

    def test_bad_query_answers_400(self, server):
        assert http_error(server.url + "/v1/profile?bogus=1").code == 400


class TestDispatcherMerge:
    @pytest.fixture(scope="class")
    def dispatcher(self, tmp_path_factory):
        disp = Dispatcher(
            ServiceConfig(cache_dir=tmp_path_factory.mktemp("fleet")),
            worker_count=2,
            port=0,
        ).start()
        yield disp
        disp.shutdown()

    def _profile(self, dispatcher) -> dict:
        client = ServiceClient(dispatcher.url, timeout=30)
        try:
            return client.profile(seconds=0.15, interval_ms=2.0)
        finally:
            client.close()

    def test_merged_profile_structure_is_stable_across_calls(self, dispatcher):
        first = self._profile(dispatcher)
        second = self._profile(dispatcher)
        for view in (first, second):
            assert set(view) == {"seconds", "interval_s", "workers", "missing", "profile"}
            assert view["missing"] == 0
            assert [w["shard"] for w in view["workers"]] == [0, 1]
            assert all(
                set(w) == {"shard", "pid", "n_samples", "overhead_ratio"}
                for w in view["workers"]
            )
            assert set(view["profile"]) == SAMPLE_PROFILE_KEYS
        # Byte-stable structure: identical key sets and worker ordering,
        # with only sampled values free to differ between calls.
        assert list(first["profile"]) == list(second["profile"])

    def test_merged_counts_cover_every_worker(self, dispatcher):
        view = self._profile(dispatcher)
        merged = view["profile"]["n_samples"]
        assert merged == sum(w["n_samples"] for w in view["workers"])
        assert merged > 0
