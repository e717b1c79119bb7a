"""The global obs switch: sessions, nesting, and disabled-mode no-ops."""

from repro.obs import runtime as obs
from repro.obs.metrics import NOOP_REGISTRY, MetricsRegistry
from repro.obs.trace import NOOP_TRACER, TraceBuffer


class TestSwitch:
    def test_disabled_by_default(self):
        assert obs.active() is None
        assert not obs.is_enabled()
        assert obs.tracer() is NOOP_TRACER
        assert obs.registry() is NOOP_REGISTRY

    def test_enable_disable_roundtrip(self):
        s = obs.enable()
        try:
            assert obs.active() is s
            assert obs.is_enabled()
            assert isinstance(obs.tracer(), TraceBuffer)
            assert isinstance(obs.registry(), MetricsRegistry)
            assert obs.tracer() is s.tracer
        finally:
            assert obs.disable() is s
        assert obs.active() is None

    def test_sessions_nest(self):
        outer = obs.enable()
        inner = obs.enable()
        assert obs.active() is inner
        obs.disable()
        assert obs.active() is outer
        obs.disable()
        assert obs.active() is None

    def test_disable_when_inactive_is_harmless(self):
        assert obs.disable() is None

    def test_session_context_manager(self):
        with obs.session() as s:
            assert obs.active() is s
            s.registry.inc("x")
        assert obs.active() is None
        # Data stays readable after the session ends.
        assert s.registry.counter("x") == 1.0

    def test_session_disables_on_exception(self):
        try:
            with obs.session():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert obs.active() is None

    def test_session_unwinds_leaked_enables(self):
        with obs.session() as s:
            obs.enable()  # leaked by the block
            assert obs.active() is not s
        assert obs.active() is None


class TestInstrumentedLayersRespectTheSwitch:
    """Disabled-mode no-op behaviour through the real instrumented code."""

    def _run(self):
        from tests.conftest import small_synthetic, tiny_machine_config
        from repro.machine.system import DsmMachine

        machine = DsmMachine(tiny_machine_config(n_processors=2))
        return machine.run(small_synthetic(), 4096)

    def test_machine_run_disabled_records_nothing(self):
        assert obs.active() is None
        self._run()
        assert NOOP_TRACER.records == []
        assert NOOP_REGISTRY.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_machine_run_enabled_records_spans_and_metrics(self):
        with obs.session() as s:
            self._run()
        names = {r.name for r in s.tracer.records}
        assert "machine.run" in names
        assert "machine.phase" in names
        assert "machine.component.cache" in names
        assert "machine.component.coherence" in names
        assert "machine.component.interconnect" in names
        assert s.registry.counter("machine.runs") == 1.0
        assert s.registry.counter("machine.refs") > 0
        assert s.registry.histogram("machine.run_seconds").count == 1

    def test_identical_results_enabled_vs_disabled(self):
        disabled = self._run()
        with obs.session():
            enabled = self._run()
        assert disabled.counters.to_dict() == enabled.counters.to_dict()
        assert disabled.wall_cycles == enabled.wall_cycles

    def test_component_span_shares_sum_to_one(self):
        with obs.session() as s:
            self._run()
        shares = [
            r.attrs["share"]
            for r in s.tracer.records
            if r.name.startswith("machine.component.")
        ]
        assert len(shares) == 6
        assert abs(sum(shares) - 1.0) < 1e-3
