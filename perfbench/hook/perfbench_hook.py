"""Per-layer timing wrappers for one traced program process.

:func:`install` registers an import hook that wraps each layer's public
entry points the moment their module is first imported, so a traced
process imports exactly what an untraced one does.  Nothing under
``src/`` changes.

A layer's *self time* is the time inside its entry points minus the time
inside nested wrapped calls (its children).  The wrappers' own
bookkeeping, and the wrapping of each module as it loads, are kept out
of every layer and summed as ``overhead_s``; only the Python call into
each wrapper, one frame per wrapped call, escapes the count.  On exit
the process writes its tallies to ``<trace dir>/<pid>-<ns>.json`` for
the benchmark to add up.
"""

from __future__ import annotations

import atexit
import functools
import importlib.machinery
import json
import os
import sys
import threading
import time

_clock = time.perf_counter
_local = threading.local()
_lock = threading.Lock()
_self_s: dict[str, float] = {}
_counts: dict[str, float] = {}
_overhead = [0.0]
_started = [0.0]


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _count(name: str, value: float = 1) -> None:
    _counts[name] = _counts.get(name, 0) + value


def _timed_call(layer: str, fn, *args, **kwargs):
    """Call ``fn`` with its self time booked to ``layer``.

    Returns the result and the self time.  The time spent booking it is
    added to the caller's children and to ``overhead_s``.
    """
    t_in = _clock()
    stack = _stack()
    frame = [layer, 0.0]
    stack.append(frame)
    t0 = _clock()
    try:
        result = fn(*args, **kwargs)
    finally:
        t1 = _clock()
        stack.pop()
        self_s = (t1 - t0) - frame[1]
        with _lock:
            _self_s[layer] = _self_s.get(layer, 0.0) + self_s
        t_out = _clock()
        if stack:
            stack[-1][1] += t_out - t_in
        with _lock:
            _overhead[0] += (t_out - t_in) - (t1 - t0)
    return result, self_s


def _overhead_since(t0: float) -> None:
    """Book the time since ``t0`` as bookkeeping, outside every layer."""
    spent = _clock() - t0
    stack = _stack()
    if stack:
        stack[-1][1] += spent
    with _lock:
        _overhead[0] += spent


def timed(layer: str, fn, on_result=None):
    """``fn`` wrapped so that its self time is booked to ``layer``.

    ``on_result(result)`` runs after the call for the outermost call of
    the layer only (a subclass calling ``super()`` is one call).
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _stack()
        outermost = not stack or stack[-1][0] != layer
        result, _ = _timed_call(layer, fn, *args, **kwargs)
        if on_result is not None and outermost:
            with _lock:
                on_result(result)
        return result

    return wrapper


class _TimedWorkload:
    """A workload whose phase generation is timed as ``workloads.trace``.

    Every other attribute is the wrapped workload's own.  Counting the
    references of each phase is bookkeeping, outside both layers.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self.refs = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def build(self, machine, size_bytes):
        phases, _ = _timed_call("workloads.trace", self._inner.build, machine, size_bytes)
        return self._iterate(iter(phases))

    def _iterate(self, it):
        while True:
            try:
                phase, _ = _timed_call("workloads.trace", next, it)
            except StopIteration:
                return
            t0 = _clock()
            self.refs += sum(seg.n_refs for seg in phase.segments if seg is not None)
            _overhead_since(t0)
            yield phase


def _wrap_machine_run(run):
    """``DsmMachine.run``: the simulator, less the phase generation it drives."""

    @functools.wraps(run)
    def wrapper(self, workload, size_bytes, *args, **kwargs):
        proxy = _TimedWorkload(workload)
        result, self_s = _timed_call("machine.sim", run, self, proxy, size_bytes, *args, **kwargs)
        kind = "uni" if self.cfg.n_processors == 1 else "mp"
        with _lock:
            _count("machine.runs")
            _count("machine.refs", proxy.refs)
            if proxy.refs:
                _count(f"machine.refs.{kind}", proxy.refs)
                _count(f"machine.sim_s.{kind}", self_s)
        return result

    return wrapper


def _count_cache_outcome(record) -> None:
    _count("runner.cache_hits" if record is not None else "runner.cache_misses")


#: module -> [(attribute path, layer or wrapper factory, on_result)]
PATCHES = {
    "repro.machine.system": [("DsmMachine.run", _wrap_machine_run, None)],
    "repro.runner.records": [("save_records", "runner.manifest", None)],
    "repro.runner.engine": [
        ("RunSpec.compile", "runner.plan", None),
        ("RunSpec.key", "runner.plan", None),
        ("RunCache.get", "runner.cache_read", _count_cache_outcome),
        ("RunCache.put", "runner.cache_write", None),
    ],
    "repro.runner.campaign": [("ScalToolCampaign.compile_plan", "runner.plan", None)],
    "repro.service.shared": [
        ("IndexedRunCache.get", "runner.cache_read", _count_cache_outcome),
        ("IndexedRunCache.put", "runner.cache_write", None),
    ],
    "repro.core.scaltool": [
        ("ScalTool.analyze", "core.analyze", None),
        ("ScalToolAnalysis.report", "viz.render", None),
    ],
    "repro.core.whatif": [
        ("WhatIf.scale_parameters", "core.whatif", None),
        ("WhatIf.scale_l2", "core.whatif", None),
        ("WhatIf.new_sync_primitive", "core.whatif", None),
    ],
    "repro.core.prediction": [("ScalabilityPredictor.rows", "core.predict", None)],
    "repro.core.validation": [("validate_mp", "core.validate", None)],
    "repro.analysis.blame.report": [("blame_campaign", "analysis.blame", None)],
    "repro.models.report": [("run_action", "models.action", None)],
    "repro.viz.tables": [("format_table", "viz.render", None)],
    "repro.viz.blame_view": [("render_blame", "viz.render", None)],
}


def _apply(module) -> None:
    for path, layer, on_result in PATCHES.get(module.__name__, ()):
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = owner.__dict__[attr] if owner_name else getattr(module, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        wrapped = layer(fn) if callable(layer) else timed(layer, fn, on_result)
        setattr(owner, attr, kind(wrapped) if kind is not None else wrapped)


class _PostImportHook:
    """Meta-path finder that patches a target module right after it executes."""

    def find_spec(self, name, path=None, target=None):
        if name not in PATCHES:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None or not hasattr(spec.loader, "exec_module"):
            return spec
        original = spec.loader.exec_module

        def exec_module(module):
            original(module)
            t0 = _clock()
            _apply(module)
            _overhead_since(t0)

        spec.loader.exec_module = exec_module
        return spec


def _dump(directory: str) -> None:
    with _lock:
        doc = {
            "pid": os.getpid(),
            "argv": sys.argv,
            "wall_s": _clock() - _started[0],
            "self_s": dict(_self_s),
            "counts": dict(_counts),
            "overhead_s": _overhead[0],
        }
    path = os.path.join(directory, f"{os.getpid()}-{time.time_ns()}.json")
    with open(path + ".tmp", "w") as handle:
        json.dump(doc, handle)
    os.replace(path + ".tmp", path)


def install(directory: str) -> None:
    """Wrap the layers of every target module imported from now on."""
    _started[0] = _clock()
    sys.meta_path.insert(0, _PostImportHook())
    atexit.register(_dump, directory)
