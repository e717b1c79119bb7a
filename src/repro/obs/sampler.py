"""Statistical line-level profiler with ambient-span attribution.

Scal-Tool's methodology leaned on SpeedShop PC sampling to attribute
cycles to routines; this module gives the reproduction the same power
over *itself*.  A :class:`Sampler` runs a watcher thread that wakes
every ``interval_s`` seconds, grabs the target thread's stack via
``sys._current_frames()``, and folds it into a :class:`SampleProfile`
keyed by ``(span path, frame stack)`` — so every sample is attributed
to the obs span that was open when it was taken (``profile/
campaign.run/engine.run/engine.execute/machine.run/machine.phase``),
and hot lines can be reported per engine phase / workload segment, not
just globally.

Everything is stdlib-only.  The design choices:

* **Watcher thread, not SIGPROF.**  A signal-based sampler can only
  profile the main thread and fights with the service's threaded HTTP
  server; ``sys._current_frames()`` sees every thread and needs no
  signal handler.  The watcher sleeps on an :class:`threading.Event`
  so ``stop()`` is prompt.
* **Folded stacks as the storage format.**  The raw aggregation is the
  collapsed-stack ("folded") flamegraph format — ``span;frame;frame
  count`` — from which per-line self time, per-function cumulative
  time, and per-span totals are all derived deterministically.
* **Span attribution from the open spans.**  Each tick files a
  thread's stack under the path of the span open in *that* thread
  (:func:`repro.obs.trace.open_span_path`, derived from the parent
  edges); a thread with no open span lands under the empty span
  (rendered as ``process``).
* **Self-accounting overhead.**  Every tick measures its own cost;
  :meth:`SampleProfile.overhead_ratio` is the profiled/unprofiled wall
  time estimate that the ``scaltool_profile_overhead_ratio`` gauge and
  the ``bench_profiler_overhead`` budget gate report.
* **GIL-bias mitigation.**  ``sys._current_frames()`` needs the GIL, so
  a pending tick is granted it at whatever point the target thread next
  releases — and C extensions that drop the GIL (NumPy reductions, I/O)
  act as sample magnets: a ~7 µs ``ndarray.min()`` validation call once
  absorbed 48%% of samples while cProfile put it at 0.7%% of wall time.
  Two countermeasures bound the bias: while sampling, the interpreter's
  switch interval is shrunk (to ~``interval_s / 5``) so the watcher is
  force-handed the GIL at a *time-fair* bytecode boundary before most
  release-point magnets can catch it; and each tick's wait is jittered
  around ``interval_s`` (deterministic cycle, mean 1.0) so the sampler
  cannot phase-lock with the interpreter's own 5 ms scheduling quantum.

Disabled mode follows the rest of :mod:`repro.obs`: module-level no-op
singletons (:data:`NOOP_SAMPLER`), no threads, no allocation — engine
code checks :func:`active_sampler` (one global read) and does nothing
when no sampler is live.

Optional memory peaks: ``Sampler(memory=True)`` wraps the window in
``tracemalloc`` and records the peak traced size plus the top
allocating lines.  This is opt-in because tracemalloc's own overhead
(2-4x on allocation-heavy code) would blow the 10% sampling budget.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .logs import get_logger
from .trace import open_span_path

__all__ = [
    "SampleProfile",
    "Sampler",
    "NoopSampler",
    "NOOP_SAMPLER",
    "active_sampler",
    "sampler",
    "DEFAULT_INTERVAL_S",
]

_log = get_logger("obs.sampler")

#: Default wake interval: 5 ms ≈ 200 Hz, comfortably under the 10%%
#: overhead budget (one ``sys._current_frames`` walk costs ~10 µs).
DEFAULT_INTERVAL_S = 0.005

#: Leaf-most frames kept per sample; deeper stacks are truncated at the
#: root end so the hot leaf is always preserved.
STACK_DEPTH_LIMIT = 64

#: Root label for samples taken outside any obs span.
ROOT_SPAN = "process"

_FOLD_SEP = ";"

#: Per-tick wait multipliers (mean exactly 1.0).  A fixed-period sampler
#: phase-locks with CPython's 5 ms GIL switch quantum and with any
#: periodic behaviour in the workload; cycling these breaks the lock
#: without needing randomness (ticks stay reproducible in tests).
_TICK_JITTER = (1.0, 0.55, 1.45, 0.8, 1.2, 0.65, 1.35)

# The interpreter switch interval is process-global, and samplers can
# stack (engine parent + service request); refcount so the first start
# shrinks it and only the last stop restores the original.
_switch_lock = threading.Lock()
_switch_depth = 0
_switch_saved = 0.005


def _shrink_switch_interval(target_s: float) -> None:
    global _switch_depth, _switch_saved
    with _switch_lock:
        if _switch_depth == 0:
            _switch_saved = sys.getswitchinterval()
            sys.setswitchinterval(min(_switch_saved, target_s))
        _switch_depth += 1


def _restore_switch_interval() -> None:
    global _switch_depth
    with _switch_lock:
        if _switch_depth > 0:
            _switch_depth -= 1
            if _switch_depth == 0:
                sys.setswitchinterval(_switch_saved)


def _shorten(filename: str) -> str:
    """Stable, machine-independent display path for a code filename.

    Project files are cut at the last ``repro/`` package root (so the
    same frame folds identically in the parent, a pool worker, and a
    service shard regardless of checkout location); everything else
    keeps its last two path components.
    """
    norm = filename.replace("\\", "/")
    idx = norm.rfind("/repro/")
    if idx >= 0:
        return norm[idx + 1 :]
    if norm.startswith("repro/"):
        return norm
    parts = norm.rsplit("/", 2)
    return "/".join(parts[-2:]) if len(parts) > 1 else norm


def frame_label(filename: str, func: str, lineno: int | None) -> str:
    """The canonical ``file:func:line`` frame string used in folded stacks.

    ``lineno`` may be None: a frame walked from another thread can be
    caught mid-construction before it has a line number.
    """
    return f"{_shorten(filename)}:{func}:{int(lineno or 0)}"


def split_frame(label: str) -> tuple[str, str, int]:
    """Inverse of :func:`frame_label` (line defaults to 0 if malformed)."""
    file, _, rest = label.rpartition(":")
    file2, _, func = file.rpartition(":")
    try:
        return file2, func, int(rest)
    except ValueError:
        return file, rest, 0


@dataclass
class SampleProfile:
    """An aggregated sampling profile: folded stacks plus derived tables.

    The only primary data is ``counts`` — ``(span path, frame stack)``
    mapped to the number of samples observed there.  Line, function and
    span tables are recomputed from it on demand, which is what makes
    :meth:`merge` trivially correct and :meth:`to_dict` deterministic.
    """

    interval_s: float = DEFAULT_INTERVAL_S
    n_samples: int = 0
    duration_s: float = 0.0
    overhead_s: float = 0.0
    counts: dict = field(default_factory=dict)  # (span, frames tuple) -> int
    memory: dict | None = None

    # -- recording ---------------------------------------------------------------

    def note(self, span_path: str, frames: tuple, count: int = 1) -> None:
        """Fold one observed stack (root -> leaf frame labels) into the profile."""
        key = (span_path, tuple(frames))
        self.counts[key] = self.counts.get(key, 0) + count
        self.n_samples += count

    def merge(self, other: "SampleProfile", span_prefix: str = "") -> "SampleProfile":
        """Absorb another profile (a worker spool or a sibling shard).

        ``span_prefix`` re-parents the other profile's span paths under
        this process's currently open span — the sampler analogue of
        :func:`repro.obs.trace.retarget` — so a worker's
        ``engine.execute/...`` samples merge to the exact span path a
        serial execution would have recorded.
        """
        for (span, frames), count in other.counts.items():
            if span_prefix:
                span = f"{span_prefix}/{span}" if span else span_prefix
            key = (span, frames)
            self.counts[key] = self.counts.get(key, 0) + count
        self.n_samples += other.n_samples
        self.duration_s += other.duration_s
        self.overhead_s += other.overhead_s
        if other.memory:
            if not self.memory:
                self.memory = {"peak_bytes": 0, "top": []}
            self.memory = {
                "peak_bytes": max(self.memory.get("peak_bytes", 0), other.memory.get("peak_bytes", 0)),
                "top": sorted(
                    (self.memory.get("top") or []) + (other.memory.get("top") or []),
                    key=lambda t: (-t["size_bytes"], t["file"], t["line"]),
                )[:10],
            }
        return self

    # -- derived views (all deterministic) ---------------------------------------

    def overhead_ratio(self) -> float:
        """Estimated profiled/unprofiled wall-time ratio (>= 1.0)."""
        useful = self.duration_s - self.overhead_s
        if useful <= 0.0:
            return 1.0
        return self.duration_s / useful

    def span_table(self) -> list:
        """``[{span, samples, seconds}]``, heaviest first (ties: span path)."""
        per_span: dict = {}
        for (span, _frames), count in self.counts.items():
            name = span or ROOT_SPAN
            per_span[name] = per_span.get(name, 0) + count
        return [
            {"span": span, "samples": n, "seconds": n * self.interval_s}
            for span, n in sorted(per_span.items(), key=lambda kv: (-kv[1], kv[0]))
        ]

    def line_table(self) -> list:
        """Per-line profile: self samples (leaf) + per-span attribution.

        Sorted by self samples descending; ties break name-then-path
        (function name, then file, then line) so equal-weight lines
        order identically across runs and processes.
        """
        rows: dict = {}
        for (span, frames), count in self.counts.items():
            if not frames:
                continue
            file, func, line = split_frame(frames[-1])
            row = rows.get((file, func, line))
            if row is None:
                row = rows[(file, func, line)] = {
                    "file": file,
                    "func": func,
                    "line": line,
                    "self": 0,
                    "spans": {},
                }
            row["self"] += count
            span_name = span or ROOT_SPAN
            row["spans"][span_name] = row["spans"].get(span_name, 0) + count
        out = []
        for row in rows.values():
            row["self_seconds"] = row["self"] * self.interval_s
            row["spans"] = dict(sorted(row["spans"].items(), key=lambda kv: (-kv[1], kv[0])))
            out.append(row)
        out.sort(key=lambda r: (-r["self"], r["func"], r["file"], r["line"]))
        return out

    def function_table(self) -> list:
        """Per-function self + cumulative samples (name-then-path ties)."""
        rows: dict = {}
        for (_span, frames), count in self.counts.items():
            if not frames:
                continue
            seen = set()
            for label in frames:
                file, func, _line = split_frame(label)
                seen.add((file, func))
            for file, func in seen:
                row = rows.get((file, func))
                if row is None:
                    row = rows[(file, func)] = {"file": file, "func": func, "self": 0, "cumulative": 0}
                row["cumulative"] += count
            file, func, _line = split_frame(frames[-1])
            rows[(file, func)]["self"] += count
        out = []
        for row in rows.values():
            row["self_seconds"] = row["self"] * self.interval_s
            row["cumulative_seconds"] = row["cumulative"] * self.interval_s
            out.append(row)
        out.sort(key=lambda r: (-r["self"], -r["cumulative"], r["func"], r["file"]))
        return out

    def folded(self) -> list:
        """Collapsed-stack flamegraph lines: ``span;frame;frame count``.

        Feed straight to ``flamegraph.pl`` / speedscope / inferno.  The
        span path leads the stack so the flamegraph's first levels are
        the engine phases.  Lexicographically sorted — byte-stable for
        a given set of counts.
        """
        lines = []
        for (span, frames), count in self.counts.items():
            head = (span or ROOT_SPAN).replace(_FOLD_SEP, ",")
            stack = _FOLD_SEP.join((head,) + tuple(frames))
            lines.append(f"{stack} {count}")
        lines.sort()
        return lines

    def frame_set(self) -> set:
        """All ``(file, func)`` pairs observed anywhere — the structural
        fingerprint the serial ≡ parallel property test compares."""
        out = set()
        for (_span, frames), _count in self.counts.items():
            for label in frames:
                file, func, _line = split_frame(label)
                out.add((file, func))
        return out

    # -- serialisation -----------------------------------------------------------

    def to_dict(self) -> dict:
        """Deterministic JSON-able form (sorted folded entries + tables)."""
        folded = [
            {"span": span, "stack": list(frames), "count": count}
            for (span, frames), count in sorted(
                self.counts.items(), key=lambda kv: (kv[0][0], kv[0][1])
            )
        ]
        return {
            "interval_s": self.interval_s,
            "n_samples": self.n_samples,
            "duration_s": self.duration_s,
            "overhead_s": self.overhead_s,
            "overhead_ratio": self.overhead_ratio(),
            "folded": folded,
            "spans": self.span_table(),
            "functions": self.function_table(),
            "lines": self.line_table(),
            "memory": self.memory,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SampleProfile":
        """Rebuild from :meth:`to_dict` output (tables are re-derived)."""
        profile = cls(
            interval_s=float(data.get("interval_s", DEFAULT_INTERVAL_S)),
            duration_s=float(data.get("duration_s", 0.0)),
            overhead_s=float(data.get("overhead_s", 0.0)),
            memory=data.get("memory"),
        )
        for entry in data.get("folded", ()):
            profile.note(entry.get("span", ""), tuple(entry.get("stack", ())), int(entry["count"]))
        return profile


class Sampler:
    """The live profiler: a watcher thread folding stacks into a profile.

    Usage::

        s = Sampler(interval_s=0.005)
        s.start()          # samples the *calling* thread from here on
        ... hot work ...
        profile = s.stop()

    ``all_threads=True`` samples every thread in the process except the
    watcher itself (the service's ``/v1/profile`` endpoint uses this —
    the handler thread is just sleeping, the interesting work is on the
    executor threads).  While started, the sampler is registered as the
    process-wide :func:`active_sampler`, which is how the engine knows
    to have pool workers sample themselves.
    """

    def __init__(
        self,
        interval_s: float = DEFAULT_INTERVAL_S,
        clock: Callable[[], float] = time.perf_counter,
        memory: bool = False,
        all_threads: bool = False,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        self.interval_s = interval_s
        self.profile = SampleProfile(interval_s=interval_s)
        self._clock = clock
        self._memory = memory
        self._all_threads = all_threads
        self._stop_event = threading.Event()
        self._pause_event = threading.Event()
        self._stopping = False
        self._watcher: threading.Thread | None = None
        self._target_ident: int | None = None
        self._segment_t0 = 0.0
        self._started_tracemalloc = False
        self._previous: "Sampler | None" = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "Sampler":
        """Begin sampling the calling thread; register process-wide."""
        global _active
        if self._watcher is not None:
            return self
        self._target_ident = threading.get_ident()
        if self._memory:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracemalloc = True
        self._segment_t0 = self._clock()
        self._stopping = False
        self._stop_event.clear()
        self._watcher = threading.Thread(
            target=self._watch, name="scaltool-sampler", daemon=True
        )
        # Bound the watcher's GIL wait to a small fraction of the tick
        # period, or GIL-releasing C calls dominate where samples land
        # (see module docstring); restored by the matching stop().  The
        # cost is one extra forced handoff per tick, not per bytecode,
        # so a tight bound is near-free.
        _shrink_switch_interval(max(5e-5, self.interval_s / 50.0))
        self._previous = _active
        _active = self
        self._watcher.start()
        return self

    def stop(self) -> SampleProfile:
        """Stop the watcher, unregister, and return the finished profile."""
        global _active
        if self._watcher is None:
            return self.profile
        # Flag first: an in-flight tick re-checks it before recording, so
        # the caller blocked in join() below is never captured as a
        # phantom hot frame (it shows up once per run otherwise).
        self._stopping = True
        self._stop_event.set()
        self._watcher.join(timeout=5.0)
        self._watcher = None
        _restore_switch_interval()
        if not self._pause_event.is_set():
            self.profile.duration_s += self._clock() - self._segment_t0
        if _active is self:
            _active = self._previous
        self._previous = None
        if self._memory:
            self._collect_memory()
        return self.profile

    def pause(self) -> None:
        """Suspend sampling (the engine pauses the parent while a parallel
        batch runs — workers sample themselves and spool it back)."""
        if not self._pause_event.is_set():
            self._pause_event.set()
            self.profile.duration_s += self._clock() - self._segment_t0

    def resume(self) -> None:
        if self._pause_event.is_set():
            self._segment_t0 = self._clock()
            self._pause_event.clear()

    # -- sampling ----------------------------------------------------------------

    def sample_once(self) -> None:
        """Take exactly one sample now (the watcher's tick; callable from
        tests for deterministic coverage)."""
        t0 = self._clock()
        try:
            frames = sys._current_frames()
            watcher_ident = (
                self._watcher.ident if self._watcher is not None else None
            )
            if self._all_threads:
                targets = [
                    (ident, frame)
                    for ident, frame in sorted(frames.items())
                    if ident != watcher_ident and ident != threading.get_ident()
                ]
            else:
                frame = frames.get(self._target_ident)
                targets = [(self._target_ident, frame)] if frame is not None else []
            for ident, frame in targets:
                stack = self._extract(frame)
                # Re-check the flags at note time: a tick that raced a
                # concurrent stop()/pause() drops its sample instead of
                # recording the stopping code path itself.
                if stack and not self._stopping and not self._pause_event.is_set():
                    self.profile.note(open_span_path(ident), stack)
        finally:
            self.profile.overhead_s += self._clock() - t0

    def _watch(self) -> None:
        tick = 0
        while not self._stop_event.wait(
            self.interval_s * _TICK_JITTER[tick % len(_TICK_JITTER)]
        ):
            tick += 1
            if self._pause_event.is_set():
                continue
            try:
                self.sample_once()
            except Exception:  # pragma: no cover - defensive
                # One bad tick (a frame torn down mid-walk) must not kill
                # the watcher and silently truncate the profile window.
                _log.warning("sampler tick failed", exc_info=True)

    def _extract(self, frame) -> tuple:
        """Frame labels root -> leaf, sampler internals excluded."""
        labels = []
        own = __file__
        while frame is not None and len(labels) < STACK_DEPTH_LIMIT:
            code = frame.f_code
            if code.co_filename != own:
                labels.append(
                    frame_label(
                        code.co_filename,
                        code.co_name,
                        frame.f_lineno or code.co_firstlineno,
                    )
                )
            frame = frame.f_back
        labels.reverse()
        return tuple(labels)

    def _collect_memory(self) -> None:
        import tracemalloc

        if not tracemalloc.is_tracing():
            return
        _current, peak = tracemalloc.get_traced_memory()
        top = []
        for stat in tracemalloc.take_snapshot().statistics("lineno")[:10]:
            fr = stat.traceback[0]
            top.append(
                {
                    "file": _shorten(fr.filename),
                    "line": fr.lineno,
                    "size_bytes": stat.size,
                }
            )
        top.sort(key=lambda t: (-t["size_bytes"], t["file"], t["line"]))
        self.profile.memory = {"peak_bytes": peak, "top": top}
        if self._started_tracemalloc:
            tracemalloc.stop()
            self._started_tracemalloc = False


class NoopSampler:
    """The disabled sampler: every method is a no-op; a shared singleton."""

    __slots__ = ()

    interval_s = DEFAULT_INTERVAL_S
    profile = None

    def start(self) -> "NoopSampler":
        return self

    def stop(self) -> None:
        return None

    def pause(self) -> None:
        return None

    def resume(self) -> None:
        return None

    def sample_once(self) -> None:
        return None


NOOP_SAMPLER = NoopSampler()

_active: Sampler | None = None


def active_sampler() -> Sampler | None:
    """The currently started sampler, or None (one global read)."""
    return _active


def sampler():
    """The active sampler or the no-op singleton (mirrors ``obs.tracer()``)."""
    s = _active
    return s if s is not None else NOOP_SAMPLER
