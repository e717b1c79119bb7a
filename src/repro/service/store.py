"""The persistent job store: one atomic JSON file per job.

Jobs live under ``<cache root>/service/jobs/<job id>.json`` and are
rewritten (write-then-rename, the same idiom as
:class:`~repro.runner.engine.RunCache`) on every state transition, so

* a restarted service recovers exactly the jobs that were queued or
  running when it died (interrupted jobs are re-queued, finished jobs
  keep serving ``status`` / ``result`` idempotently), and
* the store can neither lose nor duplicate an entry: the job id *is*
  the file name, and a job id is a content address over the canonical
  request (:func:`~repro.service.requests.request_fingerprint`).

A corrupt job file is never fatal: it is logged, counted
(``service.store.corrupt``), and skipped.  The count goes to the
store's ``tally``: a service passes its own, so the event shows on its
``/metrics`` and ``/v1/stats``; a bare store (the CLI's) counts into the
obs session.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterator

from ..errors import ServiceError
from ..obs import runtime as obs
from ..obs.logs import get_logger, kv

__all__ = ["Job", "JobStore", "JOB_STATES", "ACTIVE_STATES", "TERMINAL_STATES"]

_log = get_logger("service.store")

#: Job lifecycle: queued -> running -> done | failed.
JOB_STATES = ("queued", "running", "done", "failed")
ACTIVE_STATES = ("queued", "running")
TERMINAL_STATES = ("done", "failed")


@dataclass
class Job:
    """One submitted request and everything that happened to it."""

    id: str
    kind: str
    payload: dict  # canonical payload (defaults resolved)
    priority: int = 5
    state: str = "queued"
    created: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    attempts: int = 0
    error: str | None = None
    result: dict | None = None  # RequestResult.to_dict() once done
    trace_id: str | None = None  # distributed trace this job belongs to
    trace_span: str | None = None  # span id of the service.job span
    trace_parent: str | None = None  # caller's span id (from traceparent)

    def summary(self) -> dict:
        """The status view: everything but the (possibly large) result."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "result"}
        out["has_result"] = self.result is not None
        return out

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Job":
        try:
            data = json.loads(text)
            if data["state"] not in JOB_STATES:
                raise ValueError(f"unknown state {data['state']!r}")
            return cls(**data)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"bad job record: {exc}") from exc


class JobStore:
    """Directory-backed job persistence with atomic per-job writes."""

    def __init__(
        self, root: str | Path, tally: Callable[[str, float], None] = obs.inc
    ) -> None:
        self.root = Path(root)
        self._tally = tally

    def path(self, job_id: str) -> Path:
        return self.root / f"{job_id}.json"

    def put(self, job: Job) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(job.id)
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
        tmp.write_text(job.to_json() + "\n")
        os.replace(tmp, path)
        return path

    def get(self, job_id: str) -> Job | None:
        """The stored job, or None (missing *or* unreadable)."""
        try:
            text = self.path(job_id).read_text()
        except FileNotFoundError:
            return None
        except OSError as exc:
            self._note_corrupt(job_id, exc)
            return None
        try:
            return Job.from_json(text)
        except ServiceError as exc:
            self._note_corrupt(job_id, exc)
            return None

    def scan(self, predicate=None) -> Iterator[Job]:
        """Every readable job, one at a time in id order (corrupt entries
        are skipped).

        ``predicate`` filters by job *id* before the file is read — the
        multi-worker service passes its shard-ownership test so each
        worker recovers only the jobs the ring routes to it, even though
        all workers share one store directory.
        """
        if self.root.is_dir():
            for path in sorted(self.root.glob("j*.json")):
                if predicate is not None and not predicate(path.stem):
                    continue
                job = self.get(path.stem)
                if job is not None:
                    yield job

    def load_all(self, predicate=None) -> list[Job]:
        """Every readable job (see :meth:`scan`), oldest first."""
        return sorted(self.scan(predicate), key=lambda j: j.created)

    def _note_corrupt(self, job_id: str, exc: Exception) -> None:
        self._tally("service.store.corrupt", 1)
        _log.warning("job store entry unreadable %s", kv(job=job_id, reason=exc))

    # -- health -------------------------------------------------------------------

    def check_writable(self) -> str | None:
        """None when the store can take writes, else the failure reason.

        Creates the backing directory (and probes an actual write) so a
        service can detect a mis-mounted or read-only cache root at
        startup and degrade to 503s instead of crashing on first submit.
        """
        probe = self.root / f".writable.{os.getpid()}"
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            probe.write_text("ok")
            probe.unlink()
        except OSError as exc:
            return f"{type(exc).__name__}: {exc}"
        return None

    # -- per-job trace timelines --------------------------------------------------
    #
    # Timelines live in a subdirectory (not next to the j*.json job files,
    # which scan() globs) and hold the job's distributed span tree as
    # recorded at finish time.

    def timeline_path(self, job_id: str) -> Path:
        return self.root / "traces" / f"{job_id}.json"

    def put_timeline(self, job_id: str, spans: list[dict]) -> Path:
        path = self.timeline_path(job_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
        tmp.write_text(json.dumps({"job": job_id, "spans": spans}, sort_keys=True) + "\n")
        os.replace(tmp, path)
        return path

    def get_timeline(self, job_id: str) -> list[dict] | None:
        """The persisted span dicts, or None (missing *or* unreadable)."""
        try:
            data = json.loads(self.timeline_path(job_id).read_text())
            spans = data["spans"]
            if not isinstance(spans, list):
                raise ValueError("spans is not a list")
            return spans
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            self._note_corrupt(f"{job_id} (timeline)", exc)
            return None
