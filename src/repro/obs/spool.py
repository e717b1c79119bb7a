"""Worker-process observability spools: capture there, merge here.

A ``ProcessPoolExecutor`` worker cannot write into the parent's
observability session — so without help, ``scaltool profile --jobs N``
and ``--metrics-out`` only ever see main-process activity.  The engine
closes that gap with *spool files*: when the parent has an obs session
live, each worker run executes under a private session whose spans and
metrics are serialised to one JSONL file per run; after the batch, the
parent merges the spools back **in plan order**, re-parenting each
worker's root spans under the span open at merge time
(:func:`~repro.obs.trace.retarget`), so the merged session is
structurally identical to what a serial execution would have recorded
(same span paths, parenting, and start-order; only the timing values
differ).  Spans carry wall-clock starts, so worker spans need no
re-anchoring onto the parent's time axis.

Spool files exist only while a parallel batch runs under an obs
session, live in a private temp directory, and are deleted after the
merge.  When no obs session is active no spool directory is ever
created — disabled mode stays file-free.

Format: JSON lines — one ``meta`` object (pid, spec key), then the
worker session's spans in recording order, then one ``metrics`` object
holding the registry's raw dump, then (when the worker sampled itself)
one ``sampler`` object holding the folded-stack
:class:`~repro.obs.sampler.SampleProfile`.  Sampler profiles merge the
same way spans do: the worker's span paths are prefixed with the path
of the span open in the parent at merge time, so a worker's
``engine.execute/machine.run/...`` samples land on the exact span path
a serial execution would have attributed them to.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
from pathlib import Path

from .logs import get_logger, kv
from .metrics import MetricsRegistry
from .runtime import ObsSession
from .sampler import SampleProfile
from .trace import TraceBuffer, TraceContext, TraceSpan, current, open_span_path, retarget

__all__ = ["SpoolDir", "write_spool", "read_spool", "merge_spool"]

_log = get_logger("obs.spool")


class SpoolDir:
    """A private temp directory of per-run spool files, always cleaned up."""

    def __init__(self) -> None:
        self.root = Path(tempfile.mkdtemp(prefix="scaltool-spool-"))

    def path(self, index: int) -> Path:
        return self.root / f"{index:06d}.jsonl"

    def cleanup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def write_spool(
    path: str | Path,
    session: ObsSession,
    meta: dict | None = None,
    sampler: SampleProfile | None = None,
) -> Path:
    """Serialise a worker session to ``path`` (meta, spans, metrics dump,
    and optionally the worker's folded-stack sampling profile)."""
    path = Path(path)
    lines = [json.dumps({"kind": "meta", "pid": os.getpid(), **(meta or {})}, sort_keys=True)]
    for span in session.tracer.records:
        lines.append(json.dumps({"kind": "span", **span.to_dict()}, sort_keys=True))
    lines.append(
        json.dumps({"kind": "metrics", **session.registry.dump()}, sort_keys=True)
    )
    if sampler is not None:
        lines.append(
            json.dumps({"kind": "sampler", "profile": sampler.to_dict()}, sort_keys=True)
        )
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text("\n".join(lines) + "\n")
    os.replace(tmp, path)
    return path


def read_spool(
    path: str | Path,
) -> tuple[dict, list[TraceSpan], dict, SampleProfile | None]:
    """``(meta, spans in recording order, metrics dump, sampler profile or
    None)`` from one spool file."""
    meta: dict = {}
    spans: list[TraceSpan] = []
    metrics: dict = {}
    sampler: SampleProfile | None = None
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        kind = obj.get("kind")
        if kind == "meta":
            meta = obj
        elif kind == "sampler":
            sampler = SampleProfile.from_dict(obj.get("profile", {}))
        elif kind == "span":
            spans.append(TraceSpan.from_dict(obj))
        elif kind == "metrics":
            metrics = {k: v for k, v in obj.items() if k != "kind"}
    return meta, spans, metrics, sampler


def merge_spool(
    path: str | Path,
    tracer: TraceBuffer,
    registry: MetricsRegistry,
    profile: SampleProfile | None = None,
) -> bool:
    """Merge one worker spool into the parent session; False if unreadable.

    The worker's root spans are re-parented under the currently open
    span (the engine keeps ``engine.run`` open while merging, exactly
    where a serial execution would have nested them).  With a
    ``profile``, a spooled worker sampling profile merges into it under
    the same open span's path.  A missing or corrupt spool is never
    fatal — the run record itself already made it back in-band.
    """
    try:
        _meta, spans, metrics, worker_profile = read_spool(path)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        _log.warning("worker spool unreadable, dropping %s", kv(path=path, reason=exc))
        return False
    parent = current() or TraceContext(trace_id=tracer.trace_id, span_id="")
    tracer.extend(retarget(spans, parent.trace_id, parent.span_id))
    registry.merge_dump(metrics)
    if profile is not None and worker_profile is not None:
        profile.merge(worker_profile, span_prefix=open_span_path(threading.get_ident()))
    return True
