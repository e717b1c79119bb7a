"""Export an observability session: JSONL manifest + text summary.

The JSONL manifest is the machine-readable artifact (``scaltool
--metrics-out PATH``): one JSON object per line, each tagged with a
``kind`` (``meta`` / ``span`` / ``counter`` / ``gauge`` / ``histogram``).
Export is deterministic given the observed data: spans appear in start
order, metrics sort by name, and every object serialises with sorted
keys — wall-clock readings live only in ``start_s`` / ``duration_s`` /
``*_seconds`` *values*, never in names, keys, or ordering.  A span
row's ``path``, ``depth`` and ``seq`` are derived here from the parent
edges the session recorded (:func:`span_rows`).

The text summary (:func:`format_profile`) follows the perfex report
idiom of this repository (dotted fill, right-aligned values,
self-describing ``# meta:`` comment) so profile output reads like the
counter reports the rest of the tooling produces.
"""

from __future__ import annotations

import json
from pathlib import Path

from .runtime import ObsSession
from .trace import TraceSpan

__all__ = [
    "span_rows",
    "manifest_records",
    "export_jsonl",
    "format_profile",
    "summarize_manifest",
    "TOP_SORTS",
]

_HEADER = "# scaltool profile report"
_META_PREFIX = "# meta: "


def span_rows(spans: list[TraceSpan], epoch: float = 0.0) -> list[dict]:
    """Spans as manifest rows in start order, placed by their parent edges.

    A span whose parent is not in the set is a root.  Rows come out
    depth first, parents before children, siblings in recording order —
    which, for spans nested in one thread, is the order they started in —
    so ``seq`` numbers start order and ``path`` joins the ancestors'
    names with ``/``.  A span id seen twice (a shared batch copied into
    each job's tree) is kept once.  ``start_s`` is measured from
    ``epoch``.
    """
    unique: dict[str, TraceSpan] = {}
    for span in spans:
        unique.setdefault(span.span_id, span)
    roots: list[TraceSpan] = []
    children: dict[str, list[TraceSpan]] = {}
    for span in unique.values():
        if span.parent_id in unique:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)
    rows: list[dict] = []
    stack = [(span, "", 0) for span in reversed(roots)]
    while stack:
        span, prefix, depth = stack.pop()
        path = prefix + span.name
        rows.append(
            {
                "kind": "span",
                "name": span.name,
                "path": path,
                "depth": depth,
                "seq": len(rows),
                "start_s": span.start - epoch,
                "duration_s": span.duration_s,
                "attrs": dict(sorted(span.attrs.items())),
            }
        )
        kids = children.get(span.span_id, ())
        stack.extend((kid, path + "/", depth + 1) for kid in reversed(kids))
    return rows


def manifest_records(session: ObsSession, meta: dict | None = None) -> list[dict]:
    """The session as a list of JSON-ready dicts (deterministic order)."""
    records: list[dict] = []
    if meta:
        records.append({"kind": "meta", **{k: meta[k] for k in sorted(meta)}})
    records.extend(span_rows(session.tracer.records, session.tracer.epoch))
    snap = session.registry.snapshot()
    for name, value in snap["counters"].items():
        records.append({"kind": "counter", "name": name, "value": value})
    for name, value in snap["gauges"].items():
        records.append({"kind": "gauge", "name": name, "value": value})
    for name, summary in snap["histograms"].items():
        records.append({"kind": "histogram", "name": name, **summary})
    return records


def export_jsonl(session: ObsSession, path: str | Path, meta: dict | None = None) -> Path:
    """Write the session manifest as JSON lines; returns the path."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for rec in manifest_records(session, meta=meta):
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")
    return path


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f} s "
    if seconds >= 1e-3:
        return f"{seconds * 1e3:8.3f} ms"
    return f"{seconds * 1e6:8.1f} us"


def format_profile(session: ObsSession, meta: dict | None = None) -> str:
    """Perfex-style text rendering of a profiling session."""
    lines = [_HEADER]
    if meta:
        lines.append(_META_PREFIX + json.dumps(meta, sort_keys=True))

    rows = span_rows(session.tracer.records)
    if rows:
        lines.append("")
        lines.append("Spans (start order):")
        for row in rows:
            label = "  " * row["depth"] + row["name"]
            attrs = " ".join(f"{k}={v}" for k, v in row["attrs"].items())
            line = f"  {label:.<52s} {_fmt_seconds(row['duration_s'])}"
            if attrs:
                line += f"  {attrs}"
            lines.append(line)

    snap = session.registry.snapshot()
    if snap["counters"]:
        lines.append("")
        lines.append("Counters:")
        for name, value in snap["counters"].items():
            shown = int(value) if float(value).is_integer() else value
            lines.append(f"  {name:.<52s} {shown:>14}")
    if snap["gauges"]:
        lines.append("")
        lines.append("Gauges:")
        for name, value in snap["gauges"].items():
            lines.append(f"  {name:.<52s} {value:>14.4f}")
    if snap["histograms"]:
        lines.append("")
        lines.append("Histograms:")
        for name, s in snap["histograms"].items():
            lines.append(
                f"  {name:.<52s} count={s['count']} mean={s['mean']:.4g} "
                f"p50={s['p50']:.4g} p90={s['p90']:.4g} p99={s['p99']:.4g} max={s['max']:.4g}"
            )
    lines.append("")
    return "\n".join(lines)


#: Valid ``scaltool obs top --sort`` orders.
TOP_SORTS = ("total", "self", "count")


def summarize_manifest(path: str | Path, limit: int = 10, sort: str = "total") -> str:
    """``scaltool obs top``: hottest span paths + metric summaries.

    Reads a JSONL manifest written by ``--metrics-out`` (or the bench
    artifact uploads), aggregates spans by path, and prints the ``limit``
    paths ranked by ``sort`` — ``total`` time (default), ``self`` time
    (total minus direct children, i.e. time spent in the span itself),
    or ``count``.  Ties break deterministically name-then-path (last
    path segment first, then the full path), so equal-duration spans
    order identically across runs.
    """
    if sort not in TOP_SORTS:
        raise ValueError(f"sort must be one of {TOP_SORTS}, got {sort!r}")
    groups: dict[str, list[float]] = {}
    histograms: list[dict] = []
    counters: list[tuple[str, float]] = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        kind = rec.get("kind")
        if kind == "span":
            groups.setdefault(rec["path"], []).append(float(rec.get("duration_s", 0.0)))
        elif kind == "histogram":
            histograms.append(rec)
        elif kind == "counter":
            counters.append((rec["name"], rec["value"]))

    lines = [f"# scaltool obs top — {path}"]
    if groups:
        totals = {p: sum(d) for p, d in groups.items()}
        selfs = dict(totals)
        for p, total in totals.items():
            parent = p.rsplit("/", 1)[0] if "/" in p else None
            if parent in selfs:
                selfs[parent] = max(0.0, selfs[parent] - total)
        values = {
            "total": totals,
            "self": selfs,
            "count": {p: float(len(d)) for p, d in groups.items()},
        }[sort]

        def rank_key(item):
            span_path, _durations = item
            name = span_path.rsplit("/", 1)[-1]
            return (-values[span_path], name, span_path)

        ranked = sorted(groups.items(), key=rank_key)[: max(1, limit)]
        lines.append("")
        lines.append(f"Slowest span paths (top {len(ranked)} by {sort}):")
        for span_path, durations in ranked:
            total = sum(durations)
            worst = max(durations)
            line = (
                f"  {span_path:.<52s} {_fmt_seconds(total)}  "
                f"count={len(durations)} max={worst:.4g}s"
            )
            if sort == "self":
                line += f" self={selfs[span_path]:.4g}s"
            lines.append(line)
    if histograms:
        lines.append("")
        lines.append("Histograms:")
        for s in histograms:
            lines.append(
                f"  {s['name']:.<52s} count={s['count']} mean={s['mean']:.4g} "
                f"p50={s['p50']:.4g} p90={s['p90']:.4g} p99={s['p99']:.4g} max={s['max']:.4g}"
            )
    if counters:
        lines.append("")
        lines.append("Counters:")
        for name, value in counters:
            shown = int(value) if float(value).is_integer() else value
            lines.append(f"  {name:.<52s} {shown:>14}")
    if not groups and not histograms and not counters:
        lines.append("(no spans or metrics in manifest)")
    lines.append("")
    return "\n".join(lines)
