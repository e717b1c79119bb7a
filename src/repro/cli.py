"""Command-line interface: ``scaltool``.

Subcommands mirror the paper's workflow:

* ``scaltool run`` — execute one workload run and print its perfex report;
* ``scaltool campaign`` — run the Table-3 campaign, writing one counter
  file per run into a directory;
* ``scaltool analyze`` — run Scal-Tool over a campaign directory (or run
  the campaign inline) and print the bottleneck report;
* ``scaltool validate`` — compare the MP estimate against the simulated
  speedshop measurement;
* ``scaltool whatif`` — machine-parameter experiments over a campaign;
* ``scaltool profile`` — run a campaign + analysis under the observability
  layer and print the span/metric profile report;
* ``scaltool plan`` — print the Table 1 / Table 3 resource accounting;
* ``scaltool list`` — available workloads;
* ``scaltool serve`` / ``submit`` / ``status`` / ``result`` — the analysis
  service (see :mod:`repro.service` and ``docs/service.md``): serve the
  HTTP JSON API, submit a request to it, and read a job back.

The request verbs ``analyze``, ``whatif``, ``predict``, ``sweep``,
``blame`` and ``models``, and ``scaltool submit KIND``, are generated
from the request kinds' field tables (:data:`repro.service.requests.
REQUEST_FIELDS`): a payload field's flag, default, parser and help are
declared there once.  The verbs execute through the same handlers the
service uses, so a service job's result is byte-identical to the direct
CLI output.  ``campaign``, ``validate``, ``segments``, ``sharing`` and
``balance`` get their campaign through the ``campaign`` request, so
every command resolves its runs through the same run cache.

Every subcommand accepts ``--verbose`` (per-run campaign progress and
debug logging on stderr) and ``--metrics-out PATH`` (write the session's
JSONL metrics manifest after the command finishes).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from . import __version__
from .core import ScalTool, validate_mp
from .core.runplan import table1_rows, table3_matrix
from .errors import ReproError, ServiceError
from .obs import configure_logging, export_jsonl, format_profile
from .obs import runtime as obs_runtime
from .runner import run_experiment
from .runner.campaign import CampaignData
from .runner.engine import default_executor
from .service.requests import (
    REQUEST_FIELDS,
    REQUEST_KINDS,
    Field,
    RequestResult,
    compile_request,
)
from .tools.perfex import format_report
from .viz.tables import format_table
from .workloads import available_workloads, make_workload

__all__ = ["main", "build_parser"]

_CACHE_EPILOG = (
    "The campaign cache lives in $SCALTOOL_CACHE_DIR when that environment "
    "variable is set, otherwise in .scaltool_cache/ under the current "
    "directory; --cache-dir overrides both."
)

_TARGET_HELP = (
    "a workload name, a saved campaign directory (campaign.jsonl), a stored "
    "job record / --save-result JSON, or a local job id"
)

#: The commands that run a request of their own kind, and print its output.
_REQUEST_VERBS = ("analyze", "whatif", "predict", "sweep", "blame", "models")

#: The commands that work on the campaign a ``campaign`` request assembles.
_CAMPAIGN_COMMANDS = ("campaign", "validate", "segments", "sharing", "balance")


def _field(kind: str, name: str) -> Field:
    return next(f for f in REQUEST_FIELDS[kind] if f.name == name)


def _arg_type(field: Field):
    """The field's payload parser as an argparse ``type``."""

    def parse(text: str):
        try:
            return field.parse(text, field.name)
        except ServiceError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _add_fields(parser, fields, target: str | None = None) -> None:
    """Give ``parser`` the CLI spelling of each field that has one.

    ``target`` re-labels the workload positional, for the verbs that also
    take a campaign directory, a dataset or a stored result there.
    """
    for field in fields:
        if field.flags is None:
            continue
        if not field.flags:
            relabel = target is not None and field.name == "workload"
            parser.add_argument(
                field.name,
                type=_arg_type(field),
                metavar="target" if relabel else None,
                help=target if relabel else field.help,
            )
            continue
        kwargs = {"dest": field.name, "help": field.help}
        if field.default not in (None, False, {}):
            shown = field.default
            if isinstance(shown, tuple):
                shown = ",".join(map(str, shown))
            kwargs["help"] += f" (default: {shown})"
        if field.action == "store":
            kwargs.update(type=_arg_type(field), metavar=field.metavar)
        elif field.action == "append":
            kwargs.update(action="append", metavar=field.metavar)
        else:
            kwargs["action"] = field.action
        parser.add_argument(*field.flags, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scaltool",
        description="Scal-Tool: isolate and quantify scalability bottlenecks (SC'99 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Observability flags, accepted by every subcommand (after the command).
    obs_common = argparse.ArgumentParser(add_help=False)
    obs_common.add_argument(
        "-v", "--verbose", action="store_true",
        help="per-run campaign progress and debug logging on stderr",
    )
    obs_common.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the observability session as a JSONL metrics manifest",
    )

    sub.add_parser("list", parents=[obs_common], help="list available workloads")

    # Where a command that runs campaigns keeps and runs them.
    local = argparse.ArgumentParser(add_help=False, parents=[obs_common])
    local.add_argument(
        "--cache-dir", default=None,
        help="campaign cache directory (default: $SCALTOOL_CACHE_DIR or .scaltool_cache)",
    )
    local.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run campaign experiments on N worker processes (default: 1, serial)",
    )
    saving = argparse.ArgumentParser(add_help=False)
    saving.add_argument(
        "--save-result", default=None, metavar="PATH",
        help="also write the full result (output + data + lineage) as JSON, "
        "for later `scaltool explain` / `scaltool doctor`",
    )

    def verb(name: str, text: str, parents=(), target=None, epilog=None):
        p = sub.add_parser(name, parents=[local, *parents], help=text, epilog=epilog)
        _add_fields(p, REQUEST_FIELDS[name if name in _REQUEST_VERBS else "campaign"], target)
        return p

    p_run = sub.add_parser(
        "run", parents=[obs_common], help="run one experiment, print its perfex report"
    )
    p_run.add_argument("workload")
    p_run.add_argument("--size", type=int, default=None, help="data-set size in bytes")
    p_run.add_argument("-n", "--processors", type=int, default=1)

    p_campaign = verb("campaign", "run the Table-3 campaign")
    p_campaign.add_argument("--out", required=True, help="directory for the counter files")
    p_campaign.add_argument(
        "--export-speedup", default=None, metavar="PATH",
        help="also write the measured speedup curve as a scaltool-speedup-v1 "
        "dataset (.csv or .json) for `scaltool models`",
    )
    verb("validate", "MP estimate vs speedshop")
    p_segments = verb("segments", "per-segment breakdown (Section 2.1)")
    _add_fields(p_segments, [_field("blame", "groups")])
    verb("sharing", "sharing-corrected analysis (Section 6 extension)")
    verb("balance", "per-processor load-balance report")

    # -- the request verbs: generated from the request kinds' field tables ------
    p_analyze = verb("analyze", "full bottleneck analysis", [saving], epilog=_CACHE_EPILOG)
    p_analyze.add_argument(
        "--from-dir", default=None, help="load a saved campaign instead of running"
    )
    verb("whatif", "machine-parameter experiments")
    verb("predict", "extrapolate the scaling to unmeasured counts")
    verb(
        "sweep",
        "run a (workload params) x (machine params) grid, print a metric table",
        epilog=_CACHE_EPILOG,
    )
    p_blame = verb(
        "blame",
        "graph-based scaling-loss localization: which segment loses the cycles, and why",
        target=_TARGET_HELP + " (or a job id on --url)",
    )
    p_blame.add_argument(
        "--against", default=None, metavar="TARGET",
        help="diff mode: compare against another campaign/report target and "
        "explain where their scaling losses differ",
    )
    p_blame.add_argument(
        "--url", default=None,
        help="fetch the report from a running service (job-id targets only)",
    )
    p_blame.add_argument(
        "--json", action="store_true", help="print the raw BlameReport (or diff) as JSON"
    )
    p_models = verb(
        "models",
        "fit USL/granularity/Scal-Tool scalability models and cross-validate them",
        [saving],
        target=_TARGET_HELP + ", or a speedup dataset (.csv/.json)",
        epilog=_CACHE_EPILOG,
    )
    p_models.add_argument("--json", action="store_true", help="print the structured report as JSON")

    p_profile = sub.add_parser(
        "profile",
        parents=[obs_common],
        help="profile a campaign + analysis run (spans, metrics, component times)",
    )
    p_profile.add_argument("workload", help="workload name (see `scaltool list`)")
    p_profile.add_argument("--s0", type=int, default=None, help="base data-set size in bytes")
    counts = _arg_type(_field("campaign", "counts"))
    p_profile.add_argument(
        "--counts", type=counts, default=(1, 2, 4),
        help="processor counts to profile, e.g. 1,2,4 (kept small: profiling re-runs everything)",
    )
    p_profile.add_argument(
        "--no-analysis", action="store_true", help="profile the campaign only, skip the estimators"
    )
    p_profile.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run campaign experiments on N worker processes (default: 1, serial)",
    )
    p_profile.add_argument(
        "--lines", action="store_true",
        help="also run the statistical line sampler: hot lines per span "
        "(stack samples attributed to the open engine phase)",
    )
    p_profile.add_argument(
        "--sample-interval", type=float, default=5.0, metavar="MS",
        help="sampling interval in milliseconds (default: 5)",
    )
    p_profile.add_argument(
        "--memory", action="store_true",
        help="with --lines: track tracemalloc peak + top allocating lines "
        "(adds tracemalloc's own overhead)",
    )
    p_profile.add_argument(
        "--flame", default=None, metavar="PATH",
        help="with --lines: write collapsed-stack flamegraph lines "
        "(span;frame;frame count) to PATH",
    )
    p_profile.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help="with --lines: save the full line profile as JSON "
        "(render later with `scaltool obs hot PATH`)",
    )

    p_topology = sub.add_parser(
        "topology", parents=[obs_common], help="tm(n) growth by interconnect topology"
    )
    p_topology.add_argument("--counts", type=counts, default=(2, 8, 32))
    p_topology.add_argument(
        "--topologies", default="hypercube,mesh,ring,crossbar", help="comma-separated list"
    )

    p_plan = sub.add_parser(
        "plan", parents=[obs_common], help="print Table 1 / Table 3 resource accounting"
    )
    p_plan.add_argument("--n", type=int, default=6, help="number of processor counts (1..2^(n-1))")
    p_plan.add_argument("--s0", type=int, default=640 * 1024)

    # -- the analysis service (see docs/service.md) --------------------------------
    p_serve = sub.add_parser(
        "serve", parents=[obs_common], help="serve the analysis HTTP JSON API",
        epilog=_CACHE_EPILOG,
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8032)
    p_serve.add_argument(
        "--cache-dir", default=None,
        help="cache root (runs + job store); default: $SCALTOOL_CACHE_DIR or .scaltool_cache",
    )
    p_serve.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="engine executor width: run batched experiments on N worker processes",
    )
    p_serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes: 1 serves in-process, N>=2 starts a dispatcher"
        " that consistent-hashes job fingerprints onto N worker shards",
    )
    p_serve.add_argument(
        "--concurrency", type=int, default=2, metavar="N",
        help="concurrent jobs in flight per worker process",
    )
    p_serve.add_argument(
        "--claim-ttl", type=float, default=60.0, metavar="SECONDS",
        help="in-flight claim TTL: a claim orphaned by a dead worker is"
        " reclaimable after this long without a heartbeat",
    )
    p_serve.add_argument(
        "--max-queue", type=int, default=32, metavar="N",
        help="admission bound on queued+running jobs (429 beyond it), and the"
        " number of finished jobs kept in memory (older ones are read from"
        " the job store)",
    )
    p_serve.add_argument(
        "--job-timeout", type=float, default=600.0, metavar="SECONDS",
        help="fail a job still running after this long",
    )

    client_common = argparse.ArgumentParser(add_help=False, parents=[obs_common])
    client_common.add_argument(
        "--url", default=None,
        help="service base URL (default: $SCALTOOL_SERVICE_URL or http://127.0.0.1:8032)",
    )

    submitting = argparse.ArgumentParser(add_help=False, parents=[client_common])
    submitting.add_argument("--priority", type=int, default=None, help="lower runs sooner")
    submitting.add_argument(
        "--wait", action="store_true", help="block until the job finishes, print its output"
    )
    submitting.add_argument(
        "--timeout", type=float, default=600.0, help="--wait timeout in seconds"
    )
    p_submit = sub.add_parser("submit", help="submit a request to a running service")
    submit_kinds = p_submit.add_subparsers(dest="kind", required=True, metavar="KIND")
    for kind in REQUEST_KINDS:
        p = submit_kinds.add_parser(
            kind, parents=[submitting], help=f"submit a request of kind {kind}"
        )
        _add_fields(p, REQUEST_FIELDS[kind])

    p_status = sub.add_parser(
        "status", parents=[client_common], help="print a service job's status as JSON"
    )
    p_status.add_argument("job_id")

    p_result = sub.add_parser(
        "result", parents=[client_common], help="print a finished service job's output"
    )
    p_result.add_argument("job_id")
    p_result.add_argument("--wait", action="store_true", help="block until the job finishes")
    p_result.add_argument("--timeout", type=float, default=600.0, help="--wait timeout in seconds")

    # A stored result to read: explain and doctor.
    stored = argparse.ArgumentParser(add_help=False, parents=[obs_common])
    stored.add_argument(
        "target",
        help="a job id (read from the local job store, or --url), or a path to a "
        "stored job record / --save-result JSON",
    )
    stored.add_argument(
        "--cache-dir", default=None,
        help="cache root holding the job store (default: $SCALTOOL_CACHE_DIR or .scaltool_cache)",
    )
    stored.add_argument(
        "--url", default=None,
        help="fall back to a running service at this URL when the job is not stored locally",
    )
    p_explain = sub.add_parser(
        "explain", parents=[stored],
        help="walk a result back to its runs and fits (lineage + diagnostics)",
    )
    p_explain.add_argument(
        "--json", action="store_true", help="print the raw lineage/diagnostics as JSON"
    )
    sub.add_parser(
        "doctor", parents=[stored],
        help="re-validate a stored result's diagnostics (exit 1 on `suspect`)",
    )

    p_obs = sub.add_parser(
        "obs", help="observability queries: job traces, manifest hot spots"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_obs_trace = obs_sub.add_parser(
        "trace", parents=[client_common],
        help="render a service job's distributed span tree (critical path starred)",
    )
    p_obs_trace.add_argument("job_id")
    p_obs_trace.add_argument(
        "--json", action="store_true", help="print the raw spans as JSON instead of a tree"
    )
    p_obs_top = obs_sub.add_parser(
        "top", parents=[obs_common],
        help="hottest span paths and metric summaries from a --metrics-out manifest",
    )
    p_obs_top.add_argument("manifest", help="JSONL manifest written by --metrics-out")
    p_obs_top.add_argument(
        "--limit", type=int, default=10, metavar="N", help="span paths to show (default 10)"
    )
    p_obs_top.add_argument(
        "--sort", choices=("total", "self", "count"), default="total",
        help="rank spans by total time, self time (minus children), or count "
        "(ties always break name-then-path)",
    )
    p_obs_hot = obs_sub.add_parser(
        "hot", parents=[obs_common],
        help="render a saved line profile (scaltool profile --lines --profile-out)",
    )
    p_obs_hot.add_argument("profile", help="profile JSON written by --profile-out or /v1/profile")
    p_obs_hot.add_argument(
        "--limit", type=int, default=15, metavar="N", help="rows per table (default 15)"
    )
    p_obs_hot.add_argument(
        "--flame", default=None, metavar="PATH",
        help="also write the collapsed-stack flamegraph lines to PATH",
    )
    return parser


def _progress_printer(args):
    """The --verbose campaign progress renderer: `run 7/23 hydro2d n=8`."""
    if not getattr(args, "verbose", False):
        return None

    def render(i: int, total: int, rec) -> None:
        print(f"run {i}/{total} {rec.workload} {rec.role} n={rec.n_processors}", file=sys.stderr)

    return render


def _named(field: Field, specs: list[str]) -> dict:
    """The values of a repeatable ``NAME=VALUE`` flag as its payload object."""
    out: dict = {}
    for spec in specs:
        name, _, value = spec.partition("=")
        if not name or not value:
            raise ReproError(f"bad {field.flags[0]} {spec!r}; expected {field.metavar}")
        out[name] = field.item(value)
    return out


def _payload(kind: str, args) -> dict:
    """The ``kind`` payload the command line gives: the fields it names."""
    payload = {}
    for field in REQUEST_FIELDS[kind]:
        value = getattr(args, field.name, None)
        if value is not None:
            payload[field.name] = _named(field, value) if field.item else value
    return payload


def _execute_request(args, kind: str, payload: dict) -> RequestResult:
    """Run one request inline, through the handler the service runs for
    a job of the same kind and payload (which is what keeps ``scaltool
    result`` output byte-identical to the direct CLI command)."""
    return compile_request(kind, payload).execute(
        cache_root=args.cache_dir,
        executor=default_executor(args.jobs),
        progress=_progress_printer(args),
    )


def _on_campaign_dir(kind: str, payload: dict, directory) -> RequestResult:
    """The request answered inline over a saved campaign directory."""
    campaign = CampaignData.load(directory)
    request = compile_request(kind, {**payload, "workload": campaign.workload})
    return request.answer(campaign, ScalTool(campaign).analyze())


def _local_job_store(cache_dir: str | None):
    """The job store under the cache root (``--cache-dir`` or the default)."""
    from .runner.engine import default_cache_root
    from .service.store import JobStore

    root = Path(cache_dir) if cache_dir else default_cache_root()
    return JobStore(root / "service" / "jobs")


def _stored_result(target: str, cache_dir: str | None, nothing: str):
    """Resolve a result held on disk: a stored job record file, a
    ``--save-result`` JSON, or a job id in the local job store.

    Returns ``(path, job, result)`` — ``path`` is the file read (None for
    a job-store id) and ``job`` the record's ``id``/``kind``/``payload``
    (None for a bare saved result) — or None when the target is neither.
    ``nothing`` ends the error raised for a job that has no result.
    """
    path = Path(target)
    if path.is_file():
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(f"cannot read {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ReproError(f"{path} does not hold a result object")
        if "state" in doc and "kind" in doc:  # a stored job record
            if doc.get("state") != "done" or not doc.get("result"):
                raise ReproError(f"job record {path} is {doc.get('state')!r}; {nothing}")
            return path, doc, doc["result"]
        if any(k in doc for k in ("output", "data", "lineage")):
            return path, None, doc
        raise ReproError(f"{path} is neither a job record nor a saved result")
    job = _local_job_store(cache_dir).get(target)
    if job is None:
        return None
    if job.state != "done" or not job.result:
        raise ReproError(f"job {target} is {job.state!r}; {nothing}")
    return None, {"id": job.id, "kind": job.kind, "payload": job.payload}, job.result


def _load_stored_result(args) -> tuple[str, dict]:
    """Resolve an ``explain``/``doctor`` target to ``(label, result)``.

    ``target`` may be (tried in order): a result stored on disk (see
    :func:`_stored_result`; works fully offline); a job id on a running
    service (only when ``--url`` is given).
    """
    target = args.target
    stored = _stored_result(target, args.cache_dir, "no result to inspect")
    if stored is not None:
        path, job, result = stored
        if job is None:
            return str(path), result
        return f"job {job.get('id', '?')} ({job.get('kind', '?')})", result
    if args.url:
        from .service.client import ServiceClient

        with ServiceClient(args.url) as client:
            view = client.result(target)
        if view.get("state") != "done" or not view.get("result"):
            raise ReproError(f"job {target} is {view.get('state')!r}; no result to inspect")
        return f"job {view['id']}", view["result"]
    raise ReproError(
        f"no stored job {target!r} under {_local_job_store(args.cache_dir).root} "
        "(pass a file path, --cache-dir, or --url for a running service)"
    )


def _campaign_payload_of_result(label: str, result: dict) -> dict:
    """Recover the campaign payload from a saved result's data + lineage."""
    data = result.get("data") or {}
    lineage = result.get("lineage") or {}
    specs = [e for e in lineage.get("specs", []) if e.get("role") == "app_base"]
    payload: dict = {}
    if data.get("workload"):
        payload["workload"] = data["workload"]
    elif specs:
        payload["workload"] = specs[0]["workload"]
    if specs:
        payload["s0"] = max(e["size_bytes"] for e in specs)
        payload["counts"] = sorted({e["n_processors"] for e in specs})
    elif data.get("processor_counts"):
        payload["counts"] = list(data["processor_counts"])
    missing = [k for k in ("workload", "s0", "counts") if not payload.get(k)]
    if missing:
        raise ReproError(
            f"{label} does not identify a campaign (missing {', '.join(missing)}); "
            "use a workload name or a campaign directory instead"
        )
    return payload


def _stored_campaign_payload(path, job: dict | None, result: dict) -> dict:
    """The campaign a stored result came from: its job's payload when
    that names one, else recovered from the result's data and lineage."""
    payload = (job or {}).get("payload") or {}
    if all(k in payload for k in ("workload", "s0", "counts")):
        return {
            "workload": payload["workload"],
            "params": payload.get("params", {}),
            "s0": payload["s0"],
            "counts": payload["counts"],
        }
    label = str(path) if path is not None else f"job {job['id']} ({job['kind']})"
    return _campaign_payload_of_result(label, result or {})


def _speedup_dataset(path: Path) -> dict | None:
    """The curve of a speedup dataset file (CSV, or JSON carrying a points
    list), or None when ``path`` is no such file."""
    if not path.is_file():
        return None
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        pass  # CSV (or unreadable; the loader reports that properly)
    else:
        if not (isinstance(doc, dict) and "points" in doc):
            return None
    from .models import SpeedupDataset

    return SpeedupDataset.load(path).to_dict()


def _target_result(args, target: str) -> RequestResult:
    """Run the ``blame`` or ``models`` request of ``args`` on ``target``.

    Tried in order: a saved campaign directory (analysed inline), a
    workload name, a speedup dataset file (models), a stored job record /
    saved result / local job-store id (its campaign, or for blame the
    stored report of a blame job), a job id on a running service (blame,
    ``--url``).
    """
    kind = args.command
    payload = {**_payload(kind, args), "workload": target}
    path = Path(target)
    if path.is_dir() and (path / "campaign.jsonl").exists():
        return _on_campaign_dir(kind, payload, path)
    if target in available_workloads():
        return _execute_request(args, kind, payload)
    dataset = _speedup_dataset(path) if kind == "models" else None
    if dataset is not None:
        return _execute_request(args, kind, {**payload, "dataset": dataset})
    stored = _stored_result(target, args.cache_dir, f"nothing to run {kind} on")
    if stored is not None:
        _, job, result = stored
        data = result.get("data") or {}
        report = data.get("report")
        if kind == "blame" and job and job["kind"] == "blame" and isinstance(report, dict):
            from .viz import render_blame

            return RequestResult(result.get("output") or render_blame(report) + "\n", data)
        return _execute_request(args, kind, {**payload, **_stored_campaign_payload(*stored)})
    if kind == "blame" and args.url:
        from .service.client import ServiceClient

        with ServiceClient(args.url) as client:
            view = client.blame(target)
        return RequestResult(view["output"], {"report": view["report"]})
    raise ReproError(
        f"cannot resolve {kind} target {target!r}: not a workload name, a saved "
        "campaign directory, a speedup dataset file (models), a stored result "
        "file, or a local job id (pass --cache-dir for the local job store, or, "
        "for blame, --url for a running service)"
    )


def _request_verb(args) -> int:
    """``analyze`` / ``whatif`` / ``predict`` / ``sweep`` / ``blame`` / ``models``."""
    kind = args.command
    if kind in ("blame", "models"):
        result = _target_result(args, args.workload)
    elif getattr(args, "from_dir", None):
        result = _on_campaign_dir(kind, _payload(kind, args), args.from_dir)
    else:
        result = _execute_request(args, kind, _payload(kind, args))
    if getattr(args, "save_result", None):
        path = Path(args.save_result)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n")
        print(f"result saved to {path}", file=sys.stderr)
    if getattr(args, "against", None):
        from .analysis import BlameReport, diff_reports
        from .viz import render_blame_diff

        other = _target_result(args, args.against).data["report"]
        diff = diff_reports(
            BlameReport.from_dict(result.data["report"]), BlameReport.from_dict(other)
        )
        print(json.dumps(diff, indent=2, sort_keys=True) if args.json else render_blame_diff(diff))
    elif getattr(args, "json", False):
        data = result.data["report"] if kind == "blame" else result.data
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        sys.stdout.write(result.output)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    verbose = getattr(args, "verbose", False)
    metrics_out = getattr(args, "metrics_out", None)
    configure_logging(verbose=verbose)
    # An obs session is live whenever its data has somewhere to go: a
    # metrics manifest, or the profile subcommand's report.
    session = None
    if metrics_out or args.command == "profile":
        session = obs_runtime.enable()
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout closed early (e.g. piped into `head`): not an error
        return 0
    finally:
        if session is not None:
            obs_runtime.disable()
            if metrics_out:
                path = export_jsonl(session, metrics_out, meta={"command": args.command})
                print(f"metrics manifest written to {path}", file=sys.stderr)


def _dispatch(args) -> int:
    if args.command == "list":
        for name in available_workloads():
            print(name)
        return 0

    if args.command == "run":
        workload = make_workload(args.workload)
        size = args.size if args.size else workload.default_size()
        record = run_experiment(workload, size, args.processors)
        meta = {
            "workload": record.workload,
            "size_bytes": record.size_bytes,
            "n_processors": record.n_processors,
        }
        print(format_report(record.counters, record.per_cpu, metadata=meta))
        return 0

    if args.command in _REQUEST_VERBS:
        return _request_verb(args)

    if args.command in _CAMPAIGN_COMMANDS:
        request = compile_request("campaign", _payload("campaign", args))
        if args.command == "campaign":
            for spec in request.specs():
                print(
                    f"  {spec.workload}: {spec.role} size={spec.size_bytes} n={spec.n_processors}"
                )
        campaign = request.campaign(
            args.cache_dir, default_executor(args.jobs), _progress_printer(args)
        )
        return _campaign_command(args, campaign)

    if args.command == "topology":
        from .machine.config import origin2000_scaled
        from .machine.latency import topology_survey

        points = topology_survey(
            origin2000_scaled(n_processors=1),
            processor_counts=args.counts,
            topologies=tuple(args.topologies.split(",")),
        )
        print(format_table([p.row() for p in points], title="tm(n) by topology"))
        return 0

    if args.command == "profile":
        from .obs.profile import profile_workload

        result = profile_workload(
            args.workload,
            s0=args.s0,
            processor_counts=args.counts,
            run_analysis=not args.no_analysis,
            progress=_progress_printer(args),
            executor=default_executor(args.jobs),
            line_profile=args.lines,
            sample_interval=args.sample_interval / 1e3,
            sample_memory=args.memory,
        )
        meta = {
            "workload": args.workload,
            "counts": list(args.counts),
            "runs": len(result.campaign.records),
        }
        print(format_profile(result.session, meta=meta))
        if result.line_profile is not None:
            from .viz.sampler_view import render_hot_profile

            profile = result.line_profile
            print(render_hot_profile(profile.to_dict()))
            if args.flame:
                Path(args.flame).write_text("\n".join(profile.folded()) + "\n")
                print(f"flamegraph stacks written to {args.flame}")
            if args.profile_out:
                payload = {
                    "kind": "hotpath",
                    "workload": args.workload,
                    "s0": args.s0,
                    "counts": list(args.counts),
                    "jobs": args.jobs,
                    "profile": profile.to_dict(),
                }
                Path(args.profile_out).write_text(
                    json.dumps(payload, indent=2, sort_keys=True) + "\n"
                )
                print(f"line profile written to {args.profile_out}")
        return 0

    if args.command == "serve":
        from .service.core import ServiceConfig

        config = ServiceConfig(
            cache_dir=args.cache_dir,
            jobs=args.jobs,
            workers=args.concurrency,
            max_queue=args.max_queue,
            job_timeout=args.job_timeout,
            claim_ttl=args.claim_ttl,
        )
        if args.workers >= 2:
            from .service.dispatcher import Dispatcher

            server = Dispatcher(
                config, worker_count=args.workers, host=args.host, port=args.port
            )
            print(
                f"scaltool dispatcher listening on {server.url}"
                f" ({args.workers} worker processes)",
                file=sys.stderr,
            )
        else:
            from .service.http import ServiceServer

            server = ServiceServer(config, host=args.host, port=args.port)
            print(f"scaltool service listening on {server.url}", file=sys.stderr)

        def _terminate(signum, frame):  # noqa: ARG001 - signal API
            raise KeyboardInterrupt  # SIGTERM drains and shuts down like Ctrl-C

        previous = signal.signal(signal.SIGTERM, _terminate)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("draining and shutting down ...", file=sys.stderr)
        finally:
            signal.signal(signal.SIGTERM, previous)
        return 0

    if args.command == "submit":
        from .service.client import ServiceClient

        with ServiceClient(args.url) as client:
            submitted = client.submit(
                args.kind, _payload(args.kind, args), priority=args.priority
            )
            dedup = " (deduplicated)" if submitted.get("deduped") else ""
            print(f"job {submitted['id']} {submitted['state']}{dedup}", file=sys.stderr)
            if not args.wait:
                print(submitted["id"])
                return 0
            view = client.wait(submitted["id"], timeout=args.timeout)
        if view["state"] != "done":
            raise ReproError(f"job {view['id']} failed: {view.get('error')}")
        sys.stdout.write(view["result"]["output"])
        return 0

    if args.command == "status":
        from .service.client import ServiceClient

        with ServiceClient(args.url) as client:
            view = client.status(args.job_id)
        print(json.dumps(view, indent=2, sort_keys=True))
        return 0

    if args.command == "result":
        from .service.client import ServiceClient

        with ServiceClient(args.url) as client:
            if args.wait:
                view = client.wait(args.job_id, timeout=args.timeout)
            else:
                view = client.result(args.job_id)
        if view["state"] == "failed":
            raise ReproError(f"job {view['id']} failed: {view.get('error')}")
        if view["state"] != "done":
            print(f"job {view['id']} is {view['state']}", file=sys.stderr)
            return 2
        sys.stdout.write(view["result"]["output"])
        return 0

    if args.command == "explain":
        label, result = _load_stored_result(args)
        lineage = result.get("lineage")
        diagnostics = (result.get("data") or {}).get("diagnostics")
        if args.json:
            print(
                json.dumps(
                    {"lineage": lineage, "diagnostics": diagnostics},
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0
        from .viz.diagnostics_view import render_diagnostics, render_lineage

        print(f"# {label}")
        if lineage:
            print(render_lineage(lineage))
        else:
            print("no lineage recorded (result predates lineage collection)")
        if diagnostics:
            print()
            print(render_diagnostics(diagnostics))
        return 0

    if args.command == "doctor":
        from .obs.diagnostics import GRADE_SUSPECT, revalidate, worst_grade

        label, result = _load_stored_result(args)
        diagnostics = (result.get("data") or {}).get("diagnostics")
        if not diagnostics:
            print(
                f"doctor: {label}: no diagnostics stored with this result; "
                "cannot vouch for its numbers",
                file=sys.stderr,
            )
            return 1
        rows, regraded = [], []
        for stored in diagnostics.get("checks", []):
            fresh = revalidate(stored)
            regraded.append(fresh)
            rows.append(
                {
                    "check": fresh.name,
                    "eq": fresh.equation,
                    "stored": stored.get("grade", "?"),
                    "revalidated": fresh.grade,
                    "agrees": "yes" if fresh.grade == stored.get("grade") else "NO",
                }
            )
        health = worst_grade(c.grade for c in regraded)
        print(f"# {label}")
        print(format_table(rows))
        flags = [f"  {c.name}: {f}" for c in regraded for f in c.flags]
        if flags:
            print("findings:")
            print("\n".join(flags))
        print(f"health: {health}")
        if health == GRADE_SUSPECT:
            print(
                "verdict: SUSPECT — re-measure before trusting these numbers",
                file=sys.stderr,
            )
            return 1
        print("verdict: ok" if health == "ok" else "verdict: usable with caution")
        return 0

    if args.command == "obs":
        if args.obs_command == "trace":
            from .service.client import ServiceClient
            from .viz.trace_view import render_trace

            with ServiceClient(args.url) as client:
                view = client.trace(args.job_id)
            if args.json:
                print(json.dumps(view, indent=2, sort_keys=True))
                return 0
            state = "complete" if view.get("complete") else "in flight"
            print(f"# trace {view['trace_id']} — job {view['job']} ({state})")
            sys.stdout.write(render_trace(view["spans"]))
            return 0
        if args.obs_command == "top":
            from .obs.export import summarize_manifest

            print(summarize_manifest(args.manifest, limit=args.limit, sort=args.sort))
            return 0
        if args.obs_command == "hot":
            from .obs.sampler import SampleProfile
            from .viz.sampler_view import render_hot_profile

            data = json.loads(Path(args.profile).read_text())
            # Accept the CLI artifact ({"kind": "hotpath", "profile": ...}),
            # the service response ({"profile": ...}), or a bare profile.
            profile_dict = data.get("profile", data) if isinstance(data, dict) else data
            print(render_hot_profile(profile_dict, limit=args.limit))
            if args.flame:
                folded = SampleProfile.from_dict(profile_dict).folded()
                Path(args.flame).write_text("\n".join(folded) + "\n")
                print(f"flamegraph stacks written to {args.flame}")
            return 0
        raise ReproError(f"unknown obs command {args.obs_command!r}")  # pragma: no cover

    if args.command == "plan":
        rows = [
            {"methodology": label, "runs": runs, "processors": procs, "files": files}
            for label, runs, procs, files in table1_rows(args.n)
        ]
        print(format_table(rows, title=f"Table 1 (n = {args.n})"))
        print()
        counts = tuple(2**i for i in range(args.n))
        print(table3_matrix(args.s0, counts).format())
        return 0

    raise ReproError(f"unknown command {args.command!r}")  # pragma: no cover


def _campaign_command(args, campaign: CampaignData) -> int:
    """``campaign`` / ``validate`` / ``segments`` / ``sharing`` / ``balance``
    over the campaign the command names."""
    if args.command == "campaign":
        manifest = campaign.save(args.out)
        print(f"wrote {len(campaign.records)} runs to {manifest.parent}")
        if args.export_speedup:
            from .models import SpeedupDataset

            path = SpeedupDataset.from_campaign(campaign).save(args.export_speedup)
            print(f"wrote speedup curve to {path}")
        return 0
    if args.command == "balance":
        from .core.balance import analyze_balance

        print(analyze_balance(campaign).summary())
        return 0
    analysis = ScalTool(campaign).analyze()
    if args.command == "validate":
        print(validate_mp(analysis, campaign).summary())
    elif args.command == "segments":
        from .core.segments import analyze_segments, phase_names

        groups = _named(_field("blame", "groups"), args.groups or [])
        if not groups:
            prefixes = sorted({name.split("_")[0] for name in phase_names(campaign)})
            groups = {p: f"{p}*" for p in prefixes}
        print(analyze_segments(analysis, campaign, groups).summary())
    else:
        from .core.sharing import analyze_sharing

        sharing = analyze_sharing(analysis, campaign)
        print(format_table(sharing.rows(), title="event-31 decomposition (Section 6 extension)"))
        corrected = sharing.corrected_curves
        rows = [
            {
                "n": n,
                "Sync (raw)": analysis.curves.sync_cost[n],
                "Sync (corrected)": corrected.sync_cost[n],
                "Imb (raw)": analysis.curves.imb_cost[n],
                "Imb (corrected)": corrected.imb_cost[n],
            }
            for n in analysis.curves.processor_counts
        ]
        print()
        print(format_table(rows, title="sharing-corrected bottleneck costs"))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
