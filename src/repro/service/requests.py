"""The service request model: one class per request kind.

A request is ``(kind, payload)`` where ``payload`` is a JSON object.
:func:`compile_request` validates the payload, resolves defaults (data
set size, processor counts, ...) into a *canonical* payload, and returns
a :class:`CompiledRequest` that can

* enumerate the :class:`~repro.runner.engine.RunSpec` set the request
  needs (:meth:`CompiledRequest.specs`) — the planner's dedup unit, and
* execute end-to-end (:meth:`CompiledRequest.execute`), producing a
  :class:`RequestResult` whose ``output`` is **byte-identical** to what
  the corresponding ``scaltool`` CLI command prints: the CLI routes its
  ``analyze`` / ``sweep`` / ``whatif`` / ``predict`` / ``blame``
  subcommands through these same handlers.

The canonical payload also defines the request *fingerprint*
(:meth:`CompiledRequest.fingerprint`), which the service uses as the job
id: submitting the same request twice is idempotent by construction.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from ..core import ScalTool, WhatIf
from ..errors import ReproError, ServiceError
from ..obs import lineage
from ..runner.campaign import CampaignConfig, ProgressCallback, ScalToolCampaign
from ..runner.cache import cached_campaign, campaign_cache_dir
from ..runner.engine import Executor, RunCache, RunSpec, SerialExecutor
from ..runner.experiment import default_machine_factory
from ..runner.sweep import ParameterSweep
from ..viz.tables import format_table
from ..workloads import make_workload

__all__ = [
    "REQUEST_KINDS",
    "RequestResult",
    "CompiledRequest",
    "compile_request",
    "request_fingerprint",
]

#: Campaign processor counts used when a request does not name any.
DEFAULT_COUNTS = (1, 2, 4, 8, 16, 32)


@dataclass
class RequestResult:
    """What a completed request produced.

    ``output`` is the exact text the equivalent CLI command writes to
    stdout; ``data`` is a JSON-able structured form of the same result;
    ``lineage`` records which runs fed it and where each came from
    (:class:`repro.obs.lineage.Lineage` in dict form) — provenance, kept
    out of ``output``/``data`` so those stay byte-identical between a
    cold and a warm cache.
    """

    output: str
    data: dict = field(default_factory=dict)
    lineage: dict | None = None

    def to_dict(self) -> dict:
        out = {"output": self.output, "data": self.data}
        if self.lineage is not None:
            out["lineage"] = self.lineage
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "RequestResult":
        return cls(
            output=d.get("output", ""),
            data=dict(d.get("data", {})),
            lineage=d.get("lineage"),
        )


def _require_str(payload: dict, name: str) -> str:
    value = payload.get(name)
    if not isinstance(value, str) or not value:
        raise ServiceError(f"request needs a non-empty string {name!r}")
    return value


def _int_or_none(payload: dict, name: str) -> int | None:
    value = payload.get(name)
    if value is None:
        return None
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ServiceError(f"bad {name!r}: {value!r} is not an integer") from None


def _counts(payload: dict, name: str, default: tuple[int, ...]) -> tuple[int, ...]:
    value = payload.get(name)
    if value is None:
        return default
    if isinstance(value, str):
        value = value.split(",")
    try:
        counts = tuple(int(v) for v in value)
    except (TypeError, ValueError):
        raise ServiceError(f"bad {name!r}: {value!r} is not a list of integers") from None
    if not counts:
        raise ServiceError(f"bad {name!r}: empty")
    return counts


def _float(payload: dict, name: str, default: float) -> float:
    value = payload.get(name, default)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ServiceError(f"bad {name!r}: {value!r} is not a number") from None


def _params(payload: dict, name: str = "params") -> dict:
    value = payload.get(name, {})
    if not isinstance(value, dict):
        raise ServiceError(f"bad {name!r}: expected an object")
    return dict(value)


def _axes(payload: dict, name: str) -> dict:
    value = payload.get(name, {})
    if not isinstance(value, dict) or not all(
        isinstance(v, (list, tuple)) and v for v in value.values()
    ):
        raise ServiceError(f"bad {name!r}: expected an object of non-empty value lists")
    return {k: list(v) for k, v in value.items()}


class CompiledRequest:
    """A validated request: canonical payload + plan + execution.

    Subclasses set :attr:`kind` and implement :meth:`specs` and
    :meth:`_execute`.  ``canonical`` is the payload with every default
    resolved — two requests with the same canonical payload are the same
    request (same fingerprint, same job).
    """

    kind: str = ""

    def __init__(self, payload: dict) -> None:
        self.canonical = self._canonicalize(dict(payload or {}))

    # -- subclass hooks ---------------------------------------------------------

    def _canonicalize(self, payload: dict) -> dict:
        raise NotImplementedError

    def specs(self) -> list[RunSpec]:
        """Every engine run this request needs (the dedup/batch unit)."""
        raise NotImplementedError

    def _execute(
        self,
        cache_root: Path | None,
        executor: Executor,
        progress: ProgressCallback | None,
    ) -> RequestResult:
        raise NotImplementedError

    # -- shared -----------------------------------------------------------------

    def fingerprint(self) -> str:
        """The job id: a content address over (kind, canonical payload)."""
        return request_fingerprint(self.kind, self.canonical)

    def execute(
        self,
        cache_root: str | Path | None = None,
        executor: Executor | None = None,
        progress: ProgressCallback | None = None,
        run_cache: RunCache | None = None,
    ) -> RequestResult:
        """Run the request to completion through the engine + cache.

        Every engine batch inside runs under a lineage collector, so the
        result leaves with a full provenance record: each contributing
        RunSpec, whether it came from cache or was executed, the machine
        hash, and the code version.

        ``run_cache`` substitutes the per-run cache instance (it must be
        rooted at ``<cache_root>/runs``): the serving layer passes its
        shared memoised cache so assembly reuses already-parsed records
        instead of re-reading JSON per job.
        """
        root = Path(cache_root) if cache_root is not None else None
        self._run_cache = run_cache
        with lineage.collect() as col:
            result = self._execute(root, executor or SerialExecutor(), progress)
        result.lineage = col.build(self.kind, self.fingerprint()).to_dict()
        return result


#: Process-wide memo of completed ScalTool analyses, keyed by the campaign
#: identity (workload + params + s0 + counts).  The campaign is fully
#: deterministic given that identity — seeded workloads, fixed default
#: machine factory, content-addressed runs — so two jobs over the same
#: campaign produce the *same* analysis object; recomputing the fits
#: (bootstrap CIs included) per job was the dominant warm-path cost.
#: Consumers (report/what-if/predict/blame) only read the result.
_ANALYSIS_MEMO_CAP = 8
_analysis_lock = threading.Lock()
_analysis_memo: OrderedDict[str, "object"] = OrderedDict()


def _memoized_analysis(memo_key: str, campaign):
    with _analysis_lock:
        if memo_key in _analysis_memo:
            _analysis_memo.move_to_end(memo_key)
            return _analysis_memo[memo_key]
    # Computed outside the lock: concurrent first-comers may duplicate the
    # work, but the results are identical and the memo stays responsive.
    analysis = ScalTool(campaign).analyze()
    with _analysis_lock:
        _analysis_memo[memo_key] = analysis
        _analysis_memo.move_to_end(memo_key)
        while len(_analysis_memo) > _ANALYSIS_MEMO_CAP:
            _analysis_memo.popitem(last=False)
    return analysis


class _CampaignBacked(CompiledRequest):
    """Shared base for the request kinds that run the Table-3 campaign."""

    def _canonical_campaign(self, payload: dict) -> dict:
        workload_name = _require_str(payload, "workload")
        params = _params(payload)
        workload = make_workload(workload_name, **params)
        s0 = _int_or_none(payload, "s0") or workload.default_size()
        counts = _counts(payload, "counts", DEFAULT_COUNTS)
        CampaignConfig(s0=s0, processor_counts=counts)  # validate eagerly
        return {
            "workload": workload_name,
            "params": params,
            "s0": s0,
            "counts": list(counts),
        }

    def _campaign_parts(self):
        c = self.canonical
        workload = make_workload(c["workload"], **c["params"])
        config = CampaignConfig(s0=c["s0"], processor_counts=tuple(c["counts"]))
        return workload, config

    def specs(self) -> list[RunSpec]:
        workload, config = self._campaign_parts()
        return ScalToolCampaign(
            workload, config, machine_factory=default_machine_factory()
        ).compile_plan()

    def _campaign(self, cache_root, executor, progress):
        workload, config = self._campaign_parts()
        return cached_campaign(
            workload,
            config,
            cache_dir=cache_root,
            progress=progress,
            executor=executor,
            run_cache=getattr(self, "_run_cache", None),
        )

    def _analysis(self, campaign, cache_root):
        """The campaign's ScalTool analysis (memoised per process).

        The memo key includes the resolved cache root: two roots are two
        independent stores, and an analysis derived from one must never
        be served for a campaign assembled from the other.
        """
        c = self.canonical
        root = Path(cache_root) if cache_root is not None else campaign_cache_dir()
        memo_key = json.dumps(
            {
                "root": str(root.resolve()),
                "workload": c["workload"],
                "params": c["params"],
                "s0": c["s0"],
                "counts": c["counts"],
            },
            sort_keys=True,
        )
        return _memoized_analysis(memo_key, campaign)


class AnalyzeRequest(_CampaignBacked):
    kind = "analyze"

    def _canonicalize(self, payload: dict) -> dict:
        out = self._canonical_campaign(payload)
        out["markdown"] = bool(payload.get("markdown", False))
        return out

    def _execute(self, cache_root, executor, progress) -> RequestResult:
        campaign = self._campaign(cache_root, executor, progress)
        analysis = self._analysis(campaign, cache_root)
        if self.canonical["markdown"]:
            from ..core.report import export_markdown

            output = export_markdown(analysis) + "\n"
        else:
            output = analysis.report() + "\n"
        return RequestResult(
            output=output,
            data={
                "workload": analysis.workload,
                "processor_counts": list(analysis.curves.processor_counts),
                "records": len(campaign.records),
                "health": analysis.health,
                "diagnostics": (
                    analysis.diagnostics.to_dict() if analysis.diagnostics else None
                ),
            },
        )


class CampaignRequest(_CampaignBacked):
    kind = "campaign"

    def _canonicalize(self, payload: dict) -> dict:
        return self._canonical_campaign(payload)

    def _execute(self, cache_root, executor, progress) -> RequestResult:
        campaign = self._campaign(cache_root, executor, progress)
        manifest = "".join(rec.to_json() + "\n" for rec in campaign.records)
        return RequestResult(
            output=manifest,
            data={
                "workload": campaign.workload,
                "s0": campaign.s0,
                "records": len(campaign.records),
            },
        )


class WhatIfRequest(_CampaignBacked):
    kind = "whatif"

    def _canonicalize(self, payload: dict) -> dict:
        out = self._canonical_campaign(payload)
        for name in ("t2", "tm", "tsyn", "cpi0"):
            out[name] = _float(payload, name, 1.0)
        l2 = payload.get("l2")
        out["l2"] = None if l2 is None else _float(payload, "l2", 1.0)
        return out

    def _execute(self, cache_root, executor, progress) -> RequestResult:
        c = self.canonical
        campaign = self._campaign(cache_root, executor, progress)
        analysis = self._analysis(campaign, cache_root)
        whatif = WhatIf(analysis, campaign)
        if c["l2"] is not None:
            prediction = whatif.scale_l2(c["l2"])
        else:
            prediction = whatif.scale_parameters(
                cpi0_factor=c["cpi0"],
                t2_factor=c["t2"],
                tm_factor=c["tm"],
                tsyn_factor=c["tsyn"],
            )
        output = format_table(prediction.rows(), title=prediction.label) + "\n"
        if prediction.note:
            output += f"note: {prediction.note}\n"
        return RequestResult(
            output=output,
            data={"label": prediction.label, "rows": prediction.rows()},
        )


class PredictRequest(_CampaignBacked):
    kind = "predict"

    def _canonicalize(self, payload: dict) -> dict:
        out = self._canonical_campaign(payload)
        out["to"] = list(_counts(payload, "to", (48, 64, 128)))
        return out

    def _execute(self, cache_root, executor, progress) -> RequestResult:
        from ..core.prediction import ScalabilityPredictor

        campaign = self._campaign(cache_root, executor, progress)
        analysis = self._analysis(campaign, cache_root)
        predictor = ScalabilityPredictor(analysis)
        rows = predictor.rows(list(predictor.measured_counts) + list(self.canonical["to"]))
        output = (
            format_table(rows, title=f"{analysis.workload}: measured + predicted scaling")
            + "\n"
            + f"\npredicted saturation at ~{predictor.saturation_count()} processors\n"
            + format_table(predictor.leave_one_out(), title="leave-one-out validation")
            + "\n"
        )
        return RequestResult(
            output=output,
            data={"rows": rows, "saturation": predictor.saturation_count()},
        )


class BlameRequest(_CampaignBacked):
    kind = "blame"

    def _canonicalize(self, payload: dict) -> dict:
        out = self._canonical_campaign(payload)
        groups = payload.get("groups") or {}
        if not isinstance(groups, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in groups.items()
        ):
            raise ServiceError("bad 'groups': expected an object of name -> phase pattern")
        # {} means "default prefix grouping", resolved against the campaign
        # at execution time so the canonical payload stays data-independent.
        out["groups"] = {k: groups[k] for k in sorted(groups)}
        return out

    def _execute(self, cache_root, executor, progress) -> RequestResult:
        from ..analysis import blame_campaign
        from ..viz import render_blame

        campaign = self._campaign(cache_root, executor, progress)
        analysis = self._analysis(campaign, cache_root)
        report = blame_campaign(
            analysis, campaign, groups=self.canonical["groups"] or None
        )
        report_dict = report.to_dict()
        output = render_blame(report_dict) + "\n"
        return RequestResult(
            output=output,
            data={
                "workload": report.workload,
                "window": list(report.window),
                "total_loss": report.total_loss,
                "findings": len(report.findings),
                "report": report_dict,
            },
        )


class ModelsRequest(_CampaignBacked):
    """Fit / cross-validate / extrapolate the scalability-model suite.

    Two modes share one kind:

    * **campaign mode** — the payload names a workload campaign (same
      canonical fields as ``analyze``); the speedup curve is extracted
      from the base-size runs and the full Scal-Tool analysis joins the
      comparison (σ/κ ↔ category mapping included);
    * **dataset mode** — the payload embeds a speedup curve
      (``dataset``: the ``scaltool-speedup-v1`` JSON document, e.g. an
      external machine's measurements); no runs are planned and the
      closed-form models are compared among themselves.
    """

    kind = "models"

    def _canonicalize(self, payload: dict) -> dict:
        from ..models import ACTIONS, SpeedupDataset

        action = payload.get("action", "compare")
        if action not in ACTIONS:
            raise ServiceError(
                f"bad 'action': {action!r}; expected one of {', '.join(ACTIONS)}"
            )
        out: dict = {"action": action}
        if payload.get("dataset") is not None:
            dataset = payload["dataset"]
            if not isinstance(dataset, dict):
                raise ServiceError("bad 'dataset': expected a speedup-curve object")
            # Round-trip for validation and canonical point order.
            out["dataset"] = SpeedupDataset.from_dict(dataset).to_dict()
        else:
            out.update(self._canonical_campaign(payload))
        if action == "predict":
            out["to"] = list(_counts(payload, "to", (32, 64, 128)))
        return out

    def specs(self) -> list[RunSpec]:
        if "dataset" in self.canonical:
            return []
        return super().specs()

    def _execute(self, cache_root, executor, progress) -> RequestResult:
        from ..models import SpeedupDataset, run_action

        c = self.canonical
        if "dataset" in c:
            dataset = SpeedupDataset.from_dict(c["dataset"])
            analysis = None
        else:
            campaign = self._campaign(cache_root, executor, progress)
            analysis = self._analysis(campaign, cache_root)
            dataset = SpeedupDataset.from_campaign(campaign)
        output, data = run_action(c["action"], dataset, analysis, to=c.get("to"))
        return RequestResult(output=output, data=data)


class SweepRequest(CompiledRequest):
    kind = "sweep"

    def _canonicalize(self, payload: dict) -> dict:
        from dataclasses import fields as dc_fields

        from ..machine.counters import CounterSet

        workload_name = _require_str(payload, "workload")
        params = _params(payload)
        workload = make_workload(workload_name, **params)
        size = _int_or_none(payload, "size") or workload.default_size()
        n = _int_or_none(payload, "n") or 8
        metrics = payload.get("metrics") or ["cpi"]
        if not isinstance(metrics, (list, tuple)) or not metrics:
            raise ServiceError("bad 'metrics': expected a non-empty list of counter names")
        allowed = {f.name for f in dc_fields(CounterSet)} | {"cpi"}
        bad = [m for m in metrics if m not in allowed]
        if bad:
            raise ServiceError(
                f"unknown metric(s) {', '.join(bad)}; available: {', '.join(sorted(allowed))}"
            )
        canonical = {
            "workload": workload_name,
            "params": params,
            "size": size,
            "n": n,
            "workload_axes": _axes(payload, "workload_axes"),
            "machine_axes": _axes(payload, "machine_axes"),
            "metrics": list(metrics),
        }
        # Build every axis value once, alone, so a bad one is rejected on
        # admission (naming the axis and value), not when the job runs.
        sweep = self._sweep(canonical)
        for kind, axes, build in (
            ("workload", canonical["workload_axes"], sweep.base_workload),
            ("machine", canonical["machine_axes"], lambda **p: sweep._machine_config(p)),
        ):
            for axis, values in axes.items():
                for value in values:
                    try:
                        build(**{axis: value})
                    except (ReproError, TypeError, ValueError) as exc:
                        raise ServiceError(f"bad {kind} axis {axis}={value!r}: {exc}") from exc
        return canonical

    def _sweep(self, canonical: dict | None = None) -> ParameterSweep:
        c = canonical or self.canonical
        return ParameterSweep(
            base_workload=lambda **p: make_workload(c["workload"], **{**c["params"], **p}),
            size=c["size"],
            n_processors=c["n"],
            workload_grid=c["workload_axes"],
            machine_grid=c["machine_axes"],
        )

    def specs(self) -> list[RunSpec]:
        return self._sweep().compile_specs()

    def _execute(self, cache_root, executor, progress) -> RequestResult:
        c = self.canonical
        sweep = self._sweep()
        metrics = {m: (lambda rec, _m=m: getattr(rec.counters, _m)) for m in c["metrics"]}
        root = cache_root if cache_root is not None else campaign_cache_dir()
        total = len(sweep.points())

        def _report(outcome) -> None:
            if progress is not None:
                progress(outcome.index + 1, total, outcome.record)

        rows = sweep.run(
            metrics,
            executor=executor,
            cache=getattr(self, "_run_cache", None) or RunCache(Path(root) / "runs"),
            on_outcome=_report,
        )
        output = (
            format_table(rows, title=f"{c['workload']} sweep (n={c['n']})") + "\n"
        )
        return RequestResult(output=output, data={"rows": rows})


_KIND_CLASSES = {
    cls.kind: cls
    for cls in (
        AnalyzeRequest,
        BlameRequest,
        CampaignRequest,
        ModelsRequest,
        SweepRequest,
        WhatIfRequest,
        PredictRequest,
    )
}

#: The request kinds the service accepts.
REQUEST_KINDS = tuple(sorted(_KIND_CLASSES))


def compile_request(kind: str, payload: dict | None = None) -> CompiledRequest:
    """Validate ``(kind, payload)`` into an executable request.

    Raises :class:`~repro.errors.ServiceError` for an unknown kind and
    lets workload/config errors (all :class:`~repro.errors.ReproError`
    subclasses) propagate — both map to HTTP 400 at the API layer.
    """
    cls = _KIND_CLASSES.get(kind)
    if cls is None:
        raise ServiceError(
            f"unknown request kind {kind!r}; expected one of {', '.join(REQUEST_KINDS)}"
        )
    if payload is not None and not isinstance(payload, dict):
        raise ServiceError(f"payload must be a JSON object, got {type(payload).__name__}")
    return cls(payload or {})


def request_fingerprint(kind: str, canonical_payload: dict) -> str:
    """Deterministic job id for a canonical request (``j`` + 16 hex chars)."""
    blob = json.dumps({"kind": kind, "payload": canonical_payload}, sort_keys=True)
    return "j" + hashlib.sha256(blob.encode()).hexdigest()[:16]
