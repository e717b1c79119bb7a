"""The service request model: one class per request kind, one field table per kind.

A request is ``(kind, payload)`` where ``payload`` is a JSON object.
Each kind declares every payload field once, as a :class:`Field`: its
name, default, parser, help and ``scaltool`` flag; the campaign-backed
kinds share one group of fields, :data:`CAMPAIGN` (``workload``,
``params``, ``s0``, ``counts``).  :func:`compile_request` rejects a field
the kind does not declare, walks the table to resolve every default into
a *canonical* payload, applies the few rules that span several fields,
and returns a :class:`CompiledRequest` that can

* enumerate the :class:`~repro.runner.engine.RunSpec` set the request
  needs (:meth:`CompiledRequest.specs`) — the planner's dedup unit, and
* execute end-to-end (:meth:`CompiledRequest.execute`), producing a
  :class:`RequestResult` whose ``output`` is **byte-identical** to what
  the corresponding ``scaltool`` CLI command prints.

The CLI is generated from the same tables (:data:`REQUEST_FIELDS`): the
request verbs ``scaltool analyze`` / ``whatif`` / ``predict`` / ``sweep``
/ ``blame`` / ``models`` and ``scaltool submit KIND`` take their
arguments from them and run these handlers.

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
from typing import Any, Callable

from ..core import ScalTool, WhatIf
from ..errors import ReproError, ServiceError
from ..machine.counters import COUNTER_FIELDS
from ..obs import lineage
from ..runner.campaign import (
    DEFAULT_COUNTS,
    CampaignConfig,
    CampaignData,
    ProgressCallback,
    ScalToolCampaign,
)
from ..runner.cache import cached_campaign
from ..runner.engine import (
    Executor,
    RunCache,
    RunSpec,
    SerialExecutor,
    default_cache_root,
)
from ..runner.experiment import default_machine_factory
from ..runner.sweep import ParameterSweep
from ..viz.tables import format_table
from ..workloads import make_workload

__all__ = [
    "CAMPAIGN",
    "DEFAULT_COUNTS",
    "REQUEST_FIELDS",
    "REQUEST_KINDS",
    "Field",
    "RequestResult",
    "CompiledRequest",
    "compile_request",
    "request_fingerprint",
]


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


@dataclass(frozen=True)
class Field:
    """One payload field of a request kind, declared once.

    ``parse(value, name)`` turns a payload value (JSON, or the text of a
    CLI flag) into its canonical form, raising :class:`ServiceError` that
    names the field, or returns None for "take the default".  An absent
    or null field takes ``default``, parsed the same way.  The rest is
    the field's ``scaltool`` spelling: ``flags`` are its option strings
    (``()`` makes it positional, None keeps it off the CLI), ``action``
    its argparse action (``"store"``, ``"store_true"`` or ``"append"``),
    and ``item`` parses each VALUE of a repeatable ``NAME=VALUE`` flag
    whose payload value is an object.
    """

    name: str
    parse: Callable[[Any, str], Any]
    default: Any = None
    help: str = ""
    flags: tuple[str, ...] | None = None
    metavar: str | None = None
    action: str = "store"
    item: Callable[[str], Any] | None = None

    def value(self, payload: dict) -> Any:
        """This field's canonical value in ``payload``."""
        raw = payload.get(self.name)
        value = None if raw is None else self.parse(raw, self.name)
        return self.parse(self.default, self.name) if value is None else value


def _text(value, name: str) -> str:
    if not isinstance(value, str) or not value:
        raise ServiceError(f"request needs a non-empty string {name!r}")
    return value


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ServiceError(f"bad {name!r}: expected an object")
    return dict(value)


def _int(value, name: str) -> int | None:
    """An integer; 0, like null, takes the default."""
    if value is None:
        return None
    try:
        return int(value) or None
    except (TypeError, ValueError):
        raise ServiceError(f"bad {name!r}: {value!r} is not an integer") from None


def _float(value, name: str) -> float | None:
    if value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ServiceError(f"bad {name!r}: {value!r} is not a number") from None


def _flag(value, name: str) -> bool:
    return bool(value)


def _counts(value, name: str) -> tuple[int, ...]:
    if isinstance(value, str):
        value = value.split(",")
    try:
        counts = tuple(int(v) for v in value)
    except (TypeError, ValueError):
        raise ServiceError(f"bad {name!r}: {value!r} is not a list of integers") from None
    if not counts:
        raise ServiceError(f"bad {name!r}: empty")
    return counts


def _groups(value, name: str) -> dict:
    groups = value or {}
    if not isinstance(groups, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in groups.items()
    ):
        raise ServiceError(f"bad {name!r}: expected an object of name -> phase pattern")
    # {} means "default prefix grouping", resolved against the campaign
    # at execution time so the canonical payload stays data-independent.
    return {k: groups[k] for k in sorted(groups)}


def _axes(value, name: str) -> dict:
    if not isinstance(value, dict) or not all(
        isinstance(v, (list, tuple)) and v for v in value.values()
    ):
        raise ServiceError(f"bad {name!r}: expected an object of non-empty value lists")
    return {k: list(v) for k, v in value.items()}


def _metrics(value, name: str) -> list[str] | None:
    if not value:
        return None
    if not isinstance(value, (list, tuple)):
        raise ServiceError(f"bad {name!r}: expected a non-empty list of counter names")
    allowed = COUNTER_FIELDS | {"cpi"}
    bad = [m for m in value if m not in allowed]
    if bad:
        raise ServiceError(
            f"unknown metric(s) {', '.join(bad)}; available: {', '.join(sorted(allowed))}"
        )
    return list(value)


def _action(value, name: str) -> str:
    from ..models.report import ACTIONS

    if value not in ACTIONS:
        raise ServiceError(f"bad {name!r}: {value!r}; expected one of {', '.join(ACTIONS)}")
    return value


def _dataset(value, name: str) -> dict | None:
    if value is None:
        return None
    if not isinstance(value, dict):
        raise ServiceError(f"bad {name!r}: expected a speedup-curve object")
    from ..models import SpeedupDataset

    # Round-trip for validation and canonical point order.
    return SpeedupDataset.from_dict(value).to_dict()


def _pattern(text: str) -> str:
    return text.strip("'\"")


def _scalar(text: str):
    """An axis value: an int, else a float, else the bare string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _axis_values(text: str) -> list:
    return [_scalar(v) for v in text.split(",")]


_WORKLOAD = Field("workload", _text, help="workload name (see `scaltool list`)", flags=())
_PARAMS = Field("params", _object, {})

#: The Table-3 campaign of ``workload``: the fields every campaign-backed kind shares.
CAMPAIGN = (
    _WORKLOAD,
    _PARAMS,
    Field("s0", _int, help="base data-set size in bytes", flags=("--s0",)),
    Field("counts", _counts, DEFAULT_COUNTS, "processor counts, e.g. 1,2,4,8", flags=("--counts",)),
)


class CompiledRequest:
    """A validated request: canonical payload + plan + execution.

    Subclasses set :attr:`kind` and :attr:`fields` and implement
    :meth:`specs` and :meth:`_execute`.  ``canonical`` is the payload with
    every default resolved — two requests with the same canonical payload
    are the same request (same fingerprint, same job).
    """

    kind: str = ""
    #: Every payload field the kind takes, in canonical order.
    fields: tuple[Field, ...] = ()

    def __init__(self, payload: dict) -> None:
        self._run_cache: RunCache | None = None
        self.canonical = self._canonicalize(dict(payload or {}))

    # -- subclass hooks ---------------------------------------------------------

    def _canonicalize(self, payload: dict) -> dict:
        """Every field's canonical value; a kind adds the rules that span fields."""
        return {f.name: f.value(payload) for f in self.fields}

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
        long-lived one, so assembly reuses the records it already parsed
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
    """Shared base for the request kinds that run the Table-3 campaign.

    A kind answers over the assembled campaign and its analysis
    (:meth:`answer`), which is also how the CLI answers it over a saved
    campaign directory.
    """

    fields = CAMPAIGN

    def _canonicalize(self, payload: dict) -> dict:
        out = super()._canonicalize(payload)
        workload = make_workload(out["workload"], **out["params"])
        out["s0"] = out["s0"] or workload.default_size()
        CampaignConfig(s0=out["s0"], processor_counts=tuple(out["counts"]))  # validate eagerly
        return out

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

    def campaign(
        self,
        cache_root: str | Path | None = None,
        executor: Executor | None = None,
        progress: ProgressCallback | None = None,
    ) -> CampaignData:
        """The campaign's records, each run resolved through the run cache."""
        workload, config = self._campaign_parts()
        return cached_campaign(
            workload,
            config,
            cache_dir=cache_root,
            progress=progress,
            executor=executor,
            run_cache=self._run_cache,
        )

    def _analysis(self, campaign, cache_root):
        """The campaign's ScalTool analysis (memoised per process).

        The memo key includes the resolved cache root: two roots are two
        independent stores, and an analysis derived from one must never
        be served for a campaign assembled from the other.
        """
        c = self.canonical
        root = Path(cache_root) if cache_root is not None else default_cache_root()
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

    def _execute(self, cache_root, executor, progress) -> RequestResult:
        campaign = self.campaign(cache_root, executor, progress)
        return self.answer(campaign, self._analysis(campaign, cache_root))

    def answer(self, campaign: CampaignData, analysis) -> RequestResult:
        """The result over an assembled ``campaign`` and its ScalTool ``analysis``."""
        raise NotImplementedError


class AnalyzeRequest(_CampaignBacked):
    kind = "analyze"
    fields = CAMPAIGN + (
        Field(
            "markdown", _flag, False, "emit a markdown report", ("--markdown",), action="store_true"
        ),
    )

    def answer(self, campaign, analysis) -> RequestResult:
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

    def _execute(self, cache_root, executor, progress) -> RequestResult:
        campaign = self.campaign(cache_root, executor, progress)
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
    fields = (
        CAMPAIGN
        + tuple(
            Field(name, _float, 1.0, f"scale factor for {name}", (f"--{name}",))
            for name in ("t2", "tm", "tsyn", "cpi0")
        )
        # An L2 what-if (Eq. 10) replaces the factor what-if.
        + (Field("l2", _float, help="L2 size factor k", flags=("--l2",)),)
    )

    def answer(self, campaign, analysis) -> RequestResult:
        c = self.canonical
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
    fields = CAMPAIGN + (
        Field("to", _counts, (48, 64, 128), "counts to predict, e.g. 64,128", ("--to",)),
    )

    def answer(self, campaign, analysis) -> RequestResult:
        from ..core.prediction import ScalabilityPredictor

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
    fields = CAMPAIGN + (
        Field(
            "groups",
            _groups,
            {},
            "segment definition, e.g. --group spmv='spmv_*' (repeatable); "
            "default: one segment per phase-name prefix",
            ("--group",),
            metavar="NAME=PATTERN",
            action="append",
            item=_pattern,
        ),
    )

    def answer(self, campaign, analysis) -> RequestResult:
        from ..analysis import blame_campaign
        from ..viz import render_blame

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
    fields = (
        Field(
            "action",
            _action,
            "compare",
            "fit: per-model coefficients; compare: cross-validate the suite; "
            "predict: extrapolate with CI bands",
            (),
        ),
        *CAMPAIGN,
        Field("dataset", _dataset),
        Field(
            "to",
            _counts,
            (32, 64, 128),
            "counts to extrapolate to (predict), e.g. 64,128",
            ("--to",),
        ),
    )

    def _canonicalize(self, payload: dict) -> dict:
        # A dataset replaces the campaign fields; ``to`` serves predict only.
        if payload.get("dataset") is None:
            out = super()._canonicalize(payload)
            del out["dataset"]
        else:
            out = {
                f.name: f.value(payload)
                for f in self.fields
                if f.name in ("action", "dataset", "to")
            }
        if out["action"] != "predict":
            del out["to"]
        return out

    def specs(self) -> list[RunSpec]:
        if "dataset" in self.canonical:
            return []
        return super().specs()

    def _execute(self, cache_root, executor, progress) -> RequestResult:
        if "dataset" in self.canonical:
            return self.answer(None, None)
        return super()._execute(cache_root, executor, progress)

    def answer(self, campaign, analysis) -> RequestResult:
        from ..models import SpeedupDataset, run_action

        c = self.canonical
        if campaign is None:
            dataset = SpeedupDataset.from_dict(c["dataset"])
        else:
            dataset = SpeedupDataset.from_campaign(campaign)
        output, data = run_action(c["action"], dataset, analysis, to=c.get("to"))
        return RequestResult(output=output, data=data)


class SweepRequest(CompiledRequest):
    kind = "sweep"
    fields = (
        _WORKLOAD,
        _PARAMS,
        Field("size", _int, help="data-set size in bytes", flags=("--size",)),
        Field("n", _int, 8, "processor count", ("-n", "--processors")),
        Field(
            "workload_axes",
            _axes,
            {},
            "workload constructor axis, e.g. --workload-axis halo_blocks=0,1,2 (repeatable)",
            ("--workload-axis",),
            metavar="NAME=V1,V2",
            action="append",
            item=_axis_values,
        ),
        Field(
            "machine_axes",
            _axes,
            {},
            "machine configuration axis, e.g. --machine-axis protocol=mesi,msi (repeatable)",
            ("--machine-axis",),
            metavar="NAME=V1,V2",
            action="append",
            item=_axis_values,
        ),
        Field(
            "metrics",
            _metrics,
            ("cpi",),
            "counter to tabulate per grid point (CounterSet field or 'cpi'; repeatable)",
            ("--metric",),
            metavar="NAME",
            action="append",
        ),
    )

    def _canonicalize(self, payload: dict) -> dict:
        canonical = super()._canonicalize(payload)
        workload = make_workload(canonical["workload"], **canonical["params"])
        canonical["size"] = canonical["size"] or workload.default_size()
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
        root = cache_root if cache_root is not None else default_cache_root()
        total = len(sweep.points())

        def _report(outcome) -> None:
            if progress is not None:
                progress(outcome.index + 1, total, outcome.record)

        rows = sweep.run(
            metrics,
            executor=executor,
            cache=self._run_cache or RunCache(Path(root) / "runs"),
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

#: Each kind's field table, in the order the CLI takes the fields.
REQUEST_FIELDS = {kind: _KIND_CLASSES[kind].fields for kind in REQUEST_KINDS}


def compile_request(kind: str, payload: dict | None = None) -> CompiledRequest:
    """Validate ``(kind, payload)`` into an executable request.

    Raises :class:`~repro.errors.ServiceError` for an unknown kind or a
    field the kind does not declare, and lets workload/config errors (all
    :class:`~repro.errors.ReproError` subclasses) propagate — all map to
    HTTP 400 at the API layer.
    """
    cls = _KIND_CLASSES.get(kind)
    if cls is None:
        raise ServiceError(
            f"unknown request kind {kind!r}; expected one of {', '.join(REQUEST_KINDS)}"
        )
    if payload is not None and not isinstance(payload, dict):
        raise ServiceError(f"payload must be a JSON object, got {type(payload).__name__}")
    declared = [f.name for f in cls.fields]
    unknown = [name for name in payload or {} if name not in declared]
    if unknown:
        raise ServiceError(
            f"unknown {kind} field {unknown[0]!r}; {kind} takes {', '.join(declared)}"
        )
    return cls(payload or {})


def request_fingerprint(kind: str, canonical_payload: dict) -> str:
    """Deterministic job id for a canonical request (``j`` + 16 hex chars)."""
    blob = json.dumps({"kind": kind, "payload": canonical_payload}, sort_keys=True)
    return "j" + hashlib.sha256(blob.encode()).hexdigest()[:16]
