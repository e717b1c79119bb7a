"""One entry point for the three model-suite actions.

Both surfaces — ``scaltool models fit|compare|predict`` and the service's
``models`` request kind — call :func:`run_action`, so the rendered output
and the structured data are byte-identical by construction no matter
which door the request came through.
"""

from __future__ import annotations

from ..errors import ServiceError
from .compare import compare_models, fit_all
from .dataset import SpeedupDataset
from .predict import predict_report

__all__ = ["ACTIONS", "run_action"]

ACTIONS = ("fit", "compare", "predict")


def run_action(
    action: str,
    dataset: SpeedupDataset,
    analysis=None,
    to: list[int] | None = None,
) -> tuple[str, dict]:
    """Execute one model-suite action; returns ``(output text, data dict)``.

    ``to`` lists the counts ``predict`` extrapolates to.
    """
    from ..viz import render_model_fit, render_models_compare, render_models_predict

    if action == "fit":
        fits = {
            name: f.to_dict() for name, f in sorted(fit_all(dataset, analysis).items())
        }
        output = "\n\n".join(render_model_fit(f) for f in fits.values()) + "\n"
        return output, {"label": dataset.label, "fits": fits}
    if action == "compare":
        data = compare_models(dataset, analysis)
        return render_models_compare(data) + "\n", data
    if action == "predict":
        data = predict_report(dataset, list(to), analysis)
        return render_models_predict(data) + "\n", data
    raise ServiceError(
        f"unknown models action {action!r}; expected one of {', '.join(ACTIONS)}"
    )
