"""Experiment orchestration: single runs, Table-3 campaigns, persistence.

The campaign runner executes exactly the run plan of the paper's Table 3
(base size at every processor count; fractional sizes on a uniprocessor),
plus the Section 2.4.2 micro-kernel runs, and stores one counter file per
run — matching the resource accounting of Table 1.
"""

from .campaign import CampaignConfig, CampaignData, ScalToolCampaign
from .engine import (
    Executor,
    ParallelExecutor,
    RunCache,
    RunOutcome,
    RunSpec,
    SerialExecutor,
    default_executor,
    execute_spec,
)
from .experiment import run_experiment
from .records import RunRecord

__all__ = [
    "RunRecord",
    "run_experiment",
    "ScalToolCampaign",
    "CampaignConfig",
    "CampaignData",
    "RunSpec",
    "RunOutcome",
    "RunCache",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "execute_spec",
    "default_executor",
]
