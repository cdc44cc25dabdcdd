"""The paper's contribution: error-flow analysis, planning, pipelines."""

from .bounds import (
    compression_gain,
    propagate,
    sigma_tilde,
    step_sizes_for,
)
from .errorflow import ErrorFlowAnalyzer
from .graph import ChainSpec, LinearSpec, NetworkSpec, ResidualSpec, extract_spec
from .pipeline import InferencePipeline, PipelineResult
from .planner import InferencePlan, TolerancePlanner
from .sensitivity import probe_sensitivity

__all__ = [
    "ChainSpec",
    "ErrorFlowAnalyzer",
    "InferencePipeline",
    "InferencePlan",
    "LinearSpec",
    "NetworkSpec",
    "PipelineResult",
    "ResidualSpec",
    "TolerancePlanner",
    "compression_gain",
    "extract_spec",
    "probe_sensitivity",
    "propagate",
    "sigma_tilde",
    "step_sizes_for",
]
