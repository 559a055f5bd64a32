"""Numerical laboratory for mean curvature flow of graphs and curve
shortening flow of plane curves, with built-in estimate monitors."""

__version__ = "0.1.0"

from .geometry import (
    ClosedCurve,
    Cylinder,
    GraphPatch,
    SurfaceSample,
    dumps_surface,
    graph_normal,
    integrate_over_graph,
    loads_surface,
    mean_curvature_graph,
    sample_surface,
    second_fundamental_norm,
    tilt,
)
from .flow import FlowConfig, FlowState, FlowTrace, run_flow, step_csf, step_graph_mcf
from .graphicality import (
    GraphReport,
    first_graphical_time,
    first_nongraphical_time,
    is_graphical,
    native_resolution,
    record_probe,
)
from .monitors import MonitorReport
from .scenarios import ScenarioResult, run_scenario, run_sweep, validate_scenario_spec

__all__ = [
    "ClosedCurve",
    "Cylinder",
    "FlowConfig",
    "FlowState",
    "FlowTrace",
    "GraphPatch",
    "GraphReport",
    "MonitorReport",
    "ScenarioResult",
    "SurfaceSample",
    "dumps_surface",
    "first_graphical_time",
    "first_nongraphical_time",
    "graph_normal",
    "integrate_over_graph",
    "is_graphical",
    "loads_surface",
    "mean_curvature_graph",
    "native_resolution",
    "record_probe",
    "run_flow",
    "run_scenario",
    "run_sweep",
    "sample_surface",
    "second_fundamental_norm",
    "step_csf",
    "step_graph_mcf",
    "tilt",
    "validate_scenario_spec",
]
