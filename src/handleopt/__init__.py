"""Optimal support-handle placement for postural transitions.

A planar seven-link body model feeds a three-joint virtual arm chain
anchored between the handle and the non-arm center of mass; exhaustive
search over shoulder and elbow angles finds the handle point that
maximizes arm force along the direction the body is moving.

The package root exports the documented library entry points and the
error types; everything else is imported from its submodule.
"""

from .errors import (
    DegenerateVelocity,
    HandleOptError,
    IllConditioned,
    IndexOutOfRange,
    NoFeasiblePoint,
    ParseError,
    ScenarioError,
    SchemaError,
    SingularChain,
    ValidationError,
    ZeroTorque,
)
from .scenario_io import fixture_path, load_scenario, make_context

__version__ = "0.1.0"

__all__ = [
    "load_scenario", "fixture_path", "make_context", "optimize_placement",
    "HandleOptError", "DegenerateVelocity", "IndexOutOfRange", "SingularChain",
    "IllConditioned", "ZeroTorque", "NoFeasiblePoint", "ScenarioError",
    "ParseError", "SchemaError", "ValidationError",
    "__version__",
]


def __getattr__(name: str):
    """optimize_placement, imported on first use so that the package
    root loads without numpy (PEP 562)."""
    if name == "optimize_placement":
        from .placement_opt import optimize_placement

        return optimize_placement
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
