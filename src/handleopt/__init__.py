"""Optimal support-handle placement for postural transitions.

A planar seven-link body model feeds a three-joint virtual arm chain
anchored between the handle and the non-arm center of mass; exhaustive
search over shoulder and elbow angles finds the handle point that
maximizes arm force along the direction the body is moving.
"""

from .body_model import (
    FOOT,
    FOREARM,
    HEAD,
    SEGMENT_NAMES,
    SHANK,
    THIGH,
    TRUNK,
    UPPER_ARM,
    BodyGeometry,
    BodyPose,
    ComState,
    LinkSegment,
    PoseFrame,
    SegmentSet,
    Vec2,
    absolute_link_angles,
    com_velocity,
    default_segments,
    forward_kinematics,
    nonarm_com,
    shoulder_frame,
    unit,
)
from .arm_kinetics import (
    PlacementContext,
    TorqueSet,
    VirtualChain,
    arm_force_expanded,
    arm_force_lsq,
    arm_jacobian,
    build_chain,
    mechanical_advantage,
)
from .errors import (
    DegenerateVelocity,
    HandleOptError,
    IllConditioned,
    IndexOutOfRange,
    NoFeasiblePoint,
    ParseError,
    ReachExceeded,
    ScenarioError,
    SchemaError,
    SingularChain,
    ValidationError,
    ZeroTorque,
)
from .placement_opt import (
    JointLimits,
    ObjectiveConfig,
    ObjectiveLandscape,
    Placement,
    RobotParams,
    Violation,
    argmax_lexicographic,
    evaluate_grid,
    feasibility_check,
    grid_axis,
    objective,
    optimize_placement,
)
from .scenario_io import (
    Finding,
    Scenario,
    fixture_path,
    list_fixtures,
    load_scenario,
    make_context,
    read_scenario_file,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
    write_placement_report,
)
from .reporting import render_landscape, render_scene

__version__ = "0.1.0"

__all__ = [
    "FOOT", "SHANK", "THIGH", "TRUNK", "HEAD", "UPPER_ARM", "FOREARM",
    "SEGMENT_NAMES",
    "Vec2", "unit", "LinkSegment", "SegmentSet", "BodyPose", "PoseFrame",
    "BodyGeometry", "ComState",
    "default_segments", "absolute_link_angles", "forward_kinematics",
    "nonarm_com", "com_velocity", "shoulder_frame",
    "TorqueSet", "VirtualChain", "build_chain",
    "arm_force_expanded", "arm_force_lsq", "arm_jacobian", "mechanical_advantage",
    "JointLimits", "ObjectiveConfig", "RobotParams", "Violation",
    "PlacementContext", "ObjectiveLandscape", "Placement",
    "grid_axis", "evaluate_grid", "argmax_lexicographic", "objective",
    "feasibility_check", "optimize_placement",
    "Finding", "Scenario", "scenario_from_dict", "scenario_to_dict",
    "read_scenario_file", "load_scenario", "save_scenario", "validate_scenario",
    "make_context", "fixture_path", "list_fixtures", "write_placement_report",
    "render_scene", "render_landscape",
    "HandleOptError", "DegenerateVelocity", "IndexOutOfRange", "SingularChain",
    "IllConditioned", "ZeroTorque", "NoFeasiblePoint", "ReachExceeded",
    "ScenarioError", "ParseError", "SchemaError", "ValidationError",
    "__version__",
]
