"""Plain types and grid arithmetic shared by parsing, validation and the solver.

Nothing here imports numpy, so reading and validating a scenario,
building its placement context and `import handleopt` run without it;
numpy loads with the solver modules (arm_kinetics, placement_opt and
reporting), when a command solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .body_model import Vec2

if TYPE_CHECKING:
    import numpy as np

FORCE_MODELS = ("expanded", "lsq")

# The elbow grid must keep at least this margin from every multiple of pi,
# where the elbow is straight.
ELBOW_LIMIT_MARGIN = math.radians(2.0)

# Largest grid a scenario may ask for; the full default joint range at a
# 0.05 deg step (about 16.7M cells) still fits.
MAX_GRID_CELLS = 2**24


class PlacementContext(NamedTuple):
    """Everything the objective needs about the body at max effort."""

    shoulder: Vec2
    theta_04: float
    com: Vec2
    v: Vec2
    upper_len: float
    fore_len: float


class JointLimits(NamedTuple):
    """Inclusive optimizer bounds for theta_5 and theta_6, radians."""

    theta5_min: float = math.radians(-60.0)
    theta5_max: float = math.radians(185.0)
    theta6_min: float = math.radians(5.0)
    theta6_max: float = math.radians(175.0)


# The one dataclass left: perfbench/child.py and perfbench/record_reference.py
# build their per-model configs with dataclasses.replace(scenario.objective,
# ...). The other value types are NamedTuples, which are much cheaper to
# create at import; this one can follow once the benchmark stops calling
# dataclasses.replace (ROADMAP item 1).
@dataclass(frozen=True)
class ObjectiveConfig:
    """Objective and search parameters.

    torque_magnitudes is (|tau_5|, |tau_6|, |tau_7|) in newton meters;
    signs are chosen per grid point. grid_step is radians.
    """

    a: float = 0.2
    torque_magnitudes: tuple[float, float, float] = (1.0, 1.0, 1.0)
    force_model: str = "expanded"
    grid_step: float = math.radians(0.5)


class RobotParams(NamedTuple):
    """Support-robot geometry used by the feasibility report.

    handle_height_range is (min, max) height of the handle above the
    floor. The handlebar itself is 0.46 m long and 0.038 m in diameter,
    and the arm can hold it up to 0.44 m from the robot's base point.
    """

    reach_limit: float = 0.44
    handle_height_range: tuple[float, float] = (0.15, 1.60)
    handle_length: float = 0.46
    handle_diameter: float = 0.038


class Violation(NamedTuple):
    """One feasibility finding; value exceeded (or fell outside) limit."""

    kind: str
    message: str
    value: float
    limit: float


class ObjectiveLandscape(NamedTuple):
    """Objective samples over the full grid.

    objective[i5, i6] pairs theta5[i5] with theta6[i6]; singular cells,
    and under lsq the cells rejected as ill-conditioned, hold NaN.
    eligible marks cells that took part in the argmax.
    """

    theta5: np.ndarray
    theta6: np.ndarray
    objective: np.ndarray
    eligible: np.ndarray


class Placement(NamedTuple):
    """Optimization result at the max-effort frame.

    argmax_index is the (i5, i6) landscape cell the optimum came from.
    """

    theta5_opt: float
    theta6_opt: float
    handle: Vec2
    objective_value: float
    f_arm: Vec2
    torque_signs: tuple[int, int, int]
    feasibility: tuple[Violation, ...]
    argmax_index: tuple[int, int]


def grid_points(lo: float, hi: float, step: float) -> int | float:
    """Number of points of the inclusive grid lo, lo+step, ... up to hi.

    Computed without allocating; math.inf when (hi - lo) / step is
    beyond the float range. Equal bounds give one point; hi < lo raises
    ValueError, as a bound that is not finite or a step <= 0 does.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
        raise ValueError("grid bounds and step must be finite")
    if step <= 0.0:
        raise ValueError("grid step must be positive")
    if hi < lo:
        raise ValueError("grid bounds must satisfy lo <= hi")
    span = (hi - lo) / step
    if span == math.inf:
        return math.inf
    return int(math.floor(span + 1e-9)) + 1


def oversized_grid(limits: JointLimits, step: float) -> str | None:
    """Why the (theta_5, theta_6) grid of limits at step is too large, or None.

    A grid is too large when it has more than MAX_GRID_CELLS cells.
    Raises ValueError where grid_points does, as for min > max on an axis.
    """
    cells = (float(grid_points(limits.theta5_min, limits.theta5_max, step))
             * grid_points(limits.theta6_min, limits.theta6_max, step))
    if cells <= MAX_GRID_CELLS:
        return None
    return (f"the joint limits at a {math.degrees(step):g} deg step make {cells:.3g} grid "
            f"cells, more than the {MAX_GRID_CELLS} allowed")
