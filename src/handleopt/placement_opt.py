"""Grid-search optimization of the handle placement.

The decision variables are the shoulder and elbow angles (theta_5,
theta_6); every pair maps to a handle position through the arm. The
objective rewards the arm force component along the body's motion
direction and penalizes nearly straight or fully folded elbows:

    J(theta_5, theta_6) = F_arm . v_com  -  a * |cos theta_6|

with torque signs chosen per joint so every force term pushes along
v_com. The search is an exhaustive scan of a fixed grid; evaluation is
vectorized in blocks, and the reduction is a pure elementwise argmax
with a lexicographic tie-break (smaller theta_6, then smaller theta_5),
so results do not depend on evaluation order or chunk size. The forces
come block by block from arm_kinetics.grid_forces, which runs the kernel's
stages over the grid; every cell equals objective() at its angles bit for
bit.
"""

from __future__ import annotations

import math

import numpy as np

from .arm_kinetics import (
    ILL_CONDITIONED_MESSAGE, SINGULAR_MESSAGE, arm_forces, force_vector, grid_forces,
)
from .body_model import Vec2
from .config import (
    JointLimits,
    ObjectiveConfig,
    ObjectiveLandscape,
    Placement,
    PlacementContext,
    RobotParams,
    Violation,
    grid_points,
    oversized_grid,
)
from .errors import IllConditioned, NoFeasiblePoint, SingularChain


def _penalty(config: ObjectiveConfig, cos6):
    """Elbow penalty a * |cos theta_6|, given cos theta_6 as a float or an
    array."""
    return config.a * abs(cos6)


def objective(theta5: float, theta6: float, ctx: PlacementContext, config: ObjectiveConfig) -> float:
    """Single-point objective, equal bit for bit to the matching grid cell.

    Raises SingularChain or IllConditioned exactly where the grid cell
    holds NaN.
    """
    r = arm_forces(ctx, theta5, theta6, config.torque_magnitudes, config.force_model)
    if r.singular:
        raise SingularChain(SINGULAR_MESSAGE)
    if r.ill_conditioned:
        raise IllConditioned(ILL_CONDITIONED_MESSAGE)
    return r.directed - _penalty(config, float(np.cos(theta6)))


def grid_axis(lo: float, hi: float, step: float) -> np.ndarray:
    """Inclusive grid lo, lo+step, ... reaching hi when the span divides.

    Raises ValueError when the grid has more points than a float can count.
    """
    n = grid_points(lo, hi, step)
    if n == math.inf:
        raise ValueError(f"a grid over a span of {hi - lo!r} at a step of {step!r} "
                         "has more points than a float can count")
    return lo + step * np.arange(n, dtype=float)


def robot_checks(hx, hy, robot: RobotParams, floor_y: float, robot_base: Vec2 | None = None):
    """The robot feasibility rule, for one handle point or arrays of them.

    One (kind, value, limit, violated) entry per check: the height above
    floor_y against each inclusive end of handle_height_range and, only
    with a base point, the distance from it against reach_limit (a
    mobile base can otherwise relocate freely).
    """
    height = hy - floor_y
    lo, hi = robot.handle_height_range
    checks = [
        ("handle_height", height, lo, height < lo),
        ("handle_height", height, hi, height > hi),
    ]
    if robot_base is not None:
        dist = np.hypot(hx - robot_base.x, hy - robot_base.y)
        checks.append(("robot_reach", dist, robot.reach_limit, dist > robot.reach_limit))
    return checks


def evaluate_grid(
    ctx: PlacementContext,
    limits: JointLimits,
    config: ObjectiveConfig,
    robot: RobotParams | None = None,
    floor_y: float = 0.0,
    robot_base: Vec2 | None = None,
) -> ObjectiveLandscape:
    """Evaluate the objective over the full (theta_5, theta_6) grid.

    Singular cells, and under lsq the cells whose system is rejected as
    ill-conditioned, are recorded as ineligible (NaN objective) instead of
    raising. Given a robot, cells whose handle violates its reach or
    height window are evaluated but excluded from eligibility. Raises
    ValueError, before allocating, for a grid of more than MAX_GRID_CELLS
    cells or for limits with min > max on either axis.
    """
    too_large = oversized_grid(limits, config.grid_step)
    if too_large is not None:
        raise ValueError(too_large)
    t5 = grid_axis(limits.theta5_min, limits.theta5_max, config.grid_step)
    t6 = grid_axis(limits.theta6_min, limits.theta6_max, config.grid_step)
    obj = np.empty((t5.size, t6.size), dtype=float)
    eligible = np.empty(obj.shape, dtype=bool)
    pen = _penalty(config, np.cos(t6))[None, :]

    for lo, hi, r in grid_forces(ctx, t5, t6, config.torque_magnitudes, config.force_model):
        bad = np.logical_or(r.singular, r.ill_conditioned, out=eligible[lo:hi])
        block = np.subtract(r.directed, pen, out=obj[lo:hi])
        if bad.any():
            block[bad] = np.nan
        ok = np.invert(bad, out=bad)
        if robot is not None:
            for _, _, _, violated in robot_checks(*r.handle, robot, floor_y, robot_base):
                ok &= ~violated
            del violated
        # Drop the block before grid_forces computes the next one, so that
        # one block is in flight and its temporaries reuse this one's memory.
        del r, bad, block, ok

    return ObjectiveLandscape(theta5=t5, theta6=t6, objective=obj, eligible=eligible)


def argmax_lexicographic(landscape: ObjectiveLandscape) -> tuple[int, int]:
    """Indices of the best eligible cell.

    Exact-value ties resolve to the smallest theta_6, then the smallest
    theta_5, matching a sequential scan in that order regardless of how
    the grid was evaluated. One pass finds the maximum over the eligible
    cells. A second lists the cells holding it, and of those the eligible
    ones are kept, since an excluded cell can tie the maximum; the one with
    the smallest (theta_6, theta_5) wins. Raises NoFeasiblePoint when no
    eligible cell has a finite value, or when an eligible cell is NaN,
    which evaluate_grid never makes.
    """
    obj, eligible = landscape.objective, landscape.eligible
    best = np.max(obj, where=eligible, initial=-np.inf)
    if not np.isfinite(best):
        raise NoFeasiblePoint("every grid point is singular or excluded")
    # The winners' flat indices ascend in (theta_5, theta_6) order, so the
    # first of those in the smallest theta_6 column has the smallest theta_5.
    n6 = obj.shape[1]
    winners = np.flatnonzero(obj == best)
    winners = winners[eligible.ravel()[winners]]
    i5, i6 = divmod(int(winners[np.argmin(winners % n6)]), n6)
    return i5, i6


def feasibility_check(
    placement: Placement,
    robot: RobotParams,
    floor_y: float,
    robot_base: Vec2 | None = None,
) -> list[Violation]:
    """Robot-side feasibility findings for a placement's handle.

    Decided by robot_checks, the rule the constrained search applies to
    every cell. Findings never alter the optimum; constrained search
    handles that during evaluation.
    """
    h = placement.handle
    lo, hi = robot.handle_height_range
    out: list[Violation] = []
    for kind, value, limit, violated in robot_checks(h.x, h.y, robot, floor_y, robot_base):
        if not violated:
            continue
        value = float(value)
        if kind == "handle_height":
            message = f"handle {value:.3f} m above floor is outside [{lo:.3f}, {hi:.3f}] m"
        else:
            message = f"handle is {value:.3f} m from the robot base, beyond {limit:.3f} m"
        out.append(Violation(kind=kind, message=message, value=value, limit=limit))
    return out


def optimize_placement(
    ctx: PlacementContext,
    limits: JointLimits,
    config: ObjectiveConfig,
    robot: RobotParams | None = None,
    floor_y: float = 0.0,
    robot_base: Vec2 | None = None,
    constrained: bool = False,
) -> tuple[Placement, ObjectiveLandscape]:
    """Exhaustive grid search for the best handle placement.

    Returns the placement together with the full landscape so reports and
    renderings can reuse the evaluations. The placement's objective_value
    is the grid maximum itself, so it dominates every eligible cell
    exactly. With constrained=True the search excludes the cells the
    robot cannot present, so it needs a robot; raises ValueError without
    one. The robot's feasibility findings are reported either way.
    """
    if constrained and robot is None:
        raise ValueError("a constrained search needs a robot")
    landscape = evaluate_grid(
        ctx, limits, config,
        robot=robot if constrained else None, floor_y=floor_y, robot_base=robot_base,
    )
    i5, i6 = argmax_lexicographic(landscape)
    theta5 = float(landscape.theta5[i5])
    theta6 = float(landscape.theta6[i6])

    r, force = force_vector(ctx, theta5, theta6, config.torque_magnitudes, config.force_model)
    placement = Placement(
        theta5_opt=theta5,
        theta6_opt=theta6,
        handle=Vec2(*r.handle),
        objective_value=float(landscape.objective[i5, i6]),
        f_arm=force,
        torque_signs=tuple(int(s) for s in r.signs),
        feasibility=(),
        argmax_index=(i5, i6),
    )
    if robot is not None:
        placement = placement._replace(feasibility=tuple(feasibility_check(
            placement, robot, floor_y, robot_base,
        )))
    return placement, landscape
