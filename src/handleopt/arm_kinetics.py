"""Static force analysis of the handle-anchored arm linkage.

Once a handle position is fixed, the grasping arm plus a virtual link
from the shoulder to the consolidated body COM form a planar three-bar
chain whose base joint sits at the handle. Joint torques at the handle
(tau_7), elbow (tau_6) and shoulder (tau_5) then produce a force at the
COM. Two force models are provided:

* expanded: per-joint lever sum. Each torque contributes
  (tau_i / lever_i) along the unit direction (-sin a_i, cos a_i), where
  a_i is a subsidiary angle built from the chain geometry via the law of
  cosines. This is the model the optimizer uses by default.
* lsq: least-squares solution F = (J J^T)^-1 J tau of the
  overdetermined statics J^T F = tau, with J the 2x3 chain Jacobian,
  solved in closed form as a 2x2 system.

The two maps are not algebraically identical for a general chain; tests
record their ratio but the package does not pretend they agree.

arm_forces is the one implementation of both models. It takes the arm
angles as floats or as broadcastable arrays, so the optimizer's grid, a
single objective query and the report all run the same arithmetic text.
Each call picks its primitive set once (primitives_for): arrays run the
NumPy ufuncs; a point query runs on Python floats, and takes every cosine,
sine, arccosine and hypotenuse from the same NumPy ufunc, unwrapped to a
float. The rest of the kernel is + - * / and math.sqrt, which are correctly
rounded in CPython and NumPy alike, max, min, abs and comparisons, which
are exact, and the shoulder's lever and angle, which are floats in both
paths. So a point query equals its grid cell bit for bit by construction,
while it skips the cost of NumPy scalars.

build_chain (returning a VirtualChain), arm_force_expanded and
arm_force_lsq are float-valued views of the same geometry and force
helpers, one configuration at a time. No command or solve calls them: the
tests use them to check the chain piece by piece, and the benchmark's
tracer (perfbench/tracing.py) looks them up by name, so they stay until it
traces arm_forces instead. The Jacobian has no view of its own; the tests
read the columns that the lsq model solves with from _jacobian_columns.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, NamedTuple

import numpy as np

from .body_model import Vec2
from .config import FORCE_MODELS, PlacementContext, TorqueSet
from .errors import IllConditioned, SingularChain, ZeroTorque

# A joint closer than this to the COM (meters) makes the chain singular.
EPS_SINGULAR = 1e-6
# Ceiling on lambda_max / lambda_min of J J^T for the least-squares system.
COND_LIMIT = 1e12

SINGULAR_MESSAGE = f"a joint of the arm chain lies within {EPS_SINGULAR:.0e} m of the COM"
ILL_CONDITIONED_MESSAGE = (
    f"J J^T condition number exceeds {COND_LIMIT:.0e}; levers are nearly parallel"
)


class _Primitives(NamedTuple):
    """The kernel's operations whose form depends on the input type."""

    cos: Callable
    sin: Callable
    arccos: Callable
    hypot: Callable
    maximum: Callable
    minimum: Callable
    sqrt: Callable
    where: Callable  # where(cond, a, b): a where cond holds, else b
    invert: Callable  # logical not


_ON_ARRAYS = _Primitives(
    cos=np.cos, sin=np.sin, arccos=np.arccos, hypot=np.hypot,
    maximum=np.maximum, minimum=np.minimum, sqrt=np.sqrt,
    where=np.where, invert=np.invert,
)
# Python floats take each transcendental value from the NumPy ufunc that the
# arrays use, so both paths round it alike. Do not swap in math.acos or
# math.hypot: with numpy 2.4 on an AVX-512 Xeon they differ from np.arccos
# and np.hypot in the last bit on 9.4% and 0.6% of 200,000 random inputs.
# math.cos and math.sin happened to agree with np.cos and np.sin there, but
# nothing promises that on another build. math.sqrt, max, min and the
# conditional are correctly rounded or exact, as their NumPy forms are.
_ON_FLOATS = _Primitives(
    cos=lambda x: float(np.cos(x)),
    sin=lambda x: float(np.sin(x)),
    arccos=lambda x: float(np.arccos(x)),
    hypot=lambda x, y: float(np.hypot(x, y)),
    maximum=max, minimum=min, sqrt=math.sqrt,
    where=lambda cond, a, b: a if cond else b,
    invert=operator.not_,
)


def primitives_for(*values) -> _Primitives:
    """The NumPy primitives if any value is an array, else the float ones."""
    for x in values:
        if isinstance(x, np.ndarray):
            return _ON_ARRAYS
    return _ON_FLOATS


class VirtualChain(NamedTuple):
    """Geometry of the three-bar chain for one arm configuration.

    lever5/6/7 are the distances from shoulder, elbow and handle to the
    COM. theta_com is the world angle from the shoulder to the COM;
    theta_6com and theta_7com are the subsidiary lever angles for the
    elbow and handle torque terms.
    """

    shoulder: Vec2
    elbow: Vec2
    handle: Vec2
    com: Vec2
    theta_04: float
    theta5: float
    theta6: float
    upper_len: float
    fore_len: float
    lever5: float
    lever6: float
    lever7: float
    theta_com: float
    theta_6com: float
    theta_7com: float

    def unit_directions(self) -> tuple[Vec2, Vec2, Vec2]:
        """Force direction of each torque term (shoulder, elbow, handle)."""
        return (
            Vec2(-math.sin(self.theta_com), math.cos(self.theta_com)),
            Vec2(-math.sin(self.theta_6com), math.cos(self.theta_6com)),
            Vec2(-math.sin(self.theta_7com), math.cos(self.theta_7com)),
        )


class _Geometry(NamedTuple):
    elbow: tuple
    handle: tuple
    levers: tuple  # (d5, d6, d7), floored at EPS_SINGULAR
    singular: object
    theta_com: float
    theta_6com: object
    theta_7com: object


class ArmForces(NamedTuple):
    """Output of arm_forces: builtin floats and bools for float angles, else
    arrays (or plain values) that broadcast over the angles.

    directed is F.v under the chosen model, with the torque signs chosen
    so that every expanded-model term pushes along v. force is (fx, fy):
    the lsq model always has it, the expanded model only at a single
    point, because the grid needs only its projection. signs holds
    (s5, s6, s7), each +1.0 or -1.0. directed and force mean nothing where
    singular (a joint within EPS_SINGULAR of the COM) or ill_conditioned
    (the lsq system rejected; always False under the expanded model).
    """

    directed: object
    force: tuple | None
    signs: tuple
    singular: object
    ill_conditioned: object
    handle: tuple


def _geometry(ops: _Primitives, shoulder: Vec2, theta_04: float, com: Vec2, upper_len: float,
              fore_len: float, theta5, theta6) -> _Geometry:
    """Joint points, levers and lever angles of the chain, computed with ops."""
    sx, sy = shoulder.x, shoulder.y
    cx, cy = com.x, com.y
    l5, l6 = upper_len, fore_len
    phi5 = theta_04 + theta5
    phi6 = phi5 + theta6
    ex = sx + l5 * ops.cos(phi5)
    ey = sy + l5 * ops.sin(phi5)
    hx = ex + l6 * ops.cos(phi6)
    hy = ey + l6 * ops.sin(phi6)

    d5 = math.hypot(cx - sx, cy - sy)
    d6 = ops.hypot(cx - ex, cy - ey)
    d7 = ops.hypot(cx - hx, cy - hy)
    singular = (d5 < EPS_SINGULAR) | (d6 < EPS_SINGULAR) | (d7 < EPS_SINGULAR)
    # Flooring the levers keeps the arithmetic finite where the chain is
    # singular; it changes no lever of a regular chain.
    d5s = max(d5, EPS_SINGULAR)
    d6s = ops.maximum(d6, EPS_SINGULAR)
    d7s = ops.maximum(d7, EPS_SINGULAR)

    # Law of cosines; clamping puts degenerate triangles on the boundary.
    # The ratio comes first in max and min, so that a NaN passes through
    # them as it does through np.maximum and np.minimum.
    c6 = ops.minimum(ops.maximum((l5 * l5 + d6 * d6 - d5 * d5) / (2.0 * l5 * d6s), -1.0), 1.0)
    c7 = ops.minimum(ops.maximum((l6 * l6 + d7 * d7 - d6 * d6) / (2.0 * l6 * d7s), -1.0), 1.0)
    return _Geometry(
        elbow=(ex, ey),
        handle=(hx, hy),
        levers=(d5s, d6s, d7s),
        singular=singular,
        theta_com=math.atan2(cy - sy, cx - sx),
        theta_6com=phi5 - math.pi - ops.arccos(c6),
        theta_7com=phi6 - math.pi + ops.arccos(c7),
    )


def _expanded_force(levers, units, tau5, tau6, tau7) -> tuple:
    """Lever-sum force vector: F = sum_i (tau_i / lever_i) * u_i."""
    (d5, d6, d7), (u5, u6, u7) = levers, units
    k5, k6, k7 = tau5 / d5, tau6 / d6, tau7 / d7
    return k5 * u5[0] + k6 * u6[0] + k7 * u7[0], k5 * u5[1] + k6 * u6[1] + k7 * u7[1]


def _jacobian_columns(shoulder, elbow, handle, com) -> tuple:
    """Columns of the 2x3 Jacobian of the COM point w.r.t. the chain's joint
    angles, as (x, y) pairs. The chain is anchored at the handle, so they
    are ordered (handle, elbow, shoulder) to match (tau_7, tau_6, tau_5).
    Each is the +90 degree rotation of that joint's vector to the COM."""
    cx, cy = com
    (sx, sy), (ex, ey), (hx, hy) = shoulder, elbow, handle
    return (-(cy - hy), cx - hx), (-(cy - ey), cx - ex), (-(cy - sy), cx - sx)


def _lsq_force(ops: _Primitives, columns, tau5, tau6, tau7) -> tuple:
    """Closed-form solve of the 2x2 normal equations (J J^T) F = J tau.

    Returns (fx, fy, ill_conditioned); the system is rejected where
    lambda_max / lambda_min of J J^T exceeds COND_LIMIT.
    """
    (c7x, c7y), (c6x, c6y), (c5x, c5y) = columns
    a11 = c5x * c5x + c6x * c6x + c7x * c7x
    a12 = c5x * c5y + c6x * c6y + c7x * c7y
    a22 = c5y * c5y + c6y * c6y + c7y * c7y
    bx = tau5 * c5x + tau6 * c6x + tau7 * c7x
    by = tau5 * c5y + tau6 * c6y + tau7 * c7y
    tr = a11 + a22
    # d * d, not d ** 2: NumPy squares an array by multiplying, while
    # Python's ** on a float goes through C pow.
    d = a11 - a22
    disc = ops.sqrt(d * d + 4.0 * a12 * a12)
    lam_min = 0.5 * (tr - disc)
    lam_max = 0.5 * (tr + disc)
    ok = (lam_min > 0.0) & (lam_max <= COND_LIMIT * lam_min)
    det = ops.where(ok, a11 * a22 - a12 * a12, 1.0)
    fx = (a22 * bx - a12 * by) / det
    fy = (a11 * by - a12 * bx) / det
    return fx, fy, ops.invert(ok)


def arm_forces(ctx: PlacementContext, theta5, theta6,
               magnitudes: tuple[float, float, float], model: str) -> ArmForces:
    """Arm force along v at shoulder/elbow angles theta5, theta6.

    The angles are floats or arrays that broadcast against each other;
    magnitudes is (|tau_5|, |tau_6|, |tau_7|). Each torque sign is +1
    where that joint's lever-sum direction has a non-negative dot product
    with v, so every expanded-model term s_i |tau_i| / lever_i |u_i . v|
    is >= 0; the lsq model uses the same signs. Raises ValueError for a
    model outside FORCE_MODELS.
    """
    if model not in FORCE_MODELS:
        raise ValueError(f"force model must be one of {list(FORCE_MODELS)}, got {model!r}")
    ops = primitives_for(theta5, theta6)
    g = _geometry(ops, ctx.shoulder, ctx.theta_04, ctx.com, ctx.upper_len, ctx.fore_len,
                  theta5, theta6)
    vx, vy = ctx.v.x, ctx.v.y
    m5, m6, m7 = magnitudes
    d5, d6, d7 = g.levers

    # Unit force direction (-sin a, cos a) of each torque term.
    u5 = (-math.sin(g.theta_com), math.cos(g.theta_com))
    u6 = (-ops.sin(g.theta_6com), ops.cos(g.theta_6com))
    u7 = (-ops.sin(g.theta_7com), ops.cos(g.theta_7com))
    u5v = u5[0] * vx + u5[1] * vy
    u6v = u6[0] * vx + u6[1] * vy
    u7v = u7[0] * vx + u7[1] * vy
    s5 = 1.0 if u5v >= 0.0 else -1.0
    s6 = 2.0 * (u6v >= 0.0) - 1.0
    s7 = 2.0 * (u7v >= 0.0) - 1.0

    if model == "lsq":
        columns = _jacobian_columns(
            (ctx.shoulder.x, ctx.shoulder.y), g.elbow, g.handle, (ctx.com.x, ctx.com.y))
        fx, fy, ill = _lsq_force(ops, columns, m5 * s5, m6 * s6, m7 * s7)
        directed, force = fx * vx + fy * vy, (fx, fy)
    else:
        ill = False
        directed = m5 / d5 * abs(u5v) + m6 / d6 * abs(u6v) + m7 / d7 * abs(u7v)
        force = None
        if ops is _ON_FLOATS:
            force = _expanded_force(g.levers, (u5, u6, u7), m5 * s5, m6 * s6, m7 * s7)
    return ArmForces(directed=directed, force=force, signs=(s5, s6, s7),
                     singular=g.singular, ill_conditioned=ill, handle=g.handle)


def build_chain(
    shoulder: Vec2,
    theta_04: float,
    theta5: float,
    theta6: float,
    upper_len: float,
    fore_len: float,
    com: Vec2,
) -> VirtualChain:
    """The chain at one arm configuration; raises SingularChain when a
    joint lies within EPS_SINGULAR of the COM."""
    g = _geometry(_ON_FLOATS, shoulder, theta_04, com, upper_len, fore_len, theta5, theta6)
    if g.singular:
        raise SingularChain(SINGULAR_MESSAGE)
    d5, d6, d7 = g.levers
    return VirtualChain(
        shoulder=shoulder,
        elbow=Vec2(*g.elbow),
        handle=Vec2(*g.handle),
        com=com,
        theta_04=theta_04, theta5=theta5, theta6=theta6,
        upper_len=upper_len, fore_len=fore_len,
        lever5=d5, lever6=d6, lever7=d7,
        theta_com=g.theta_com,
        theta_6com=g.theta_6com,
        theta_7com=g.theta_7com,
    )


def arm_force_expanded(chain: VirtualChain, torques: TorqueSet) -> Vec2:
    """Per-joint lever sum: F = sum_i (tau_i / lever_i) * u_i."""
    units = tuple((u.x, u.y) for u in chain.unit_directions())
    fx, fy = _expanded_force(
        (chain.lever5, chain.lever6, chain.lever7), units,
        torques.tau5, torques.tau6, torques.tau7,
    )
    return Vec2(fx, fy)


def arm_force_lsq(chain: VirtualChain, torques: TorqueSet) -> Vec2:
    """Least-squares force: F = (J J^T)^-1 J tau, tau = (tau_7, tau_6, tau_5)."""
    columns = _jacobian_columns(
        (chain.shoulder.x, chain.shoulder.y), (chain.elbow.x, chain.elbow.y),
        (chain.handle.x, chain.handle.y), (chain.com.x, chain.com.y))
    fx, fy, ill = _lsq_force(_ON_FLOATS, columns, torques.tau5, torques.tau6, torques.tau7)
    if ill:
        raise IllConditioned(ILL_CONDITIONED_MESSAGE)
    return Vec2(fx, fy)


def mechanical_advantage(force: Vec2, torques: TorqueSet) -> float:
    """Force magnitude per unit torque magnitude, |F| / |tau|."""
    n = torques.norm()
    if n == 0.0:
        raise ZeroTorque("mechanical advantage is undefined for zero torques")
    return force.norm() / n
