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

_arm_forces is the one implementation of both models, and it has two
callers, each with its own primitive set. A point query (arm_forces, behind
objective(), the optimum and the report) runs on Python floats, and takes
every cosine, sine, arccosine and hypotenuse from the same NumPy ufunc as
the grid, unwrapped to a float. The rest of the kernel is + - * / and
math.sqrt, which are correctly rounded in CPython and NumPy alike, max,
min, abs and comparisons, which are exact, and the shoulder's lever and
angle, which are floats in both paths. So a point query equals its grid
cell bit for bit by construction, while it skips the cost of NumPy scalars.

The grid search (placement_opt.evaluate_grid) runs the same kernel text
on arrays, with the primitives of a GridTrig, built once per grid.
The handle angle phi6 = phi5 + theta6 takes only a few values per
anti-diagonal of the grid, so GridTrig tables np.cos and np.sin per
diagonal and serves a cell from the table only where its phi6 has the very
bits of a table entry. Every other cell is computed directly. Either way a
cell holds np.cos and np.sin of its own phi6, so parity still holds by
construction, and the grid makes two libm calls a cell fewer.

What remains per grid cell is the handle term; the shoulder and elbow terms
depend on theta5 alone and are computed once per row. The expanded model
makes four transcendental calls a cell: np.hypot for the handle's lever,
then np.arccos, np.sin and np.cos for its lever angle and direction. The
lsq model uses that direction only for the sign s7 of its projection on v,
which it takes from the angle-sum form of _lsq_handle_dot (a square root
and products). It makes np.hypot a cell, and the three angle calls only
for the cells where that form lies within SIGN_BAND (1e-9) of zero, where
its sign could differ from the angle form's; a float point query takes
the same branch. The packaged fixtures' grids hold no such cell.

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
from numpy.lib.stride_tricks import sliding_window_view

from .body_model import Vec2
from .config import FORCE_MODELS, PlacementContext, TorqueSet
from .errors import IllConditioned, SingularChain, ZeroTorque

# A joint closer than this to the COM (meters) makes the chain singular.
EPS_SINGULAR = 1e-6
# Ceiling on lambda_max / lambda_min of J J^T for the least-squares system.
COND_LIMIT = 1e12
# Half-width of the band around u7 . v = 0 where the lsq model takes the
# handle torque's sign from the handle's lever angle (see _lsq_handle_dot).
SIGN_BAND = 1e-9

SINGULAR_MESSAGE = f"a joint of the arm chain lies within {EPS_SINGULAR:.0e} m of the COM"
ILL_CONDITIONED_MESSAGE = (
    f"J J^T condition number exceeds {COND_LIMIT:.0e}; levers are nearly parallel"
)


class _Primitives(NamedTuple):
    """The kernel's operations whose form differs between a point query
    (_ON_FLOATS) and a grid block (GridTrig.rows)."""

    cos_sin_sum: Callable  # (phi5, theta6) -> (phi6, cos phi6, sin phi6), phi6 = phi5 + theta6
    cos: Callable
    sin: Callable
    arccos: Callable
    hypot: Callable
    maximum: Callable
    minimum: Callable
    sqrt: Callable
    where: Callable  # where(cond, a, b): a where cond holds, else b
    invert: Callable  # logical not
    # in_band(a, exact, *args): a, except where not |a| > SIGN_BAND (NaN
    # included), where it is exact(*args) with each arg taken there
    in_band: Callable


def _cos_sin_sum_float(phi5, theta6):
    phi6 = phi5 + theta6
    return phi6, float(np.cos(phi6)), float(np.sin(phi6))


# Python floats take each transcendental value from the NumPy ufunc that the
# grid uses, so both paths round it alike. Do not swap in math.acos or
# math.hypot: with numpy 2.4 on an AVX-512 Xeon they differ from np.arccos
# and np.hypot in the last bit on 9.4% and 0.6% of 200,000 random inputs.
# math.cos and math.sin happened to agree with np.cos and np.sin there, but
# nothing promises that on another build. math.sqrt, max, min and the
# conditional are correctly rounded or exact, as their NumPy forms are.
_ON_FLOATS = _Primitives(
    cos_sin_sum=_cos_sin_sum_float,
    cos=lambda x: float(np.cos(x)),
    sin=lambda x: float(np.sin(x)),
    arccos=lambda x: float(np.arccos(x)),
    hypot=lambda x, y: float(np.hypot(x, y)),
    maximum=max, minimum=min, sqrt=math.sqrt,
    where=lambda cond, a, b: a if cond else b,
    invert=operator.not_,
    in_band=lambda a, exact, *args: a if abs(a) > SIGN_BAND else exact(*args),
)


def _in_band_rows(a, exact, *args):
    """in_band on a grid block: exact runs on the in-band cells alone."""
    out = np.abs(a) > SIGN_BAND
    if not out.all():
        miss = np.flatnonzero(~out)
        np.put(a, miss, exact(*(x.take(miss) for x in args)))
    return a


# GridTrig tables each anti-diagonal's reference sum and the _ULPS floats on
# either side of it.
_ULPS = 2
_SLOTS = 2 * _ULPS + 1


class GridTrig:
    """cos and sin of phi6 = phi5[i] + theta6[j] over one grid, from a table.

    With one grid step on both axes, the sums along an anti-diagonal
    i + j = d are one angle up to rounding, a few floats apart. The table
    holds np.cos and np.sin of the _SLOTS consecutive floats centred on the
    sum at the middle cell of each diagonal. A cell whose phi6 has one of
    those bit patterns (a hit) takes the table's value, which is np.cos and
    np.sin of its own bits; any other cell (a miss, such as where phi6
    crosses zero) is computed directly. Every value is therefore the one
    the ufuncs give, whatever the steps. Build it once per grid: rows(lo, hi)
    returns the kernel's array primitives for the grid rows lo:hi.
    """

    def __init__(self, phi5: np.ndarray, theta6: np.ndarray):
        n5, n6 = phi5.size, theta6.size
        d = np.arange(n5 + n6 - 1)
        mid = (np.maximum(d - (n6 - 1), 0) + np.minimum(d, n5 - 1)) // 2
        ref = (phi5[mid] + theta6[d - mid]).view(np.int64)
        # int64 arithmetic wraps, so some slots next to -0.0 or the largest
        # floats hold NaN bit patterns, which no finite phi6 has.
        low = ref - _ULPS
        with np.errstate(invalid="ignore"):
            angles = (low[:, None] + np.arange(_SLOTS)).view(float)
            self._cos = np.cos(angles).ravel()
            self._sin = np.sin(angles).ravel()
        # Row i of these views holds the values of diagonals i .. i + n6 - 1.
        self._low = sliding_window_view(low, n6)
        self._offset = sliding_window_view(_SLOTS * d, n6)

    def rows(self, lo: int, hi: int) -> _Primitives:
        """The array primitives for grid rows lo:hi."""
        low, offset = self._low[lo:hi], self._offset[lo:hi]

        def cos_sin_sum(phi5, theta6):
            phi6 = phi5 + theta6
            # Slot of each cell within its diagonal's table row. The
            # difference wraps, so a cell hits only when its bits are one of
            # the slots'.
            k = phi6.view(np.int64) - low
            hit = k.view(np.uint64) < _SLOTS
            k += offset
            c = self._cos.take(k, mode="clip")
            s = self._sin.take(k, mode="clip")
            if not hit.all():
                miss = np.flatnonzero(~hit)
                angles = phi6.take(miss)
                np.put(c, miss, np.cos(angles))
                np.put(s, miss, np.sin(angles))
            return phi6, c, s

        return _Primitives(
            cos_sin_sum=cos_sin_sum, cos=np.cos, sin=np.sin, arccos=np.arccos, hypot=np.hypot,
            maximum=np.maximum, minimum=np.minimum, sqrt=np.sqrt,
            where=np.where, invert=np.invert, in_band=_in_band_rows,
        )


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
    """The chain as the kernel needs it. The handle's lever angle
    theta_7com is left to its users (_theta_7com), since the lsq grid
    needs only the sign of its direction's projection on v."""

    elbow: tuple
    handle: tuple
    levers: tuple  # (d5, d6, d7), floored at EPS_SINGULAR
    singular: object
    theta_com: float
    theta_6com: object
    phi6: object  # world angle of the forearm, phi5 + theta6
    cos6: object  # cos phi6
    sin6: object  # sin phi6
    c7: object  # cosine of the handle's angle in the elbow-handle-COM triangle


class ArmForces(NamedTuple):
    """Output of _arm_forces: builtin floats and bools from arm_forces, else
    arrays (or plain values) that broadcast over a grid block's angles.

    directed is F.v under the chosen model, with the torque signs chosen
    so that every expanded-model term pushes along v. force is (fx, fy):
    the lsq model always has it, the expanded model only at a single
    point, because the grid needs only its projection. signs holds
    (s5, s6, s7), each +1.0 or -1.0, the sign of u_i . v for each torque
    term's unit direction u_i; both models give the same signs, although
    the lsq model computes s7 from an angle-sum form (_lsq_handle_dot).
    directed and force mean nothing where singular (a joint within
    EPS_SINGULAR of the COM) or ill_conditioned (the lsq system rejected;
    always False under the expanded model).
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
    phi6, cos6, sin6 = ops.cos_sin_sum(phi5, theta6)
    ex = sx + l5 * ops.cos(phi5)
    ey = sy + l5 * ops.sin(phi5)
    hx = ex + l6 * cos6
    hy = ey + l6 * sin6

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
        phi6=phi6, cos6=cos6, sin6=sin6, c7=c7,
    )


def _theta_7com(ops: _Primitives, phi6, c7):
    """The handle term's lever angle, phi6 - pi + arccos(c7)."""
    return phi6 - math.pi + ops.arccos(c7)


def _handle_term(ops: _Primitives, phi6, c7, vx: float, vy: float) -> tuple:
    """(u7, u7 . v): the handle term's unit force direction
    u7 = (-sin a, cos a) at its lever angle a, and its projection on v."""
    a = _theta_7com(ops, phi6, c7)
    u7 = (-ops.sin(a), ops.cos(a))
    return u7, u7[0] * vx + u7[1] * vy


def _lsq_handle_dot(ops: _Primitives, g: _Geometry, vx: float, vy: float):
    """u7 . v for the lsq model, which uses u7 only through its sign s7.

    With alpha = arccos(c7) the lever angle is phi6 - pi + alpha, so the
    angle-sum identity gives u7 . v = sin(phi6 + alpha) vx - cos(phi6 + alpha) vy,
    where cos alpha = c7, sin alpha = sqrt((1 - c7)(1 + c7)), and the cosine
    and sine of phi6 are at hand: no arccos, sin or cos. For a unit v and
    |c7| <= 1, this form lies within 4e-16 of the exact u7 . v of the same
    phi6 and c7, and _handle_term's within 1.3e-15 for |phi6| <= pi (the
    largest gap between the two over 2M random inputs: 1.3e-15). The
    latter's error grows with |phi6| through the rounding of phi6 - pi, to
    1.3e-11 at |phi6| = 1e5 rad, which bounds every phi6 validate admits.
    So where this form exceeds SIGN_BAND in magnitude the two have one
    sign, and where it does not (NaN included) _handle_term is computed and
    decides. s7 keeps the bits of the angle form in every cell, and a grid
    computes that form only for the cells in the band.
    """
    c7, cos6, sin6 = g.c7, g.cos6, g.sin6
    r7 = ops.sqrt((1.0 - c7) * (1.0 + c7))
    dot = (sin6 * c7 + cos6 * r7) * vx - (cos6 * c7 - sin6 * r7) * vy
    return ops.in_band(dot, lambda phi6, c7: _handle_term(ops, phi6, c7, vx, vy)[1], g.phi6, c7)


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


def arm_forces(ctx: PlacementContext, theta5: float, theta6: float,
               magnitudes: tuple[float, float, float], model: str) -> ArmForces:
    """Arm force along v at the float shoulder/elbow angles theta5, theta6.

    magnitudes is (|tau_5|, |tau_6|, |tau_7|). Each torque sign is +1
    where that joint's lever-sum direction has a non-negative dot product
    with v, so every expanded-model term s_i |tau_i| / lever_i |u_i . v|
    is >= 0; the lsq model uses the same signs. Raises ValueError for a
    model outside FORCE_MODELS.
    """
    return _arm_forces(_ON_FLOATS, ctx, theta5, theta6, magnitudes, model)


def _arm_forces(ops: _Primitives, ctx: PlacementContext, theta5, theta6,
                magnitudes: tuple[float, float, float], model: str) -> ArmForces:
    """arm_forces, computed with ops."""
    if model not in FORCE_MODELS:
        raise ValueError(f"force model must be one of {list(FORCE_MODELS)}, got {model!r}")
    g = _geometry(ops, ctx.shoulder, ctx.theta_04, ctx.com, ctx.upper_len, ctx.fore_len,
                  theta5, theta6)
    vx, vy = ctx.v.x, ctx.v.y
    m5, m6, m7 = magnitudes
    d5, d6, d7 = g.levers

    # Unit force direction (-sin a, cos a) of each torque term.
    u5 = (-math.sin(g.theta_com), math.cos(g.theta_com))
    u6 = (-ops.sin(g.theta_6com), ops.cos(g.theta_6com))
    u5v = u5[0] * vx + u5[1] * vy
    u6v = u6[0] * vx + u6[1] * vy
    if model == "lsq":
        u7v = _lsq_handle_dot(ops, g, vx, vy)
    else:
        u7, u7v = _handle_term(ops, g.phi6, g.c7, vx, vy)
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
        theta_7com=_theta_7com(_ON_FLOATS, g.phi6, g.c7),
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
