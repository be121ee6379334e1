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
  solved in closed form as a 2x2 system. Its rejection rule is decided
  from the trace and determinant of J J^T, with no eigenvalue computed.

The two maps are not algebraically identical for a general chain; tests
record their ratio but the package does not pretend they agree.

One kernel text implements both models, in three stages split by what
each value depends on:

* context (_shoulder_terms): the shoulder's lever d5, the angle theta_com
  from the shoulder to the COM, the shoulder term's u5 . v and the
  shoulder's Jacobian column;
* row (_elbow_terms): the terms of theta5 alone, namely phi5, the elbow
  point, the elbow's lever d6, the law-of-cosines c6 and lever angle
  theta_6com, u6 . v and whether the shoulder or elbow is singular, then
  the shoulder's and elbow's parts of the force: their share of the lever
  sum under expanded, and of the 2x2 normal equations under lsq;
* cell (_cell_forces): the terms of theta6, namely phi6, the handle point,
  its lever d7, c7 and the handle term, then the force along v, with the
  handle's part added last to the row stage's.

The kernel computes only what a grid cell holds: the force along v, the
torque signs, the handle point and the singular and rejected flags. It has
two callers, each with its own primitive set. A point query (arm_forces,
behind objective() and force_vector) runs the row and cell stages on
Python floats, and the context stage once for a run of calls on one
context. It takes every cosine, sine, arccosine and hypotenuse from
the same C function as the grid's ufunc: the first three from the NumPy
ufunc itself, unwrapped to a float, and the hypotenuse from abs() of a
complex, which CPython computes with the C library's hypot, as np.hypot
does. The rest of the kernel is + - * / and math.sqrt, which are
correctly rounded in CPython and NumPy alike; abs and comparisons, which
are exact; the conditionals b if b > a else a and b if b < a else a for
np.maximum(a, b) and np.minimum(a, b), which return one operand's bits and
pass a NaN first operand through as the ufuncs do; and the context stage,
which is floats in both paths. So a point query equals its grid cell bit
for bit by construction, while it skips the cost of NumPy scalars.

The grid (grid_forces, behind placement_opt.evaluate_grid) runs the same
stages on arrays, with the primitives of a GridTrig, built once per grid:
the context and row stages once per grid, the row stage on the whole theta5
axis as a column, and the cell stage once per block of rows, on those rows'
slices of the row stage. One block of at most _BLOCK_CELLS cells is in
flight at a time, which bounds peak memory beyond the landscape itself and
the row stage's few arrays of one value a row. That holds only if the
consumer holds one block and drops every name bound to it before the next
next(), since the generator cannot free what its caller still holds
(evaluate_grid ends its loop body with a del). The next block's
temporaries then reuse the memory just freed. Each element goes through
the same operations in the same order wherever it is computed, so neither
the stages nor the block size change a bit.
The cell stage updates each array it creates in place (t = b * c; t += a
for a + b * c), which on a float only rebinds the name to the same value,
so both callers still run one text. It swaps only the operands of + and *,
regroups nothing, and writes no array it did not create: never the row
stage's slices, the GridTrig tables or theta6, which every block shares.
The handle angle phi6 = phi5 + theta6 takes only a few values per
anti-diagonal of the grid, so GridTrig tables np.cos and np.sin per
diagonal and serves a cell from the table only where its phi6 has the very
bits of a table entry. Every other cell is computed directly. Either way a
cell holds np.cos and np.sin of its own phi6, so parity still holds by
construction, and the grid makes two libm calls a cell fewer.

What remains per grid cell is the cell stage. The expanded model makes
four transcendental calls a cell: np.hypot for the handle's lever, then
np.arccos, np.sin and np.cos for its lever angle a and direction
u7 = (-sin a, cos a). It builds no u7 and takes u7 . v as
sin a (-vx) + cos a vy, which has the bits of (-sin a) vx + cos a vy. The lsq
model uses that direction only for the sign s7 of its projection on v,
which it takes from the angle-sum form of _lsq_handle_dot: np.hypot and
a square root a cell, and no angle calls.

build_chain(ctx, theta5, theta6) (returning a VirtualChain),
arm_force_expanded and arm_force_lsq are float-valued views of the same
geometry and force helpers, one configuration at a time. build_chain
shares the point queries' cached context stage, so force_vector, the one
place that applies the views, runs that stage once per context when it
gives the force vector F of the optimum and of the report for both models.
The views take every value as a point query does. So
under lsq F is bit for bit the vector whose projection on v the kernel
computes, and under expanded it is the lever sum of the very terms whose
projections on v the kernel adds. The tests use the views to check the
chain piece by piece, and the benchmark's tracer (perfbench/tracing.py)
times them by name. The Jacobian has no view of its own; the tests read
the columns that the lsq model solves with from _jacobian_column.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Iterator, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .body_model import Vec2
from .config import FORCE_MODELS, PlacementContext
from .errors import IllConditioned, SingularChain, ZeroTorque

# A joint closer than this to the COM (meters) makes the chain singular.
EPS_SINGULAR = 1e-6
# Ceiling on lambda_max / lambda_min of J J^T for the least-squares system.
COND_LIMIT = 1e12
# The bound on trace^2 / det of J J^T that COND_LIMIT implies (_lsq_force).
_TRACE2_PER_DET = (1.0 + COND_LIMIT) ** 2 / COND_LIMIT
# Cells evaluated per vectorized block; bounds peak memory, not results.
# A block's temporaries (by tracemalloc, about 90 bytes a cell under
# expanded and 140 under lsq) then stay in a core's L2 cache and are reused
# by the allocator from one block to the next, where larger blocks are
# paged in afresh.
_BLOCK_CELLS = 8_192

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


def _cos_sin_sum_float(phi5, theta6):
    phi6 = phi5 + theta6
    return phi6, float(np.cos(phi6)), float(np.sin(phi6))


def _hypot_float(x, y):
    """The C library's hypot of two floats, as np.hypot gives it."""
    try:
        h = abs(complex(x, y))
    except OverflowError:
        return math.inf
    # CPython answers a NaN itself, with a NaN of its own sign; np.hypot
    # gives back the first NaN operand, and so does this. Not x + y: CPython
    # 3.11 gives nan + (-nan) the second operand's NaN until its adaptive
    # interpreter specializes the addition (never, under a trace hook), and
    # the first operand's NaN after.
    return h if h == h else (x if x != x else y)


# Python floats take each transcendental value from the C function that the
# grid's ufunc calls, so both paths round it alike: the NumPy ufunc itself for
# the cosine, sine and arccosine, and _hypot_float for the hypotenuse (a test
# in test_arm_kinetics.py pins it to np.hypot). Do not swap in math.acos or
# math.hypot: math.hypot is CPython's own algorithm, and with numpy 2.4 on an
# AVX-512 Xeon the two differ from np.arccos and np.hypot in the last bit on
# 9.4% and 0.6% of 200,000 random inputs. math.cos and math.sin happened to
# agree with np.cos and np.sin there, but nothing promises that on another
# build. math.sqrt is correctly rounded, as np.sqrt is. maximum and minimum
# are the conditionals that max and min compute, without their call cost:
# they return the first operand unless the second compares greater (less),
# so a NaN first operand passes through, as it does through np.maximum and
# np.minimum. The kernel's second operand is always a constant (a test pins
# both against their NumPy forms).
_ON_FLOATS = _Primitives(
    cos_sin_sum=_cos_sin_sum_float,
    cos=lambda x: float(np.cos(x)),
    sin=lambda x: float(np.sin(x)),
    arccos=lambda x: float(np.arccos(x)),
    hypot=_hypot_float,
    maximum=lambda a, b: b if b > a else a,
    minimum=lambda a, b: b if b < a else a,
    sqrt=math.sqrt,
    where=lambda cond, a, b: a if cond else b,
    invert=operator.not_,
)


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
            where=np.where, invert=np.invert,
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
    lever5: float
    lever6: float
    lever7: float
    theta_com: float
    theta_6com: float
    theta_7com: float

    def unit_directions(self) -> tuple[Vec2, Vec2, Vec2]:
        """Force direction of each torque term (shoulder, elbow, handle).

        Each is taken as the kernel takes it, so that arm_force_expanded
        gives the report's f_arm bit for bit: u5 from math, as the context
        stage does, and u6 and u7 from the _ON_FLOATS ufuncs, as a point
        query does.
        """
        sin, cos = _ON_FLOATS.sin, _ON_FLOATS.cos
        return (
            Vec2(-math.sin(self.theta_com), math.cos(self.theta_com)),
            Vec2(-sin(self.theta_6com), cos(self.theta_6com)),
            Vec2(-sin(self.theta_7com), cos(self.theta_7com)),
        )


class ArmForces(NamedTuple):
    """Output of the cell stage (_cell_forces): builtin floats and bools from
    arm_forces, else arrays (or plain values) that broadcast over a grid
    block's angles.

    directed is F.v under the chosen model, with the torque signs chosen
    so that every expanded-model term pushes along v. F itself is not held:
    force_vector takes it from a chain view (arm_force_expanded or
    arm_force_lsq of build_chain) at the torques s_i |tau_i|, and under lsq
    its projection on v is directed bit for bit. signs holds
    (s5, s6, s7), each +1.0 or -1.0, the sign of u_i . v for each torque
    term's unit direction u_i. The lsq model computes that projection for
    s7 from an angle-sum form (_lsq_handle_dot), the expanded model from
    the lever angle, and the two round differently: where |u7 . v| lies
    within their rounding gap of zero (1.3e-15 for |phi6| <= pi, 1.3e-11
    up to 1e5 rad), the models may give s7 opposite signs, and either is
    rounding noise. Elsewhere both models give the same signs.
    directed means nothing where singular (a joint within EPS_SINGULAR of
    the COM) or ill_conditioned (the lsq system rejected; always False
    under the expanded model).
    """

    directed: object
    signs: tuple
    singular: object
    ill_conditioned: object
    handle: tuple


def _shoulder_terms(ctx: PlacementContext) -> tuple:
    """The context stage: the shoulder's terms, floats of the context alone.

    Returns (d5, d5s, u5v, s5, column5, theta_com): the shoulder's lever
    and the same floored at EPS_SINGULAR, the projection on v of the
    shoulder term's unit force direction u5 = (-sin theta_com, cos theta_com)
    and the sign s5 of that, the shoulder's Jacobian column
    (_jacobian_column), and the world angle theta_com of the shoulder's
    vector to the COM.
    """
    sx, sy = ctx.shoulder
    cx, cy = ctx.com
    to_com5 = (cx - sx, cy - sy)
    d5 = math.hypot(*to_com5)
    theta_com = math.atan2(to_com5[1], to_com5[0])
    u5v = -math.sin(theta_com) * ctx.v.x + math.cos(theta_com) * ctx.v.y
    return (d5, max(d5, EPS_SINGULAR), u5v, 1.0 if u5v >= 0.0 else -1.0,
            _jacobian_column(to_com5), theta_com)


def _elbow_terms(ops: _Primitives, ctx: PlacementContext, shoulder: tuple, theta5,
                 magnitudes: tuple[float, float, float], model: str) -> tuple:
    """The row stage: the terms of theta5 alone, computed with ops on the
    context stage's shoulder terms, and the shoulder's and elbow's parts of
    the force under model, with the torque magnitudes (|tau_5|, |tau_6|,
    |tau_7|). Raises ValueError for a model outside FORCE_MODELS.

    Returns (phi5, ex, ey, d6, singular, d6s, s6, theta_6com, *parts): the
    upper arm's world angle, the elbow point, the elbow's lever, whether the
    shoulder or the elbow lies within EPS_SINGULAR of the COM, the lever
    floored, the sign s6 of the projection on v of the elbow term's unit
    force direction u6 = (-sin theta_6com, cos theta_6com), and u6's lever
    angle theta_6com.
    _handle_terms reads the first five. parts is the lever sum of the
    shoulder's and elbow's terms under expanded, and their shares of the
    normal equations (_lsq_shares) under lsq. The cell stage adds the
    handle's part last, as a sum over the three joints in turn would, so
    the split changes no bit.
    """
    if model not in FORCE_MODELS:
        raise ValueError(f"force model must be one of {list(FORCE_MODELS)}, got {model!r}")
    d5, d5s, u5v, s5, column5, _ = shoulder
    l5 = ctx.upper_len
    phi5 = ctx.theta_04 + theta5
    ex = ctx.shoulder.x + l5 * ops.cos(phi5)
    ey = ctx.shoulder.y + l5 * ops.sin(phi5)
    dx6, dy6 = ctx.com.x - ex, ctx.com.y - ey
    d6 = ops.hypot(dx6, dy6)
    # Flooring the levers keeps the arithmetic finite where the chain is
    # singular; it changes no lever of a regular chain.
    d6s = ops.maximum(d6, EPS_SINGULAR)
    # Law of cosines; clamping puts degenerate triangles on the boundary.
    # The ratio comes first in maximum and minimum, so that a NaN passes
    # through them as it does through np.maximum and np.minimum.
    c6 = ops.minimum(ops.maximum((l5 * l5 + d6 * d6 - d5 * d5) / (2.0 * l5 * d6s), -1.0), 1.0)
    theta_6com = phi5 - math.pi - ops.arccos(c6)
    u6v = -ops.sin(theta_6com) * ctx.v.x + ops.cos(theta_6com) * ctx.v.y
    s6 = ops.where(u6v >= 0.0, 1.0, -1.0)
    singular = (d5 < EPS_SINGULAR) | (d6 < EPS_SINGULAR)
    m5, m6, _ = magnitudes
    if model == "lsq":
        parts = _lsq_shares(column5, _jacobian_column((dx6, dy6)), m5 * s5, m6 * s6)
    else:
        parts = (m5 / d5s * abs(u5v) + m6 / d6s * abs(u6v),)
    return (phi5, ex, ey, d6, singular, d6s, s6, theta_6com) + parts


def _handle_terms(ops: _Primitives, ctx: PlacementContext, row: tuple, theta6) -> tuple:
    """The cell stage's geometry: the handle at theta6 on a row of the row
    stage's elbow terms, computed with ops.

    Returns (phi6, cos6, sin6, hx, hy, to_com7, d7s, singular, c7): the
    forearm's world angle phi5 + theta6 with its cosine and sine, the handle
    point, its vector to the COM, the handle's lever floored at EPS_SINGULAR,
    whether any joint lies within EPS_SINGULAR of the COM, and the cosine of
    the handle's angle in the elbow-handle-COM triangle. The handle's lever
    angle is left to its users (_theta_7com), since the lsq model needs only
    the sign of its direction's projection on v.
    """
    phi5, ex, ey, d6, singular = row[:5]
    l6 = ctx.fore_len
    phi6, cos6, sin6 = ops.cos_sin_sum(phi5, theta6)
    hx = l6 * cos6
    hx += ex
    hy = l6 * sin6
    hy += ey
    to_com7 = (ctx.com.x - hx, ctx.com.y - hy)
    d7 = ops.hypot(*to_com7)
    d7s = ops.maximum(d7, EPS_SINGULAR)
    # The law of cosines, as in _elbow_terms.
    c7 = d7 * d7
    c7 += l6 * l6
    c7 -= d6 * d6
    c7 /= 2.0 * l6 * d7s
    c7 = ops.minimum(ops.maximum(c7, -1.0), 1.0)
    near = d7 < EPS_SINGULAR
    near |= singular
    return phi6, cos6, sin6, hx, hy, to_com7, d7s, near, c7


def _theta_7com(ops: _Primitives, phi6, c7):
    """The handle term's lever angle, phi6 - pi + arccos(c7)."""
    a = phi6 - math.pi
    a += ops.arccos(c7)
    return a


def _handle_term(ops: _Primitives, phi6, c7, vx: float, vy: float):
    """u7 . v: the projection on v of the handle term's unit force direction
    u7 = (-sin a, cos a) at its lever angle a.

    It is taken as sin a (-vx) + cos a vy, which builds no negated sine.
    Negation is exact and rounding is symmetric in sign, so (-sin a) vx has
    the bits of sin a (-vx).
    """
    a = _theta_7com(ops, phi6, c7)
    u7v = ops.sin(a) * (-vx)
    u7v += ops.cos(a) * vy
    return u7v


def _lsq_handle_dot(ops: _Primitives, cos6, sin6, c7, vx: float, vy: float):
    """u7 . v for the lsq model, which uses u7 only through its sign s7.

    With alpha = arccos(c7) the lever angle is phi6 - pi + alpha, so the
    angle-sum identity gives u7 . v = sin(phi6 + alpha) vx - cos(phi6 + alpha) vy,
    where cos alpha = c7, sin alpha = sqrt((1 - c7)(1 + c7)), and the cosine
    and sine of phi6 are at hand: no arccos, sin or cos.
    """
    r7 = 1.0 - c7
    r7 *= 1.0 + c7
    r7 = ops.sqrt(r7)
    dot = sin6 * c7
    dot += cos6 * r7
    dot *= vx
    dy = cos6 * c7
    dy -= sin6 * r7
    dy *= vy
    dot -= dy
    return dot


def _jacobian_column(to_com) -> tuple:
    """A column of the 2x3 Jacobian of the COM point w.r.t. the chain's
    joint angles, as an (x, y) pair: the +90 degree rotation of that
    joint's vector to the COM. The chain is anchored at the handle, so the
    columns are ordered (handle, elbow, shoulder) to match
    (tau_7, tau_6, tau_5)."""
    x, y = to_com
    return -y, x


def _lsq_shares(column5, column6, tau5, tau6) -> tuple:
    """The shoulder's and elbow's shares of the normal equations: the sums
    (a11, a12, a22) of their terms of J J^T and (bx, by) of J tau, from
    their Jacobian columns and torques."""
    (c5x, c5y), (c6x, c6y) = column5, column6
    return (c5x * c5x + c6x * c6x, c5x * c5y + c6x * c6y, c5y * c5y + c6y * c6y,
            tau5 * c5x + tau6 * c6x, tau5 * c5y + tau6 * c6y)


def _lsq_force(ops: _Primitives, shares, column7, tau7) -> tuple:
    """Closed-form solve of the 2x2 normal equations (J J^T) F = J tau,
    from the shoulder's and elbow's shares (_lsq_shares) and the handle's
    Jacobian column and torque.

    Returns (fx, fy, ill_conditioned); the system is rejected where
    lambda_max / lambda_min of J J^T exceeds COND_LIMIT, decided from its
    trace and the determinant the solve needs anyway, with no eigenvalue
    computed. J J^T is positive semidefinite, and for its eigenvalue ratio
    r >= 1, trace^2 / det = r + 2 + 1/r increases with r, so r <= C =
    COND_LIMIT exactly where det > 0 and trace^2 <= (1 + C)^2 / C * det.
    """
    (s11, s12, s22, sbx, sby), (c7x, c7y) = shares, column7
    # The shares are the row stage's, so each sum starts from the handle's
    # term and adds the share to it.
    a11 = c7x * c7x
    a11 += s11
    a12 = c7x * c7y
    a12 += s12
    a22 = c7y * c7y
    a22 += s22
    bx = tau7 * c7x
    bx += sbx
    by = tau7 * c7y
    by += sby
    det = a11 * a22
    det -= a12 * a12
    ok = det > 0.0
    tr2 = a11 + a22
    tr2 *= tr2
    ok &= tr2 <= _TRACE2_PER_DET * det
    del tr2
    det = ops.where(ok, det, 1.0)
    fx = a22 * bx
    fx -= a12 * by
    fx /= det
    fy = a11 * by
    fy -= a12 * bx
    fy /= det
    return fx, fy, ops.invert(ok)


# The last context of a point query or chain and its shoulder terms, as one pair.
# It is keyed on the context's identity, not its value: two contexts that
# compare equal can differ in the sign of a zero, and so in theta_com's.
_last_shoulder: tuple = (None, None)


def _context_terms(ctx: PlacementContext) -> tuple:
    """_shoulder_terms(ctx), computed once for a run of calls on one context."""
    global _last_shoulder
    # One read of the pair, so that another thread can cause no worse than
    # a recompute.
    last, shoulder = _last_shoulder
    if last is not ctx:
        shoulder = _shoulder_terms(ctx)
        _last_shoulder = (ctx, shoulder)
    return shoulder


def arm_forces(ctx: PlacementContext, theta5: float, theta6: float,
               magnitudes: tuple[float, float, float], model: str) -> ArmForces:
    """Arm force along v at the float shoulder/elbow angles theta5, theta6,
    as its grid cell holds it.

    magnitudes is (|tau_5|, |tau_6|, |tau_7|). Each torque sign is +1
    where that joint's lever-sum direction has a non-negative dot product
    with v, so every expanded-model term s_i |tau_i| / lever_i |u_i . v|
    is >= 0; the lsq model uses the same signs, up to rounding of u7 . v
    (see ArmForces). Raises ValueError for a model outside FORCE_MODELS.
    The context stage runs once for a run of queries on one context.
    """
    shoulder = _context_terms(ctx)
    row = _elbow_terms(_ON_FLOATS, ctx, shoulder, theta5, magnitudes, model)
    return _cell_forces(_ON_FLOATS, ctx, shoulder, row, theta6, magnitudes, model)


def _cell_forces(ops: _Primitives, ctx: PlacementContext, shoulder: tuple, row: tuple, theta6,
                 magnitudes: tuple[float, float, float], model: str) -> ArmForces:
    """The cell stage: arm_forces at theta6 on a row of the row stage's
    elbow terms for model, computed with ops."""
    s5, s6 = shoulder[3], row[6]
    phi6, cos6, sin6, hx, hy, to_com7, d7s, singular, c7 = _handle_terms(ops, ctx, row, theta6)
    # Only the lsq Jacobian reads the handle's vector to the COM, so it is
    # dropped here, not held with its two block-sized arrays to the end.
    column7 = _jacobian_column(to_com7) if model == "lsq" else None
    del to_com7
    vx, vy = ctx.v.x, ctx.v.y
    m7 = magnitudes[2]

    if model == "lsq":
        u7v = _lsq_handle_dot(ops, cos6, sin6, c7, vx, vy)
    else:
        u7v = _handle_term(ops, phi6, c7, vx, vy)
    # Dropped, like to_com7, so that a block holds fewer arrays at a time.
    del phi6, cos6, sin6, c7
    s7 = ops.where(u7v >= 0.0, 1.0, -1.0)

    if model == "lsq":
        fx, fy, ill = _lsq_force(ops, row[8:], column7, m7 * s7)
        directed = fx * vx
        directed += fy * vy
    else:
        ill = False
        directed = m7 / d7s
        directed *= abs(u7v)
        directed += row[8]
    # By position: a NamedTuple built by keyword takes twice as long.
    return ArmForces(directed, (s5, s6, s7), singular, ill, (hx, hy))


def grid_forces(ctx: PlacementContext, theta5: np.ndarray, theta6: np.ndarray,
                magnitudes: tuple[float, float, float],
                model: str) -> Iterator[tuple[int, int, ArmForces]]:
    """Yield (lo, hi, ArmForces) for the grid rows lo:hi of theta5 x theta6,
    block by block, each block at most _BLOCK_CELLS cells or one row.

    The fields broadcast to the block's shape (hi - lo, theta6.size), and
    every element equals arm_forces at its angles bit for bit. A consumer
    holds one block and drops it, every array of it and every array it
    derived from it, before the next next(); else two blocks are in flight
    while the next one is computed. Raises
    ValueError, on the first block, for a model outside FORCE_MODELS.
    """
    n5, n6 = theta5.size, theta6.size
    trig = GridTrig(ctx.theta_04 + theta5, theta6)
    shoulder = _shoulder_terms(ctx)
    row = _elbow_terms(trig.rows(0, n5), ctx, shoulder, theta5[:, None], magnitudes, model)
    rows_per_block = max(1, _BLOCK_CELLS // max(n6, 1))
    for lo in range(0, n5, rows_per_block):
        hi = min(lo + rows_per_block, n5)
        yield lo, hi, _cell_forces(trig.rows(lo, hi), ctx, shoulder, tuple(x[lo:hi] for x in row),
                                   theta6[None, :], magnitudes, model)


def build_chain(ctx: PlacementContext, theta5: float, theta6: float) -> VirtualChain:
    """The chain of ctx at the float shoulder/elbow angles theta5, theta6;
    raises SingularChain when a joint lies within EPS_SINGULAR of the COM.
    A chain holds no projection on v, so no bit of it depends on ctx.v."""
    terms5 = _context_terms(ctx)
    # A chain holds no forces, so the row stage's parts are left at zero.
    row = _elbow_terms(_ON_FLOATS, ctx, terms5, theta5, (0.0, 0.0, 0.0), "expanded")
    phi6, _, _, hx, hy, _, d7s, singular, c7 = _handle_terms(_ON_FLOATS, ctx, row, theta6)
    if singular:
        raise SingularChain(SINGULAR_MESSAGE)
    _, d5s, *_, theta_com = terms5
    _, ex, ey, _, _, d6s, _, theta_6com, _ = row
    return VirtualChain(
        shoulder=ctx.shoulder, elbow=Vec2(ex, ey), handle=Vec2(hx, hy), com=ctx.com,
        lever5=d5s, lever6=d6s, lever7=d7s, theta_com=theta_com, theta_6com=theta_6com,
        theta_7com=_theta_7com(_ON_FLOATS, phi6, c7),
    )


def arm_force_expanded(chain: VirtualChain, torques: tuple[float, float, float]) -> Vec2:
    """Per-joint lever sum: F = sum_i (tau_i / lever_i) * u_i."""
    (u5x, u5y), (u6x, u6y), (u7x, u7y) = chain.unit_directions()
    tau5, tau6, tau7 = torques
    k5, k6, k7 = tau5 / chain.lever5, tau6 / chain.lever6, tau7 / chain.lever7
    return Vec2(k5 * u5x + k6 * u6x + k7 * u7x, k5 * u5y + k6 * u6y + k7 * u7y)


def arm_force_lsq(chain: VirtualChain, torques: tuple[float, float, float]) -> Vec2:
    """Least-squares force: F = (J J^T)^-1 J tau, tau = (tau_7, tau_6, tau_5)."""
    com = chain.com
    tau5, tau6, tau7 = torques
    shares = _lsq_shares(_jacobian_column(com - chain.shoulder),
                         _jacobian_column(com - chain.elbow), tau5, tau6)
    fx, fy, ill = _lsq_force(_ON_FLOATS, shares, _jacobian_column(com - chain.handle), tau7)
    if ill:
        raise IllConditioned(ILL_CONDITIONED_MESSAGE)
    return Vec2(fx, fy)


def force_vector(ctx: PlacementContext, theta5: float, theta6: float,
                 magnitudes: tuple[float, float, float], model: str) -> tuple[ArmForces, Vec2]:
    """The point query at (theta5, theta6) and model's force vector F there:
    its view of build_chain at the torques s_i |tau_i| the query's signs give.
    Raises SingularChain or IllConditioned (from build_chain or arm_force_lsq)
    exactly where the query is singular or rejected."""
    r = arm_forces(ctx, theta5, theta6, magnitudes, model)
    # build_chain and the views are read as module globals at each call, so
    # that perfbench/tracing.py, which rebinds them there, times these calls.
    chain = build_chain(ctx, theta5, theta6)
    torques = tuple(s * m for s, m in zip(r.signs, magnitudes))
    return r, (arm_force_lsq if model == "lsq" else arm_force_expanded)(chain, torques)


def mechanical_advantage(force: Vec2, torques: tuple[float, float, float]) -> float:
    """Force magnitude per unit torque magnitude, |F| / |tau|."""
    n = math.hypot(*torques)
    if n == 0.0:
        raise ZeroTorque("mechanical advantage is undefined for zero torques")
    return force.norm() / n
