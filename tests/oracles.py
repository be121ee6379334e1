"""Reference implementations used only by the tests.

Everything here is written in a deliberately different style from the
package (complex arithmetic, explicit loops, brute force over signs) so
that agreement between the two is evidence rather than tautology.
"""

import cmath
import math
import struct
import zlib
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from handleopt import NoFeasiblePoint, SingularChain, fixture_path
from handleopt.arm_kinetics import (
    EPS_SINGULAR,
    _jacobian_column,
    arm_force_expanded,
    build_chain,
)
from handleopt.body_model import BodyPose, Vec2
from handleopt.config import PlacementContext, TorqueSet

ORIGIN = Vec2(0.0, 0.0)


def wrap_angle(a: float) -> float:
    """Map an angle to (-pi, pi]."""
    return math.atan2(math.sin(a), math.cos(a))


def as_complex(v: Vec2) -> complex:
    return complex(v.x, v.y)


def as_vec2(z: complex) -> Vec2:
    return Vec2(z.real, z.imag)


def angle_of(v: Vec2) -> float:
    """World angle of a vector in (-pi, pi], 0 along +x."""
    return cmath.phase(as_complex(v))


def cross(a: Vec2, b: Vec2) -> float:
    """z component of a x b; positive when b turns left of a."""
    return (as_complex(a).conjugate() * as_complex(b)).imag


def perp(v: Vec2) -> Vec2:
    """v turned by +90 degrees."""
    return as_vec2(1j * as_complex(v))


def rotate(v: Vec2, phi: float, about: Vec2 = ORIGIN) -> Vec2:
    """v rotated by phi (counterclockwise) about a pivot."""
    pivot = as_complex(about)
    return as_vec2((as_complex(v) - pivot) * cmath.exp(1j * phi) + pivot)


def rotate_pose(pose, phi: float, about: Vec2 | None = None):
    """Rigid rotation of a whole pose, foot included, about a pivot (default
    the ankle): the base moves, every link angle turns by phi."""
    pivot = pose.base if about is None else about
    return BodyPose(base=rotate(pose.base, phi, pivot), theta=pose.theta,
                    foot_angle=pose.foot_angle + phi)


def translate_pose(pose, d: Vec2):
    """The pose with its ankle moved by d."""
    return BodyPose(base=as_vec2(as_complex(pose.base) + as_complex(d)), theta=pose.theta,
                    foot_angle=pose.foot_angle)


def rotate_context(ctx: PlacementContext, phi: float) -> PlacementContext:
    """A placement context in a world frame turned by phi about the origin."""
    return PlacementContext(
        shoulder=rotate(ctx.shoulder, phi),
        theta_04=ctx.theta_04 + phi,
        com=rotate(ctx.com, phi),
        v=rotate(ctx.v, phi),
        upper_len=ctx.upper_len,
        fore_len=ctx.fore_len,
    )


def reflect(v: Vec2) -> Vec2:
    """v reflected across the y axis."""
    return as_vec2(-as_complex(v).conjugate())


def reflect_pose(pose):
    """The pose reflected across the y axis: the base's x and every relative
    joint angle change sign, and each link angle a becomes pi - a."""
    return BodyPose(base=reflect(pose.base), theta=tuple(-t for t in pose.theta),
                    foot_angle=math.pi - pose.foot_angle)


def reflect_context(ctx: PlacementContext) -> PlacementContext:
    """A placement context reflected across the y axis; a shoulder angle
    theta5 on it is -theta5 on ctx."""
    return PlacementContext(
        shoulder=reflect(ctx.shoulder),
        theta_04=math.pi - ctx.theta_04,
        com=reflect(ctx.com),
        v=reflect(ctx.v),
        upper_len=ctx.upper_len,
        fore_len=ctx.fore_len,
    )


def random_unit(rng) -> Vec2:
    ang = rng.uniform(-math.pi, math.pi)
    return Vec2(math.cos(ang), math.sin(ang))


def chain_points_complex(pose, segments) -> dict:
    """Joint points as complex numbers, accumulated proximal to distal."""
    t = pose.theta
    a_foot = pose.foot_angle
    a_shank = a_foot + t[0]
    a_thigh = a_shank + t[1]
    a_trunk = a_thigh + t[2]
    a_head = a_trunk + t[3]
    a_upper = a_trunk + t[4]
    a_fore = a_upper + t[5]

    length = [segments.length(i) for i in range(7)]
    ankle = complex(pose.base.x, pose.base.y)
    toe = ankle + length[0] * cmath.exp(1j * a_foot)
    knee = ankle + length[1] * cmath.exp(1j * a_shank)
    hip = knee + length[2] * cmath.exp(1j * a_thigh)
    shoulder = hip + length[3] * cmath.exp(1j * a_trunk)
    head_end = shoulder + length[4] * cmath.exp(1j * a_head)
    elbow = shoulder + length[5] * cmath.exp(1j * a_upper)
    wrist = elbow + length[6] * cmath.exp(1j * a_fore)
    return {
        "toe": toe, "ankle": ankle, "knee": knee, "hip": hip,
        "shoulder": shoulder, "head_end": head_end, "elbow": elbow, "wrist": wrist,
    }


def segment_coms_complex(pose, segments) -> list:
    """Per-link COM points as a convex blend of the link's two joints."""
    pts = chain_points_complex(pose, segments)
    ends = [
        ("ankle", "toe"), ("ankle", "knee"), ("knee", "hip"), ("hip", "shoulder"),
        ("shoulder", "head_end"), ("shoulder", "elbow"), ("elbow", "wrist"),
    ]
    out = []
    for i, (prox, dist) in enumerate(ends):
        f = segments.segments[i].com_fraction
        out.append(pts[prox] * (1.0 - f) + pts[dist] * f)
    return out


def nonarm_com_complex(pose, segments) -> complex:
    coms = segment_coms_complex(pose, segments)
    return sum(segments.mass(i) * coms[i] for i in range(5)) / segments.total_mass


def arm_context(shoulder: Vec2, theta_04: float, com: Vec2, upper_len: float, fore_len: float,
                v: Vec2 = ORIGIN) -> PlacementContext:
    """The placement context of an arm and a COM. v is zero unless given,
    since no chain (build_chain) depends on it."""
    return PlacementContext(shoulder, theta_04, com, v, upper_len, fore_len)


def sample_chain(rng, min_lever=0.05):
    """Random non-singular virtual chain, by rejection, as (ctx, theta5,
    theta6, chain) with chain = build_chain(ctx, theta5, theta6). ctx.v is
    zero; a caller that needs a direction takes ctx._replace(v=...)."""
    while True:
        shoulder = Vec2(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        theta_04 = rng.uniform(-math.pi, math.pi)
        theta5 = rng.uniform(-math.pi, math.pi)
        theta6 = rng.uniform(-math.pi, math.pi)
        upper = rng.uniform(0.2, 0.5)
        fore = rng.uniform(0.2, 0.5)
        com = shoulder + Vec2(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        ctx = arm_context(shoulder, theta_04, com, upper, fore)
        try:
            chain = build_chain(ctx, theta5, theta6)
        except SingularChain:
            continue
        if min(chain.lever5, chain.lever6, chain.lever7) < min_lever:
            continue
        return ctx, theta5, theta6, chain


def sample_in_branch_chain(rng, margin=1e-3):
    """Chain whose lever angles are directly readable via atan2, as
    sample_chain returns it.

    The triangle construction inside the package picks one orientation:
    it matches atan2 of (com - elbow) when the COM lies on the left of
    the upper arm, and atan2 of (com - handle) when the COM lies on the
    right of the forearm. Rejection keeps a margin from both boundaries.
    """
    while True:
        ctx, theta5, theta6, chain = sample_chain(rng)
        e, h, c = chain.elbow, chain.handle, chain.com
        if cross(e - chain.shoulder, c - e) < margin:
            continue
        if cross(h - e, c - h) > -margin:
            continue
        return ctx, theta5, theta6, chain


def arm_force_atan2(chain, torques: TorqueSet) -> Vec2:
    """Force sum with lever directions taken straight from atan2.

    Valid only for in-branch chains; elsewhere the package's triangle
    construction deliberately lands on the other orientation.
    """
    fx = fy = 0.0
    for tau, lever, point in (
        (torques.tau5, chain.lever5, chain.shoulder),
        (torques.tau6, chain.lever6, chain.elbow),
        (torques.tau7, chain.lever7, chain.handle),
    ):
        ang = angle_of(chain.com - point)
        fx += tau / lever * (-math.sin(ang))
        fy += tau / lever * math.cos(ang)
    return Vec2(fx, fy)


def best_sign_combo(chain, v: Vec2, magnitudes, force=arm_force_expanded) -> float:
    """Brute-force max of F.v over all eight torque sign choices."""
    best = -math.inf
    for s5 in (1.0, -1.0):
        for s6 in (1.0, -1.0):
            for s7 in (1.0, -1.0):
                torques = TorqueSet(
                    s5 * magnitudes[0], s6 * magnitudes[1], s7 * magnitudes[2]
                )
                best = max(best, force(chain, torques).dot(v))
    return best


def handle_sign_by_angle(ctx: PlacementContext, theta5, theta6) -> np.ndarray:
    """s7, the handle torque's sign, from the handle's lever angle: +1.0
    where u7 . v >= 0 and -1.0 elsewhere, with u7 = (-sin a, cos a) at
    a = phi6 - pi + arccos(c7), each through the NumPy ufunc. theta5 and
    theta6 broadcast.

    This is how the package took s7 under both force models before the lsq
    model's angle-sum form. Up to c7 it repeats the package's arithmetic
    step for step, since a cell whose u7 . v is within rounding of zero
    needs the very bits of phi6 and c7 that the package has.
    """
    phi5 = ctx.theta_04 + np.asarray(theta5, dtype=float)
    phi6 = phi5 + np.asarray(theta6, dtype=float)
    elbow_x = ctx.shoulder.x + ctx.upper_len * np.cos(phi5)
    elbow_y = ctx.shoulder.y + ctx.upper_len * np.sin(phi5)
    handle_x = elbow_x + ctx.fore_len * np.cos(phi6)
    handle_y = elbow_y + ctx.fore_len * np.sin(phi6)
    d6 = np.hypot(ctx.com.x - elbow_x, ctx.com.y - elbow_y)
    d7 = np.hypot(ctx.com.x - handle_x, ctx.com.y - handle_y)
    l6 = ctx.fore_len
    c7 = np.clip((l6 * l6 + d7 * d7 - d6 * d6) / (2.0 * l6 * np.maximum(d7, EPS_SINGULAR)),
                 -1.0, 1.0)
    a = phi6 - math.pi + np.arccos(c7)
    return np.where(-np.sin(a) * ctx.v.x + np.cos(a) * ctx.v.y >= 0.0, 1.0, -1.0)


def fd_com_jacobian(chain, h=1e-6) -> np.ndarray:
    """Central-difference Jacobian of the COM w.r.t. the three joints.

    Moving one joint angle rotates the COM rigidly about that joint's
    point, so each column is differenced from two small rigid rotations.
    Columns are ordered (handle, elbow, shoulder).
    """
    cols = []
    for pivot in (chain.handle, chain.elbow, chain.shoulder):
        plus = rotate(chain.com, h, pivot)
        minus = rotate(chain.com, -h, pivot)
        cols.append(((plus.x - minus.x) / (2.0 * h), (plus.y - minus.y) / (2.0 * h)))
    return np.array(cols, dtype=float).T


def lsq_jacobian(chain) -> np.ndarray:
    """The 2x3 Jacobian whose columns the lsq force model solves with."""
    joints = (chain.handle, chain.elbow, chain.shoulder)
    return np.array([_jacobian_column(chain.com - joint) for joint in joints], dtype=float).T


def write_landscape_csv_per_cell(landscape, path) -> None:
    """landscape.csv built one f-string per cell and written in one go."""
    lines = ["theta5_deg,theta6_deg,objective,feasible"]
    t5_deg = [repr(math.degrees(float(v))) for v in landscape.theta5]
    t6_deg = [repr(math.degrees(float(v))) for v in landscape.theta6]
    obj = landscape.objective
    elig = landscape.eligible
    for i5, d5 in enumerate(t5_deg):
        row_obj = obj[i5]
        row_elig = elig[i5]
        for i6, d6 in enumerate(t6_deg):
            lines.append(
                f"{d5},{d6},{repr(float(row_obj[i6]))},{'true' if row_elig[i6] else 'false'}"
            )
    Path(path).write_text("\n".join(lines) + "\n")


def argmax_sequential_scan(objective, eligible) -> tuple[int, int]:
    """The best eligible cell by a scan over theta_6, then theta_5, keeping
    the first cell of the largest value; raises NoFeasiblePoint when no
    cell is eligible. The objective of an eligible cell must not be NaN,
    as evaluate_grid never makes one."""
    n5, n6 = len(objective), len(objective[0])
    best = None
    for i6 in range(n6):
        for i5 in range(n5):
            if eligible[i5][i6] and (best is None or objective[i5][i6] > best[0]):
                best = (objective[i5][i6], i5, i6)
    if best is None:
        raise NoFeasiblePoint("no eligible cell")
    return best[1], best[2]


def heat_color(t: float) -> str:
    """The heat map's colour at t in [0, 1]: each channel runs from the low
    colour to the high one and is rounded with round(), half to even."""
    low, high = (27, 42, 107), (245, 215, 66)
    r, g, b = (round(lo + t * (hi - lo)) for lo, hi in zip(low, high))
    return f"#{r:02x}{g:02x}{b:02x}"


def heat_map_pixels(landscape) -> list[list[str]]:
    """The heat map's pixels as rows of "#rrggbb", top row first, built one
    cell at a time: theta6 grows upward, t runs from the smallest eligible
    objective to the largest (0.5 when they are equal) and is clamped to
    [0, 1], and an ineligible cell is grey."""
    objective, eligible = landscape.objective.tolist(), landscape.eligible.tolist()
    n5, n6 = len(objective), len(objective[0])
    values = [v for col, oks in zip(objective, eligible) for v, ok in zip(col, oks) if ok]
    vmin, vmax = (min(values), max(values)) if values else (0.0, 0.0)
    span = vmax - vmin
    rows = []
    for i6 in reversed(range(n6)):
        row = []
        for i5 in range(n5):
            if eligible[i5][i6]:
                t = (objective[i5][i6] - vmin) / span if span > 0.0 else 0.5
                row.append(heat_color(min(1.0, max(0.0, t))))
            else:
                row.append("#c8c8c8")
        rows.append(row)
    return rows


def png_pixels(data: bytes) -> list[list[str]]:
    """The pixels of an 8-bit RGB PNG as rows of "#rrggbb", top row first.
    Accepts only an IHDR chunk, IDAT chunks and an IEND chunk, each with its
    CRC, no interlace, and filter type 0 on every row; raises ValueError on
    anything else."""
    if data[:8] != b"\x89PNG\r\n\x1a\n":
        raise ValueError("not a PNG signature")
    chunks, pos = [], 8
    while pos < len(data):
        length, kind = struct.unpack(">I4s", data[pos:pos + 8])
        body = data[pos + 8:pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length:pos + 12 + length])
        if zlib.crc32(kind + body) != crc:
            raise ValueError(f"bad CRC on chunk {kind!r}")
        chunks.append((kind, body))
        pos += 12 + length
    kinds = [kind for kind, _ in chunks]
    if (len(kinds) < 3 or kinds[0] != b"IHDR" or kinds[-1] != b"IEND"
            or any(kind != b"IDAT" for kind in kinds[1:-1])):
        raise ValueError(f"unexpected chunks {kinds}")
    width, height, *modes = struct.unpack(">IIBBBBB", chunks[0][1])
    if modes != [8, 2, 0, 0, 0]:
        raise ValueError(f"not 8-bit RGB, deflate, no interlace: {modes}")
    raw = zlib.decompress(b"".join(body for _, body in chunks[1:-1]))
    stride = 1 + 3 * width
    if len(raw) != height * stride:
        raise ValueError(f"{len(raw)} bytes of rows, not {height} x {stride}")
    rows = []
    for y in range(height):
        line = raw[y * stride:(y + 1) * stride]
        if line[0] != 0:
            raise ValueError(f"row {y} has filter type {line[0]}, not 0")
        rows.append([f"#{line[i]:02x}{line[i + 1]:02x}{line[i + 2]:02x}"
                     for i in range(1, stride, 3)])
    return rows


def list_fixtures() -> list[str]:
    """Bare names of the packaged scenario fixtures, sorted."""
    return sorted(p.stem for p in fixture_path("").parent.glob("*.json"))


def finite(lo, hi):
    """Hypothesis strategy for the finite floats in [lo, hi]."""
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def node_paths(node, keep=None, path=()) -> list[tuple]:
    """Key paths of the values of a parsed JSON tree, each before the values
    it holds (the root's () first), or only of those that keep accepts."""
    out = [path] if keep is None or keep(node) else []
    if isinstance(node, dict):
        for k, v in node.items():
            out += node_paths(v, keep, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            out += node_paths(v, keep, path + (i,))
    return out


def node_at(tree, path):
    """The value at a node_paths key path."""
    for key in path:
        tree = tree[key]
    return tree
