"""Planar seven-link body model.

The body is modeled as a sagittal-plane chain of seven rigid links:

    0 foot, 1 shank, 2 thigh, 3 trunk (with pelvis), 4 head and neck,
    5 upper arm, 6 forearm and hand

Limb links combine left and right sides, so the chain is a single serial
mechanism rooted at the ankle. Angles follow one convention everywhere:
an absolute angle of 0 points along +x, counterclockwise is positive, +y
is up and gravity acts along -y. All positions are meters, angles radians.

A pose stores six joint angles. theta_1..theta_3 are successive relative
angles walking up the leg (ankle, knee, hip). theta_4 (head) and theta_5
(shoulder) are both measured from the trunk direction, since head and arm
attach to the same link. theta_6 is the elbow angle relative to the upper
arm. The foot's own world orientation is a separate pose field that
defaults to 0 (flat on the ground, toes along +x); it exists so a pose can
be rotated rigidly as a whole.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import DegenerateVelocity, IndexOutOfRange

FOOT, SHANK, THIGH, TRUNK, HEAD, UPPER_ARM, FOREARM = range(7)

# Non-arm links must carry 90..95% of body mass for a default-like build.
NONARM_BAND = (0.90, 0.95)
MASS_CLOSURE_RTOL = 1e-9
DEGENERATE_SPEED = 1e-9


class Vec2(NamedTuple):
    """Planar vector (meters unless stated otherwise)."""

    x: float
    y: float

    # A tuple would otherwise be taken by NumPy as an array, so that
    # np.float64(2.0) * Vec2(1.0, 2.0) gave array([2., 4.]); this makes NumPy
    # defer to __rmul__, which keeps the product a Vec2.
    __array_ufunc__ = None

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, k: float) -> "Vec2":
        return Vec2(self.x * k, self.y * k)

    __rmul__ = __mul__

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


def unit(angle: float) -> Vec2:
    """Unit vector at a world angle."""
    return Vec2(math.cos(angle), math.sin(angle))


class LinkSegment(NamedTuple):
    """One rigid link.

    com_fraction locates the segment COM along the link, measured from the
    chain-proximal joint (the joint nearer the ankle) divided by length.
    """

    name: str
    length: float
    mass: float
    com_fraction: float


class _SegmentFields(NamedTuple):
    segments: tuple[LinkSegment, ...]
    total_mass: float


class SegmentSet(_SegmentFields):
    """The seven links plus the expected whole-body mass.

    total_mass is carried separately so that mass bookkeeping can be
    checked: validation requires the seven segment masses to close to
    total_mass within 1e-9 relative.
    """

    __slots__ = ()

    def __new__(cls, segments: tuple[LinkSegment, ...], total_mass: float) -> "SegmentSet":
        if len(segments) != 7:
            raise ValueError(f"expected 7 segments, got {len(segments)}")
        return super().__new__(cls, segments, total_mass)

    def length(self, i: int) -> float:
        return self.segments[i].length

    def mass(self, i: int) -> float:
        return self.segments[i].mass

    @property
    def nonarm_mass(self) -> float:
        return sum(self.segments[i].mass for i in range(UPPER_ARM))

    @property
    def nonarm_fraction(self) -> float:
        return self.nonarm_mass / self.total_mass

    @property
    def arm_reach(self) -> float:
        return self.length(UPPER_ARM) + self.length(FOREARM)


class BodyPose(NamedTuple):
    """Configuration of the chain at one instant.

    theta holds (theta_1 .. theta_6). theta_1 is the ankle angle of the
    shank over the foot, theta_2 the knee, theta_3 the hip; theta_4 and
    theta_5 are head and shoulder angles from the trunk direction;
    theta_6 is the elbow angle from the upper arm. foot_angle is the
    foot's world orientation (0 = flat, toes along +x). Pose angles are
    unrestricted; joint limits apply only during optimization.
    """

    base: Vec2
    theta: tuple[float, float, float, float, float, float]
    foot_angle: float = 0.0


def absolute_link_angles(pose: BodyPose) -> tuple[float, ...]:
    """World angle of each link, accumulated proximal to distal."""
    t1, t2, t3, t4, t5, t6 = pose.theta
    a0 = pose.foot_angle
    a1 = a0 + t1
    a2 = a1 + t2
    a3 = a2 + t3          # trunk
    a4 = a3 + t4          # head, from the trunk direction
    a5 = a3 + t5          # upper arm, also from the trunk direction
    a6 = a5 + t6          # forearm
    return (a0, a1, a2, a3, a4, a5, a6)


class PoseFrame(NamedTuple):
    pose: BodyPose
    time: float


class BodyGeometry(NamedTuple):
    """Joint positions and per-segment COM points for one pose."""

    toe: Vec2
    ankle: Vec2
    knee: Vec2
    hip: Vec2
    shoulder: Vec2
    head_end: Vec2
    elbow: Vec2
    wrist: Vec2
    segment_coms: tuple[Vec2, ...]
    trunk_angle: float


def forward_kinematics(pose: BodyPose, segments: SegmentSet) -> BodyGeometry:
    """Joint positions: joint_k = joint_{k-1} + length_k * unit(angle_k).

    The ankle carries both the foot link (toward the toe) and the leg
    chain (toward the knee). Segment COMs interpolate proximal to distal
    by each link's com_fraction.
    """
    a = absolute_link_angles(pose)
    ankle = pose.base
    toe = ankle + segments.length(FOOT) * unit(a[FOOT])
    knee = ankle + segments.length(SHANK) * unit(a[SHANK])
    hip = knee + segments.length(THIGH) * unit(a[THIGH])
    shoulder = hip + segments.length(TRUNK) * unit(a[TRUNK])
    head_end = shoulder + segments.length(HEAD) * unit(a[HEAD])
    elbow = shoulder + segments.length(UPPER_ARM) * unit(a[UPPER_ARM])
    wrist = elbow + segments.length(FOREARM) * unit(a[FOREARM])

    ends = (
        (ankle, toe),        # foot
        (ankle, knee),       # shank
        (knee, hip),         # thigh
        (hip, shoulder),     # trunk
        (shoulder, head_end),
        (shoulder, elbow),
        (elbow, wrist),
    )
    coms = tuple(
        prox + segments.segments[i].com_fraction * (dist - prox)
        for i, (prox, dist) in enumerate(ends)
    )
    return BodyGeometry(
        toe=toe, ankle=ankle, knee=knee, hip=hip, shoulder=shoulder,
        head_end=head_end, elbow=elbow, wrist=wrist,
        segment_coms=coms, trunk_angle=a[TRUNK],
    )


def nonarm_com(pose: BodyPose, segments: SegmentSet) -> Vec2:
    """Consolidated COM of the five non-arm links (indices 0..4).

    The divisor is the whole-body mass, not the five-link mass, so the
    point is the five-link centroid scaled by the non-arm mass fraction.
    """
    geom = forward_kinematics(pose, segments)
    sx = sy = 0.0
    for i in range(UPPER_ARM):
        m = segments.mass(i)
        c = geom.segment_coms[i]
        sx += m * c.x
        sy += m * c.y
    return Vec2(sx / segments.total_mass, sy / segments.total_mass)


class ComState(NamedTuple):
    """COM position plus its motion direction at one frame.

    direction is unit length; speed is the raw central-difference
    magnitude in m/s.
    """

    position: Vec2
    direction: Vec2
    speed: float


def com_velocity(frames: Sequence[PoseFrame], segments: SegmentSet, index: int) -> ComState:
    """Central-difference COM velocity at an interior frame.

    raw = (com(i+1) - com(i-1)) / (t(i+1) - t(i-1)). Raises
    IndexOutOfRange when index has no neighbors on both sides and
    DegenerateVelocity when the raw speed is below 1e-9 m/s.
    """
    if len(frames) < 3 or not 0 < index < len(frames) - 1:
        raise IndexOutOfRange(
            f"central difference needs an interior frame: index {index} of {len(frames)}"
        )
    dt = frames[index + 1].time - frames[index - 1].time
    if dt <= 0.0:
        raise ValueError("frame times must be strictly increasing")
    before = nonarm_com(frames[index - 1].pose, segments)
    after = nonarm_com(frames[index + 1].pose, segments)
    raw = (after - before) * (1.0 / dt)
    speed = raw.norm()
    if speed < DEGENERATE_SPEED:
        raise DegenerateVelocity(
            f"COM speed {speed:.3e} m/s at frame {index} is below {DEGENERATE_SPEED:.0e}"
        )
    return ComState(
        position=nonarm_com(frames[index].pose, segments),
        direction=raw * (1.0 / speed),
        speed=speed,
    )


def shoulder_frame(pose: BodyPose, segments: SegmentSet) -> tuple[Vec2, float]:
    """Origin and world angle of the trunk-attached frame.

    The frame sits at the shoulder joint. Its angle theta_04 is the
    trunk's absolute angle, so a shoulder angle theta_5 measured from the
    trunk converts to a world angle as theta_04 + theta_5.
    """
    geom = forward_kinematics(pose, segments)
    return geom.shoulder, geom.trunk_angle
