import math

import numpy as np
import pytest

from handleopt import DegenerateVelocity, IndexOutOfRange, fixture_path, load_scenario
from handleopt.body_model import (
    BodyPose,
    LinkSegment,
    PoseFrame,
    SegmentSet,
    Vec2,
    absolute_link_angles,
    com_velocity,
    forward_kinematics,
    nonarm_com,
    shoulder_frame,
    unit,
)
from oracles import (
    ORIGIN,
    angle_of,
    chain_points_complex,
    nonarm_com_complex,
    perp,
    rotate,
    rotate_pose,
    segment_coms_complex,
    translate_pose,
)

JOINT_NAMES = ("toe", "ankle", "knee", "hip", "shoulder", "head_end", "elbow", "wrist")
SEGMENT_NAMES = ("foot", "shank", "thigh", "trunk_pelvis", "head_neck", "upper_arm",
                 "forearm_hand")


def make_segments(lengths=(1.0,) * 7, masses=(1.0,) * 7, fractions=(0.5,) * 7, total=None):
    segs = tuple(
        LinkSegment(name=SEGMENT_NAMES[i], length=lengths[i],
                    mass=masses[i], com_fraction=fractions[i])
        for i in range(7)
    )
    return SegmentSet(segments=segs, total_mass=sum(masses) if total is None else total)


def random_pose(rng, base_span=1.0):
    return BodyPose(
        base=Vec2(rng.uniform(-base_span, base_span), rng.uniform(-base_span, base_span)),
        theta=tuple(rng.uniform(-math.pi, math.pi, 6)),
    )


def joints_of(geom):
    return [getattr(geom, name) for name in JOINT_NAMES]


def test_vec2_arithmetic():
    a = Vec2(1.0, 2.0)
    b = Vec2(-3.0, 0.5)
    assert a + b == Vec2(-2.0, 2.5)
    assert a - b == Vec2(4.0, 1.5)
    assert a * 2.0 == Vec2(2.0, 4.0)
    assert 2.0 * a == a * 2.0
    assert a.dot(b) == -3.0 + 1.0


def test_vec2_scaled_by_a_numpy_scalar_stays_a_vec2():
    # Vec2 is a tuple; without Vec2.__array_ufunc__ = None NumPy would
    # turn the left-hand product into array([2., 4.])
    a = Vec2(1.0, 2.0)
    for product in (np.float64(2.0) * a, a * np.float64(2.0)):
        assert type(product) is Vec2
        assert product == Vec2(2.0, 4.0)


def test_vec2_norm_angle_normalized():
    assert Vec2(3.0, 4.0).norm() == 5.0
    for angle in (0.0, 0.4, math.pi / 2, 2.5, math.pi, -1.1):
        u = unit(angle)
        assert u.norm() == pytest.approx(1.0, abs=1e-15)
        assert angle_of(u) == pytest.approx(angle, abs=1e-15)


def test_absolute_angles_accumulate_relative_ones(rng):
    pose = random_pose(rng)
    a = absolute_link_angles(pose)
    t = pose.theta
    assert a[0] == pose.foot_angle
    assert a[1] == pytest.approx(pose.foot_angle + t[0], abs=1e-15)
    assert a[2] == pytest.approx(a[1] + t[1], abs=1e-15)
    assert a[3] == pytest.approx(a[2] + t[2], abs=1e-15)
    assert a[4] == pytest.approx(a[3] + t[3], abs=1e-15)
    assert a[5] == pytest.approx(a[3] + t[4], abs=1e-15)  # arm hangs off the trunk
    assert a[6] == pytest.approx(a[5] + t[5], abs=1e-15)


def test_straight_up_pose_joint_positions():
    segs = make_segments()
    pose = BodyPose(
        base=Vec2(0.0, 0.0),
        theta=(math.pi / 2, 0.0, 0.0, 0.0, -math.pi / 2, math.pi / 2),
    )
    geom = forward_kinematics(pose, segs)
    expected = {
        "toe": (1.0, 0.0),
        "ankle": (0.0, 0.0),
        "knee": (0.0, 1.0),
        "hip": (0.0, 2.0),
        "shoulder": (0.0, 3.0),
        "head_end": (0.0, 4.0),
        "elbow": (1.0, 3.0),
        "wrist": (1.0, 4.0),
    }
    for name, (x, y) in expected.items():
        p = getattr(geom, name)
        assert p.x == pytest.approx(x, abs=1e-12), name
        assert p.y == pytest.approx(y, abs=1e-12), name
    assert geom.trunk_angle == pytest.approx(math.pi / 2)


def test_forward_kinematics_matches_complex_reference(segments):
    scenario = load_scenario(fixture_path("sit_to_stand_bed"))
    pose = scenario.frames[12].pose
    geom = forward_kinematics(pose, scenario.segments)
    ref = chain_points_complex(pose, scenario.segments)
    for name in JOINT_NAMES:
        p = getattr(geom, name)
        assert p.x == pytest.approx(ref[name].real, abs=1e-12), name
        assert p.y == pytest.approx(ref[name].imag, abs=1e-12), name
    ref_coms = segment_coms_complex(pose, scenario.segments)
    for i, c in enumerate(geom.segment_coms):
        assert c.x == pytest.approx(ref_coms[i].real, abs=1e-12)
        assert c.y == pytest.approx(ref_coms[i].imag, abs=1e-12)


def test_translation_moves_joints_rigidly(rng, segments):
    pose = random_pose(rng)
    d = Vec2(0.37, -0.21)
    before = joints_of(forward_kinematics(pose, segments))
    after = joints_of(forward_kinematics(translate_pose(pose, d), segments))
    for p, q in zip(before, after):
        assert (q - (p + d)).norm() < 1e-12


def test_rotation_moves_joints_rigidly(rng, segments):
    pose = random_pose(rng)
    phi = 0.73
    pivot = Vec2(-0.4, 0.9)
    before = joints_of(forward_kinematics(pose, segments))
    after = joints_of(forward_kinematics(rotate_pose(pose, phi, about=pivot), segments))
    for p, q in zip(before, after):
        assert (q - rotate(p, phi, pivot)).norm() < 1e-12


def test_link_lengths_preserved(rng, segments):
    pairs = (("ankle", "toe", 0), ("ankle", "knee", 1), ("knee", "hip", 2),
             ("hip", "shoulder", 3), ("shoulder", "head_end", 4),
             ("shoulder", "elbow", 5), ("elbow", "wrist", 6))
    for _ in range(25):
        geom = forward_kinematics(random_pose(rng), segments)
        for prox, dist, i in pairs:
            d = (getattr(geom, dist) - getattr(geom, prox)).norm()
            assert abs(d - segments.length(i)) <= 1e-14 * segments.length(i)


def test_nonarm_com_single_loaded_segment():
    masses = (0.0, 0.0, 0.0, 60.0, 0.0, 0.0, 0.0)
    segs = make_segments(masses=masses)
    pose = BodyPose(base=Vec2(0.2, -0.1), theta=(1.1, -0.3, 0.8, 0.4, -2.0, 1.0))
    geom = forward_kinematics(pose, segs)
    com = nonarm_com(pose, segs)
    assert (com - geom.segment_coms[3]).norm() < 1e-12


def test_nonarm_com_two_point_masses():
    # shank COM pinned at the ankle, thigh COM at (1, 1); everything else massless
    segs = make_segments(
        lengths=(1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0),
        masses=(0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0),
        fractions=(0.5, 0.0, 0.5, 0.5, 0.5, 0.5, 0.5),
    )
    pose = BodyPose(base=Vec2(0.0, 0.0), theta=(math.pi / 2, -math.pi / 2, 0.0, 0.0, 0.0, 0.0))
    com = nonarm_com(pose, segs)
    assert com.x == pytest.approx(0.5, abs=1e-12)
    assert com.y == pytest.approx(0.5, abs=1e-12)


def test_nonarm_com_matches_complex_reference(segments):
    scenario = load_scenario(fixture_path("bathtub_stand"))
    for frame in scenario.frames[::4]:
        got = nonarm_com(frame.pose, scenario.segments)
        ref = nonarm_com_complex(frame.pose, scenario.segments)
        assert got.x == pytest.approx(ref.real, abs=1e-12)
        assert got.y == pytest.approx(ref.imag, abs=1e-12)


def test_nonarm_com_translation_scales_by_mass_fraction(rng, segments):
    pose = random_pose(rng)
    d = Vec2(0.83, -0.29)
    shift = nonarm_com(translate_pose(pose, d), segments) - nonarm_com(pose, segments)
    assert (shift - d * segments.nonarm_fraction).norm() < 1e-12


def test_nonarm_com_rotation_about_origin_is_exact(rng, segments):
    pose = BodyPose(base=Vec2(0.3, 0.55), theta=tuple(rng.uniform(-math.pi, math.pi, 6)))
    for phi in (0.7, -1.9):
        rotated = nonarm_com(rotate_pose(pose, phi, about=ORIGIN), segments)
        assert (rotated - rotate(nonarm_com(pose, segments), phi)).norm() < 1e-12


def test_nonarm_com_rotation_about_other_pivots_shifts_predictably(rng, segments):
    # the whole-body-mass divisor scales the point toward the origin, so a
    # rotation about a pivot b slips by exactly (k - 1) * (b - R(b))
    pose = BodyPose(base=Vec2(0.3, 0.2), theta=tuple(rng.uniform(-math.pi, math.pi, 6)))
    k = segments.nonarm_fraction
    for phi in (0.7, -1.3):
        pivot = pose.base
        com0 = nonarm_com(pose, segments)
        com1 = nonarm_com(rotate_pose(pose, phi), segments)  # pivot defaults to the base
        slip = com1 - rotate(com0, phi, pivot)
        expected = (pivot - rotate(pivot, phi)) * (k - 1.0)
        assert (slip - expected).norm() < 1e-12


def uniform_frames(pose, d, dt=0.5, n=5):
    return tuple(
        PoseFrame(pose=translate_pose(pose, d * i), time=i * dt) for i in range(n)
    )


def test_com_velocity_uniform_translation(segments):
    pose = BodyPose(base=Vec2(0.0, 0.0), theta=(1.3, -0.5, 0.8, 0.1, -2.2, 0.9))
    frames = uniform_frames(pose, Vec2(0.1, 0.0))
    state = com_velocity(frames, segments, 2)
    assert state.direction.x == pytest.approx(1.0, abs=1e-12)
    assert state.direction.y == pytest.approx(0.0, abs=1e-12)
    # the whole-body divisor shrinks the speed by the non-arm mass fraction
    assert state.speed == pytest.approx(0.2 * segments.nonarm_fraction, rel=1e-12)
    assert state.position == nonarm_com(frames[2].pose, segments)


def test_com_velocity_rejects_endpoints_and_short_sequences(segments):
    pose = BodyPose(base=Vec2(0.0, 0.0), theta=(1.3, -0.5, 0.8, 0.1, -2.2, 0.9))
    frames = uniform_frames(pose, Vec2(0.1, 0.0))
    for bad in (0, len(frames) - 1, -1, len(frames)):
        with pytest.raises(IndexOutOfRange):
            com_velocity(frames, segments, bad)
    with pytest.raises(IndexOutOfRange):
        com_velocity(frames[:2], segments, 1)
    backwards = tuple(f._replace(time=-f.time) for f in frames)
    with pytest.raises(ValueError, match="^frame times must be strictly increasing$"):
        com_velocity(backwards, segments, 2)


def test_com_velocity_rejects_stationary_body(segments):
    pose = BodyPose(base=Vec2(0.0, 0.0), theta=(1.3, -0.5, 0.8, 0.1, -2.2, 0.9))
    frames = tuple(PoseFrame(pose=pose, time=0.5 * i) for i in range(5))
    with pytest.raises(DegenerateVelocity):
        com_velocity(frames, segments, 2)


def test_com_velocity_time_rescaling_preserves_direction(segments):
    pose = BodyPose(base=Vec2(0.0, 0.0), theta=(1.3, -0.5, 0.8, 0.1, -2.2, 0.9))
    frames = uniform_frames(pose, Vec2(0.07, 0.04))
    slow = tuple(PoseFrame(pose=f.pose, time=3.0 * f.time) for f in frames)
    fast = com_velocity(frames, segments, 2)
    stretched = com_velocity(slow, segments, 2)
    assert (fast.direction - stretched.direction).norm() < 1e-12
    assert stretched.speed == pytest.approx(fast.speed / 3.0, rel=1e-12)


def test_com_velocity_is_tangent_on_circular_arc(segments):
    # rotating the whole pose about the origin carries the COM along a circle;
    # the central difference of two symmetric samples is parallel to the tangent
    pose = BodyPose(base=Vec2(0.4, 0.1), theta=(1.3, -0.5, 0.8, 0.1, -2.2, 0.9))
    omega = 0.6
    frames = tuple(
        PoseFrame(pose=rotate_pose(pose, omega * t, about=ORIGIN), time=t)
        for t in (0.0, 0.25, 0.5, 0.75, 1.0)
    )
    state = com_velocity(frames, segments, 2)
    tangent = perp(state.position) * (1.0 / state.position.norm())
    assert (state.direction - tangent).norm() < 1e-12


def test_shoulder_frame_tracks_the_trunk(segments):
    pose = BodyPose(base=Vec2(0.0, 0.0), theta=(math.pi / 2, 0.0, 0.0, 0.1, -2.0, 1.0))
    origin, angle = shoulder_frame(pose, segments)
    geom = forward_kinematics(pose, segments)
    assert origin == geom.shoulder
    assert angle == pytest.approx(math.pi / 2, abs=1e-15)
    phi = -0.83
    origin_r, angle_r = shoulder_frame(rotate_pose(pose, phi, about=ORIGIN), segments)
    assert angle_r == pytest.approx(angle + phi, abs=1e-12)
    assert (origin_r - rotate(origin, phi)).norm() < 1e-12


def test_segment_set_structure_checks():
    segs = make_segments()
    with pytest.raises(ValueError):
        SegmentSet(segments=segs.segments[:6], total_mass=6.0)


def test_default_segments_mass_bookkeeping(segments):
    assert len(segments.segments) == 7
    assert tuple(s.name for s in segments.segments) == SEGMENT_NAMES
    assert segments.total_mass == 60.0
    mass_sum = sum(s.mass for s in segments.segments)
    assert abs(mass_sum - segments.total_mass) <= 1e-9 * segments.total_mass
    assert 0.90 <= segments.nonarm_fraction <= 0.95
    for s in segments.segments:
        assert s.length > 0.0
        assert 0.0 <= s.com_fraction <= 1.0
        assert s.mass >= 0.0
    assert abs(segments.arm_reach - 0.62) < 1e-12
