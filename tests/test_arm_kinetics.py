import math

import numpy as np
import pytest

from handleopt import IllConditioned, SingularChain, ZeroTorque
from handleopt.arm_kinetics import (
    VirtualChain,
    arm_force_expanded,
    arm_force_lsq,
    arm_forces,
    build_chain,
    mechanical_advantage,
)
from handleopt.body_model import Vec2, unit
from handleopt.config import TorqueSet
from oracles import (
    angle_of,
    context_of_chain,
    fd_com_jacobian,
    lsq_jacobian,
    perp,
    random_unit,
    rotate,
    sample_chain,
    sample_in_branch_chain,
    wrap_angle,
)


def test_chain_geometry_closes(rng):
    for _ in range(50):
        chain = sample_chain(rng)
        phi5 = chain.theta_04 + chain.theta5
        phi6 = phi5 + chain.theta6
        assert chain.elbow == Vec2(chain.shoulder.x + chain.upper_len * float(np.cos(phi5)),
                                   chain.shoulder.y + chain.upper_len * float(np.sin(phi5)))
        assert chain.handle == Vec2(chain.elbow.x + chain.fore_len * float(np.cos(phi6)),
                                    chain.elbow.y + chain.fore_len * float(np.sin(phi6)))
        to_com6, to_com7 = chain.com - chain.elbow, chain.com - chain.handle
        assert chain.lever5 == (chain.com - chain.shoulder).norm()
        assert chain.lever6 == float(np.hypot(to_com6.x, to_com6.y))
        assert chain.lever7 == float(np.hypot(to_com7.x, to_com7.y))
        assert chain.theta_com == angle_of(chain.com - chain.shoulder)


def test_chain_preserves_arm_lengths(rng):
    for _ in range(50):
        upper = rng.uniform(0.2, 0.5)
        fore = rng.uniform(0.2, 0.5)
        t04, t5, t6 = rng.uniform(-math.pi, math.pi, 3)
        chain = build_chain(Vec2(0.1, 0.2), t04, t5, t6, upper, fore, Vec2(0.9, -0.4))
        r5, r6 = chain.elbow - chain.shoulder, chain.handle - chain.elbow
        assert abs(r5.norm() - upper) <= 1e-14 * upper
        assert abs(r6.norm() - fore) <= 1e-14 * fore
        # the two arm links point theta6 apart
        assert wrap_angle(angle_of(r6) - angle_of(r5) - wrap_angle(t6)) == pytest.approx(
            0.0, abs=1e-9
        )


def test_chain_round_trips_the_com(rng):
    for _ in range(20):
        com = Vec2(rng.uniform(-1, 1), rng.uniform(-1, 1))
        shoulder = Vec2(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if (com - shoulder).norm() < 0.1:
            continue
        chain = build_chain(shoulder, 0.3, -0.7, 1.1, 0.32, 0.30, com)
        assert (chain.com - com).norm() < 1e-12


def test_degenerate_levers_raise():
    shoulder = Vec2(0.0, 0.0)
    with pytest.raises(SingularChain):
        build_chain(shoulder, 0.0, 0.5, 1.0, 0.32, 0.30, shoulder)
    elbow = 0.32 * unit(0.5)
    with pytest.raises(SingularChain):
        build_chain(shoulder, 0.0, 0.5, 1.0, 0.32, 0.30, elbow)
    handle = 0.32 * unit(0.5) + 0.30 * unit(1.5)
    with pytest.raises(SingularChain):
        build_chain(shoulder, 0.0, 0.5, 1.0, 0.32, 0.30, handle)


def test_subsidiary_angles_match_direct_geometry_in_branch(rng):
    for _ in range(60):
        chain = sample_in_branch_chain(rng)
        elbow_angle = angle_of(chain.com - chain.elbow)
        handle_angle = angle_of(chain.com - chain.handle)
        assert abs(wrap_angle(chain.theta_6com - elbow_angle)) < 1e-9
        assert abs(wrap_angle(chain.theta_7com - handle_angle)) < 1e-9


def test_isosceles_right_triangle_angles():
    # shoulder (0,0), elbow (1,0), COM (1,1): the elbow lever stands at +90 deg
    chain = build_chain(Vec2(0.0, 0.0), 0.0, 0.0, -3.0 * math.pi / 4.0, 1.0, 1.0, Vec2(1.0, 1.0))
    assert chain.theta_6com == pytest.approx(-3.0 * math.pi / 2.0, abs=1e-12)
    assert wrap_angle(chain.theta_6com) == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert wrap_angle(chain.theta_6com) == pytest.approx(angle_of(chain.com - chain.elbow), abs=1e-12)
    assert wrap_angle(chain.theta_7com) == pytest.approx(3.0 * math.pi / 8.0, abs=1e-12)
    assert wrap_angle(chain.theta_7com) == pytest.approx(angle_of(chain.com - chain.handle), abs=1e-12)


def test_collinear_com_beyond_elbow_hits_negative_cosine():
    # COM on the upper-arm ray past the elbow: lever5 = L5 + lever6, and the
    # law-of-cosines argument lands on -1 (acos of pi), not +1
    assert (1.0 ** 2 + 1.0 ** 2 - 2.0 ** 2) / (2.0 * 1.0 * 1.0) == -1.0
    chain = build_chain(Vec2(0.0, 0.0), 0.0, 0.0, math.pi / 2.0, 1.0, 0.3, Vec2(2.0, 0.0))
    assert chain.theta_6com == pytest.approx(-2.0 * math.pi, abs=1e-12)
    assert abs(wrap_angle(chain.theta_6com - angle_of(chain.com - chain.elbow))) < 1e-12


def test_collinear_com_between_joints_hits_positive_cosine():
    # COM halfway between shoulder and elbow: the argument lands on +1 (acos of 0)
    assert (1.0 ** 2 + 0.5 ** 2 - 0.5 ** 2) / (2.0 * 1.0 * 0.5) == 1.0
    chain = build_chain(Vec2(0.0, 0.0), 0.0, 0.0, math.pi / 2.0, 1.0, 0.3, Vec2(0.5, 0.0))
    assert chain.theta_6com == pytest.approx(-math.pi, abs=1e-12)
    assert abs(wrap_angle(chain.theta_6com - angle_of(chain.com - chain.elbow))) < 1e-12


def test_unit_directions_are_unit_length(rng):
    for _ in range(20):
        chain = sample_chain(rng)
        for u in chain.unit_directions():
            assert u.norm() == pytest.approx(1.0, abs=1e-15)


def test_expanded_force_single_term_is_exact():
    # only the shoulder torque acts; lever 0.5 along +x pushes straight up
    chain = build_chain(Vec2(0.0, 0.0), 0.0, math.pi / 2.0, math.pi / 2.0,
                        0.32, 0.30, Vec2(0.5, 0.0))
    force = arm_force_expanded(chain, TorqueSet(1.0, 0.0, 0.0))
    assert force.x == 0.0
    assert force.y == 2.0


def test_expanded_force_zero_torques_zero_force(rng):
    chain = sample_chain(rng)
    force = arm_force_expanded(chain, TorqueSet(0.0, 0.0, 0.0))
    assert force.x == 0.0 and force.y == 0.0


def test_expanded_force_is_linear_in_torques(rng):
    for _ in range(40):
        chain = sample_chain(rng)
        ta = TorqueSet(*rng.uniform(-2, 2, 3))
        tb = TorqueSet(*rng.uniform(-2, 2, 3))
        fa = arm_force_expanded(chain, ta)
        fb = arm_force_expanded(chain, tb)
        fsum = arm_force_expanded(
            chain, TorqueSet(ta.tau5 + tb.tau5, ta.tau6 + tb.tau6, ta.tau7 + tb.tau7)
        )
        assert abs(fsum.x - (fa.x + fb.x)) < 1e-12
        assert abs(fsum.y - (fa.y + fb.y)) < 1e-12
        fk = arm_force_expanded(chain, TorqueSet(3.0 * ta.tau5, 3.0 * ta.tau6, 3.0 * ta.tau7))
        assert abs(fk.x - 3.0 * fa.x) < 1e-12
        assert abs(fk.y - 3.0 * fa.y) < 1e-12


def test_jacobian_columns_are_rotated_lever_vectors(rng):
    for _ in range(30):
        chain = sample_chain(rng)
        jac = lsq_jacobian(chain)
        assert jac.shape == (2, 3)
        for j, (point, lever) in enumerate(
            ((chain.handle, chain.lever7), (chain.elbow, chain.lever6),
             (chain.shoulder, chain.lever5))
        ):
            col = perp(chain.com - point)
            assert jac[0, j] == col.x
            assert jac[1, j] == col.y
            assert math.hypot(jac[0, j], jac[1, j]) == pytest.approx(lever, rel=1e-12)


def test_jacobian_shoulder_column_for_known_chain():
    chain = build_chain(Vec2(0.0, 0.0), 0.0, math.pi / 2.0, math.pi / 2.0,
                        0.32, 0.30, Vec2(0.5, 0.0))
    jac = lsq_jacobian(chain)
    assert jac[0, 2] == 0.0
    assert jac[1, 2] == 0.5


def test_jacobian_zero_lever_column_is_finite():
    # a hand-built chain whose COM sits exactly on the elbow still yields a
    # defined (zero) column; only the force maps guard against this
    elbow = Vec2(0.32, 0.0)
    chain = VirtualChain(
        shoulder=Vec2(0.0, 0.0), elbow=elbow, handle=Vec2(0.32, 0.30), com=elbow,
        theta_04=0.0, theta5=0.0, theta6=1.0, upper_len=0.32, fore_len=0.30,
        lever5=0.32, lever6=0.0, lever7=0.30,
        theta_com=0.0, theta_6com=0.0, theta_7com=0.0,
    )
    jac = lsq_jacobian(chain)
    assert jac[0, 1] == 0.0 and jac[1, 1] == 0.0
    assert np.isfinite(jac).all()


def test_jacobian_matches_finite_differences(rng):
    for _ in range(30):
        chain = sample_chain(rng)
        jac = lsq_jacobian(chain)
        fd = fd_com_jacobian(chain, h=1e-6)
        assert np.linalg.norm(fd - jac) <= 1e-5 * np.linalg.norm(jac)


def test_lsq_recovers_force_when_torques_are_consistent(rng):
    for _ in range(30):
        chain = sample_chain(rng)
        f0 = Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5))
        jac = lsq_jacobian(chain)
        tau = jac.T @ np.array([f0.x, f0.y])  # ordered (tau7, tau6, tau5)
        try:
            f = arm_force_lsq(chain, TorqueSet(tau5=tau[2], tau6=tau[1], tau7=tau[0]))
        except IllConditioned:
            continue
        assert abs(f.x - f0.x) < 1e-9
        assert abs(f.y - f0.y) < 1e-9


def test_lsq_matches_lstsq_reference(rng):
    checked = 0
    while checked < 40:
        chain = sample_chain(rng)
        torques = TorqueSet(*rng.uniform(-2, 2, 3))
        try:
            f = arm_force_lsq(chain, torques)
        except IllConditioned:
            continue
        jac = lsq_jacobian(chain)
        sol, *_ = np.linalg.lstsq(
            jac.T, np.array([torques.tau7, torques.tau6, torques.tau5]), rcond=None
        )
        assert math.hypot(f.x - sol[0], f.y - sol[1]) < 1e-9
        checked += 1


def test_lsq_zero_torques_zero_force(rng):
    chain = sample_chain(rng)
    f = arm_force_lsq(chain, TorqueSet(0.0, 0.0, 0.0))
    assert f.x == 0.0 and f.y == 0.0


def test_lsq_is_linear_in_torques(rng):
    checked = 0
    while checked < 20:
        chain = sample_chain(rng)
        ta = TorqueSet(*rng.uniform(-2, 2, 3))
        try:
            fa = arm_force_lsq(chain, ta)
            fk = arm_force_lsq(chain, TorqueSet(2.0 * ta.tau5, 2.0 * ta.tau6, 2.0 * ta.tau7))
        except IllConditioned:
            continue
        assert abs(fk.x - 2.0 * fa.x) < 1e-9
        assert abs(fk.y - 2.0 * fa.y) < 1e-9
        checked += 1


def test_lsq_raises_when_levers_align():
    # fully stretched arm with the COM on the same line: rank-1 system
    chain = build_chain(Vec2(0.0, 0.0), 0.0, 0.0, 0.0, 0.32, 0.30, Vec2(0.9, 0.0))
    with pytest.raises(IllConditioned):
        arm_force_lsq(chain, TorqueSet(1.0, 1.0, 1.0))


def test_force_rotation_equivariance_both_models(rng):
    for _ in range(15):
        shoulder = Vec2(rng.uniform(-1, 1), rng.uniform(-1, 1))
        t04, t5, t6 = rng.uniform(-math.pi, math.pi, 3)
        com = shoulder + Vec2(rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8))
        try:
            chain = build_chain(shoulder, t04, t5, t6, 0.32, 0.30, com)
        except SingularChain:
            continue
        if min(chain.lever5, chain.lever6, chain.lever7) < 0.05:
            continue
        torques = TorqueSet(*rng.uniform(-2, 2, 3))
        phi = rng.uniform(-math.pi, math.pi)
        rotated = build_chain(
            rotate(shoulder, phi), t04 + phi, t5, t6, 0.32, 0.30, rotate(com, phi)
        )
        f = arm_force_expanded(chain, torques)
        fr = arm_force_expanded(rotated, torques)
        assert (fr - rotate(f, phi)).norm() < 1e-9
        assert mechanical_advantage(fr, torques) == pytest.approx(
            mechanical_advantage(f, torques), rel=1e-12
        )
        try:
            g = arm_force_lsq(chain, torques)
            gr = arm_force_lsq(rotated, torques)
        except IllConditioned:
            continue
        assert (gr - rotate(g, phi)).norm() < 1e-9


def test_both_force_models_stay_finite(rng):
    # the two maps are distinct in general; this only pins basic sanity
    checked = 0
    while checked < 50:
        chain = sample_chain(rng)
        torques = TorqueSet(*rng.uniform(0.5, 2.0, 3))
        fe = arm_force_expanded(chain, torques)
        try:
            fl = arm_force_lsq(chain, torques)
        except IllConditioned:
            continue
        assert math.isfinite(fe.x) and math.isfinite(fe.y)
        assert math.isfinite(fl.x) and math.isfinite(fl.y)
        assert mechanical_advantage(fe, torques) > 0.0
        checked += 1


def test_mechanical_advantage_scales_force_by_torque_norm():
    assert mechanical_advantage(Vec2(0.0, 2.0), TorqueSet(1.0, 0.0, 0.0)) == 2.0
    assert mechanical_advantage(Vec2(0.0, 0.0), TorqueSet(1.0, 1.0, 1.0)) == 0.0
    assert mechanical_advantage(Vec2(3.0, 4.0), TorqueSet(0.0, 5.0, 0.0)) == 1.0
    with pytest.raises(ZeroTorque):
        mechanical_advantage(Vec2(1.0, 0.0), TorqueSet(0.0, 0.0, 0.0))


def test_mechanical_advantage_of_huge_torques_is_finite():
    assert mechanical_advantage(Vec2(3e300, 4e300), TorqueSet(1e300, 1.0, 1.0)) == 5.0
    assert TorqueSet(1.0, 1.0, 1.0).norm() == math.sqrt(3.0)


def test_directed_advantage_projects_onto_the_direction(rng):
    # the kernel's directed figure is F.v = |F||v|cos(angle between) for
    # the force vector it reports, under both force models
    for _ in range(200):
        chain = sample_chain(rng)
        direction = random_unit(rng)
        mags = tuple(rng.uniform(0.5, 2.0, 3))
        ctx = context_of_chain(chain, direction)
        for model in ("expanded", "lsq"):
            r = arm_forces(ctx, chain.theta5, chain.theta6, mags, model)
            if r.ill_conditioned:
                continue
            force = Vec2(float(r.force[0]), float(r.force[1]))
            angle = angle_of(force) - angle_of(direction)
            assert abs(r.directed - force.dot(direction)) < 1e-9
            assert abs(r.directed - force.norm() * direction.norm() * math.cos(angle)) < 1e-9
