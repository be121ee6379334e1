import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from handleopt import IllConditioned, SingularChain, ZeroTorque
from handleopt.arm_kinetics import (
    _ON_FLOATS,
    _SLOTS,
    COND_LIMIT,
    EPS_SINGULAR,
    GridTrig,
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
    cross,
    finite,
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


# Over 20,000 examples of the test below, the worst error was 7.1e-13 rad.
LEVER_RULE_BOUND = 1e-11  # rad


def lever_rule(link: Vec2, to_com: Vec2, direct: bool) -> float:
    """A lever angle by the lever rule: the joint->COM direction where
    direct, else its mirror image across the link's line."""
    a = angle_of(to_com)
    return a if direct else 2.0 * angle_of(link) - a


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(shoulder=st.tuples(finite(-1.0, 1.0), finite(-1.0, 1.0)),
       theta_04=finite(-math.pi, math.pi), theta5=finite(-math.pi, math.pi),
       upper=finite(0.2, 0.5), fore=finite(0.2, 0.5), reach=finite(0.05, 1.0),
       sides=st.sampled_from(list(itertools.product((1.0, -1.0), repeat=2))),
       alpha=finite(0.0, math.pi), gamma=finite(0.0, math.pi))
def test_lever_angles_follow_the_lever_rule_on_both_sides_of_each_link(
        shoulder, theta_04, theta5, upper, fore, reach, sides, alpha, gamma):
    # The COM lies reach from the elbow, alpha off the upper arm's line on
    # the elbow's side and gamma off the forearm's line on the handle's, so
    # the four pairs of sides are drawn alike rather than left to chance.
    elbow_side, handle_side = sides
    phi5 = theta_04 + theta5
    theta6 = elbow_side * alpha - handle_side * gamma
    elbow = Vec2(*shoulder) + upper * unit(phi5)
    com = elbow + reach * unit(phi5 + elbow_side * alpha)
    try:
        chain = build_chain(Vec2(*shoulder), theta_04, theta5, theta6, upper, fore, com)
    except SingularChain:
        assume(False)
    s, e, h, c = chain.shoulder, chain.elbow, chain.handle, chain.com
    # signed distances of the COM from each link's line, + on its left
    upper_side = cross(e - s, c - e) / upper
    fore_side = cross(h - e, c - h) / fore
    assume(min(abs(upper_side), abs(fore_side)) >= 1e-3)
    assume(min(chain.lever5, chain.lever6, chain.lever7) >= 0.05)
    # direct where the COM is left of the upper arm and right of the forearm
    elbow_angle = lever_rule(e - s, c - e, upper_side > 0.0)
    handle_angle = lever_rule(h - e, c - h, fore_side < 0.0)
    assert abs(wrap_angle(chain.theta_6com - elbow_angle)) <= LEVER_RULE_BOUND
    assert abs(wrap_angle(chain.theta_7com - handle_angle)) <= LEVER_RULE_BOUND


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


# An lsq cell within this relative distance of COND_LIMIT may be decided
# either way by rounding, in the kernel and in the SVD alike.
NEAR_LIMIT = 0.01


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(shoulder=st.tuples(finite(-1.0, 1.0), finite(-1.0, 1.0)),
       theta_04=finite(-math.pi, math.pi), upper=finite(0.2, 0.5), fore=finite(0.2, 0.5),
       theta5=finite(-math.pi, math.pi), reach=finite(0.05, 1.5),
       offset_exp=finite(-7.5, -4.5), side=st.sampled_from((-1, 1)),
       step_exp=finite(-9.0, -5.5))
def test_lsq_rejection_agrees_with_the_svd_condition_number(shoulder, theta_04, upper, fore,
                                                            theta5, reach, offset_exp, side,
                                                            step_exp):
    # A 10x10 patch of nearly straight arms, with the COM on the upper arm's
    # line to within micrometres, puts the ratio on both sides of the limit.
    phi5 = theta_04 + theta5
    com = (Vec2(*shoulder) + reach * unit(phi5)
           + side * 10.0 ** offset_exp * unit(phi5 + math.pi / 2.0))
    step = 10.0 ** step_exp
    for i5, i6 in itertools.product(range(10), range(-5, 5)):
        t5, t6 = theta5 + i5 * step, i6 * step
        try:
            chain = build_chain(Vec2(*shoulder), theta_04, t5, t6, upper, fore, com)
        except SingularChain:
            continue
        r = arm_forces(context_of_chain(chain, unit(0.0)), t5, t6, (1.0, 1.0, 1.0), "lsq")
        s = np.linalg.svd(lsq_jacobian(chain), compute_uv=False)
        ratio = math.inf if s[1] == 0.0 else (float(s[0]) / float(s[1])) ** 2
        if r.singular or abs(ratio / COND_LIMIT - 1.0) < NEAR_LIMIT:
            continue
        assert r.ill_conditioned == (ratio > COND_LIMIT), ratio


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
    # the force vector the report gives (the chain view at the kernel's
    # signs), under both force models
    for _ in range(200):
        chain = sample_chain(rng)
        direction = random_unit(rng)
        mags = tuple(rng.uniform(0.5, 2.0, 3))
        ctx = context_of_chain(chain, direction)
        for model in ("expanded", "lsq"):
            r = arm_forces(ctx, chain.theta5, chain.theta6, mags, model)
            if r.ill_conditioned:
                continue
            torques = TorqueSet(*(s * m for s, m in zip(r.signs, mags)))
            force = (arm_force_lsq if model == "lsq" else arm_force_expanded)(chain, torques)
            angle = angle_of(force) - angle_of(direction)
            assert abs(r.directed - force.dot(direction)) < 1e-9
            assert abs(r.directed - force.norm() * direction.norm() * math.cos(angle)) < 1e-9


def grid_trig_values(phi5, t6, rows):
    """(phi6, cos, sin) of the whole grid from one GridTrig, in blocks of rows."""
    trig = GridTrig(phi5, t6)
    blocks = [trig.rows(lo, min(lo + rows, phi5.size)).cos_sin_sum(phi5[lo:lo + rows, None],
                                                                    t6[None, :])
              for lo in range(0, phi5.size, rows)]
    return [np.concatenate(part) for part in zip(*blocks)]


def assert_grid_trig_is_exact(phi5, t6, rows):
    phi6 = phi5[:, None] + t6[None, :]
    for have, want in zip(grid_trig_values(phi5, t6, rows), (phi6, np.cos(phi6), np.sin(phi6))):
        np.testing.assert_array_equal(have.view(np.int64), want.view(np.int64))


def diagonal_spreads(phi5, t6):
    """Per anti-diagonal i + j, how many floats apart its extreme sums are.
    Where that is _SLOTS or more, no window of _SLOTS consecutive floats
    holds them all, so some cell of the diagonal misses the table."""
    flipped = (phi5[:, None] + t6[None, :]).view(np.int64)[:, ::-1]
    diagonals = [np.diagonal(flipped, t6.size - 1 - k) for k in range(phi5.size + t6.size - 1)]
    return [int(d.max()) - int(d.min()) for d in diagonals]


@st.composite
def trig_grids(draw):
    """(phi5, theta6, rows per block): regular grids as evaluate_grid makes
    them, some placed so that the sums cross zero, and irregular ones."""
    n5, n6 = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    if draw(st.booleans()):
        phi5 = np.array(draw(st.lists(finite(-50.0, 50.0), min_size=n5, max_size=n5)))
        t6 = np.array(draw(st.lists(finite(-7.0, 7.0), min_size=n6, max_size=n6)))
    else:
        step = draw(finite(1e-6, 0.1))
        theta_04, lo5 = draw(finite(-math.pi, math.pi)), draw(finite(-46.0, 46.0))
        phi5 = theta_04 + (lo5 + step * np.arange(n5))
        if draw(st.booleans()):
            lo6 = -(theta_04 + lo5) - step * draw(st.integers(0, n5 + n6 - 2))
        else:
            lo6 = draw(finite(-math.pi, math.pi))
        t6 = lo6 + step * np.arange(n6)
    return phi5, t6, draw(st.integers(1, n5))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(grid=trig_grids())
def test_grid_trig_equals_the_ufuncs_bit_for_bit(grid):
    assert_grid_trig_is_exact(*grid)


@pytest.mark.parametrize("n5, n6", [(300, 250), (1, 250), (300, 1), (1, 1)])
def test_grid_trig_is_exact_where_the_sums_cross_zero(n5, n6):
    # half-degree axes whose sums pass through zero on the middle diagonal
    step = math.radians(0.5)
    theta_04 = 0.7
    phi5 = theta_04 + (-1.0 + step * np.arange(n5))
    t6 = (1.0 - theta_04 - step * ((n5 + n6) // 2)) + step * np.arange(n6)
    if n5 > 1 and n6 > 1:
        assert max(diagonal_spreads(phi5, t6)) >= _SLOTS  # the table misses there
    for rows in (1, 7, n5):
        assert_grid_trig_is_exact(phi5, t6, rows)


def assert_float_hypot_is_np_hypot(x, y):
    """_ON_FLOATS.hypot of every pair has the bits of np.hypot's, NaN signs
    included."""
    with np.errstate(over="ignore"):
        want = np.hypot(x, y)
    have = np.array([_ON_FLOATS.hypot(a, b) for a, b in zip(x.tolist(), y.tolist())])
    np.testing.assert_array_equal(have.view(np.uint64), want.view(np.uint64))


def test_float_hypot_is_np_hypot_bit_for_bit(rng):
    # A point query takes its levers from _ON_FLOATS.hypot and the grid from
    # np.hypot, so a build whose two hypot functions differ fails here before
    # it breaks point-grid parity.
    n = 20_000
    assert_float_hypot_is_np_hypot(*rng.uniform(-2.0, 2.0, (2, n)))
    signs = rng.choice([-1.0, 1.0], (2, n))
    assert_float_hypot_is_np_hypot(*signs * 10.0 ** rng.uniform(-300.0, 300.0, (2, n)))
    specials = [0.0, 5e-324, 2.225073858507201e-308, 1e-310, 1e-300, 1.0, 1e300, 1e308,
                math.inf, math.nan]
    specials += [-x for x in specials]
    x, y = np.array(list(itertools.product(specials, repeat=2))).T
    assert_float_hypot_is_np_hypot(x, y)
    # a hypotenuse beyond the largest float, where complex abs raises
    assert_float_hypot_is_np_hypot(np.array([1.5e308]), np.array([-1.5e308]))
    assert _ON_FLOATS.hypot(1.5e308, -1.5e308) == math.inf


def test_float_maximum_and_minimum_are_np_maximum_and_minimum_bit_for_bit(rng):
    # The kernel floors a lever with maximum(d, EPS_SINGULAR) and clamps a
    # law-of-cosines ratio with minimum(maximum(c, -1.0), 1.0), the ratio
    # always first. _ON_FLOATS returns its first operand unless the second
    # compares greater (less), so a NaN first operand passes through with
    # its bits, as it does through the ufuncs.
    n = 2_000
    x = np.concatenate([rng.uniform(-2.0, 2.0, n),
                        rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300.0, 300.0, n)])
    specials = [0.0, 5e-324, 1e-310, 2.225073858507201e-308, EPS_SINGULAR, 1.0, 1.0 + 2**-52,
                1e308, math.inf, math.nan]
    x = np.concatenate([x, specials, [-v for v in specials]])
    for name in ("maximum", "minimum"):
        for b in (EPS_SINGULAR, -1.0, 1.0):
            have = np.array([getattr(_ON_FLOATS, name)(a, b) for a in x.tolist()])
            want = getattr(np, name)(x, b)
            np.testing.assert_array_equal(have.view(np.uint64), want.view(np.uint64))
    # Why the ratio comes first: a NaN second operand is dropped.
    assert _ON_FLOATS.maximum(EPS_SINGULAR, math.nan) == EPS_SINGULAR
    assert _ON_FLOATS.minimum(1.0, math.nan) == 1.0
