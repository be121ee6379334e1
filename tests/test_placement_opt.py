import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from handleopt import (
    IllConditioned,
    NoFeasiblePoint,
    SingularChain,
    arm_kinetics,
    fixture_path,
    load_scenario,
    make_context,
    optimize_placement,
    placement_opt,
)
from handleopt.arm_kinetics import (
    EPS_SINGULAR,
    arm_forces,
    build_chain,
    force_vector,
    grid_forces,
)
from handleopt.body_model import FOREARM, UPPER_ARM, Vec2, unit
from handleopt.config import (
    FORCE_MODELS,
    MAX_GRID_CELLS,
    JointLimits,
    ObjectiveConfig,
    ObjectiveLandscape,
    Placement,
    PlacementContext,
    RobotParams,
    TorqueSet,
    grid_points,
)
from handleopt.placement_opt import (
    argmax_lexicographic,
    evaluate_grid,
    feasibility_check,
    grid_axis,
    objective,
)
from handleopt.scenario_io import validate_scenario
from oracles import (
    argmax_sequential_scan,
    arm_force_atan2,
    best_sign_combo,
    finite,
    handle_sign_by_angle,
    list_fixtures,
    random_unit,
    rotate,
    rotate_context,
    sample_chain,
    sample_in_branch_chain,
)
from test_fixture_optima import optimum_pin, pinned


def toilet_context():
    scenario = load_scenario(fixture_path("toilet_sit_to_stand"))
    ctx, _ = make_context(scenario)
    return scenario, ctx


def test_grid_axis_inclusive_endpoints():
    axis = grid_axis(0.0, 1.0, 0.25)
    assert axis.size == 5
    assert axis[0] == 0.0
    assert axis[-1] == 1.0
    short = grid_axis(0.0, 1.0, 0.3)
    assert short.size == 4
    assert short[-1] == pytest.approx(0.9)
    single = grid_axis(2.0, 2.0, 0.5)
    assert single.size == 1 and single[0] == 2.0
    # a span that is a near-exact multiple of the step still reaches the end
    deg = grid_axis(math.radians(-60.0), math.radians(80.0), math.radians(0.5))
    assert deg.size == 281
    assert deg[-1] == pytest.approx(math.radians(80.0), abs=1e-12)


def test_grid_axis_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        grid_axis(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        grid_axis(0.0, 1.0, -0.1)


@pytest.mark.parametrize("lo, hi, step", [
    (math.nan, 1.0, 0.1), (0.0, math.inf, 0.1), (-math.inf, 0.0, 0.1),
    (0.0, 1.0, math.inf), (0.0, 1.0, math.nan), (0.0, 1.0, -math.inf),
])
def test_grid_points_rejects_non_finite_inputs(lo, hi, step):
    with pytest.raises(ValueError, match="finite"):
        grid_points(lo, hi, step)


def test_grid_points_beyond_the_float_range_is_infinite():
    assert grid_points(0.0, 1e308, 1e-308) == math.inf
    assert grid_points(-1e308, 1e308, 1.0) == math.inf


def test_grid_axis_beyond_the_float_range_names_span_and_step():
    with pytest.raises(ValueError, match=r"span of 1e\+308 at a step of 1e-308"):
        grid_axis(0.0, 1e308, 1e-308)


@pytest.mark.parametrize("step", [1e-12, 1e-309])
def test_evaluate_grid_refuses_more_than_max_grid_cells(step):
    """The rule and message of validate_scenario's grid_too_large, raised
    before any allocation: at a 1e-12 step one axis alone is 7 TiB, and at
    1e-309 its point count is beyond the float range."""
    scenario, ctx = toilet_context()
    limits = JointLimits(0.0, 1.0, 0.1, 1.1)
    config = replace(scenario.objective, grid_step=step)
    with pytest.raises(ValueError, match=f"more than the {MAX_GRID_CELLS} allowed") as exc:
        evaluate_grid(ctx, limits, config)
    findings = validate_scenario(scenario._replace(limits=limits, objective=config))
    assert [f.message for f in findings if f.code == "grid_too_large"] == [str(exc.value)]


def test_an_unknown_force_model_raises():
    scenario, ctx = toilet_context()
    config = replace(scenario.objective, force_model="LSQ")
    with pytest.raises(ValueError, match="force model"):
        optimize_placement(ctx, scenario.limits, config)
    with pytest.raises(ValueError, match="force model"):
        objective(math.radians(-42.0), math.radians(120.0), ctx, config)


@pytest.mark.parametrize("step", [math.inf, math.nan])
def test_optimize_placement_rejects_a_non_finite_step(step):
    scenario, ctx = toilet_context()
    with pytest.raises(ValueError, match="finite"):
        optimize_placement(ctx, scenario.limits, replace(scenario.objective, grid_step=step))


def test_torque_signs_make_every_term_push_along_v(rng):
    for _ in range(60):
        ctx, theta5, theta6, chain = sample_chain(rng)
        v = random_unit(rng)
        mags = tuple(rng.uniform(0.5, 2.0, 3))
        r = arm_forces(ctx._replace(v=v), theta5, theta6, mags, "expanded")
        torques = TorqueSet(*(float(s * m) for s, m in zip(r.signs, mags)))
        u5, u6, u7 = chain.unit_directions()
        assert torques.tau5 / chain.lever5 * u5.dot(v) >= -1e-12
        assert torques.tau6 / chain.lever6 * u6.dot(v) >= -1e-12
        assert torques.tau7 / chain.lever7 * u7.dot(v) >= -1e-12
        assert abs(torques.tau5) == mags[0]
        assert abs(torques.tau6) == mags[1]
        assert abs(torques.tau7) == mags[2]


def test_objective_matches_in_branch_sign_search(rng):
    config = ObjectiveConfig(a=0.0, torque_magnitudes=(1.0, 1.2, 0.7))
    for _ in range(40):
        ctx, theta5, theta6, chain = sample_in_branch_chain(rng)
        v = random_unit(rng)
        got = objective(theta5, theta6, ctx._replace(v=v), config)
        want = best_sign_combo(chain, v, config.torque_magnitudes, force=arm_force_atan2)
        assert got == pytest.approx(want, abs=1e-9)


def test_penalty_vanishes_at_right_angle_elbow():
    _, ctx = toilet_context()
    with_pen = ObjectiveConfig(a=0.2)
    without = ObjectiveConfig(a=0.0)
    for t5 in (-0.4, 0.1, 0.9):
        a = objective(t5, math.pi / 2.0, ctx, with_pen)
        b = objective(t5, math.pi / 2.0, ctx, without)
        assert abs(a - b) < 1e-15


def test_objective_is_pure_penalty_when_levers_align():
    # straight arm along +x with the COM on the same line: every force
    # direction is vertical, so nothing projects onto v = +x
    ctx = PlacementContext(
        shoulder=Vec2(0.0, 0.0), theta_04=0.0, com=Vec2(0.5, 0.0),
        v=Vec2(1.0, 0.0), upper_len=0.32, fore_len=0.30,
    )
    value = objective(0.0, 0.0, ctx, ObjectiveConfig(a=0.2))
    assert value == pytest.approx(-0.2, abs=1e-12)


@st.composite
def contexts(draw):
    shoulder = Vec2(draw(finite(-1.0, 1.0)), draw(finite(-1.0, 1.0)))
    return PlacementContext(
        shoulder=shoulder,
        theta_04=draw(finite(-math.pi, math.pi)),
        com=shoulder + Vec2(draw(finite(-0.9, 0.9)), draw(finite(-0.9, 0.9))),
        v=unit(draw(finite(-math.pi, math.pi))),
        upper_len=draw(finite(0.2, 0.5)),
        fore_len=draw(finite(0.2, 0.5)),
    )


magnitudes = st.tuples(finite(0.1, 3.0), finite(0.1, 3.0), finite(0.1, 3.0))
configs = st.builds(
    ObjectiveConfig,
    a=finite(0.0, 1.0),
    torque_magnitudes=magnitudes,
    force_model=st.sampled_from(FORCE_MODELS),
    grid_step=finite(math.radians(10.0), math.radians(45.0)),
)
# Fixed examples keep the suite deterministic; no example database is written.
property_settings = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def assert_objective_matches_grid(ctx, limits, config):
    """Every cell: objective() equals it bit for bit, or raises where it is NaN,
    whether the angles come as floats or as the axes' own np.float64 values."""
    landscape = evaluate_grid(ctx, limits, config)
    for i5, t5 in enumerate(landscape.theta5):
        for i6, t6 in enumerate(landscape.theta6):
            cell = float(landscape.objective[i5, i6])
            for angles in ((float(t5), float(t6)), (t5, t6)):
                if math.isnan(cell):
                    with pytest.raises((SingularChain, IllConditioned)):
                        objective(*angles, ctx, config)
                else:
                    assert objective(*angles, ctx, config).hex() == cell.hex()


def corner_limits(theta5, theta6, step):
    """Limits of a 3x3 grid whose first cell is exactly (theta5, theta6)."""
    return JointLimits(theta5_min=theta5, theta5_max=theta5 + 2.0 * step,
                       theta6_min=theta6, theta6_max=theta6 + 2.0 * step)


@property_settings
@given(ctx=contexts(), config=configs, t5=finite(-math.pi, math.pi),
       t6=finite(-math.pi, math.pi), span5=finite(0.0, math.pi), span6=finite(0.0, math.pi))
def test_objective_scalar_matches_grid_cells(ctx, config, t5, t6, span5, span6):
    limits = JointLimits(theta5_min=t5, theta5_max=t5 + span5,
                         theta6_min=t6, theta6_max=t6 + span6)
    assert_objective_matches_grid(ctx, limits, config)


def near_joint_case(ctx, config, t5, t6, joint, gap, angle, step):
    """(ctx, limits, config) with the COM within a few EPS_SINGULAR of one
    joint at the first cell, so the 3x3 grid straddles the singularity guard."""
    phi5 = ctx.theta_04 + t5
    point = ctx.shoulder
    if joint != "shoulder":
        point = point + ctx.upper_len * Vec2(float(np.cos(phi5)), float(np.sin(phi5)))
    if joint == "handle":
        point = point + ctx.fore_len * Vec2(float(np.cos(phi5 + t6)), float(np.sin(phi5 + t6)))
    ctx = ctx._replace(com=point + gap * unit(angle))
    return ctx, corner_limits(t5, t6, step), replace(config, grid_step=step)


def condition_limit_case(ctx, mags, a, t5, reach, offset, step):
    """(ctx, limits, config) for a nearly straight arm with the COM a few
    micrometres off its line: lambda_max / lambda_min of J J^T sits near
    COND_LIMIT across the 3x3 lsq grid."""
    phi5 = ctx.theta_04 + t5
    com = ctx.shoulder + reach * unit(phi5) + offset * unit(phi5 + math.pi / 2.0)
    ctx = ctx._replace(com=com)
    config = ObjectiveConfig(a=a, torque_magnitudes=mags, force_model="lsq", grid_step=step)
    return ctx, corner_limits(t5, -step, step), config


@property_settings
@given(ctx=contexts(), config=configs, t5=finite(-math.pi, math.pi),
       t6=finite(-math.pi, math.pi), joint=st.sampled_from(("shoulder", "elbow", "handle")),
       gap=finite(0.0, 3e-6), angle=finite(-math.pi, math.pi), step=finite(1e-7, 1e-5))
def test_objective_matches_grid_with_a_joint_near_the_com(ctx, config, t5, t6, joint, gap,
                                                          angle, step):
    assert_objective_matches_grid(*near_joint_case(ctx, config, t5, t6, joint, gap, angle, step))


@property_settings
@given(ctx=contexts(), mags=magnitudes, a=finite(0.0, 1.0), t5=finite(-math.pi, math.pi),
       reach=finite(0.05, 1.5), offset=finite(-3e-6, 3e-6), step=finite(1e-8, 1e-5))
def test_lsq_objective_matches_grid_at_the_condition_limit(ctx, mags, a, t5, reach, offset, step):
    assert_objective_matches_grid(*condition_limit_case(ctx, mags, a, t5, reach, offset, step))


def bits(x) -> str:
    return float(x).hex()


def grid_forces_in_two_blocks(ctx, t5, t6, mags, model):
    """The blocks of grid_forces over the grid, with the block size set so
    that it runs in two blocks of rows when there are two rows or more."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arm_kinetics, "_BLOCK_CELLS", t6.size * ((t5.size + 1) // 2))
        return list(grid_forces(ctx, t5, t6, mags, model))


# Bound on |F.v - directed| under expanded, relative to sum_i |tau_i| / lever_i,
# which bounds |F| and each term: F.v sums the projections of the view's
# force components, directed the terms' own projections, so the two round
# apart by a few ulps of that scale (at most 4.4e-16 of it over 200,000
# random points).
EXPANDED_PROJECTION_RTOL = 1e-14


def assert_arm_forces_match_grid(ctx, limits, config):
    """Every ArmForces field of a point query equals its element of the grid
    call bit for bit, singular and rejected cells included. force_vector
    raises SingularChain or IllConditioned where the point query is singular
    or rejected, and elsewhere returns the point query's ArmForces and a
    force vector that projects on v (fx vx, then + fy vy) to its directed:
    bit for bit under lsq, whose kernel projects the same vector, and within
    EXPANDED_PROJECTION_RTOL under expanded, whose kernel sums the terms'
    projections."""
    t5 = grid_axis(limits.theta5_min, limits.theta5_max, config.grid_step)
    t6 = grid_axis(limits.theta6_min, limits.theta6_max, config.grid_step)
    mags, model = config.torque_magnitudes, config.force_model
    for lo, hi, grid in grid_forces_in_two_blocks(ctx, t5, t6, mags, model):
        shape = grid.directed.shape
        for i5, c5 in enumerate(t5[lo:hi]):
            for i6, c6 in enumerate(t6):
                def at(x):
                    return np.broadcast_to(x, shape)[i5, i6]

                point = arm_forces(ctx, float(c5), float(c6), mags, model)
                assert bits(point.directed) == bits(at(grid.directed))
                assert [bits(s) for s in point.signs] == [bits(at(s)) for s in grid.signs]
                assert point.singular == bool(at(grid.singular))
                assert point.ill_conditioned == bool(at(grid.ill_conditioned))
                assert [bits(h) for h in point.handle] == [bits(at(h)) for h in grid.handle]
                if point.singular or point.ill_conditioned:
                    with pytest.raises(SingularChain if point.singular else IllConditioned):
                        force_vector(ctx, float(c5), float(c6), mags, model)
                    continue
                r, force = force_vector(ctx, float(c5), float(c6), mags, model)
                assert r == point
                along = force.x * ctx.v.x
                along += force.y * ctx.v.y
                if model == "lsq":
                    assert bits(along) == bits(point.directed)
                else:
                    chain = build_chain(ctx, float(c5), float(c6))
                    scale = sum(m / lever for m, lever in
                                zip(mags, (chain.lever5, chain.lever6, chain.lever7)))
                    assert abs(along - point.directed) <= EXPANDED_PROJECTION_RTOL * scale


# three setups share the examples, so each gets about as many as the tests above
@settings(property_settings, max_examples=300)
@given(ctx=contexts(), config=configs, setup=st.sampled_from(("free", "near_joint", "lsq_limit")),
       t5=finite(-math.pi, math.pi), t6=finite(-math.pi, math.pi),
       span5=finite(0.0, math.pi), span6=finite(0.0, math.pi),
       joint=st.sampled_from(("shoulder", "elbow", "handle")), gap=finite(0.0, 3e-6),
       angle=finite(-math.pi, math.pi), step=finite(1e-7, 1e-5), reach=finite(0.05, 1.5),
       offset=finite(-3e-6, 3e-6))
def test_point_arm_forces_match_grid_in_every_field(ctx, config, setup, t5, t6, span5, span6,
                                                    joint, gap, angle, step, reach, offset):
    # the report's handle and f_arm come from a point query, not from the grid
    if setup == "free":
        limits = JointLimits(theta5_min=t5, theta5_max=t5 + span5,
                             theta6_min=t6, theta6_max=t6 + span6)
        case = ctx, limits, config
    elif setup == "near_joint":
        case = near_joint_case(ctx, config, t5, t6, joint, gap, angle, step)
    else:
        case = condition_limit_case(ctx, config.torque_magnitudes, config.a, t5, reach, offset,
                                    step)
    assert_arm_forces_match_grid(*case)


def grid_handle_signs(ctx, limits, config):
    """(t5, t6, s7 of every cell) of the grid, as evaluate_grid computes it."""
    t5 = grid_axis(limits.theta5_min, limits.theta5_max, config.grid_step)
    t6 = grid_axis(limits.theta6_min, limits.theta6_max, config.grid_step)
    blocks = grid_forces_in_two_blocks(ctx, t5, t6, config.torque_magnitudes,
                                       config.force_model)
    return t5, t6, np.concatenate([r.signs[2] for _, _, r in blocks])


# Half-width of the band around u7 . v = 0 in which the angle-sum and the
# angle forms may round to opposite signs: their gap is at most 1.3e-11 for
# any angle validate admits.
BAND = 1e-9


def angle_sum_form(ctx, theta5, theta6):
    """u7 . v as the lsq model computes it, from cos and sin of phi6 and the
    handle's cosine c7 in the elbow-handle-COM triangle, step for step as
    the package does, so that its sign is the package's s7 to the bit.
    theta5 and theta6 broadcast."""
    phi5 = ctx.theta_04 + np.asarray(theta5, dtype=float)
    phi6 = phi5 + np.asarray(theta6, dtype=float)
    cos6, sin6 = np.cos(phi6), np.sin(phi6)
    elbow_x = ctx.shoulder.x + ctx.upper_len * np.cos(phi5)
    elbow_y = ctx.shoulder.y + ctx.upper_len * np.sin(phi5)
    l6 = ctx.fore_len
    d6 = np.hypot(ctx.com.x - elbow_x, ctx.com.y - elbow_y)
    d7 = np.hypot(ctx.com.x - (elbow_x + l6 * cos6), ctx.com.y - (elbow_y + l6 * sin6))
    c7 = np.clip((l6 * l6 + d7 * d7 - d6 * d6) / (2.0 * l6 * np.maximum(d7, EPS_SINGULAR)),
                 -1.0, 1.0)
    r7 = np.sqrt((1.0 - c7) * (1.0 + c7))
    return (sin6 * c7 + cos6 * r7) * ctx.v.x - (cos6 * c7 - sin6 * r7) * ctx.v.y


def assert_handle_signs_match_the_angle_form(ctx, limits, config):
    """Every cell's s7, from the grid and from a point query, is the sign of
    the angle-sum form, and outside BAND it is also the one the handle's
    lever angle gives through arccos, sin and cos."""
    t5, t6, grid = grid_handle_signs(ctx, limits, config)
    form = angle_sum_form(ctx, t5[:, None], t6[None, :])
    np.testing.assert_array_equal(grid, np.where(form >= 0.0, 1.0, -1.0))
    outside = np.abs(form) > BAND
    by_angle = handle_sign_by_angle(ctx, t5[:, None], t6[None, :])
    np.testing.assert_array_equal(grid[outside], by_angle[outside])
    for i5, c5 in enumerate(t5):
        for i6, c6 in enumerate(t6):
            point = arm_forces(ctx, float(c5), float(c6), config.torque_magnitudes, "lsq")
            assert point.signs[2] == grid[i5, i6]


def facing_handle_term(ctx, theta5, theta6, side):
    """ctx with v along +-(cos a, sin a), a the handle's lever angle at
    (theta5, theta6): there u7 . v is zero, so the lsq model's angle-sum
    form lies in BAND and its sign is rounding noise."""
    a = build_chain(ctx, theta5, theta6).theta_7com
    return ctx._replace(v=Vec2(side * float(np.cos(a)), side * float(np.sin(a))))


def test_lsq_handle_sign_in_the_band_is_the_angle_sum_sign():
    """Cells built to sit in the band around u7 . v = 0: both callers give
    the angle-sum form's sign there, and the angle form would not always
    have."""
    config = ObjectiveConfig(force_model="lsq", grid_step=math.radians(5.0))
    flips = 0
    for name in list_fixtures():
        scenario = load_scenario(fixture_path(name))
        ctx, _ = make_context(scenario)
        lim = scenario.limits
        for theta5, theta6 in ((lim.theta5_min, lim.theta6_min), (lim.theta5_max, lim.theta6_max),
                               (0.5 * (lim.theta5_min + lim.theta5_max), 1.3)):
            for side in (1.0, -1.0):
                at = facing_handle_term(ctx, theta5, theta6, side)
                form = angle_sum_form(at, theta5, theta6)
                assert abs(form) <= BAND
                want = 1.0 if form >= 0.0 else -1.0
                flips += want != handle_sign_by_angle(at, theta5, theta6)
                limits = corner_limits(theta5, theta6, config.grid_step)
                assert grid_handle_signs(at, limits, config)[2][0, 0] == want
                assert arm_forces(at, theta5, theta6, config.torque_magnitudes, "lsq").signs[2] == want
                assert_arm_forces_match_grid(at, limits, config)
    assert flips > 0


@pytest.mark.parametrize("limits", ["scenario", "full"])
@pytest.mark.parametrize("name", list_fixtures())
def test_lsq_handle_signs_of_fixture_grids_equal_the_angle_form(name, limits):
    scenario = load_scenario(fixture_path(name))
    ctx, _ = make_context(scenario)
    lim = scenario.limits if limits == "scenario" else JointLimits()
    config = replace(scenario.objective, force_model="lsq")
    t5, t6, grid = grid_handle_signs(ctx, lim, config)
    np.testing.assert_array_equal(grid, handle_sign_by_angle(ctx, t5[:, None], t6[None, :]))


@property_settings
@given(ctx=contexts(), config=configs, t5=finite(-math.pi, math.pi),
       t6=finite(-math.pi, math.pi), span5=finite(0.0, math.pi), span6=finite(0.0, math.pi),
       side=st.sampled_from((None, 1.0, -1.0)))
def test_lsq_handle_signs_equal_the_angle_form(ctx, config, t5, t6, span5, span6, side):
    # side puts the first cell, unless it is singular, in the band around
    # u7 . v = 0
    if side is not None:
        try:
            ctx = facing_handle_term(ctx, t5, t6, side)
        except SingularChain:
            pass
    limits = JointLimits(theta5_min=t5, theta5_max=t5 + span5, theta6_min=t6, theta6_max=t6 + span6)
    assert_handle_signs_match_the_angle_form(ctx, limits, replace(config, force_model="lsq"))


def test_point_queries_return_builtin_floats_and_bools():
    """A NumPy scalar in a point query would give the same bits but cost
    the time the float path saves."""
    _, toilet = toilet_context()
    com_on_shoulder = toilet._replace(com=toilet.shoulder)
    straight = PlacementContext(
        shoulder=Vec2(0.0, 0.0), theta_04=0.0, com=Vec2(0.5, 0.0),
        v=Vec2(1.0, 0.0), upper_len=0.32, fore_len=0.30,
    )
    cases = [(toilet, math.radians(-42.0), math.radians(120.0)),
             (com_on_shoulder, 0.3, 1.2), (straight, 0.0, 0.0)]
    seen = set()
    for ctx, t5, t6 in cases:
        for model in FORCE_MODELS:
            config = ObjectiveConfig(a=0.2, force_model=model)
            r = arm_forces(ctx, t5, t6, config.torque_magnitudes, model)
            values = (r.directed, *r.signs, *r.handle)
            assert [type(x) for x in values] == [float] * len(values), (ctx, model)
            assert type(r.singular) is bool and type(r.ill_conditioned) is bool
            seen.add((r.singular, r.ill_conditioned))
            if not (r.singular or r.ill_conditioned):
                assert type(objective(t5, t6, ctx, config)) is float
                # the report's f_arm, which goes to JSON by repr
                _, force = force_vector(ctx, t5, t6, config.torque_magnitudes, model)
                assert [type(f) for f in force] == [float, float], (ctx, model)
    # regular, singular and rejected points all came through
    assert {(False, False), (True, False), (False, True)} <= seen


def test_evaluate_grid_shapes_and_axes():
    scenario, ctx = toilet_context()
    landscape = evaluate_grid(ctx, scenario.limits, scenario.objective)
    n5, n6 = landscape.theta5.size, landscape.theta6.size
    assert landscape.objective.shape == (n5, n6)
    assert landscape.eligible.shape == (n5, n6)
    assert landscape.eligible.dtype == bool
    # the packaged limits keep the grid clear of the lever singularities
    assert np.isfinite(landscape.objective).all()
    assert landscape.eligible.all()


def test_evaluate_grid_marks_singular_rows():
    # the COM sits exactly one upper-arm length above the shoulder, so the
    # grid row that points the upper arm straight up collapses the elbow lever
    ctx = PlacementContext(
        shoulder=Vec2(0.0, 0.0), theta_04=math.pi / 2.0, com=Vec2(0.0, 0.32),
        v=Vec2(0.0, 1.0), upper_len=0.32, fore_len=0.30,
    )
    limits = JointLimits(
        theta5_min=math.radians(-10.0), theta5_max=math.radians(10.0),
        theta6_min=math.radians(10.0), theta6_max=math.radians(20.0),
    )
    config = ObjectiveConfig(grid_step=math.radians(5.0))
    landscape = evaluate_grid(ctx, limits, config)
    assert landscape.theta5.size == 5
    assert np.isnan(landscape.objective[2, :]).all()
    assert not landscape.eligible[2, :].any()
    other_rows = np.delete(landscape.objective, 2, axis=0)
    assert np.isfinite(other_rows).all()
    placement, _ = optimize_placement(ctx, limits, config)
    assert abs(placement.theta5_opt - float(landscape.theta5[2])) > 1e-9


def test_evaluate_grid_with_com_on_shoulder_is_all_singular():
    ctx = PlacementContext(
        shoulder=Vec2(0.1, 0.2), theta_04=0.0, com=Vec2(0.1, 0.2),
        v=Vec2(1.0, 0.0), upper_len=0.32, fore_len=0.30,
    )
    landscape = evaluate_grid(ctx, JointLimits(), ObjectiveConfig(grid_step=math.radians(10.0)))
    assert np.isnan(landscape.objective).all()
    assert not landscape.eligible.any()
    with pytest.raises(NoFeasiblePoint):
        optimize_placement(ctx, JointLimits(), ObjectiveConfig(grid_step=math.radians(10.0)))


def fixture_grid_cases():
    """(ctx, limits, config, kwargs) for every fixture x force model, with and
    without the robot mask."""
    cases = []
    optima = pinned()["optimum"]
    for name in list_fixtures():
        scenario = load_scenario(fixture_path(name))
        ctx, _ = make_context(scenario)
        for model in FORCE_MODELS:
            config = replace(scenario.objective, force_model=model)
            for robot in (None, scenario.robot):
                # a base at the expanded optimum excludes the cells out of its reach
                kwargs = dict(robot=robot, floor_y=scenario.floor_y,
                              robot_base=Vec2(*optima[f"{name}/expanded/scenario"]["handle_xy_m"]))
                cases.append((ctx, scenario.limits, config, kwargs))
    return cases


# one row per block, a few rows (the fixture rows have 231 cells), and
# the whole grid in one block; the default blocks hold 35 rows
@pytest.mark.parametrize("block_cells", [1, 1000, 2**24])
def test_grid_does_not_depend_on_block_size(monkeypatch, block_cells):
    cases = fixture_grid_cases()
    expected = [evaluate_grid(ctx, limits, config, **kw) for ctx, limits, config, kw in cases]
    monkeypatch.setattr(arm_kinetics, "_BLOCK_CELLS", block_cells)
    for (ctx, limits, config, kw), want in zip(cases, expected):
        have = evaluate_grid(ctx, limits, config, **kw)
        np.testing.assert_array_equal(have.objective.view(np.uint64), want.objective.view(np.uint64))
        np.testing.assert_array_equal(have.eligible, want.eligible)
        assert argmax_lexicographic(have) == argmax_lexicographic(want)


def block_spans(ctx, t5, t6):
    """(lo, hi) of each block that grid_forces yields over t5 x t6, checked
    to tile the rows 0..t5.size in order, each block with at most
    max(_BLOCK_CELLS, t6.size) cells and fields of its shape."""
    spans = []
    for lo, hi, r in grid_forces(ctx, t5, t6, (1.0, 1.0, 1.0), "expanded"):
        assert lo < hi and r.directed.shape == (hi - lo, t6.size)
        assert (hi - lo) * t6.size <= max(arm_kinetics._BLOCK_CELLS, t6.size)
        spans.append((lo, hi))
    assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
    assert spans[-1][1] == t5.size
    return spans


# a single cell, rows wider than a block (one row a block), and one column
# (whole blocks of rows and a short last one)
@pytest.mark.parametrize("n5, n6, blocks", [
    (1, 1, 1),
    (3, arm_kinetics._BLOCK_CELLS + 1, 3),
    (2 * arm_kinetics._BLOCK_CELLS + 5, 1, 3),
])
def test_grid_forces_tiles_the_rows(n5, n6, blocks):
    _, ctx = toilet_context()
    t5, t6 = np.linspace(-1.0, 1.0, n5), np.linspace(0.2, 2.5, n6)
    assert len(block_spans(ctx, t5, t6)) == blocks


@pytest.mark.parametrize("block_cells", [1, 2**24])
def test_grid_forces_tiles_a_fixture_grid(monkeypatch, block_cells):
    scenario, ctx = toilet_context()
    lim, step = scenario.limits, scenario.objective.grid_step
    t5 = grid_axis(lim.theta5_min, lim.theta5_max, step)
    t6 = grid_axis(lim.theta6_min, lim.theta6_max, step)
    monkeypatch.setattr(arm_kinetics, "_BLOCK_CELLS", block_cells)
    assert len(block_spans(ctx, t5, t6)) == (t5.size if block_cells == 1 else 1)


def winner(landscape):
    """argmax_lexicographic of the landscape, or None where no cell is eligible."""
    try:
        return argmax_lexicographic(landscape)
    except NoFeasiblePoint:
        return None


@property_settings
@given(ctx=contexts(), config=configs, t5=finite(-math.pi, math.pi),
       t6=finite(-math.pi, math.pi), span5=finite(0.0, math.pi), span6=finite(0.0, math.pi))
def test_random_grids_do_not_depend_on_block_size(ctx, config, t5, t6, span5, span6):
    # the row stage spans the whole grid while the cell stage runs per block
    limits = JointLimits(theta5_min=t5, theta5_max=t5 + span5,
                         theta6_min=t6, theta6_max=t6 + span6)
    for model in FORCE_MODELS:
        config = replace(config, force_model=model)
        want = evaluate_grid(ctx, limits, config)
        for block_cells in (1, 2**24):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(arm_kinetics, "_BLOCK_CELLS", block_cells)
                have = evaluate_grid(ctx, limits, config)
            np.testing.assert_array_equal(have.objective.view(np.uint64),
                                          want.objective.view(np.uint64))
            np.testing.assert_array_equal(have.eligible, want.eligible)
            assert winner(have) == winner(want)


@pytest.mark.parametrize("block_cells", [arm_kinetics._BLOCK_CELLS, 1])
def test_grid_computes_the_row_stage_once(monkeypatch, block_cells):
    calls = {"_elbow_terms": 0, "_cell_forces": 0}

    def counted(name):
        fn = getattr(arm_kinetics, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(arm_kinetics, name, counted(name))
    monkeypatch.setattr(arm_kinetics, "_BLOCK_CELLS", block_cells)
    scenario, ctx = toilet_context()
    evaluate_grid(ctx, scenario.limits, scenario.objective)
    assert calls["_elbow_terms"] == 1 < calls["_cell_forces"]


def arrays_in(x):
    """Every array in x, through nested tuples and lists."""
    if isinstance(x, np.ndarray):
        return [x]
    if isinstance(x, (tuple, list)):
        return [a for y in x for a in arrays_in(y)]
    return []


@pytest.mark.parametrize("model", FORCE_MODELS)
@pytest.mark.parametrize("constrained", [False, True])
def test_evaluate_grid_holds_one_block_in_flight(monkeypatch, model, constrained):
    # The cell stage's directed force is an array of the block alone, and so
    # is every array of the robot checks on it. When the next block's cell
    # stage starts, no name may still hold any of them.
    cell_forces, checks = arm_kinetics._cell_forces, placement_opt.robot_checks
    refs, blocks = [], 0

    def tracked(call, arrays):
        def wrapper(*args):
            out = call(*args)
            refs.extend(weakref.ref(a) for a in arrays(out))
            return out
        return wrapper

    def next_block(*args):
        nonlocal blocks
        alive = sum(ref() is not None for ref in refs)
        assert alive == 0, f"{alive} array(s) of block {blocks - 1} still alive"
        refs.clear()
        blocks += 1
        return cell_forces(*args)

    monkeypatch.setattr(arm_kinetics, "_cell_forces", tracked(next_block, lambda r: [r.directed]))
    monkeypatch.setattr(placement_opt, "robot_checks", tracked(checks, arrays_in))
    scenario, ctx = toilet_context()
    config = replace(scenario.objective, force_model=model)
    kwargs = {}
    if constrained:
        kwargs = dict(robot=scenario.robot, floor_y=scenario.floor_y, robot_base=Vec2(0.2, 0.7))
    evaluate_grid(ctx, scenario.limits, config, **kwargs)
    assert blocks >= 3
    assert (len(refs) > 1) == constrained  # the robot checks' arrays were tracked too


@pytest.mark.parametrize("model", FORCE_MODELS)
@pytest.mark.parametrize("full_range", [False, True])
def test_evaluate_grid_peak_memory_is_one_block(model, full_range):
    # Beyond the landscape, evaluate_grid holds the row stage's arrays of one
    # value a row and one block's temporaries, about 0.9 MiB under expanded
    # and 1.2 MiB under lsq. This holds that absolute tracemalloc peak within
    # 24 float64 arrays of a full block, so that, say, a new block-sized
    # temporary in the cell stage shows here. A second block in flight is
    # test_evaluate_grid_holds_one_block_in_flight's to catch.
    scenario, ctx = toilet_context()
    limits = JointLimits() if full_range else scenario.limits
    config = replace(scenario.objective, force_model=model)
    tracemalloc.start()
    try:
        landscape = evaluate_grid(ctx, limits, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert landscape.objective.size > 2 * arm_kinetics._BLOCK_CELLS
    beyond = peak - landscape.objective.nbytes - landscape.eligible.nbytes
    assert beyond <= 24 * 8 * arm_kinetics._BLOCK_CELLS, beyond / 2**20


def read_only(x):
    """x, with every array in it, through nested tuples, made read-only."""
    if isinstance(x, np.ndarray):
        x.flags.writeable = False
    elif isinstance(x, tuple):
        for y in x:
            read_only(y)
    return x


def field_bits(r):
    """Every value of an ArmForces, each as an array of its bits."""
    out = []
    for field in r:
        for x in field if isinstance(field, tuple) else (field,):
            out.append(None if x is None else np.asarray(x, dtype=float).view(np.uint64))
    return out


@pytest.mark.parametrize("model", FORCE_MODELS)
def test_cell_stage_writes_no_array_shared_across_blocks(monkeypatch, model):
    # The cell stage updates the arrays it creates in place. Every array that
    # grid_forces shares across blocks (the row stage's, the GridTrig tables
    # and the axes) is made read-only here, so that a write into one raises:
    # a write into a block's row slices would change no later block's cells.
    scenario, ctx = toilet_context()
    lim, step = scenario.limits, scenario.objective.grid_step
    t5 = grid_axis(lim.theta5_min, lim.theta5_max, step)
    t6 = grid_axis(lim.theta6_min, lim.theta6_max, step)
    mags = scenario.objective.torque_magnitudes
    monkeypatch.setattr(arm_kinetics, "_BLOCK_CELLS", t6.size * (t5.size // 4 + 1))
    want = list(grid_forces(ctx, t5, t6, mags, model))

    elbow_terms, trig_init = arm_kinetics._elbow_terms, arm_kinetics.GridTrig.__init__

    def init(self, *args):
        trig_init(self, *args)
        read_only(tuple(vars(self).values()))

    monkeypatch.setattr(arm_kinetics, "_elbow_terms", lambda *a: read_only(elbow_terms(*a)))
    monkeypatch.setattr(arm_kinetics.GridTrig, "__init__", init)
    have = list(grid_forces(ctx, read_only(t5.copy()), read_only(t6.copy()), mags, model))
    assert len(have) == len(want) == 4
    for (lo, hi, r), (want_lo, want_hi, w) in zip(have, want):
        assert (lo, hi) == (want_lo, want_hi)
        for x, y in zip(field_bits(r), field_bits(w), strict=True):
            np.testing.assert_array_equal(x, y)


@pytest.fixture
def context_stage_calls(monkeypatch):
    """The contexts the context stage (_shoulder_terms) runs on, one entry a run."""
    calls = []
    shoulder_terms = arm_kinetics._shoulder_terms

    def counted(ctx):
        calls.append(ctx)
        return shoulder_terms(ctx)

    monkeypatch.setattr(arm_kinetics, "_shoulder_terms", counted)
    return calls


def test_point_queries_compute_the_context_stage_once_per_context(context_stage_calls):
    scenario, ctx = toilet_context()
    lim = scenario.limits
    for t6 in np.linspace(lim.theta6_min, lim.theta6_max, 100):
        objective(0.5 * (lim.theta5_min + lim.theta5_max), float(t6), ctx, scenario.objective)
    assert len(context_stage_calls) == 1


@pytest.mark.parametrize("model", FORCE_MODELS)
def test_force_vector_computes_the_context_stage_once(context_stage_calls, model):
    # The point query and build_chain share one run of the context stage.
    scenario, ctx = toilet_context()
    pin = pinned()["optimum"]["toilet_sit_to_stand/expanded/scenario"]
    force_vector(ctx, pin["theta5_rad"], pin["theta6_rad"], scenario.objective.torque_magnitudes,
                 model)
    assert len(context_stage_calls) == 1 and context_stage_calls[0] is ctx


def test_point_queries_tell_apart_contexts_that_compare_equal():
    # The COMs differ only in the sign of a zero, so theta_com is +pi in one
    # context and -pi in the other, and the objective's last bit differs. A
    # cache keyed on the context's value would serve one the other's terms.
    a = PlacementContext(Vec2(0.0, 0.0), 0.3, Vec2(-0.5, 0.0), Vec2(0.6, 0.8), 0.3, 0.3)
    b = a._replace(com=Vec2(-0.5, -0.0))
    assert a == b and hash(a) == hash(b)
    config = ObjectiveConfig()
    limits = corner_limits(0.3, 1.2, config.grid_step)
    cell_a, cell_b = (float(evaluate_grid(ctx, limits, config).objective[0, 0]) for ctx in (a, b))
    assert cell_a == math.nextafter(cell_b, math.inf)
    for ctx, cell in ((a, cell_a), (b, cell_b), (a, cell_a)):
        assert objective(0.3, 1.2, ctx, config).hex() == cell.hex()


def hand_landscape(obj, eligible=None):
    obj = np.asarray(obj, dtype=float)
    n5, n6 = obj.shape
    if eligible is None:
        eligible = np.ones((n5, n6), dtype=bool)
    return ObjectiveLandscape(
        theta5=np.arange(n5, dtype=float),
        theta6=np.arange(n6, dtype=float),
        objective=obj,
        eligible=eligible,
    )


def test_argmax_prefers_smaller_theta6_then_theta5():
    landscape = hand_landscape([[1.0, 5.0], [5.0, 2.0], [5.0, 5.0]])
    assert argmax_lexicographic(landscape) == (1, 0)


def test_argmax_skips_ineligible_cells():
    eligible = np.array([[True, True], [False, True], [False, True]])
    landscape = hand_landscape([[1.0, 5.0], [9.0, 2.0], [9.0, 5.0]], eligible)
    assert argmax_lexicographic(landscape) == (0, 1)


def test_argmax_raises_when_nothing_is_eligible():
    with pytest.raises(NoFeasiblePoint):
        argmax_lexicographic(hand_landscape([[1.0]], np.zeros((1, 1), dtype=bool)))
    nan_grid = hand_landscape(np.full((2, 2), np.nan))
    with pytest.raises(NoFeasiblePoint):
        argmax_lexicographic(nan_grid)


# (objective, eligible) of a cell: values from a 3-element set, so that exact
# ties are common (-0.0 ties with 0.0), and NaN only where evaluate_grid puts
# it, in an ineligible cell
CELLS = [(v, e) for v in (-0.0, 0.0, 1.0) for e in (True, False)] + [(math.nan, False)]
LANDSCAPE_SHAPES = st.one_of(st.tuples(st.just(1), st.integers(1, 6)),
                             st.tuples(st.integers(1, 6), st.just(1)),
                             st.tuples(st.integers(1, 6), st.integers(1, 6)))


@property_settings
@given(shape=LANDSCAPE_SHAPES, cells=st.lists(st.sampled_from(CELLS), min_size=36, max_size=36))
@example(shape=(2, 3), cells=[(1.0, False)] * 36)
@example(shape=(3, 2), cells=[(math.nan, False)] * 36)
def test_argmax_matches_a_sequential_scan(shape, cells):
    n5, n6 = shape
    obj = np.array([v for v, _ in cells[:n5 * n6]]).reshape(shape)
    eligible = np.array([e for _, e in cells[:n5 * n6]]).reshape(shape)
    landscape = hand_landscape(obj, eligible)
    try:
        want = argmax_sequential_scan(obj.tolist(), eligible.tolist())
    except NoFeasiblePoint:
        with pytest.raises(NoFeasiblePoint):
            argmax_lexicographic(landscape)
    else:
        assert argmax_lexicographic(landscape) == want


def test_optimum_dominates_every_grid_cell():
    scenario, ctx = toilet_context()
    placement, landscape = optimize_placement(ctx, scenario.limits, scenario.objective)
    vals = landscape.objective[landscape.eligible]
    assert placement.objective_value == np.max(vals)
    assert (vals <= placement.objective_value).all()


def test_torque_scaling_scales_the_landscape_linearly():
    scenario, ctx = toilet_context()
    base = ObjectiveConfig(a=0.0, torque_magnitudes=(1.0, 1.0, 1.0),
                           grid_step=math.radians(2.0))
    double = replace(base, torque_magnitudes=(2.0, 2.0, 2.0))
    l1 = evaluate_grid(ctx, scenario.limits, base)
    l2 = evaluate_grid(ctx, scenario.limits, double)
    np.testing.assert_allclose(l2.objective, 2.0 * l1.objective, rtol=1e-12)
    assert argmax_lexicographic(l1) == argmax_lexicographic(l2)


def test_halving_the_step_never_lowers_the_maximum():
    # the half-step grid contains every coarse point bit-for-bit
    scenario, ctx = toilet_context()
    coarse = evaluate_grid(ctx, scenario.limits, scenario.objective)
    fine = evaluate_grid(
        ctx, scenario.limits,
        replace(scenario.objective, grid_step=scenario.objective.grid_step / 2.0),
    )
    assert coarse.objective[coarse.eligible].max() <= fine.objective[fine.eligible].max()
    assert np.isin(coarse.theta5, fine.theta5).all()
    assert np.isin(coarse.theta6, fine.theta6).all()


def test_single_point_grid_is_usable():
    scenario, ctx = toilet_context()
    limits = JointLimits(theta5_min=0.3, theta5_max=0.3 + 1e-9,
                         theta6_min=0.9, theta6_max=0.9 + 1e-9)
    placement, landscape = optimize_placement(ctx, limits, scenario.objective)
    assert landscape.objective.shape == (1, 1)
    assert placement.theta5_opt == 0.3
    assert placement.theta6_opt == 0.9
    assert placement.objective_value == pytest.approx(
        objective(0.3, 0.9, ctx, scenario.objective), abs=1e-12
    )


def test_handle_position_matches_chain(segments):
    shoulder = Vec2(2.0, 0.0)
    ctx = PlacementContext(
        shoulder=shoulder, theta_04=0.0, com=Vec2(1.0, 1.0), v=Vec2(1.0, 0.0),
        upper_len=segments.length(UPPER_ARM), fore_len=segments.length(FOREARM),
    )
    hx, hy = arm_forces(ctx, 0.0, math.pi / 2.0, (1.0, 1.0, 1.0), "expanded").handle
    h = Vec2(float(hx), float(hy))
    assert h.x == pytest.approx(2.32, abs=1e-12)
    assert h.y == pytest.approx(0.30, abs=1e-12)
    assert h == build_chain(ctx, 0.0, math.pi / 2.0).handle


def test_optimizer_results_on_packaged_fixtures():
    # with the robot's height window, each fixture's own solve keeps the
    # pinned unmasked optimum, and that optimum is feasible
    optima = pinned()["optimum"]
    for name in list_fixtures():
        scenario = load_scenario(fixture_path(name))
        ctx, _ = make_context(scenario)
        placement, _ = optimize_placement(
            ctx, scenario.limits, scenario.objective,
            robot=scenario.robot, floor_y=scenario.floor_y,
        )
        pin = optima[f"{name}/{scenario.objective.force_model}/scenario"]
        assert optimum_pin(placement) == pin, name
        assert placement.feasibility == (), name
        assert (placement.handle - ctx.shoulder).norm() <= 0.62 + 1e-12


def placement_at(handle):
    """A placement whose only meaningful field is its handle."""
    return Placement(0.0, 1.0, handle, 0.0, Vec2(0, 0), (1, 1, 1), (), (0, 0))


def test_feasibility_check_reports_height_violations():
    robot = RobotParams()
    low = placement_at(Vec2(0.2, -0.1))
    found = feasibility_check(low, robot, floor_y=0.0)
    assert [v.kind for v in found] == ["handle_height"]
    assert found[0].limit == 0.15
    high = placement_at(Vec2(0.2, 2.0))
    found = feasibility_check(high, robot, floor_y=0.0)
    assert [v.kind for v in found] == ["handle_height"]
    assert found[0].limit == 1.60
    # raising the floor moves the window with it
    assert feasibility_check(high, robot, floor_y=1.0) == []


def test_feasibility_check_reach_needs_a_base_point():
    robot = RobotParams()
    placement = placement_at(Vec2(0.5, 0.5))
    assert feasibility_check(placement, robot, floor_y=0.0) == []
    found = feasibility_check(placement, robot, floor_y=0.0, robot_base=Vec2(0.0, 0.5))
    assert [v.kind for v in found] == ["robot_reach"]
    assert found[0].value == pytest.approx(0.5)
    assert found[0].limit == 0.44
    near = feasibility_check(placement, robot, floor_y=0.0, robot_base=Vec2(0.2, 0.5))
    assert near == []


@property_settings
@given(ctx=contexts(), config=configs, t5=finite(-math.pi, math.pi),
       t6=finite(-math.pi, math.pi), floor_y=finite(-0.5, 0.5).filter(bool),
       bound=st.sampled_from(("low", "high", "reach")), direction=finite(-math.pi, math.pi))
def test_constrained_search_and_feasibility_report_share_one_rule(ctx, config, t5, t6, floor_y,
                                                                  bound, direction):
    # the first cell of a 3x3 grid sits exactly on a height bound or at the
    # reach limit, so the cells fall on both sides of the rule
    limits = corner_limits(t5, t6, config.grid_step)
    hx, hy = arm_forces(ctx, t5, t6, config.torque_magnitudes, config.force_model).handle
    handle = Vec2(float(hx), float(hy))
    robot, base = RobotParams(), None
    height = handle.y - floor_y
    if bound == "low":
        robot = robot._replace(handle_height_range=(height, height + 1.0))
    elif bound == "high":
        robot = robot._replace(handle_height_range=(height - 1.0, height))
    else:
        robot = robot._replace(handle_height_range=(height - 1.0, height + 1.0))
        base = handle + 0.3 * unit(direction)
        robot = robot._replace(reach_limit=(handle - base).norm())
    landscape = evaluate_grid(ctx, limits, config, robot=robot, floor_y=floor_y,
                              robot_base=base)
    for i5, c5 in enumerate(landscape.theta5):
        for i6, c6 in enumerate(landscape.theta6):
            hx, hy = arm_forces(ctx, float(c5), float(c6),
                                config.torque_magnitudes, config.force_model).handle
            cell = float(landscape.objective[i5, i6])
            found = feasibility_check(placement_at(Vec2(float(hx), float(hy))), robot,
                                      floor_y, base)
            assert bool(landscape.eligible[i5, i6]) == (math.isfinite(cell) and not found)


def test_constrained_mode_excludes_but_still_scores():
    scenario, ctx = toilet_context()
    robot = scenario.robot._replace(handle_height_range=(0.9, 1.2))
    free = evaluate_grid(ctx, scenario.limits, scenario.objective)
    tight = evaluate_grid(ctx, scenario.limits, scenario.objective,
                          robot=robot, floor_y=scenario.floor_y)
    np.testing.assert_array_equal(free.objective, tight.objective)
    assert (tight.eligible <= free.eligible).all()
    excluded = free.eligible & ~tight.eligible
    assert excluded.any()
    assert np.isfinite(tight.objective[excluded]).all()
    placement, _ = optimize_placement(ctx, scenario.limits, scenario.objective,
                                      robot=robot, floor_y=scenario.floor_y,
                                      constrained=True)
    assert 0.9 <= placement.handle.y - scenario.floor_y <= 1.2


def test_constrained_mode_with_impossible_window_raises():
    scenario, ctx = toilet_context()
    robot = scenario.robot._replace(handle_height_range=(10.0, 11.0))
    with pytest.raises(NoFeasiblePoint):
        optimize_placement(ctx, scenario.limits, scenario.objective,
                           robot=robot, floor_y=scenario.floor_y, constrained=True)


def test_constrained_mode_without_a_robot_raises():
    scenario, ctx = toilet_context()
    with pytest.raises(ValueError, match="needs a robot"):
        optimize_placement(ctx, scenario.limits, scenario.objective, constrained=True)


def test_constrained_mode_respects_a_fixed_base():
    scenario, ctx = toilet_context()
    base = Vec2(0.45, 0.9)
    placement, _ = optimize_placement(ctx, scenario.limits, scenario.objective,
                                      robot=scenario.robot, floor_y=scenario.floor_y,
                                      robot_base=base, constrained=True)
    assert (placement.handle - base).norm() <= scenario.robot.reach_limit + 1e-12
    assert placement.feasibility == ()


def test_context_rotation_equivariance(rng):
    scenario, ctx = toilet_context()
    for phi in rng.uniform(-math.pi, math.pi, 3):
        rotated = rotate_context(ctx, phi)
        a, _ = optimize_placement(ctx, scenario.limits, scenario.objective)
        b, _ = optimize_placement(rotated, scenario.limits, scenario.objective)
        assert abs(a.theta5_opt - b.theta5_opt) < 1e-9
        assert abs(a.theta6_opt - b.theta6_opt) < 1e-9
        assert abs(a.objective_value - b.objective_value) < 1e-9
        assert (b.handle - rotate(a.handle, phi)).norm() < 1e-9

