"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the package at its stated
tolerance and prints a single PASS line with the measured margin, so a
verbose run doubles as a numerical report.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from handleopt import (
    IllConditioned,
    SingularChain,
    fixture_path,
    load_scenario,
    make_context,
    optimize_placement,
)
from handleopt.arm_kinetics import arm_force_expanded, build_chain, force_vector
from handleopt.body_model import SegmentSet, Vec2, unit
from handleopt.cli import main as cli_main
from handleopt.config import (
    FORCE_MODELS,
    JointLimits,
    ObjectiveConfig,
    PlacementContext,
)
from handleopt.placement_opt import evaluate_grid, feasibility_check, objective
from handleopt.scenario_io import read_scenario_file

from oracles import (
    arm_context,
    best_sign_combo,
    fd_com_jacobian,
    list_fixtures,
    lsq_jacobian,
    random_unit,
    reflect,
    reflect_context,
    reflect_pose,
    rotate,
    rotate_context,
    sample_chain,
    translate_pose,
)


def load_all():
    return [load_scenario(fixture_path(name)) for name in list_fixtures()]


def test_jacobian_matches_central_differences(rng):
    n = 120
    worst = 0.0
    start = time.perf_counter()
    for _ in range(n):
        *_, chain = sample_chain(rng)
        analytic = lsq_jacobian(chain)
        numeric = fd_com_jacobian(chain, h=1e-6)
        rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(analytic)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    assert worst < 1e-5
    assert elapsed < 1.0
    print(
        f"PASS jacobian-vs-central-differences: {n} random chains, "
        f"max relative error {worst:.3e} (< 1e-5), {elapsed:.3f} s (< 1 s)"
    )


def test_directed_force_matches_projection(rng):
    checked = 0
    worst = 0.0
    while checked < 1000:
        *_, chain = sample_chain(rng)
        torques = tuple(rng.uniform(-3.0, 3.0, size=3))
        force = arm_force_expanded(chain, torques)
        v = Vec2(rng.normal(), rng.normal())
        if v.norm() < 0.1 or force.norm() < 1e-12:
            continue
        cos_angle = force.dot(v) / (force.norm() * v.norm())
        angle = math.acos(min(1.0, max(-1.0, cos_angle)))
        err = abs(force.dot(v) - force.norm() * v.norm() * math.cos(angle))
        worst = max(worst, err)
        checked += 1
    assert worst < 1e-9
    print(
        f"PASS directed-force-projection: {checked} random force/direction pairs, "
        f"max identity error {worst:.3e} (< 1e-9)"
    )


def test_force_superposition(rng):
    worst = 0.0
    for _ in range(300):
        *_, chain = sample_chain(rng)
        t5, t6, t7 = rng.uniform(-3.0, 3.0, size=3)
        whole = arm_force_expanded(chain, (t5, t6, t7))
        parts = (
            arm_force_expanded(chain, (t5, 0.0, 0.0))
            + arm_force_expanded(chain, (0.0, t6, 0.0))
            + arm_force_expanded(chain, (0.0, 0.0, t7))
        )
        worst = max(worst, abs(whole.x - parts.x), abs(whole.y - parts.y))
    assert worst < 1e-12

    # one shoulder torque about a half-meter lever gives exactly 2 N up
    chain = build_chain(
        arm_context(Vec2(0.0, 0.0), 0.0, Vec2(0.5, 0.0), 0.32, 0.30), math.pi / 2, math.pi / 2
    )
    single = arm_force_expanded(chain, (1.0, 0.0, 0.0))
    assert (single.x, single.y) == (0.0, 2.0)
    print(
        f"PASS force-superposition: 300 random chains split per joint, "
        f"max component error {worst:.3e} (< 1e-12); single-torque case exact"
    )


def test_sign_choice_is_optimal(rng):
    n = 500
    worst = -math.inf
    for _ in range(n):
        ctx, theta5, theta6, chain = sample_chain(rng)
        # (cos a, sin b) is a v of any length up to sqrt(2), then a unit v
        scaled = Vec2(math.cos(rng.uniform(-math.pi, math.pi)),
                      math.sin(rng.uniform(-math.pi, math.pi)))
        mags = tuple(rng.uniform(0.5, 3.0, size=3))
        for v in (scaled, random_unit(rng)):
            _, force = force_vector(ctx._replace(v=v), theta5, theta6, mags, "expanded")
            chosen = force.dot(v)
            shortfall = best_sign_combo(chain, v, mags) - chosen
            worst = max(worst, shortfall)
            assert shortfall <= 1e-12
    print(
        f"PASS sign-choice-optimality: {n} random chains, each with a scaled and "
        f"a unit v, against all 8 sign combinations, worst shortfall {worst:.3e} (<= 1e-12)"
    )


def test_fixture_optima_are_unique_and_search_is_fast():
    details = []
    for scenario in load_all():
        ctx, _ = make_context(scenario)
        landscape = evaluate_grid(ctx, scenario.limits, scenario.objective)
        vals = np.sort(landscape.objective[landscape.eligible])
        gap = float(vals[-1] - vals[-2])
        assert gap > 1e-9, scenario.name

        start = time.perf_counter()
        optimize_placement(ctx, JointLimits(), scenario.objective)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, scenario.name
        details.append(f"{scenario.name} gap {gap:.2e} in {elapsed:.2f} s")
    print(
        "PASS unique-optimum-and-runtime: runner-up trails by > 1e-9 and the "
        "full-range half-degree search stays under 10 s per scenario ("
        + "; ".join(details) + ")"
    )


def test_finer_grid_stays_in_the_same_cell():
    coarse_step = math.radians(0.5)
    for scenario in load_all():
        ctx, _ = make_context(scenario)
        p_coarse, _ = optimize_placement(ctx, scenario.limits, scenario.objective)
        fine_cfg = replace(scenario.objective, grid_step=math.radians(0.1))
        p_fine, _ = optimize_placement(ctx, scenario.limits, fine_cfg)
        assert abs(p_fine.theta5_opt - p_coarse.theta5_opt) <= coarse_step + 1e-12
        assert abs(p_fine.theta6_opt - p_coarse.theta6_opt) <= coarse_step + 1e-12
        assert p_coarse.objective_value <= p_fine.objective_value + 1e-12
    print(
        "PASS grid-refinement: on all 4 scenarios the 0.1 degree optimum lies "
        "within one 0.5 degree cell of the coarse optimum and never scores lower"
    )


def test_optimum_rotates_with_the_world(rng):
    worst_angle = worst_obj = worst_handle = 0.0
    for scenario in load_all():
        ctx, _ = make_context(scenario)
        base, _ = optimize_placement(ctx, scenario.limits, scenario.objective)
        for _ in range(10):
            phi = rng.uniform(-math.pi, math.pi)
            turned, _ = optimize_placement(
                rotate_context(ctx, phi), scenario.limits, scenario.objective
            )
            worst_angle = max(
                worst_angle,
                abs(turned.theta5_opt - base.theta5_opt),
                abs(turned.theta6_opt - base.theta6_opt),
            )
            worst_obj = max(
                worst_obj, abs(turned.objective_value - base.objective_value)
            )
            expected = rotate(base.handle, phi)
            worst_handle = max(worst_handle, (turned.handle - expected).norm())
    assert worst_angle < 1e-9
    assert worst_obj < 1e-9
    assert worst_handle < 1e-9
    print(
        "PASS rotation-equivariance: 10 random world rotations per scenario "
        f"leave the joint optimum and value fixed (max deviations {worst_angle:.2e} "
        f"rad, {worst_obj:.2e}) while the handle point co-rotates "
        f"(max {worst_handle:.2e} m)"
    )


# The elbow and handle lever angles come from the law of cosines,
# phi - pi -+ arccos(c). Reflected, that angle differs from the reflection of
# the original angle by 2*arccos(c) + pi, so the two agree only where c = +-1.
REFLECTION_DEFECT = (
    "the law-of-cosines lever angles of the elbow and handle terms do not "
    "reflect with the scene, so a reflected scene gets another handle"
)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=REFLECTION_DEFECT)
def test_optimum_reflects_with_the_world():
    # A person facing -x should get the reflection of the handle the same
    # person facing +x gets. Today the expanded handle moves 543, 65, 538 and
    # 584 mm (toilet, sit_to_stand_bed, lie_to_sit_bed, bathtub).
    worst_angle = worst_handle = 0.0
    for scenario in load_all():
        config = replace(scenario.objective, force_model="expanded")
        ctx, _ = make_context(scenario)
        base, _ = optimize_placement(ctx, scenario.limits, config)
        lim = scenario.limits
        reflected = scenario._replace(
            frames=tuple(f._replace(pose=reflect_pose(f.pose)) for f in scenario.frames),
            limits=JointLimits(-lim.theta5_max, -lim.theta5_min,
                               -lim.theta6_max, -lim.theta6_min),
        )
        reflected_ctx, _ = make_context(reflected)
        mirror, _ = optimize_placement(reflected_ctx, reflected.limits, config)
        worst_angle = max(
            worst_angle,
            abs(-mirror.theta5_opt - base.theta5_opt),
            abs(-mirror.theta6_opt - base.theta6_opt),
        )
        worst_handle = max(worst_handle, (reflect(mirror.handle) - base.handle).norm())
    assert worst_angle < 1e-9
    assert worst_handle < 1e-9
    print(
        "PASS reflection-equivariance: reflecting each scene across the y axis "
        f"negates the joint optimum (max deviation {worst_angle:.2e} rad) and "
        f"reflects the handle point (max {worst_handle:.2e} m)"
    )


# The explicit example, then 200 cells drawn with a fixed seed from
# shoulder in [-1, 1]^2, COM offset in [-0.9, 0.9]^2, theta_04, the motion
# angle, theta5 and theta6 in [-pi, pi), and link lengths in [0.2, 0.5).
# Unlike examples that Hypothesis generates, which draw on the constants of
# whatever test modules are loaded, these do not depend on the selection.
REFLECTION_EXAMPLE = (0.0, 0.0, 0.5, -0.5, 0.0, 1.5, 0.3, 0.3, 0.5, 1.0)
REFLECTION_LOW = (-1.0, -1.0, -0.9, -0.9, -math.pi, -math.pi, 0.2, 0.2, -math.pi, -math.pi)
REFLECTION_HIGH = (1.0, 1.0, 0.9, 0.9, math.pi, math.pi, 0.5, 0.5, math.pi, math.pi)
REFLECTION_CASES = [REFLECTION_EXAMPLE] + [
    tuple(map(float, row)) for row in
    np.random.default_rng(2611).uniform(REFLECTION_LOW, REFLECTION_HIGH, size=(200, 10))]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=REFLECTION_DEFECT)
@pytest.mark.parametrize("model", FORCE_MODELS)
def test_objective_reflects_with_the_context(model):
    # objective(-theta5, -theta6) on the reflected context is the objective
    # of the same arm. Every case is checked, so a failure names how many of
    # the cases break the bound and the first that does: today 201 of 201
    # under expanded and 145 of 201 under lsq.
    config = ObjectiveConfig(force_model=model)
    checked, broken = 0, []
    for sx, sy, dx, dy, theta_04, v_angle, upper, fore, theta5, theta6 in REFLECTION_CASES:
        ctx = PlacementContext(shoulder=Vec2(sx, sy), theta_04=theta_04,
                               com=Vec2(sx + dx, sy + dy), v=unit(v_angle),
                               upper_len=upper, fore_len=fore)
        try:
            want = objective(theta5, theta6, ctx, config)
            got = objective(-theta5, -theta6, reflect_context(ctx), config)
        except (SingularChain, IllConditioned):
            continue
        checked += 1
        if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12):
            broken.append((ctx, theta5, theta6, got, want))
    assert checked >= 100, checked
    assert not broken, f"{len(broken)} of {checked} cases, first {broken[0]}"


def test_scaling_every_mass_keeps_the_optimum_cell():
    # masses enter only through the consolidated COM, a ratio of masses, so
    # a heavier person of the same build gets the same handle
    for scenario in load_all():
        seg = scenario.segments
        heavy = scenario._replace(segments=SegmentSet(
            tuple(link._replace(mass=3.0 * link.mass) for link in seg.segments),
            3.0 * seg.total_mass))
        for model in FORCE_MODELS:
            config = replace(scenario.objective, force_model=model)
            cells = [optimize_placement(make_context(s)[0], s.limits, config)[0].argmax_index
                     for s in (scenario, heavy)]
            assert cells[0] == cells[1], (scenario.name, model, cells)
    print("PASS mass-scaling: tripling every mass keeps the optimum cell of all 4 "
          "scenarios under both force models")


def test_scaling_every_length_and_torque_keeps_the_optimum_cell():
    # a force is a torque over a lever length, so a person k times the size
    # pushing with k times the torques gets the same cell and objective, and
    # a handle k times as far from the origin
    worst_handle = worst_obj = 0.0
    solves = 0
    for scenario in load_all():
        seg = scenario.segments
        for model in FORCE_MODELS:
            config = replace(scenario.objective, force_model=model)
            for limits in (scenario.limits, JointLimits()):
                base, _ = optimize_placement(make_context(scenario)[0], limits, config)
                for k in (0.8, 1.2):
                    big = scenario._replace(
                        segments=SegmentSet(tuple(link._replace(length=k * link.length)
                                                  for link in seg.segments), seg.total_mass),
                        frames=tuple(f._replace(pose=f.pose._replace(base=f.pose.base * k))
                                     for f in scenario.frames),
                        floor_y=k * scenario.floor_y)
                    torques = tuple(k * t for t in config.torque_magnitudes)
                    got, _ = optimize_placement(make_context(big)[0], limits,
                                                replace(config, torque_magnitudes=torques))
                    assert got.argmax_index == base.argmax_index, (scenario.name, model, k)
                    worst_handle = max(worst_handle, (got.handle * (1.0 / k) - base.handle).norm())
                    worst_obj = max(worst_obj,
                                    abs(got.objective_value / base.objective_value - 1.0))
                    solves += 1
    assert worst_handle <= 1e-12
    assert worst_obj <= 1e-12
    print(f"PASS scale-symmetry: {solves} solves scaling every length and torque by 0.8 "
          f"and 1.2 keep the optimum cell, the handle over k within {worst_handle:.2e} m "
          f"(<= 1e-12) and the objective within {worst_obj:.2e} relative (<= 1e-12)")


@pytest.mark.xfail(
    strict=True,
    reason="nonarm_com divides by the whole-body mass, so a translation by d "
    "moves the consolidated COM by only the non-arm fraction of d",
)
def test_optimum_is_invariant_to_translating_the_scene():
    scenario = load_scenario(fixture_path("toilet_sit_to_stand"))
    ctx, _ = make_context(scenario)
    base, _ = optimize_placement(ctx, scenario.limits, scenario.objective)
    worst_angle = worst_obj = worst_handle = 0.0
    for dx in (1.0, 5.0):
        d = Vec2(dx, 0.0)
        moved = scenario._replace(frames=tuple(
            frame._replace(pose=translate_pose(frame.pose, d)) for frame in scenario.frames))
        moved_ctx, _ = make_context(moved)
        shifted, _ = optimize_placement(moved_ctx, moved.limits, moved.objective)
        worst_angle = max(
            worst_angle,
            abs(shifted.theta5_opt - base.theta5_opt),
            abs(shifted.theta6_opt - base.theta6_opt),
        )
        worst_obj = max(worst_obj, abs(shifted.objective_value - base.objective_value))
        worst_handle = max(worst_handle, (shifted.handle - (base.handle + d)).norm())
    assert worst_angle < 1e-9
    assert worst_obj < 1e-9
    assert worst_handle < 1e-9
    print(
        "PASS translation-invariance: shifting every frame by +1 m and +5 m in x "
        f"leaves the joint optimum and value fixed (max deviations {worst_angle:.2e} "
        f"rad, {worst_obj:.2e}) while the handle point moves with the body "
        f"(max {worst_handle:.2e} m)"
    )


def test_body_mass_bookkeeping():
    segments = read_scenario_file(fixture_path("sit_to_stand_bed")).segments
    closure = abs(
        sum(seg.mass for seg in segments.segments) - segments.total_mass
    )
    assert closure <= 1e-9 * segments.total_mass
    frac = segments.nonarm_fraction
    assert 0.90 <= frac <= 0.95
    print(
        f"PASS mass-bookkeeping: segment masses close on {segments.total_mass} kg "
        f"(residual {closure:.1e}) and non-arm links carry {frac:.1%} of it "
        "(within 90..95%)"
    )


def test_push_direction_sets_elbow_posture():
    config = ObjectiveConfig(a=2.0, grid_step=math.radians(0.1))
    limits = JointLimits()

    def solve(v):
        ctx = PlacementContext(
            shoulder=Vec2(0.0, 0.0), theta_04=math.pi / 2,
            com=Vec2(0.0, -0.85), v=v, upper_len=0.32, fore_len=0.30,
        )
        placement, _ = optimize_placement(ctx, limits, config)
        return math.degrees(placement.theta6_opt)

    elbow_vertical = solve(Vec2(0.0, 1.0))
    elbow_horizontal = solve(Vec2(1.0, 0.0))
    assert abs(elbow_vertical - 90.0) < 0.15
    assert abs(elbow_horizontal - 5.0) < 0.15
    assert abs(elbow_vertical - 90.0) < abs(elbow_horizontal - 90.0)
    print(
        "PASS direction-sets-elbow: a vertical push bends the elbow to "
        f"{elbow_vertical:.2f} deg (~90) while a horizontal push extends it to "
        f"{elbow_horizontal:.2f} deg (the 5 deg straight-arm bound)"
    )


def test_out_of_reach_base_is_flagged():
    scenario = load_scenario(fixture_path("toilet_sit_to_stand"))
    ctx, _ = make_context(scenario)
    placement, _ = optimize_placement(
        ctx, scenario.limits, scenario.objective,
        robot=scenario.robot, floor_y=scenario.floor_y,
    )
    far_base = placement.handle + Vec2(0.5, 0.0)
    violations = feasibility_check(
        placement, scenario.robot, scenario.floor_y, robot_base=far_base
    )
    kinds = [v.kind for v in violations]
    assert kinds == ["robot_reach"]
    assert violations[0].value == 0.5
    assert violations[0].limit == 0.44

    near_base = placement.handle + Vec2(0.4, 0.0)
    assert feasibility_check(
        placement, scenario.robot, scenario.floor_y, robot_base=near_base
    ) == []
    print(
        "PASS reach-flagging: a handle 0.5 m from the base is reported against "
        "the 0.44 m reach limit; 0.4 m away passes clean"
    )


def test_cli_outputs_are_reproducible(tmp_path, capsys):
    scenario = str(fixture_path("toilet_sit_to_stand"))
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    argv = ["optimize", "--scenario", scenario, "--grid-step-deg", "0.5"]
    assert cli_main(argv + ["--out", str(d1)]) == 0
    assert cli_main(argv + ["--out", str(d2)]) == 0
    capsys.readouterr()
    report1 = (d1 / "placement_report.json").read_bytes()
    report2 = (d2 / "placement_report.json").read_bytes()
    csv1 = (d1 / "landscape.csv").read_bytes()
    csv2 = (d2 / "landscape.csv").read_bytes()
    assert report1 == report2
    assert csv1 == csv2
    theta6 = json.loads(report1)["optimal"]["theta6_deg"]
    print(
        "PASS reproducible-cli: two identical optimize runs emit byte-identical "
        f"reports ({len(report1)} bytes) and landscapes ({len(csv1)} bytes), "
        f"elbow optimum {theta6:.4g} deg"
    )
