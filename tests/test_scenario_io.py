import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import handleopt
from handleopt import (
    ParseError,
    SchemaError,
    ValidationError,
    fixture_path,
    load_scenario,
    make_context,
    optimize_placement,
)
from handleopt.body_model import Vec2, shoulder_frame
from handleopt.config import (
    FORCE_MODELS, ObjectiveConfig, ObjectiveLandscape, Placement, PlacementContext,
)
from handleopt.placement_opt import (
    argmax_lexicographic,
    evaluate_grid,
    grid_axis,
    objective,
)
from handleopt.scenario_io import (
    Finding,
    _model_summary,
    read_scenario_file,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
    write_landscape_csv,
    write_placement_report,
)
from oracles import list_fixtures, write_landscape_csv_per_cell
from test_fixture_optima import pinned

SEGMENT_ROWS = [
    ("foot", 0.26, 1.74, 0.50),
    ("shank", 0.42, 5.58, 0.567),
    ("thigh", 0.42, 12.0, 0.567),
    ("trunk_pelvis", 0.49, 31.62, 0.45),
    ("head_neck", 0.31, 4.86, 0.55),
    ("upper_arm", 0.32, 2.40, 0.436),
    ("forearm_hand", 0.30, 1.80, 0.682),
]


def minimal_dict(name="mini"):
    theta = [80.0, -70.0, 95.0, -10.0, -120.0, 60.0]
    return {
        "schema_version": "1",
        "name": name,
        "total_mass_kg": 60.0,
        "segments": [
            {"name": n, "length_m": length, "mass_kg": mass, "com_fraction": f}
            for n, length, mass, f in SEGMENT_ROWS
        ],
        "frames": [
            {"time_s": 0.0, "base_xy_m": [0.0, 0.0], "theta_deg": theta},
            {"time_s": 0.5, "base_xy_m": [0.05, 0.02], "theta_deg": theta},
            {"time_s": 1.0, "base_xy_m": [0.10, 0.04], "theta_deg": theta},
        ],
        "max_effort_index": 1,
        "joint_limits_deg": [-60.0, 80.0, 5.0, 120.0],
        "objective": {
            "a": 0.2,
            "torque_magnitudes_nm": [1.0, 1.0, 1.0],
            "force_model": "expanded",
            "grid_step_deg": 0.5,
        },
        "robot": {
            "reach_limit_m": 0.44,
            "handle_height_range_m": [0.15, 1.6],
            "handle_length_m": 0.46,
            "handle_diameter_m": 0.038,
        },
        "floor_y_m": 0.0,
    }


def write_dict(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2) + "\n")
    return path


def error_codes(scenario):
    return [f.code for f in validate_scenario(scenario) if f.is_error]


def warning_codes(scenario):
    return [f.code for f in validate_scenario(scenario) if not f.is_error]


def test_minimal_scenario_loads(tmp_path):
    path = write_dict(tmp_path, minimal_dict())
    s = load_scenario(path)
    assert s.name == "mini"
    assert len(s.frames) == 3
    assert s.max_effort_index == 1
    assert s.segments.total_mass == 60.0
    assert s.limits.theta5_min == pytest.approx(math.radians(-60.0))
    assert s.limits.theta6_max == pytest.approx(math.radians(120.0))
    assert s.objective.grid_step == pytest.approx(math.radians(0.5))
    assert s.frames[1].pose.theta[0] == pytest.approx(math.radians(80.0))
    assert s.robot.handle_height_range == (0.15, 1.6)


def test_save_load_round_trip_is_exact(tmp_path):
    for name in list_fixtures():
        first = load_scenario(fixture_path(name))
        out = tmp_path / f"{name}.json"
        out.write_text(json.dumps(scenario_to_dict(first), indent=2) + "\n")
        second = load_scenario(out)
        assert first == second
        # saving again is a fixed point, byte for byte
        again = tmp_path / f"{name}_again.json"
        again.write_text(json.dumps(scenario_to_dict(second), indent=2) + "\n")
        assert out.read_bytes() == again.read_bytes()


def test_saving_arbitrary_radians_loses_below_picoradians(tmp_path):
    # file angles are decimal degrees, so an in-memory pi/7 offset cannot
    # round-trip exactly; the loss stays far below any physical tolerance
    s = load_scenario(fixture_path("toilet_sit_to_stand"))
    frame = s.frames[0]
    pose = frame.pose._replace(theta=tuple(t + math.pi / 7.0 for t in frame.pose.theta))
    shifted = s._replace(frames=(frame._replace(pose=pose),) + s.frames[1:])
    back = scenario_from_dict(scenario_to_dict(shifted))
    worst = max(
        abs(a - b) for a, b in zip(back.frames[0].pose.theta, shifted.frames[0].pose.theta)
    )
    assert worst < 1e-10


def test_mass_closure_mismatch_is_reported(tmp_path):
    data = minimal_dict()
    data["total_mass_kg"] = 59.0
    scenario = scenario_from_dict(data)
    codes = error_codes(scenario)
    assert "mass_closure" in codes
    messages = [f.message for f in validate_scenario(scenario) if f.code == "mass_closure"]
    assert "59.0" in messages[0]
    with pytest.raises(ValidationError, match="mass_closure"):
        load_scenario(write_dict(tmp_path, data))


def test_unknown_and_missing_fields_rejected():
    data = minimal_dict()
    data["comment"] = "nope"
    with pytest.raises(SchemaError, match="comment"):
        scenario_from_dict(data)
    data = minimal_dict()
    del data["robot"]
    with pytest.raises(SchemaError, match="robot"):
        scenario_from_dict(data)
    data = minimal_dict()
    data["segments"][2]["color"] = "red"
    with pytest.raises(SchemaError, match="color"):
        scenario_from_dict(data)
    data = minimal_dict()
    del data["frames"][1]["time_s"]
    with pytest.raises(SchemaError, match="time_s"):
        scenario_from_dict(data)
    data = minimal_dict()
    del data["objective"]["a"]
    with pytest.raises(SchemaError, match="objective"):
        scenario_from_dict(data)
    data = minimal_dict()
    data["robot"]["wheels"] = 4
    with pytest.raises(SchemaError, match="wheels"):
        scenario_from_dict(data)
    data = minimal_dict()
    data["objective"] = []
    with pytest.raises(SchemaError, match="^objective must be an object$"):
        scenario_from_dict(data)
    data = minimal_dict()
    data["name"] = 5
    with pytest.raises(SchemaError, match=r"^scenario\.name must be a string$"):
        scenario_from_dict(data)
    data = minimal_dict()
    data["segments"][3]["name"] = None
    with pytest.raises(SchemaError, match=r"^segments\[3\]\.name must be a string$"):
        scenario_from_dict(data)


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "name": ]\n}\n')
    with pytest.raises(ParseError, match=r"line 2 column"):
        read_scenario_file(path)


def test_wrong_schema_version_rejected():
    data = minimal_dict()
    data["schema_version"] = "2"
    with pytest.raises(SchemaError, match="schema_version"):
        scenario_from_dict(data)


def test_booleans_are_not_numbers():
    data = minimal_dict()
    data["floor_y_m"] = True
    with pytest.raises(SchemaError, match="floor_y_m"):
        scenario_from_dict(data)
    data = minimal_dict()
    data["max_effort_index"] = True
    with pytest.raises(SchemaError, match="max_effort_index"):
        scenario_from_dict(data)
    data = minimal_dict()
    data["max_effort_index"] = 1.0
    with pytest.raises(SchemaError, match="integer"):
        scenario_from_dict(data)


def test_integers_beyond_the_float_range_are_not_numbers(tmp_path):
    data = minimal_dict()
    data["objective"]["a"] = 10**400
    with pytest.raises(SchemaError, match="objective.a must be a number"):
        read_scenario_file(write_dict(tmp_path, data))
    data["objective"]["a"] = int(sys.float_info.max)
    assert read_scenario_file(write_dict(tmp_path, data)).objective.a == sys.float_info.max


def test_list_lengths_enforced():
    data = minimal_dict()
    data["frames"][0]["theta_deg"] = [1.0, 2.0, 3.0, 4.0, 5.0]
    with pytest.raises(SchemaError, match="6 numbers"):
        scenario_from_dict(data)
    data = minimal_dict()
    data["frames"] = []
    with pytest.raises(SchemaError, match="non-empty"):
        scenario_from_dict(data)
    data = minimal_dict()
    data["segments"] = data["segments"][:6]
    with pytest.raises(SchemaError, match="7 entries"):
        scenario_from_dict(data)
    data = minimal_dict()
    data["joint_limits_deg"] = [-60.0, 80.0, 5.0]
    with pytest.raises(SchemaError, match="4 numbers"):
        scenario_from_dict(data)


def test_force_model_value_checked():
    data = minimal_dict()
    data["objective"]["force_model"] = "magic"
    with pytest.raises(SchemaError, match="expanded"):
        scenario_from_dict(data)
    # a scenario built in code skips the parser; validation still finds it
    scenario = scenario_from_dict(minimal_dict())
    scenario = scenario._replace(
        objective=dataclasses.replace(scenario.objective, force_model="magic"))
    assert [f for f in validate_scenario(scenario) if f.code == "force_model"] == [
        Finding("error", "force_model", "force model must be one of ['expanded', 'lsq']")]


def test_endpoint_max_effort_rejected():
    for bad in (0, 2, 5, -1):
        data = minimal_dict()
        data["max_effort_index"] = bad
        codes = error_codes(scenario_from_dict(data))
        assert "max_effort_interior" in codes, bad
    data = minimal_dict()
    data["max_effort_index"] = 0
    findings = validate_scenario(scenario_from_dict(data))
    msg = next(f.message for f in findings if f.code == "max_effort_interior")
    assert "central difference" in msg


def test_frame_times_must_increase():
    data = minimal_dict()
    data["frames"][2]["time_s"] = 0.5
    assert "time_monotonic" in error_codes(scenario_from_dict(data))


def test_arm_heavy_body_warns():
    data = minimal_dict()
    data["segments"][3]["mass_kg"] = 25.02   # trunk sheds 6.6 kg
    data["segments"][5]["mass_kg"] = 6.0
    data["segments"][6]["mass_kg"] = 4.8
    scenario = scenario_from_dict(data)
    assert error_codes(scenario) == []
    warnings = [f for f in validate_scenario(scenario) if f.code == "nonarm_band"]
    assert len(warnings) == 1
    assert "93%" in warnings[0].message


def test_stationary_body_is_degenerate():
    data = minimal_dict()
    for frame in data["frames"]:
        frame["base_xy_m"] = [0.0, 0.0]
    assert "degenerate_velocity" in error_codes(scenario_from_dict(data))


def test_barely_moving_body_warns():
    data = minimal_dict()
    data["frames"][1]["base_xy_m"] = [5e-5, 0.0]
    data["frames"][2]["base_xy_m"] = [1e-4, 0.0]
    scenario = scenario_from_dict(data)
    assert error_codes(scenario) == []
    assert "slow_com" in warning_codes(scenario)


def test_elbow_limits_near_straight_rejected():
    data = minimal_dict()
    data["joint_limits_deg"] = [-60.0, 80.0, -10.0, 120.0]
    assert "elbow_limit_margin" in error_codes(scenario_from_dict(data))
    data["joint_limits_deg"] = [-60.0, 80.0, 5.0, 181.0]
    assert "elbow_limit_margin" in error_codes(scenario_from_dict(data))
    # the elbow is straight at every multiple of 180 deg, not only 0 and +-180
    for lo6, hi6 in ((355.0, 365.0), (-365.0, -355.0)):
        data["joint_limits_deg"] = [-60.0, 80.0, lo6, hi6]
        assert "elbow_limit_margin" in error_codes(scenario_from_dict(data))
    # however wide the range, one finding
    data["joint_limits_deg"] = [-60.0, 80.0, -1e6, 1e6]
    assert error_codes(scenario_from_dict(data)).count("elbow_limit_margin") == 1
    data["joint_limits_deg"] = [-60.0, 80.0, 3.0, 120.0]
    assert "elbow_limit_margin" not in error_codes(scenario_from_dict(data))


def test_limit_order_enforced():
    data = minimal_dict()
    data["joint_limits_deg"] = [80.0, -60.0, 5.0, 120.0]
    assert "limits_order" in error_codes(scenario_from_dict(data))


def test_objective_parameters_validated():
    data = minimal_dict()
    data["objective"]["a"] = -0.1
    assert "objective_a" in error_codes(scenario_from_dict(data))
    data = minimal_dict()
    data["objective"]["torque_magnitudes_nm"] = [1.0, 0.0, 1.0]
    assert "torque_positive" in error_codes(scenario_from_dict(data))
    data = minimal_dict()
    data["objective"]["grid_step_deg"] = 0.0
    assert "grid_step_positive" in error_codes(scenario_from_dict(data))


def test_grid_size_is_bounded_before_allocation():
    data = minimal_dict()
    data["objective"]["grid_step_deg"] = 1e-7
    assert "grid_too_large" in error_codes(scenario_from_dict(data))
    data["objective"]["grid_step_deg"] = 1e-320  # span / step is beyond the float range
    assert "grid_too_large" in error_codes(scenario_from_dict(data))
    # the full default range at 0.05 deg (about 16.7M cells) still fits
    data["joint_limits_deg"] = [-60.0, 185.0, 5.0, 175.0]
    data["objective"]["grid_step_deg"] = 0.05
    assert error_codes(scenario_from_dict(data)) == []
    # the size is checked only once the limits pass their own checks
    data["joint_limits_deg"] = [185.0, -60.0, 5.0, 175.0]
    data["objective"]["grid_step_deg"] = 1e-7
    assert error_codes(scenario_from_dict(data)) == ["limits_order"]


def test_grid_too_large_counts_cells_like_grid_axis():
    # 4096 x 4096 = 2**24 cells is the largest grid allowed
    data = minimal_dict()
    data["objective"]["grid_step_deg"] = 0.04
    for t5_points, too_large in ((4096, False), (4097, True)):
        data["joint_limits_deg"] = [-60.0, -60.0 + (t5_points - 1) * 0.04, 5.0, 5.0 + 4095 * 0.04]
        scenario = scenario_from_dict(data)
        lim, step = scenario.limits, scenario.objective.grid_step
        cells = (grid_axis(lim.theta5_min, lim.theta5_max, step).size
                 * grid_axis(lim.theta6_min, lim.theta6_max, step).size)
        assert cells == t5_points * 4096
        assert ("grid_too_large" in error_codes(scenario)) is too_large


def test_robot_parameters_validated():
    data = minimal_dict()
    data["robot"]["reach_limit_m"] = 0.0
    assert "robot_positive" in error_codes(scenario_from_dict(data))
    data = minimal_dict()
    data["robot"]["handle_height_range_m"] = [1.6, 0.15]
    assert "robot_height_range" in error_codes(scenario_from_dict(data))


def test_bad_physical_values_are_flagged():
    data = minimal_dict()
    data["segments"][1]["length_m"] = -0.42
    assert "length_positive" in error_codes(scenario_from_dict(data))
    data = minimal_dict()
    data["segments"][1]["mass_kg"] = -1.0
    codes = error_codes(scenario_from_dict(data))
    assert "mass_nonnegative" in codes
    data = minimal_dict()
    data["segments"][1]["com_fraction"] = 1.2
    assert "com_fraction_range" in error_codes(scenario_from_dict(data))
    data = minimal_dict()
    data["total_mass_kg"] = -60.0
    assert "total_mass_positive" in error_codes(scenario_from_dict(data))


@pytest.mark.parametrize("field, value, code, text", [
    ("length_m", -0.42, "length_positive", "length -0.42 m must be positive"),
    ("mass_kg", -1.0, "mass_nonnegative", "mass -1.0 kg is negative"),
    ("com_fraction", 1.2, "com_fraction_range", "com_fraction 1.2 is outside [0, 1]"),
])
def test_segment_findings_name_the_segment_by_position(field, value, code, text):
    data = minimal_dict()
    data["segments"][2][field] = value
    messages = [f.message for f in validate_scenario(scenario_from_dict(data)) if f.code == code]
    assert messages == [f"segment 2 (thigh) {text}"]


def test_packaged_fixtures_are_clean():
    assert list_fixtures() == ["bathtub_stand", "lie_to_sit_bed", "sit_to_stand_bed",
                               "toilet_sit_to_stand"]
    for name in list_fixtures():
        path = fixture_path(name)
        assert path.exists()
        scenario = load_scenario(path)
        assert validate_scenario(scenario) == []
        assert scenario.name == name
        assert len(scenario.frames) >= 10


def test_fixture_com_state_is_frozen():
    for name, pin in pinned()["com_state"].items():
        scenario = load_scenario(fixture_path(name))
        _, state = make_context(scenario)
        assert scenario.max_effort_index == pin["frame"], name
        assert [*state.position] == pin["position_m"], name
        assert [*state.direction] == pin["direction"], name
        assert state.speed == pin["speed_mps"], name


def test_make_context_is_consistent_with_body_model():
    scenario = load_scenario(fixture_path("sit_to_stand_bed"))
    ctx, state = make_context(scenario)
    pose = scenario.frames[scenario.max_effort_index].pose
    origin, angle = shoulder_frame(pose, scenario.segments)
    assert ctx.shoulder == origin
    assert ctx.theta_04 == angle
    assert ctx.com == state.position
    assert ctx.v == state.direction
    assert ctx.upper_len == scenario.segments.length(5)
    assert ctx.fore_len == scenario.segments.length(6)
    assert abs(state.direction.norm() - 1.0) < 1e-12


@pytest.mark.parametrize("model", FORCE_MODELS)
def test_placement_report_round_trips_bit_exact(tmp_path, model):
    scenario = load_scenario(fixture_path("toilet_sit_to_stand"))
    scenario = scenario._replace(objective=dataclasses.replace(scenario.objective, force_model=model))
    ctx, state = make_context(scenario)
    placement, landscape = optimize_placement(
        ctx, scenario.limits, scenario.objective,
        robot=scenario.robot, floor_y=scenario.floor_y,
    )
    report_path, csv_path = write_placement_report(scenario, placement, landscape, tmp_path)
    report = json.loads(report_path.read_text())
    assert report["scenario"] == scenario.name
    assert report["optimal"]["theta5_rad"] == placement.theta5_opt
    assert report["optimal"]["theta6_rad"] == placement.theta6_opt
    assert report["handle_xy_m"] == [placement.handle.x, placement.handle.y]
    assert report["objective_value"] == placement.objective_value
    assert report["f_arm_n"] == [placement.f_arm.x, placement.f_arm.y]
    assert report["torque_signs"] == list(placement.torque_signs)
    assert report["feasibility"] == []
    recomputed = objective(
        report["optimal"]["theta5_rad"], report["optimal"]["theta6_rad"],
        ctx, scenario.objective,
    )
    assert abs(recomputed - report["objective_value"]) < 1e-12
    assert report["grid"]["theta5_points"] == landscape.theta5.size
    assert report["grid"]["theta6_points"] == landscape.theta6.size
    assert report["grid"]["argmax_index"] == list(argmax_lexicographic(landscape))
    assert report["com"]["position_m"] == [state.position.x, state.position.y]
    assert report["config"]["grid_step_deg"] == pytest.approx(0.5, abs=1e-12)
    assert report["config"]["constrained"] is False
    assert report["config"]["robot_base_xy_m"] is None
    assert set(report["force_models"]) == set(FORCE_MODELS)
    # the placement and the report's entry for its own model give one F
    assert report["force_models"][model]["f_arm_n"] == [placement.f_arm.x, placement.f_arm.y]
    assert csv_path.exists()


def test_model_summary_reports_an_ill_conditioned_lsq_system():
    # straight arm along +x with the COM on the same line: J J^T has rank 1,
    # so the report carries an error entry for lsq and the expanded figures
    ctx = PlacementContext(
        shoulder=Vec2(0.0, 0.0), theta_04=0.0, com=Vec2(0.5, 0.0),
        v=Vec2(1.0, 0.0), upper_len=0.32, fore_len=0.30,
    )
    placement = Placement(0.0, 0.0, Vec2(0.62, 0.0), -0.2, Vec2(0.0, 0.0), (1, 1, 1), (), (0, 0))
    summary = _model_summary(ctx, placement, ObjectiveConfig())
    assert summary["lsq"] == {
        "error": "J J^T condition number exceeds 1e+12; levers are nearly parallel"
    }
    assert set(summary["expanded"]) == {"f_arm_n", "directed_n", "mechanical_advantage_per_m"}


def test_landscape_csv_layout(tmp_path):
    scenario = load_scenario(fixture_path("toilet_sit_to_stand"))
    small = scenario._replace(
        objective=dataclasses.replace(scenario.objective, grid_step=math.radians(10.0)),
    )
    ctx, _ = make_context(small)
    placement, landscape = optimize_placement(ctx, small.limits, small.objective)
    _, csv_path = write_placement_report(small, placement, landscape, tmp_path)
    lines = csv_path.read_text().splitlines()
    n5, n6 = landscape.theta5.size, landscape.theta6.size
    assert lines[0] == "theta5_deg,theta6_deg,objective,feasible"
    assert len(lines) == 1 + n5 * n6
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(row) == 4 for row in rows)
    columns = {
        "theta5_deg": np.repeat(np.degrees(landscape.theta5), n6),
        "theta6_deg": np.tile(np.degrees(landscape.theta6), n5),
        "objective": landscape.objective.ravel(),
    }
    for k, (name, want) in enumerate(columns.items()):
        got = np.array([float(row[k]) for row in rows])
        # bit patterns, so -0.0, NaN and the last digit all count
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name
    assert [row[3] for row in rows] == ["true" if e else "false" for e in landscape.eligible.ravel()]


SPECIAL_CELLS = [math.nan, -0.0, 0.0, 5e-324, -5e-324, 1e-05, -1e-05, 0.0001, 1e16, -1e16,
                 9999999999999998.0, 1.7976931348623157e308, math.inf, -math.inf, 0.1, -2.5]
cell_values = st.one_of(st.sampled_from(SPECIAL_CELLS), st.floats(width=64))
axis_values = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-7, 1e15, -1e17]),
                        st.floats(-10.0, 10.0))


@st.composite
def landscapes(draw, shape):
    n5 = 1 if shape in ("1x1", "1xN") else draw(st.integers(2, 6))
    n6 = 1 if shape in ("1x1", "Nx1") else draw(st.integers(2, 8))
    values = draw(st.lists(cell_values, min_size=n5 * n6, max_size=n5 * n6))
    # a few patterns, reused in any order, so rows repeat and change
    patterns = draw(st.lists(st.lists(st.booleans(), min_size=n6, max_size=n6),
                             min_size=1, max_size=3))
    rows = [patterns[draw(st.integers(0, len(patterns) - 1))] for _ in range(n5)]
    return ObjectiveLandscape(
        theta5=np.array(draw(st.lists(axis_values, min_size=n5, max_size=n5)), dtype=float),
        theta6=np.array(draw(st.lists(axis_values, min_size=n6, max_size=n6)), dtype=float),
        objective=np.array(values, dtype=float).reshape(n5, n6),
        eligible=np.array(rows, dtype=bool),
    )


@pytest.mark.parametrize("shape", ["1x1", "1xN", "Nx1", "NxM"])
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=st.data())
def test_landscape_csv_matches_the_per_cell_writer(tmp_path_factory, shape, data):
    landscape = data.draw(landscapes(shape))
    out = tmp_path_factory.getbasetemp()
    write_landscape_csv(landscape, out / f"rows_{shape}.csv")
    write_landscape_csv_per_cell(landscape, out / f"cells_{shape}.csv")
    assert (out / f"rows_{shape}.csv").read_bytes() == (out / f"cells_{shape}.csv").read_bytes()


@pytest.mark.parametrize("name", list_fixtures())
def test_constrained_fixture_landscape_csv_matches_the_per_cell_writer(tmp_path, name):
    # --constrained --robot-base=0.2,0.7: eligibility changes from row to row
    # (and is empty for the fixtures whose solve then finds no feasible cell)
    scenario = load_scenario(fixture_path(name))
    ctx, _ = make_context(scenario)
    landscape = evaluate_grid(ctx, scenario.limits, scenario.objective, robot=scenario.robot,
                              floor_y=scenario.floor_y, robot_base=Vec2(0.2, 0.7))
    write_landscape_csv(landscape, tmp_path / "rows.csv")
    write_landscape_csv_per_cell(landscape, tmp_path / "cells.csv")
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


def test_landscape_csv_holds_one_row_at_a_time(tmp_path):
    scenario = load_scenario(fixture_path("sit_to_stand_bed"))
    ctx, _ = make_context(scenario)
    landscape = evaluate_grid(ctx, scenario.limits, scenario.objective)
    path = tmp_path / "landscape.csv"
    tracemalloc.start()
    try:
        write_landscape_csv(landscape, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # about 280 rows of 10 kB each: the writer holds the theta6 column text
    # and a few copies of one row (about 130 kB), not the 3 MB file
    assert landscape.theta5.size > 200
    assert peak < path.stat().st_size / 10, (peak, path.stat().st_size)


# write_landscape_csv forks only a process with one OS thread, and numpy's
# BLAS may start worker threads in this one, so each check runs in a fresh
# interpreter with the BLAS libraries at one thread, as the CLI sets them.
# Its case is the function named by argv[1]; it prints one JSON result.
SPLIT_PROBE = """
import contextlib, io, json, os, sys, threading
from pathlib import Path
from handleopt import fixture_path, load_scenario, make_context
from handleopt import scenario_io
from handleopt.body_model import Vec2
from handleopt.cli import main
from handleopt.config import ObjectiveLandscape
from handleopt.placement_opt import evaluate_grid
from oracles import list_fixtures, write_landscape_csv_per_cell

forks = [0]
os.register_at_fork(after_in_parent=lambda: forks.__setitem__(0, forks[0] + 1))
out = Path(sys.argv[2])
threads = len(os.listdir("/proc/self/task"))


def landscape(name, robot_base=None):
    scenario = load_scenario(fixture_path(name))
    ctx, _ = make_context(scenario)
    return evaluate_grid(ctx, scenario.limits, scenario.objective, robot=scenario.robot,
                         floor_y=scenario.floor_y, robot_base=robot_base)


def same_as_oracle(land, stem):
    forks_before = forks[0]
    scenario_io.write_landscape_csv(land, out / f"{stem}.csv")
    write_landscape_csv_per_cell(land, out / f"{stem}.oracle")
    same = (out / f"{stem}.csv").read_bytes() == (out / f"{stem}.oracle").read_bytes()
    return [same, forks[0] - forks_before]


def rows(land, n):
    return ObjectiveLandscape(land.theta5[:n], land.theta6, land.objective[:n], land.eligible[:n])


def split():
    # own limits, then --robot-base=0.2,0.7: eligibility changes from row to row
    found = {f"{name} {base}": same_as_oracle(landscape(name, base), f"{name}_{i}")
             for name in list_fixtures() for i, base in enumerate([None, Vec2(0.2, 0.7)])}
    land = landscape("toilet_sit_to_stand")
    found["threshold"] = same_as_oracle(rows(land, scenario_io._FORK_MIN_ROWS), "threshold")
    return found


def guards():
    land = landscape("toilet_sit_to_stand")
    found = {"below threshold": same_as_oracle(rows(land, scenario_io._FORK_MIN_ROWS - 1), "below")}
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    found["one CPU"] = same_as_oracle(land, "one_cpu")
    os.sched_setaffinity(0, cpus)
    release = threading.Event()
    second = threading.Thread(target=release.wait)
    second.start()
    try:
        found["second thread"] = same_as_oracle(land, "second_thread")
    finally:
        release.set()
        second.join()
    found["one thread again"] = same_as_oracle(land, "one_thread_again")
    return found


def failures():
    write_rows = scenario_io._write_rows

    def failing_rows(fails):
        def rows(land, f, lo, hi):
            if fails(lo):
                raise OSError("no space left for these rows")
            write_rows(land, f, lo, hi)
        return rows

    def no_child_left():
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        return False

    found = {}
    for side, fails in (("child", lambda lo: lo > 0), ("parent", lambda lo: lo == 0)):
        scenario_io._write_rows = failing_rows(fails)
        path = out / side / "landscape.csv"
        path.parent.mkdir()
        try:
            scenario_io.write_landscape_csv(landscape("toilet_sit_to_stand"), path)
            error = None
        except OSError as exc:
            error = str(exc)
        found[side] = {"error": error, "files": sorted(os.listdir(path.parent)),
                       "reaped": no_child_left()}
    scenario_io._write_rows = failing_rows(lambda lo: lo > 0)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["optimize", "--scenario", str(fixture_path("toilet_sit_to_stand")),
                     "--out", str(out / "cli")])
    found["cli"] = {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
                    "files": sorted(os.listdir(out / "cli")), "reaped": no_child_left()}
    scenario_io._write_rows = write_rows
    return found

found = globals()[sys.argv[1]]()
print(json.dumps({"threads": threads, "forks": forks[0], "found": found}))
"""

needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "fork") or len(os.sched_getaffinity(0)) < 2,
    reason="write_landscape_csv forks only where os.fork exists and two CPUs are allowed")


def _split_probe(case, out):
    tests = Path(__file__).parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(Path(handleopt.__file__).parents[1]), str(tests)]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c", SPLIT_PROBE, case, str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    result = json.loads(proc.stdout)
    assert result["threads"] == 1
    return result


@needs_two_cpus
def test_split_landscape_csv_matches_the_per_cell_writer(tmp_path):
    result = _split_probe("split", tmp_path)
    # every fixture grid, at its own limits and with row-to-row eligibility,
    # and a grid at exactly _FORK_MIN_ROWS rows: one fork each, same bytes
    assert result["found"] == {key: [True, 1] for key in result["found"]}
    assert len(result["found"]) == 2 * len(list_fixtures()) + 1
    assert result["forks"] == len(result["found"])
    # and no temporary file is left beside them
    assert len(list(tmp_path.iterdir())) == 2 * len(result["found"])


@needs_two_cpus
def test_landscape_csv_forks_only_a_large_grid_in_a_one_thread_process_on_two_cpus(tmp_path):
    result = _split_probe("guards", tmp_path)
    assert result["found"] == {
        "below threshold": [True, 0],
        "one CPU": [True, 0],
        "second thread": [True, 0],
        "one thread again": [True, 1],
    }


@needs_two_cpus
def test_a_failed_half_of_the_split_raises_and_leaves_no_child_or_temp_file(tmp_path):
    result = _split_probe("failures", tmp_path)
    found = result["found"]
    child_path = tmp_path / "child" / "landscape.csv"
    assert found["child"]["error"] == (
        f"{child_path}: the forked writer of theta5 rows 140 to 280 failed")
    # the parent's own OSError passes through once the child is reaped
    assert found["parent"]["error"] == "no space left for these rows"
    for side in ("child", "parent"):
        assert found[side]["files"] == ["landscape.csv"]
        assert found[side]["reaped"] is True
    cli_path = tmp_path / "cli" / "landscape.csv"
    assert found["cli"] == {
        "code": 2,
        "stdout": "",
        "stderr": f"error[io]: {cli_path}: the forked writer of theta5 rows 140 to 280 failed\n",
        "files": ["landscape.csv", "placement_report.json"],
        "reaped": True,
    }
    assert result["forks"] == 3


def test_scenario_to_dict_matches_schema():
    scenario = load_scenario(fixture_path("bathtub_stand"))
    data = scenario_to_dict(scenario)
    rebuilt = scenario_from_dict(copy.deepcopy(data))
    assert rebuilt == scenario
    assert set(data) == set(minimal_dict())
