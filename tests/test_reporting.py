import dataclasses
import json
import math
import re

import numpy as np
import pytest

from handleopt import fixture_path, load_scenario, make_context, optimize_placement
from handleopt.body_model import forward_kinematics, nonarm_com
from handleopt.config import ObjectiveLandscape
from handleopt.reporting import (
    SCALE_PX_PER_M,
    _Canvas,
    _fmt,
    _heat_color,
    _scene_bounds,
    render_landscape,
    render_scene,
)
from handleopt.scenario_io import scenario_from_dict

SEGMENT_ROWS = [
    ("foot", 0.26, 1.74, 0.50),
    ("shank", 0.42, 5.58, 0.567),
    ("thigh", 0.42, 12.0, 0.567),
    ("trunk_pelvis", 0.49, 31.62, 0.45),
    ("head_neck", 0.31, 4.86, 0.55),
    ("upper_arm", 0.32, 2.40, 0.436),
    ("forearm_hand", 0.30, 1.80, 0.682),
]


def upright_scenario():
    theta = [90.0, 0.0, 0.0, 0.0, -180.0, 0.0]
    data = {
        "schema_version": "1",
        "name": "upright",
        "total_mass_kg": 60.0,
        "segments": [
            {"name": n, "length_m": length, "mass_kg": mass, "com_fraction": f}
            for n, length, mass, f in SEGMENT_ROWS
        ],
        "frames": [
            {"time_s": 0.0, "base_xy_m": [0.0, 0.0], "theta_deg": theta},
            {"time_s": 0.5, "base_xy_m": [0.05, 0.05], "theta_deg": theta},
            {"time_s": 1.0, "base_xy_m": [0.10, 0.10], "theta_deg": theta},
        ],
        "max_effort_index": 1,
        "joint_limits_deg": [-60.0, 80.0, 5.0, 120.0],
        "objective": {
            "a": 0.2,
            "torque_magnitudes_nm": [1.0, 1.0, 1.0],
            "force_model": "expanded",
            "grid_step_deg": 5.0,
        },
        "robot": {
            "reach_limit_m": 0.44,
            "handle_height_range_m": [0.15, 1.6],
            "handle_length_m": 0.46,
            "handle_diameter_m": 0.038,
        },
        "floor_y_m": 0.0,
    }
    return scenario_from_dict(data)


def coarse(scenario, step_deg=5.0):
    return scenario._replace(
        objective=dataclasses.replace(
            scenario.objective, grid_step=math.radians(step_deg)
        ),
    )


def body_polyline_points(svg):
    block = svg.split('<g id="body">')[1].split("</g>")[0]
    match = re.search(r'points="([^"]+)"', block)
    pairs = [tuple(float(c) for c in pt.split(",")) for pt in match.group(1).split()]
    return pairs


def strip_groups(svg, *ids):
    for gid in ids:
        svg = re.sub(rf'<g id="{gid}">.*?</g>\n?', "", svg, flags=re.S)
    return svg


def test_fmt_is_stable():
    assert _fmt(3.0) == "3"
    assert _fmt(2.5) == "2.5"
    assert _fmt(-1e-12) == "0"
    assert _fmt(110.4) == "110.4"


def test_upright_pose_stacks_joints_vertically():
    s = upright_scenario()
    svg = render_scene(s, 1)
    pts = body_polyline_points(svg)
    assert len(pts) == 6
    toe, ankle, knee, hip, shoulder, head = pts
    for p in (knee, hip, shoulder, head):
        assert p[0] == pytest.approx(ankle[0], abs=1e-6)
    assert toe[0] > ankle[0] + 10.0
    # canvas y shrinks as world y grows
    assert ankle[1] > knee[1] > hip[1] > shoulder[1] > head[1]
    assert toe[1] == pytest.approx(ankle[1], abs=1e-6)


def test_com_marker_lands_on_transformed_com():
    s = load_scenario(fixture_path("toilet_sit_to_stand"))
    idx = s.max_effort_index
    svg = render_scene(s, idx)
    frame = s.frames[idx]
    geom = forward_kinematics(frame.pose, s.segments)
    com = nonarm_com(frame.pose, s.segments)
    cv = _Canvas(*_scene_bounds(geom, com, s.segments.arm_reach, s.floor_y))
    marker = svg.split('<g id="com-marker">')[1].split("</g>")[0]
    assert f'cx="{_fmt(cv.x(com.x))}"' in marker
    assert f'cy="{_fmt(cv.y(com.y))}"' in marker


def test_velocity_arrow_only_on_interior_frames():
    s = load_scenario(fixture_path("toilet_sit_to_stand"))
    mid = render_scene(s, s.max_effort_index)
    assert '<g id="velocity">' in mid
    assert "|v| = 0.2911 m/s" in mid
    first = render_scene(s, 0)
    last = render_scene(s, len(s.frames) - 1)
    assert '<g id="velocity">' not in first
    assert "|v| =" not in first
    assert '<g id="velocity">' not in last


def test_frame_label_text():
    s = load_scenario(fixture_path("toilet_sit_to_stand"))
    idx = s.max_effort_index
    svg = render_scene(s, idx)
    assert f"{s.name}  frame {idx}  t = {s.frames[idx].time:.3f} s" in svg


def test_placement_overlay_changes_only_arm_and_handle():
    s = coarse(load_scenario(fixture_path("toilet_sit_to_stand")))
    ctx, _ = make_context(s)
    placement, _ = optimize_placement(ctx, s.limits, s.objective)
    bare = render_scene(s, s.max_effort_index)
    overlay = render_scene(s, s.max_effort_index, placement)
    assert '<g id="handle">' in overlay
    assert '<g id="handle">' not in bare
    assert '<g id="arm">' in bare and '<g id="arm">' in overlay
    assert strip_groups(bare, "arm", "handle") == strip_groups(overlay, "arm", "handle")
    # the handle bar is drawn at the robot's physical size
    bar_w = s.robot.handle_length * SCALE_PX_PER_M
    assert f'width="{_fmt(bar_w)}"' in overlay.split('<g id="handle">')[1]


def test_rendering_is_deterministic():
    s = coarse(load_scenario(fixture_path("sit_to_stand_bed")))
    ctx, _ = make_context(s)
    placement, landscape = optimize_placement(ctx, s.limits, s.objective)
    assert render_scene(s, 4, placement) == render_scene(s, 4, placement)
    assert (render_landscape(landscape, placement.argmax_index)
            == render_landscape(landscape, placement.argmax_index))


def test_landscape_geometry_and_argmax_box():
    s = coarse(load_scenario(fixture_path("toilet_sit_to_stand")))
    ctx, _ = make_context(s)
    placement, landscape = optimize_placement(ctx, s.limits, s.objective)
    n5, n6 = landscape.theta5.size, landscape.theta6.size
    assert (n5, n6) == (29, 24)
    svg = render_landscape(landscape, placement.argmax_index)
    cell = 20
    assert f'width="{70 + n5 * cell + 24}"' in svg
    assert f'height="{46 + n6 * cell + 54}"' in svg
    assert f"objective landscape ({n5} x {n6} cells)" in svg
    cells = svg.split('<g id="cells">')[1].split("</g>")[0]
    assert cells.count("<rect ") == n5 * n6
    i5, i6 = placement.argmax_index
    x = 70 + i5 * cell
    y = 46 + (n6 - 1 - i6) * cell
    assert f'<rect id="argmax" x="{x}" y="{y}"' in svg
    assert "min = " in svg and "max = " in svg
    # axis end labels in degrees
    assert ">-60.0<" in svg and ">80.0<" in svg
    assert ">5.0<" in svg and ">120.0<" in svg


def test_heat_scale_endpoints():
    assert _heat_color(0.0) == "#1b2a6b"
    assert _heat_color(1.0) == "#f5d742"


def test_single_cell_landscape_renders():
    landscape = ObjectiveLandscape(
        theta5=np.array([0.3]),
        theta6=np.array([0.9]),
        objective=np.array([[1.5]]),
        eligible=np.array([[True]]),
    )
    svg = render_landscape(landscape, (0, 0))
    assert "objective landscape (1 x 1 cells)" in svg
    assert f'fill="{_heat_color(0.5)}"' in svg  # zero span pins mid-scale
    assert '<rect id="argmax"' in svg
    assert "min = 1.5, max = 1.5" in svg


def test_all_ineligible_landscape_renders():
    landscape = ObjectiveLandscape(
        theta5=np.array([0.1]),
        theta6=np.array([0.2, 0.3]),
        objective=np.full((1, 2), np.nan),
        eligible=np.zeros((1, 2), dtype=bool),
    )
    svg = render_landscape(landscape, (0, 0))  # no optimum: the index is not drawn
    assert '<rect id="argmax"' not in svg
    assert "min =" not in svg
    assert svg.count('fill="#c8c8c8"') == 2


def test_scene_bounds_ignore_placement(tmp_path):
    # identical viewport attributes with and without the overlay
    s = coarse(load_scenario(fixture_path("bathtub_stand")))
    ctx, _ = make_context(s)
    placement, _ = optimize_placement(ctx, s.limits, s.objective)
    bare = render_scene(s, s.max_effort_index)
    overlay = render_scene(s, s.max_effort_index, placement)
    head_bare = bare.split(">", 1)[0]
    head_overlay = overlay.split(">", 1)[0]
    assert head_bare == head_overlay
    assert 'viewBox="0 0 ' in head_bare
