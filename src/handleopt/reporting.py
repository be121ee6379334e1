"""SVG rendering of scenario frames and objective landscapes.

Pure-string SVG assembly, no drawing dependency. Scenes use a single
documented world-to-canvas transform: x grows right, y grows up in
world space, so the canvas y axis is flipped once here and nowhere
else. Scene bounds never depend on the optional placement overlay, so
two renders of the same frame differ only inside the arm and handle
groups.
"""

from __future__ import annotations

import math

import numpy as np

from .body_model import (
    BodyGeometry,
    Vec2,
    com_velocity,
    forward_kinematics,
    nonarm_com,
)
from .config import ObjectiveLandscape, Placement
from .errors import DegenerateVelocity, IndexOutOfRange


SCALE_PX_PER_M = 240.0
MARGIN_M = 0.18  # padding around the scene bounds
BODY_COLOR = "#1f3a5f"
ARM_COLOR = "#c0392b"
COM_COLOR = "#7d3c98"
VELOCITY_COLOR = "#1e8449"
HANDLE_COLOR = "#b7950b"
BACKGROUND_COLOR = "#ffffff"
FLOOR_COLOR = "#888888"
BODY_WIDTH_PX = 5.0
ARM_WIDTH_PX = 4.0
JOINT_RADIUS_PX = 4.0
VELOCITY_ARROW_PX = 55.0


def _fmt(v: float) -> str:
    """Fixed-point with trailing zeros stripped; stable across platforms."""
    s = f"{v:.10f}".rstrip("0").rstrip(".")
    return "0" if s in ("-0", "") else s


class _Canvas:
    """World-to-canvas transform for one scene."""

    def __init__(self, xmin: float, xmax: float, ymin: float, ymax: float):
        self.xmin = xmin
        self.ymax = ymax
        self.margin_px = MARGIN_M * SCALE_PX_PER_M
        self.width = 2.0 * self.margin_px + (xmax - xmin) * SCALE_PX_PER_M
        self.height = 2.0 * self.margin_px + (ymax - ymin) * SCALE_PX_PER_M

    def x(self, wx: float) -> float:
        return self.margin_px + (wx - self.xmin) * SCALE_PX_PER_M

    def y(self, wy: float) -> float:
        return self.margin_px + (self.ymax - wy) * SCALE_PX_PER_M

    def point(self, p: Vec2) -> str:
        return f"{_fmt(self.x(p.x))},{_fmt(self.y(p.y))}"


def _polyline(points, color: str, width: float) -> str:
    return (
        f'<polyline points="{" ".join(points)}" fill="none" '
        f'stroke="{color}" stroke-width="{_fmt(width)}" '
        'stroke-linecap="round" stroke-linejoin="round"/>'
    )


def _circle(cx: float, cy: float, r: float, fill: str, extra: str = "") -> str:
    return f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="{fill}"{extra}/>'


def _scene_bounds(geom: BodyGeometry, com: Vec2, arm_reach: float, floor_y: float):
    """Bounds from the body, the COM, and the full arm-reach disc.

    The reach disc makes the bounds independent of where the arm or a
    handle overlay ends up, so overlays never move the viewport.
    """
    pts = [geom.toe, geom.ankle, geom.knee, geom.hip, geom.shoulder, geom.head_end, com]
    xs = [p.x for p in pts] + [geom.shoulder.x - arm_reach, geom.shoulder.x + arm_reach]
    ys = [p.y for p in pts] + [geom.shoulder.y - arm_reach, geom.shoulder.y + arm_reach, floor_y]
    return min(xs), max(xs), min(ys), max(ys)


def render_scene(scenario, frame_index: int, placement: Placement | None = None) -> str:
    """SVG for one frame; pass a placement to overlay the solved arm."""
    frame = scenario.frames[frame_index]
    geom = forward_kinematics(frame.pose, scenario.segments)
    com = nonarm_com(frame.pose, scenario.segments)
    cv = _Canvas(*_scene_bounds(geom, com, scenario.segments.arm_reach, scenario.floor_y))

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(cv.width)}" '
        f'height="{_fmt(cv.height)}" viewBox="0 0 {_fmt(cv.width)} {_fmt(cv.height)}">',
        f'<rect width="100%" height="100%" fill="{BACKGROUND_COLOR}"/>',
        f'<line x1="0" y1="{_fmt(cv.y(scenario.floor_y))}" x2="{_fmt(cv.width)}" '
        f'y2="{_fmt(cv.y(scenario.floor_y))}" stroke="{FLOOR_COLOR}" stroke-width="2" '
        'stroke-dasharray="8 5"/>',
    ]

    body_joints = (geom.toe, geom.ankle, geom.knee, geom.hip, geom.shoulder, geom.head_end)
    lines.append('<g id="body">')
    lines.append(_polyline([cv.point(p) for p in body_joints], BODY_COLOR, BODY_WIDTH_PX))
    for p in body_joints:
        lines.append(_circle(cv.x(p.x), cv.y(p.y), JOINT_RADIUS_PX, BODY_COLOR))
    lines.append("</g>")

    arm = geom
    if placement is not None:
        theta = (*frame.pose.theta[:4], placement.theta5_opt, placement.theta6_opt)
        arm = forward_kinematics(frame.pose._replace(theta=theta), scenario.segments)
    lines.append('<g id="arm">')
    lines.append(_polyline([cv.point(p) for p in (arm.shoulder, arm.elbow, arm.wrist)],
                           ARM_COLOR, ARM_WIDTH_PX))
    for p in (arm.elbow, arm.wrist):
        lines.append(_circle(cv.x(p.x), cv.y(p.y), JOINT_RADIUS_PX, ARM_COLOR))
    lines.append("</g>")

    if placement is not None:
        h = placement.handle
        bar_w = scenario.robot.handle_length * SCALE_PX_PER_M
        bar_h = max(2.0, scenario.robot.handle_diameter * SCALE_PX_PER_M)
        lines.append('<g id="handle">')
        lines.append(
            f'<rect x="{_fmt(cv.x(h.x) - bar_w / 2.0)}" y="{_fmt(cv.y(h.y) - bar_h / 2.0)}" '
            f'width="{_fmt(bar_w)}" height="{_fmt(bar_h)}" fill="{HANDLE_COLOR}" '
            'fill-opacity="0.45"/>'
        )
        lines.append(_circle(cv.x(h.x), cv.y(h.y), max(3.0, bar_h / 2.0), HANDLE_COLOR))
        lines.append("</g>")

    lines.append('<g id="com-marker">')
    lines.append(_circle(cv.x(com.x), cv.y(com.y), 6.0, COM_COLOR,
                         ' stroke="#ffffff" stroke-width="1.5"'))
    lines.append("</g>")

    speed_text = ""
    try:
        state = com_velocity(scenario.frames, scenario.segments, frame_index)
    except (DegenerateVelocity, IndexOutOfRange):
        state = None
    if state is not None:
        tip_x = cv.x(com.x) + state.direction.x * VELOCITY_ARROW_PX
        tip_y = cv.y(com.y) - state.direction.y * VELOCITY_ARROW_PX
        head = 8.0
        ang = math.atan2(tip_y - cv.y(com.y), tip_x - cv.x(com.x))
        left = (tip_x - head * math.cos(ang - 0.45), tip_y - head * math.sin(ang - 0.45))
        right = (tip_x - head * math.cos(ang + 0.45), tip_y - head * math.sin(ang + 0.45))
        lines.append('<g id="velocity">')
        lines.append(
            f'<line x1="{_fmt(cv.x(com.x))}" y1="{_fmt(cv.y(com.y))}" x2="{_fmt(tip_x)}" '
            f'y2="{_fmt(tip_y)}" stroke="{VELOCITY_COLOR}" stroke-width="3"/>'
        )
        lines.append(
            f'<polygon points="{_fmt(tip_x)},{_fmt(tip_y)} {_fmt(left[0])},{_fmt(left[1])} '
            f'{_fmt(right[0])},{_fmt(right[1])}" fill="{VELOCITY_COLOR}"/>'
        )
        lines.append("</g>")
        speed_text = f"|v| = {state.speed:.4f} m/s"

    lines.append('<g id="labels" font-family="sans-serif" font-size="14" fill="#333333">')
    lines.append(
        f'<text x="12" y="20">{scenario.name}  frame {frame_index}  '
        f't = {frame.time:.3f} s</text>'
    )
    if speed_text:
        lines.append(f'<text x="12" y="40">{speed_text}</text>')
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


_HEAT_LOW = (27, 42, 107)
_HEAT_HIGH = (245, 215, 66)
_INELIGIBLE_FILL = "#c8c8c8"


def _heat_color(t: float) -> str:
    r = round(_HEAT_LOW[0] + t * (_HEAT_HIGH[0] - _HEAT_LOW[0]))
    g = round(_HEAT_LOW[1] + t * (_HEAT_HIGH[1] - _HEAT_LOW[1]))
    b = round(_HEAT_LOW[2] + t * (_HEAT_HIGH[2] - _HEAT_LOW[2]))
    return f"#{r:02x}{g:02x}{b:02x}"


def render_landscape(landscape: ObjectiveLandscape, argmax_index: tuple[int, int]) -> str:
    """Heat map of the objective over the joint grid; theta6 grows upward.

    argmax_index is the solve's (i5, i6) optimum cell, outlined in red
    when any cell is eligible.
    """
    n5 = int(landscape.theta5.size)
    n6 = int(landscape.theta6.size)
    cell = max(2, min(20, 900 // max(n5, 1)))
    left, top, right, bottom = 70, 46, 24, 54
    width = left + n5 * cell + right
    height = top + n6 * cell + bottom

    vals = landscape.objective[landscape.eligible]
    has_vals = vals.size > 0
    vmin = float(np.min(vals)) if has_vals else 0.0
    vmax = float(np.max(vals)) if has_vals else 0.0
    span = vmax - vmin

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
        '<g font-family="sans-serif" font-size="13" fill="#333333">',
        f'<text x="{left}" y="20">objective landscape '
        f'({n5} x {n6} cells)</text>',
    ]
    if has_vals:
        lines.append(
            f'<text x="{left}" y="{top - 8}" font-size="11">min = {vmin:.6g}, '
            f'max = {vmax:.6g}</text>'
        )
    lines.append("</g>")

    obj = landscape.objective
    elig = landscape.eligible
    rows = []
    for i5 in range(n5):
        x = left + i5 * cell
        for i6 in range(n6):
            y = top + (n6 - 1 - i6) * cell
            if elig[i5, i6]:
                t = (float(obj[i5, i6]) - vmin) / span if span > 0.0 else 0.5
                fill = _heat_color(min(1.0, max(0.0, t)))
            else:
                fill = _INELIGIBLE_FILL
            rows.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="{fill}"/>')
    lines.append('<g id="cells">')
    lines.extend(rows)
    lines.append("</g>")

    if has_vals:
        i5, i6 = argmax_index
        x = left + i5 * cell
        y = top + (n6 - 1 - i6) * cell
        lines.append(
            f'<rect id="argmax" x="{x}" y="{y}" width="{cell}" height="{cell}" '
            'fill="none" stroke="#e74c3c" stroke-width="2"/>'
        )

    def deg(v: float) -> str:
        return f"{math.degrees(v):.1f}"

    axis_y = top + n6 * cell
    lines.append('<g font-family="sans-serif" font-size="11" fill="#333333">')
    lines.append(f'<text x="{left}" y="{axis_y + 16}">{deg(float(landscape.theta5[0]))}</text>')
    lines.append(
        f'<text x="{left + n5 * cell}" y="{axis_y + 16}" text-anchor="end">'
        f'{deg(float(landscape.theta5[-1]))}</text>'
    )
    lines.append(
        f'<text x="{left + n5 * cell // 2}" y="{axis_y + 34}" text-anchor="middle">'
        'shoulder angle theta5 (deg)</text>'
    )
    lines.append(
        f'<text x="{left - 6}" y="{axis_y}" text-anchor="end">'
        f'{deg(float(landscape.theta6[0]))}</text>'
    )
    lines.append(
        f'<text x="{left - 6}" y="{top + 10}" text-anchor="end">'
        f'{deg(float(landscape.theta6[-1]))}</text>'
    )
    lines.append(
        f'<text x="16" y="{top + n6 * cell // 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {top + n6 * cell // 2})">elbow angle theta6 (deg)</text>'
    )
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
