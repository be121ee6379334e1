"""Scenario files, validation, and placement reports.

A scenario is a strict JSON document (schema_version "1"): unknown
fields are rejected, all fields are required, angles are degrees and
distances meters at the file boundary. In memory everything is radians
and meters. Findings from validate_scenario come in two levels: errors
block loading, warnings do not. Parsing, validation and make_context
run without numpy; the force kernel is imported only to write a report.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

from .body_model import (
    FOREARM,
    NONARM_BAND,
    MASS_CLOSURE_RTOL,
    UPPER_ARM,
    BodyPose,
    ComState,
    LinkSegment,
    PoseFrame,
    SegmentSet,
    Vec2,
    com_velocity,
    shoulder_frame,
)
from .config import (
    ELBOW_LIMIT_MARGIN,
    FORCE_MODELS,
    JointLimits,
    ObjectiveConfig,
    ObjectiveLandscape,
    Placement,
    PlacementContext,
    RobotParams,
    oversized_grid,
)
from .errors import DegenerateVelocity, IllConditioned, ParseError, SchemaError, ValidationError

SCHEMA_VERSION = "1"

SLOW_COM_SPEED = 1e-3
# Largest magnitude of any number in a scenario, in its file unit (m, kg,
# s, deg, N*m). Far beyond a human body, yet small enough that the
# model's squares and products stay finite.
MAX_MAGNITUDE = 1e6


class Finding(NamedTuple):
    level: str  # "error" or "warning"
    code: str
    message: str

    @property
    def is_error(self) -> bool:
        return self.level == "error"


class Scenario(NamedTuple):
    name: str
    segments: SegmentSet
    frames: tuple[PoseFrame, ...]
    max_effort_index: int
    limits: JointLimits
    objective: ObjectiveConfig
    robot: RobotParams
    floor_y: float


def _is_number(x) -> bool:
    """A JSON number that converts to a float; a bigger integer is not one."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    return isinstance(x, float) or abs(x) <= sys.float_info.max


def _require_keys(obj, keys: tuple[str, ...], where: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be an object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise SchemaError(f"{where} is missing field(s): {', '.join(missing)}")
    unknown = [shown_name(k) for k in obj if k not in keys]
    if unknown:
        raise SchemaError(f"{where} has unknown field(s): {', '.join(unknown)}")


def _number(obj, key: str, where: str) -> float:
    v = obj[key]
    if not _is_number(v):
        raise SchemaError(f"{where}.{key} must be a number")
    return float(v)


def _number_list(obj, key: str, n: int, where: str) -> list[float]:
    v = obj[key]
    if not isinstance(v, list) or len(v) != n or not all(_is_number(x) for x in v):
        raise SchemaError(f"{where}.{key} must be a list of {n} numbers")
    return [float(x) for x in v]


_TOP_KEYS = (
    "schema_version", "name", "total_mass_kg", "segments", "frames",
    "max_effort_index", "joint_limits_deg", "objective", "robot", "floor_y_m",
)
_SEGMENT_KEYS = ("name", "length_m", "mass_kg", "com_fraction")
_FRAME_KEYS = ("time_s", "base_xy_m", "theta_deg")
_OBJECTIVE_KEYS = ("a", "torque_magnitudes_nm", "force_model", "grid_step_deg")
_ROBOT_KEYS = ("reach_limit_m", "handle_height_range_m", "handle_length_m", "handle_diameter_m")


def scenario_from_dict(data) -> Scenario:
    """Build a Scenario from parsed JSON, raising SchemaError on mismatch."""
    _require_keys(data, _TOP_KEYS, "scenario")
    if data["schema_version"] != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema_version {data['schema_version']!r}; expected {SCHEMA_VERSION!r}"
        )
    if not isinstance(data["name"], str):
        raise SchemaError("scenario.name must be a string")

    raw_segments = data["segments"]
    if not isinstance(raw_segments, list) or len(raw_segments) != 7:
        raise SchemaError("scenario.segments must be a list of 7 entries")
    segments = []
    for i, entry in enumerate(raw_segments):
        where = f"segments[{i}]"
        _require_keys(entry, _SEGMENT_KEYS, where)
        if not isinstance(entry["name"], str):
            raise SchemaError(f"{where}.name must be a string")
        segments.append(LinkSegment(
            name=entry["name"],
            length=_number(entry, "length_m", where),
            mass=_number(entry, "mass_kg", where),
            com_fraction=_number(entry, "com_fraction", where),
        ))

    raw_frames = data["frames"]
    if not isinstance(raw_frames, list) or not raw_frames:
        raise SchemaError("scenario.frames must be a non-empty list")
    frames = []
    for i, entry in enumerate(raw_frames):
        where = f"frames[{i}]"
        _require_keys(entry, _FRAME_KEYS, where)
        base = _number_list(entry, "base_xy_m", 2, where)
        theta = _number_list(entry, "theta_deg", 6, where)
        frames.append(PoseFrame(
            pose=BodyPose(
                base=Vec2(base[0], base[1]),
                theta=tuple(math.radians(t) for t in theta),
            ),
            time=_number(entry, "time_s", where),
        ))

    idx = data["max_effort_index"]
    if not isinstance(idx, int) or isinstance(idx, bool):
        raise SchemaError("scenario.max_effort_index must be an integer")

    lim = _number_list(data, "joint_limits_deg", 4, "scenario")
    limits = JointLimits(
        theta5_min=math.radians(lim[0]),
        theta5_max=math.radians(lim[1]),
        theta6_min=math.radians(lim[2]),
        theta6_max=math.radians(lim[3]),
    )

    raw_obj = data["objective"]
    _require_keys(raw_obj, _OBJECTIVE_KEYS, "objective")
    if raw_obj["force_model"] not in FORCE_MODELS:
        raise SchemaError(
            f"objective.force_model must be one of {list(FORCE_MODELS)}"
        )
    tau = _number_list(raw_obj, "torque_magnitudes_nm", 3, "objective")
    objective = ObjectiveConfig(
        a=_number(raw_obj, "a", "objective"),
        torque_magnitudes=(tau[0], tau[1], tau[2]),
        force_model=raw_obj["force_model"],
        grid_step=math.radians(_number(raw_obj, "grid_step_deg", "objective")),
    )

    raw_robot = data["robot"]
    _require_keys(raw_robot, _ROBOT_KEYS, "robot")
    height = _number_list(raw_robot, "handle_height_range_m", 2, "robot")
    robot = RobotParams(
        reach_limit=_number(raw_robot, "reach_limit_m", "robot"),
        handle_height_range=(height[0], height[1]),
        handle_length=_number(raw_robot, "handle_length_m", "robot"),
        handle_diameter=_number(raw_robot, "handle_diameter_m", "robot"),
    )

    return Scenario(
        name=data["name"],
        segments=SegmentSet(segments=tuple(segments), total_mass=_number(data, "total_mass_kg", "scenario")),
        frames=tuple(frames),
        max_effort_index=idx,
        limits=limits,
        objective=objective,
        robot=robot,
        floor_y=_number(data, "floor_y_m", "scenario"),
    )


def _deg(rad: float) -> float:
    """Radians to file degrees, rounded so that save(load(f)) re-parses to
    the identical radians for decimal-authored files."""
    return round(math.degrees(rad), 10)


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "name": s.name,
        "total_mass_kg": s.segments.total_mass,
        "segments": [
            {
                "name": seg.name,
                "length_m": seg.length,
                "mass_kg": seg.mass,
                "com_fraction": seg.com_fraction,
            }
            for seg in s.segments.segments
        ],
        "frames": [
            {
                "time_s": f.time,
                "base_xy_m": [f.pose.base.x, f.pose.base.y],
                "theta_deg": [_deg(t) for t in f.pose.theta],
            }
            for f in s.frames
        ],
        "max_effort_index": s.max_effort_index,
        "joint_limits_deg": [
            _deg(s.limits.theta5_min),
            _deg(s.limits.theta5_max),
            _deg(s.limits.theta6_min),
            _deg(s.limits.theta6_max),
        ],
        "objective": {
            "a": s.objective.a,
            "torque_magnitudes_nm": list(s.objective.torque_magnitudes),
            "force_model": s.objective.force_model,
            "grid_step_deg": _deg(s.objective.grid_step),
        },
        "robot": {
            "reach_limit_m": s.robot.reach_limit,
            "handle_height_range_m": list(s.robot.handle_height_range),
            "handle_length_m": s.robot.handle_length,
            "handle_diameter_m": s.robot.handle_diameter,
        },
        "floor_y_m": s.floor_y,
    }


def read_scenario_file(path) -> Scenario:
    """Parse and schema-check a scenario file without invariant validation.

    The file is UTF-8 JSON. Bytes that do not decode, nesting too deep for
    the parser and integers too long to convert raise ParseError, as
    malformed JSON does.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: invalid JSON: nested too deeply") from exc
    except ValueError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    return scenario_from_dict(data)


def _floats(node, path: str = "") -> list[tuple[str, float]]:
    """(path, value) of every float in a scenario_to_dict tree."""
    if isinstance(node, dict):
        items = [(f"{path}.{k}" if path else k, v) for k, v in node.items()]
    elif isinstance(node, list):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(node)]
    else:
        return [(path, node)] if isinstance(node, float) else []
    return [found for sub, v in items for found in _floats(v, sub)]


def _forbidden_in_name(c: str) -> bool:
    """Whether no name may hold the character c: a control character
    (Unicode category Cc), which would split a one-line finding and which
    XML 1.0 forbids in the rendered scene; a lone surrogate, which UTF-8
    output cannot encode; or U+FFFE or U+FFFF, which XML 1.0 forbids too.
    None of them is printable, so str.isprintable clears a clean name in
    C; compiling a regular expression of these ranges would cost every
    process 1 ms at import."""
    o = ord(c)
    return o < 0x20 or 0x7F <= o <= 0x9F or 0xD800 <= o <= 0xDFFF or o in (0xFFFE, 0xFFFF)


def shown_name(name: str) -> str:
    """A scenario or segment name as findings and summaries print it, with
    each character no name may hold written as a \\uXXXX escape."""
    if name.isprintable():
        return name
    return "".join(f"\\u{ord(c):04x}" if _forbidden_in_name(c) else c for c in name)


def validate_scenario(s: Scenario) -> list[Finding]:
    """All invariant findings for a scenario, errors first where natural."""
    out: list[Finding] = []

    def err(code: str, message: str) -> None:
        out.append(Finding("error", code, message))

    def warn(code: str, message: str) -> None:
        out.append(Finding("warning", code, message))

    numbers = _floats(scenario_to_dict(s))
    non_finite = [(path, value) for path, value in numbers if not math.isfinite(value)]
    for path, value in non_finite:
        err("non_finite", f"{path} is {value!r}; every number must be finite")
    for path, value in numbers:
        if MAX_MAGNITUDE < abs(value) < math.inf:
            err("too_large", f"{path} is {value!r}; every number must lie within "
                             f"+-{MAX_MAGNITUDE:g} of zero")

    names = [("scenario name", s.name)]
    names += [(f"segment {i} name", seg.name) for i, seg in enumerate(s.segments.segments)]
    for where, name in names:
        shown = shown_name(name)
        if shown != name:
            err("name_characters", f'{where} "{shown}" holds a control character, a lone '
                                   "surrogate, U+FFFE or U+FFFF, which no name may hold")

    if s.segments.total_mass <= 0.0:
        err("total_mass_positive", f"total mass {s.segments.total_mass} kg must be positive")
    for i, seg in enumerate(s.segments.segments):
        if seg.length <= 0.0:
            err("length_positive", f"segment {i} ({shown_name(seg.name)}) length {seg.length} m must be positive")
        if seg.mass < 0.0:
            err("mass_nonnegative", f"segment {i} ({shown_name(seg.name)}) mass {seg.mass} kg is negative")
        if not 0.0 <= seg.com_fraction <= 1.0:
            err("com_fraction_range", f"segment {i} ({shown_name(seg.name)}) com_fraction {seg.com_fraction} is outside [0, 1]")

    mass_sum = sum(seg.mass for seg in s.segments.segments)
    if s.segments.total_mass > 0.0:
        if abs(mass_sum - s.segments.total_mass) > MASS_CLOSURE_RTOL * s.segments.total_mass:
            err("mass_closure",
                f"segment masses sum to {mass_sum!r} kg but total_mass_kg is {s.segments.total_mass!r}")
        frac = s.segments.nonarm_fraction
        if not NONARM_BAND[0] <= frac <= NONARM_BAND[1]:
            warn("nonarm_band",
                 f"non-arm links carry {frac:.1%} of body mass, outside the expected "
                 f"{NONARM_BAND[0]:.0%}..{NONARM_BAND[1]:.0%} band (about 93% for a typical adult)")

    times = [f.time for f in s.frames]
    if any(b <= a for a, b in zip(times, times[1:])):
        err("time_monotonic", "frame times must be strictly increasing")
    if not 0 < s.max_effort_index < len(s.frames) - 1:
        err("max_effort_interior",
            f"max_effort_index {s.max_effort_index} must be interior to the {len(s.frames)}-frame "
            "sequence; the COM velocity central difference needs neighbors on both sides")

    lim = s.limits
    limits_ordered = lim.theta5_min < lim.theta5_max and lim.theta6_min < lim.theta6_max
    if lim.theta5_min >= lim.theta5_max:
        err("limits_order", "theta5 limits must satisfy min < max")
    if lim.theta6_min >= lim.theta6_max:
        err("limits_order", "theta6 limits must satisfy min < max")
    else:
        # The elbow is straight at every multiple of pi. One finding names the
        # one nearest 0 that the limits come within the margin of: x is the
        # widened range's point nearest 0 in units of pi (0.0 if a limit is
        # NaN), so that multiple is round(x) or next to it.
        lo, hi, m = lim.theta6_min, lim.theta6_max, ELBOW_LIMIT_MARGIN
        x = min(max(0.0, (lo - m) / math.pi), (hi + m) / math.pi)
        k = round(x) if math.isfinite(x) else 0
        for center in sorted((j * math.pi for j in (k - 1, k, k + 1)), key=abs):
            if lo <= center + m and hi >= center - m:
                err("elbow_limit_margin",
                    f"theta6 limits must stay at least {math.degrees(m):.0f} deg away "
                    f"from the extension singularity at {math.degrees(center):.0f} deg")
                break

    if s.objective.a < 0.0:
        err("objective_a", f"penalty weight a = {s.objective.a} must be >= 0")
    if any(m <= 0.0 for m in s.objective.torque_magnitudes):
        err("torque_positive", "torque magnitudes must all be positive")
    step = s.objective.grid_step
    if step <= 0.0:
        err("grid_step_positive", "grid step must be positive")
    elif limits_ordered and not non_finite:
        too_large = oversized_grid(lim, step)
        if too_large is not None:
            err("grid_too_large", too_large)
    if s.objective.force_model not in FORCE_MODELS:
        err("force_model", f"force model must be one of {list(FORCE_MODELS)}")

    r = s.robot
    if r.reach_limit <= 0.0 or r.handle_length <= 0.0 or r.handle_diameter <= 0.0:
        err("robot_positive", "robot dimensions must be positive")
    if r.handle_height_range[0] >= r.handle_height_range[1]:
        err("robot_height_range", "handle height range must satisfy min < max")

    if not any(f.is_error for f in out):
        try:
            state = com_velocity(s.frames, s.segments, s.max_effort_index)
        except DegenerateVelocity as exc:
            err("degenerate_velocity", str(exc))
        else:
            if state.speed < SLOW_COM_SPEED:
                warn("slow_com",
                     f"COM speed {state.speed:.2e} m/s at max effort is below {SLOW_COM_SPEED:.0e} m/s; "
                     "the motion direction may be unreliable")
    return out


def load_scenario(path) -> Scenario:
    """Read, schema-check and validate a scenario file.

    Raises ParseError / SchemaError / ValidationError; warnings pass.
    """
    scenario = read_scenario_file(path)
    raise_on_errors(validate_scenario(scenario))
    return scenario


def raise_on_errors(findings: list[Finding]) -> None:
    """Raise one ValidationError naming every error finding; warnings pass."""
    errors = [f for f in findings if f.is_error]
    if errors:
        raise ValidationError("; ".join(f"{f.code}: {f.message}" for f in errors))


def fixture_path(name: str) -> Path:
    """Path of a packaged scenario fixture by bare name."""
    return Path(__file__).parent / "data" / "scenarios" / f"{name}.json"


def make_context(s: Scenario) -> tuple[PlacementContext, ComState]:
    """Placement context plus the COM state at the max-effort frame."""
    state = com_velocity(s.frames, s.segments, s.max_effort_index)
    pose = s.frames[s.max_effort_index].pose
    shoulder, theta_04 = shoulder_frame(pose, s.segments)
    ctx = PlacementContext(
        shoulder=shoulder,
        theta_04=theta_04,
        com=state.position,
        v=state.direction,
        upper_len=s.segments.length(UPPER_ARM),
        fore_len=s.segments.length(FOREARM),
    )
    return ctx, state


def _model_summary(ctx: PlacementContext, placement: Placement, config: ObjectiveConfig) -> dict:
    """Force figures at the optimum under both force models."""
    from .arm_kinetics import force_vector, mechanical_advantage

    t5, t6 = placement.theta5_opt, placement.theta6_opt
    out = {}
    for model in FORCE_MODELS:
        try:
            _, force = force_vector(ctx, t5, t6, config.torque_magnitudes, model)
        except IllConditioned as exc:
            out[model] = {"error": str(exc)}
            continue
        out[model] = {
            "f_arm_n": [force.x, force.y],
            "directed_n": force.dot(ctx.v),
            # |tau| alone: the norm mechanical_advantage divides by ignores signs.
            "mechanical_advantage_per_m": mechanical_advantage(force, config.torque_magnitudes),
        }
    return out


def write_placement_report(
    scenario: Scenario,
    placement: Placement,
    landscape: ObjectiveLandscape,
    out_dir,
    constrained: bool = False,
    robot_base: Vec2 | None = None,
) -> tuple[Path, Path]:
    """Write placement_report.json and landscape.csv into out_dir.

    placement and landscape are the optimize_placement result on
    make_context(scenario), which is rebuilt here for the COM state and
    force figures. Its config block echoes the objective and joint limits
    as scenario_to_dict writes them to a file. Numbers go through
    repr-level JSON serialization, so re-reading the report reproduces
    every float bit-exact. The CSV holds one row per grid cell with
    header theta5_deg,theta6_deg,objective,feasible.
    """
    ctx, state = make_context(scenario)
    settings = scenario_to_dict(scenario)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    i5, i6 = placement.argmax_index

    report = {
        "scenario": scenario.name,
        "max_effort_index": scenario.max_effort_index,
        "com": {
            "position_m": [state.position.x, state.position.y],
            "direction": [state.direction.x, state.direction.y],
            "speed_mps": state.speed,
        },
        "optimal": {
            "theta5_deg": math.degrees(placement.theta5_opt),
            "theta6_deg": math.degrees(placement.theta6_opt),
            "theta5_rad": placement.theta5_opt,
            "theta6_rad": placement.theta6_opt,
        },
        "handle_xy_m": [placement.handle.x, placement.handle.y],
        "objective_value": placement.objective_value,
        "f_arm_n": [placement.f_arm.x, placement.f_arm.y],
        "torque_signs": list(placement.torque_signs),
        "force_models": _model_summary(ctx, placement, scenario.objective),
        "feasibility": [v._asdict() for v in placement.feasibility],
        "config": {
            **settings["objective"],
            "joint_limits_deg": settings["joint_limits_deg"],
            "constrained": constrained,
            "robot_base_xy_m": [robot_base.x, robot_base.y] if robot_base is not None else None,
        },
        "grid": {
            "theta5_points": int(landscape.theta5.size),
            "theta6_points": int(landscape.theta6.size),
            "argmax_index": [i5, i6],
        },
    }
    report_path = out / "placement_report.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    csv_path = out / "landscape.csv"
    write_landscape_csv(landscape, csv_path)
    return report_path, csv_path


# Fewest theta5 rows for which write_landscape_csv forks a second writer.
# With the toilet fixture's 231-cell rows, in one warm process on a 2-CPU
# VM, both ways took 11-12 ms at 32 rows; at 64 rows the split took 16-17 ms
# against 22-23 ms, and at 140 rows 32 ms against 48 ms. The fixture grids
# have 241-281 rows.
_FORK_MIN_ROWS = 64


def _fork_is_safe(n5: int) -> bool:
    """Whether write_landscape_csv may fork for n5 rows: os.fork exists, this
    process may run on two CPUs, the grid is large enough, and the process
    has exactly one OS thread. A fork copies only the calling thread, so a
    lock another thread held stays locked in the child (CPython 3.12 warns
    on such a fork); if the threads cannot be counted, it does not fork."""
    if n5 < _FORK_MIN_ROWS or not hasattr(os, "fork"):
        return False
    try:
        return len(os.sched_getaffinity(0)) >= 2 and len(os.listdir("/proc/self/task")) == 1
    except (AttributeError, OSError):
        return False


def write_landscape_csv(landscape: ObjectiveLandscape, path) -> None:
    """One row per grid cell, theta5 outer loop, theta6 inner.

    Floats are written as repr, so they parse back bit-exact. Each theta5
    row is one %-format of a template (see _write_rows), and rows go to the
    file as they are made, so only one is held at a time.

    Formatting the floats is most of the time of a CLI optimize. So when
    the grid has at least _FORK_MIN_ROWS rows, the process may run on two
    CPUs and it has one OS thread (the CLI sets the BLAS libraries to one
    thread for this), one os.fork splits the work: the child writes rows
    n5 // 2 and on to a temporary file next to path and leaves through
    os._exit, while this process writes the header and the first half,
    reaps the child, then appends the child's file and removes it. The
    bytes are those of the single-process writer. If the child fails, this
    raises OSError naming path; on every path the child is reaped and the
    temporary file removed.
    """
    n5 = landscape.theta5.size
    with open(path, "w", encoding="ascii") as f:
        f.write("theta5_deg,theta6_deg,objective,feasible\n")
        if not _fork_is_safe(n5):
            _write_rows(landscape, f, 0, n5)
            return
        half = n5 // 2
        fd, part = tempfile.mkstemp(prefix=".landscape-", suffix=".part",
                                    dir=os.path.dirname(os.path.abspath(path)))
        try:
            with open(fd, "w", encoding="ascii") as rest:
                pid = os.fork()
                if pid == 0:
                    # The child never returns: os._exit skips every buffer it
                    # shares with the parent (this file's header, stdout) and
                    # every exit handler.
                    status = 1
                    try:
                        _write_rows(landscape, rest, half, n5)
                        rest.close()
                        status = 0
                    finally:
                        os._exit(status)
            try:
                _write_rows(landscape, f, 0, half)
            finally:
                _, status = os.waitpid(pid, 0)
            if status != 0:
                raise OSError(f"{path}: the forked writer of theta5 rows {half} to {n5 - 1} failed")
            f.flush()
            with open(part, "rb") as rest:
                shutil.copyfileobj(rest, f.buffer)
        finally:
            os.unlink(part)


def _write_rows(landscape: ObjectiveLandscape, f, lo: int, hi: int) -> None:
    """Write theta5 rows lo:hi of the landscape to the text file f.

    Each row is one %-format of a template holding the theta6 column and
    the row's true/false endings; consecutive rows with the same
    eligibility pattern share the template.
    """
    t6_deg = [repr(math.degrees(v)) for v in landscape.theta6.tolist()]
    # "\0" marks where each line's theta5 text goes; no float repr holds "\0" or "%"
    true_cells = [f"\0,{d6},%r,true\n" for d6 in t6_deg]
    false_cells = [f"\0,{d6},%r,false\n" for d6 in t6_deg]
    pattern = template = None
    for theta5, values, eligible in zip(
        landscape.theta5[lo:hi].tolist(), landscape.objective[lo:hi], landscape.eligible[lo:hi]
    ):
        row_pattern = eligible.tobytes()
        if row_pattern != pattern:
            pattern = row_pattern
            template = "".join([
                yes if ok else no
                for yes, no, ok in zip(true_cells, false_cells, eligible.tolist())
            ])
        f.write(template.replace("\0", repr(math.degrees(theta5))) % tuple(values.tolist()))
