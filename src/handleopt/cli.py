"""Command line interface.

Subcommands: validate, analyze, optimize, sweep, render. Every command
takes --scenario and only the flags it reads; overrides are applied to
the in-memory scenario and re-validated before any computation. Exit
codes: 0 success, 1 failed validation, 2 parse/schema/usage/IO trouble,
3 numeric failure. The numpy-backed solver and renderer are imported
only by the commands that use them, so validate and analyze run without
numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .body_model import Vec2, com_velocity, nonarm_com
from .config import FORCE_MODELS, JointLimits, grid_points
from .errors import (
    DegenerateVelocity,
    HandleOptError,
    IndexOutOfRange,
    ParseError,
    SchemaError,
    ValidationError,
)
from .scenario_io import (
    Scenario,
    make_context,
    raise_on_errors,
    read_scenario_file,
    shown_name,
    validate_scenario,
    write_landscape_csv,
    write_placement_report,
)

# Most values one sweep may solve; each writes two landscape files.
MAX_SWEEP_VALUES = 200


def _g(x: float) -> str:
    return f"{x:.9g}"


def _fail(code: str, exc: BaseException, status: int) -> int:
    message = " | ".join(str(exc).splitlines()) or exc.__class__.__name__
    print(f"error[{code}]: {message}", file=sys.stderr)
    return status


def _csv_floats(text: str, n: int, flag: str) -> list[float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise argparse.ArgumentTypeError(f"{flag} needs {n} comma-separated numbers")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{flag}: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"{flag} needs finite numbers, got {text!r}")
    return values


def _add_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("-v", "--verbose", action="store_true",
                     help="print validation warnings")


def _add_overrides(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--grid-step-deg", type=float, default=None,
                     help="override the grid step, degrees")
    sub.add_argument("--force-model", choices=FORCE_MODELS, default=None,
                     help="override the force model")
    sub.add_argument("--tau", default=None, metavar="T5,T6,T7",
                     help="override torque magnitudes, newton meters")
    sub.add_argument("--limits-deg", default=None, metavar="T5MIN,T5MAX,T6MIN,T6MAX",
                     help="--limits-deg=T5MIN,T5MAX,T6MIN,T6MAX overrides the joint "
                          "limits, degrees; the '=' keeps a leading minus sign from "
                          "being read as an option")


def _add_solve(sub: argparse.ArgumentParser) -> None:
    """The flags of the commands that run the optimizer."""
    _add_output(sub)
    _add_overrides(sub)
    sub.add_argument("--constrained", action="store_true",
                     help="exclude robot-infeasible handle positions from the search")
    sub.add_argument("--robot-base", default=None, metavar="X,Y",
                     help="fixed robot base point for the reach check, meters")


def _apply_overrides(scenario: Scenario, args: argparse.Namespace) -> Scenario:
    obj = scenario.objective
    if args.grid_step_deg is not None:
        obj = replace(obj, grid_step=math.radians(args.grid_step_deg))
    if getattr(args, "a", None) is not None:  # sweep sets a itself and has no --a
        obj = replace(obj, a=args.a)
    if args.force_model is not None:
        obj = replace(obj, force_model=args.force_model)
    if args.tau is not None:
        t = _csv_floats(args.tau, 3, "--tau")
        obj = replace(obj, torque_magnitudes=(t[0], t[1], t[2]))
    limits = scenario.limits
    if args.limits_deg is not None:
        v = _csv_floats(args.limits_deg, 4, "--limits-deg")
        limits = JointLimits(*(math.radians(x) for x in v))
    return scenario._replace(objective=obj, limits=limits)


def _robot_base(args: argparse.Namespace) -> Vec2 | None:
    if args.robot_base is None:
        return None
    x, y = _csv_floats(args.robot_base, 2, "--robot-base")
    return Vec2(x, y)


def _load(args: argparse.Namespace) -> Scenario:
    """Parse, apply overrides, validate; raises on any error finding."""
    return _validated(_apply_overrides(read_scenario_file(args.scenario), args), args.verbose)


def _validated(scenario: Scenario, verbose: bool = False) -> Scenario:
    """The scenario itself; raises ValidationError on any error finding."""
    findings = validate_scenario(scenario)
    if verbose:
        for f in findings:
            if not f.is_error:
                print(f"warning[{f.code}]: {f.message}", file=sys.stderr)
    raise_on_errors(findings)
    return scenario


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = _apply_overrides(read_scenario_file(args.scenario), args)
    findings = validate_scenario(scenario)
    for f in findings:
        stream = sys.stderr if f.is_error else sys.stdout
        print(f"{f.level}[{f.code}]: {f.message}", file=stream)
    errors = sum(1 for f in findings if f.is_error)
    warnings = len(findings) - errors
    print(f"{shown_name(scenario.name)}: {errors} error(s), {warnings} warning(s)")
    return 1 if errors else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    scenario = _validated(read_scenario_file(args.scenario), args.verbose)
    rows = []
    for i, frame in enumerate(scenario.frames):
        com = nonarm_com(frame.pose, scenario.segments)
        try:
            state = com_velocity(scenario.frames, scenario.segments, i)
        except (IndexOutOfRange, DegenerateVelocity):
            state = None
        rows.append((i, frame.time, com, state))

    print(f"{'frame':>5} {'time_s':>9} {'com_x_m':>12} {'com_y_m':>12} "
          f"{'speed_mps':>12} {'dir_x':>9} {'dir_y':>9}")
    for i, t, com, state in rows:
        mark = " *" if i == scenario.max_effort_index else ""
        speed, dx, dy = ("-",) * 3 if state is None else map(_g, (state.speed, *state.direction))
        print(f"{i:>5} {_g(t):>9} {_g(com.x):>12} {_g(com.y):>12} "
              f"{speed:>12} {dx:>9} {dy:>9}{mark}")
    print("* max-effort frame")

    if args.out is not None:
        out = _out_dir(args)
        lines = ["frame,time_s,com_x_m,com_y_m,speed_mps,dir_x,dir_y"]
        for i, t, com, state in rows:
            speed, dx, dy = ("",) * 3 if state is None else map(repr, (state.speed, *state.direction))
            lines.append(f"{i},{t!r},{com.x!r},{com.y!r},{speed},{dx},{dy}")
        (out / "com_frames.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        state = rows[scenario.max_effort_index][3]
        (out / "com_state.json").write_text(json.dumps({
            "frame": scenario.max_effort_index,
            "time_s": scenario.frames[scenario.max_effort_index].time,
            "position_m": [state.position.x, state.position.y],
            "direction": [state.direction.x, state.direction.y],
            "speed_mps": state.speed,
        }, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {out / 'com_frames.csv'} and {out / 'com_state.json'}")
    return 0


def _run_optimization(scenario: Scenario, args: argparse.Namespace, robot_base: Vec2 | None):
    """(ctx, COM state, placement, landscape) of one solve."""
    from .placement_opt import optimize_placement

    ctx, state = make_context(scenario)
    placement, landscape = optimize_placement(
        ctx,
        scenario.limits,
        scenario.objective,
        robot=scenario.robot,
        floor_y=scenario.floor_y,
        robot_base=robot_base,
        constrained=args.constrained,
    )
    return ctx, state, placement, landscape


def _cmd_optimize(args: argparse.Namespace) -> int:
    scenario = _load(args)
    robot_base = _robot_base(args)
    ctx, state, placement, landscape = _run_optimization(scenario, args, robot_base)
    out = _out_dir(args)
    report_path, csv_path = write_placement_report(
        scenario, ctx, state, placement, landscape, out,
        constrained=args.constrained, robot_base=robot_base,
    )
    print(f"scenario: {scenario.name}")
    print(f"theta5_opt_deg: {_g(math.degrees(placement.theta5_opt))}")
    print(f"theta6_opt_deg: {_g(math.degrees(placement.theta6_opt))}")
    print(f"handle_xy_m: {_g(placement.handle.x)} {_g(placement.handle.y)}")
    print(f"objective: {_g(placement.objective_value)}")
    print(f"f_arm_n: {_g(placement.f_arm.x)} {_g(placement.f_arm.y)}")
    print(f"f_along_v_n: {_g(placement.f_arm.dot(ctx.v))}")
    print(f"torque_signs: {placement.torque_signs[0]:+d} "
          f"{placement.torque_signs[1]:+d} {placement.torque_signs[2]:+d}")
    if placement.feasibility:
        for violation in placement.feasibility:
            print(f"infeasible[{violation.kind}]: {violation.message}")
    else:
        print("feasible: yes")
    print(f"wrote {report_path} and {csv_path}")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from .reporting import render_scene

    scenario = _load(args)
    frame = args.frame if args.frame is not None else scenario.max_effort_index
    if not 0 <= frame < len(scenario.frames):
        raise argparse.ArgumentTypeError(
            f"--frame {frame} is out of range for {len(scenario.frames)} frames"
        )
    placement = None
    if not args.no_placement:
        _, _, placement, _ = _run_optimization(scenario, args, _robot_base(args))
    svg = render_scene(scenario, frame, placement)
    out = _out_dir(args)
    path = out / f"scene_frame{frame:03d}.svg"
    path.write_text(svg, encoding="utf-8")
    print(f"wrote {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .placement_opt import grid_axis
    from .reporting import render_landscape

    # The file's own a is replaced by every swept value, so only the swept
    # scenarios are validated.
    scenario = _apply_overrides(read_scenario_file(args.scenario), args)
    start, stop, step = _csv_floats(args.range, 3, "--range")
    if step <= 0.0 or stop < start:
        raise ValidationError("--range must satisfy start <= stop with step > 0")
    count = grid_points(start, stop, step)
    if count > MAX_SWEEP_VALUES:
        raise ValidationError(
            f"--range makes {count:.3g} values, more than the {MAX_SWEEP_VALUES} a sweep may solve")
    values = [round(float(v), 12) for v in grid_axis(start, stop, step)]
    stems = {}  # landscape file stem -> value, in sweep order
    for value in values:
        stem = f"landscape_a_{value:.6g}"
        if stem in stems:
            raise ValidationError(
                f"--range values {stems[stem]!r} and {value!r} share the landscape file stem "
                f"{stem}; each value is named to 6 significant digits")
        stems[stem] = value
    swept = [scenario._replace(objective=replace(scenario.objective, a=value))
             for value in values]
    for i, scenario_at in enumerate(swept):  # a changes no warning: print them once
        _validated(scenario_at, args.verbose and i == 0)
    robot_base = _robot_base(args)

    out = _out_dir(args)
    rows = ["value,theta5_opt_deg,theta6_opt_deg,objective,handle_x_m,handle_y_m"]
    print(f"{'a':>10} {'theta5_deg':>12} {'theta6_deg':>12} {'objective':>14}")
    for (stem, value), scenario_at in zip(stems.items(), swept):
        _, _, placement, landscape = _run_optimization(scenario_at, args, robot_base)
        t5 = math.degrees(placement.theta5_opt)
        t6 = math.degrees(placement.theta6_opt)
        rows.append(
            f"{value!r},{t5!r},{t6!r},{placement.objective_value!r},"
            f"{placement.handle.x!r},{placement.handle.y!r}"
        )
        print(f"{_g(value):>10} {_g(t5):>12} {_g(t6):>12} {_g(placement.objective_value):>14}")
        write_landscape_csv(landscape, out / f"{stem}.csv")
        (out / f"{stem}.svg").write_text(render_landscape(landscape, placement.argmax_index),
                                         encoding="utf-8")
    (out / "sweep.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(f"wrote {out / 'sweep.csv'} and {2 * len(values)} landscape files")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="handleopt",
        description="Optimal support-handle placement for postural transitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.set_defaults(func=func)
        return p

    validate = command("validate", _cmd_validate, "check a scenario file and print findings")
    _add_overrides(validate)
    _add_output(command("analyze", _cmd_analyze, "print per-frame COM positions and velocities"))
    optimize = command("optimize", _cmd_optimize, "search the joint grid for the best handle point")
    _add_solve(optimize)

    render = command("render", _cmd_render, "draw one frame as an SVG scene")
    _add_solve(render)
    render.add_argument("--frame", type=int, default=None,
                        help="frame index (default: the max-effort frame)")
    render.add_argument("--no-placement", action="store_true",
                        help="draw the recorded pose without the optimized arm overlay")

    # sweep sets a to each value of its range, so only the other commands take --a.
    for p in (validate, optimize, render):
        p.add_argument("--a", type=float, default=None,
                       help="override the elbow-angle penalty weight")

    p = command("sweep", _cmd_sweep, "re-optimize across a range of the elbow penalty a")
    _add_solve(p)
    p.add_argument("--range", required=True, metavar="START,STOP,STEP",
                   help="inclusive sweep range of a")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        return _fail("parse", exc, 2)
    except SchemaError as exc:
        return _fail("schema", exc, 2)
    except ValidationError as exc:
        return _fail("validation", exc, 1)
    except HandleOptError as exc:
        return _fail("numeric", exc, 3)
    except argparse.ArgumentTypeError as exc:
        return _fail("usage", exc, 2)
    except OSError as exc:
        return _fail("io", exc, 2)


if __name__ == "__main__":
    sys.exit(main())
