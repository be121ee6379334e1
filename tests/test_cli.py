import argparse
import ast
import copy
import gc
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import handleopt
import handleopt.__main__ as handleopt_main
from handleopt import fixture_path
from handleopt.cli import MAX_SWEEP_VALUES, build_parser, main
from handleopt.scenario_io import MAX_MAGNITUDE

from oracles import is_number, list_fixtures, node_at, node_paths
from test_cli_fuzz import run_checked, slow
from test_fixture_optima import pinned

TOILET = str(fixture_path("toilet_sit_to_stand"))
README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.parent / "pyproject.toml"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def broken_scenario(tmp_path, mutate):
    data = json.loads(fixture_path("toilet_sit_to_stand").read_text())
    mutate(data)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_validate_clean_fixture(capsys):
    code, out, err = run(capsys, "validate", "--scenario", TOILET)
    assert code == 0
    assert out == "toilet_sit_to_stand: 0 error(s), 0 warning(s)\n"
    assert err == ""


def test_validate_reports_errors_on_stderr(capsys, tmp_path):
    path = broken_scenario(tmp_path, lambda d: d.update(total_mass_kg=59.0))
    code, out, err = run(capsys, "validate", "--scenario", path)
    assert code == 1
    assert "error[mass_closure]:" in err
    assert "1 error(s)" in out


def shift_arm_mass(d):
    d["segments"][3]["mass_kg"] = 25.02
    d["segments"][5]["mass_kg"] = 6.0
    d["segments"][6]["mass_kg"] = 4.8


def test_validate_warning_keeps_exit_zero(capsys, tmp_path):
    path = broken_scenario(tmp_path, shift_arm_mass)
    code, out, err = run(capsys, "validate", "--scenario", path)
    assert code == 0
    assert "warning[nonarm_band]:" in out
    assert "0 error(s), 1 warning(s)" in out


def test_missing_file_exits_two(capsys, tmp_path):
    code, out, err = run(capsys, "validate", "--scenario", str(tmp_path / "nope.json"))
    assert code == 2
    assert err.startswith("error[io]:")


@pytest.mark.parametrize("content, detail", [
    (b"{ not json", "line 1 column"),
    (b'{"name": "caf\xe9"}', "not UTF-8 text"),
    (b"[" * 100_000, "nested too deeply"),
    (b"1" * 5_000, "integer string conversion"),
], ids=["not-json", "not-utf8", "deep-nesting", "long-integer"])
def test_bad_json_exits_two(capsys, tmp_path, content, detail):
    path = tmp_path / "broken.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "optimize", "--scenario", str(path))
    assert code == 2
    assert err.startswith(f"error[parse]: {path}: ")
    assert detail in err
    assert err.count("\n") == 1


def test_unknown_key_exits_two(capsys, tmp_path):
    path = broken_scenario(tmp_path, lambda d: d.update(extra=1))
    code, out, err = run(capsys, "optimize", "--scenario", str(path))
    assert code == 2
    assert err.startswith("error[schema]:")
    assert "extra" in err


def test_invalid_scenario_blocks_optimize(capsys, tmp_path):
    path = broken_scenario(tmp_path, lambda d: d.update(max_effort_index=0))
    code, out, err = run(capsys, "optimize", "--scenario", str(path))
    assert code == 1
    assert err.startswith("error[validation]:")
    assert "max_effort_interior" in err


def test_malformed_tau_is_a_usage_error(capsys):
    code, out, err = run(capsys, "optimize", "--scenario", TOILET, "--tau", "1,2")
    assert code == 2
    assert err.startswith("error[usage]:")
    assert "3 comma-separated numbers" in err


def test_every_non_finite_number_is_rejected_with_a_code(capsys, tmp_path):
    base = json.loads(fixture_path("toilet_sit_to_stand").read_text())
    paths = node_paths(base, is_number)
    assert len(paths) > 100
    file = tmp_path / "scenario.json"
    for path in paths:
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")
        for value in (math.nan, math.inf, -math.inf):
            data = copy.deepcopy(base)
            node_at(data, path[:-1])[path[-1]] = value
            file.write_text(json.dumps(data))
            code, out, err = run(capsys, "validate", "--scenario", str(file))
            if path == ("max_effort_index",):  # an integer field
                assert (code, err.split(":")[0]) == (2, "error[schema]"), (path, value)
            else:
                assert code == 1, (path, value)
                assert f"error[non_finite]: {where} is {value!r};" in err, (path, value, err)


@pytest.mark.parametrize("argv, status, finding", [
    (("validate", "--a", "nan"), 1, "error[non_finite]: objective.a is nan"),
    (("optimize", "--a", "nan"), 1, "non_finite: objective.a is nan"),
    (("optimize", "--grid-step-deg", "nan"), 1, "non_finite: objective.grid_step_deg is nan"),
    (("optimize", "--grid-step-deg", "inf"), 1, "non_finite: objective.grid_step_deg is inf"),
    (("optimize", "--limits-deg=-60,nan,5,175"), 2, "error[usage]: --limits-deg needs finite"),
    (("optimize", "--robot-base=nan,0"), 2, "error[usage]: --robot-base needs finite"),
    (("optimize", "--tau=1,nan,1"), 2, "error[usage]: --tau needs finite"),
    (("sweep", "--range=0,inf,0.2"), 2, "error[usage]: --range needs finite"),
])
def test_non_finite_overrides_are_rejected_with_a_code(capsys, tmp_path, argv, status, finding):
    out_flag = () if argv[0] == "validate" else ("--out", str(tmp_path))  # validate writes nothing
    code, out, err = run(capsys, argv[0], "--scenario", TOILET, *out_flag, *argv[1:])
    assert code == status
    assert finding in err
    assert "feasible" not in out
    assert list(tmp_path.iterdir()) == []


BAD_NAMES = {"control": "a\u0001b", "surrogate": "a\ud800b", "noncharacter": "a\uffffb"}


@pytest.mark.parametrize("name", BAD_NAMES.values(), ids=BAD_NAMES.keys())
@pytest.mark.parametrize("where", ["scenario", "segment"])
def test_a_name_no_output_can_carry_is_rejected_with_a_code(capsys, tmp_path, where, name):
    # no finding or summary prints the raw name: a lone surrogate would
    # end the run in a UnicodeEncodeError, a control character would reach
    # the rendered SVG, where XML forbids it
    def rename(d):
        if where == "scenario":
            d["name"] = name
        else:  # another finding that names the segment prints it escaped too
            d["segments"][6].update(name=name, com_fraction=2.0)

    path = broken_scenario(tmp_path, rename)
    shown = "a\\u%04xb" % ord(name[1])
    label = "scenario name" if where == "scenario" else "segment 6 name"
    finding = (f'name_characters: {label} "{shown}" holds a control character, a lone '
               "surrogate, U+FFFE or U+FFFF, which no name may hold")
    range_finding = f"com_fraction_range: segment 6 ({shown}) com_fraction 2.0 is outside [0, 1]"
    findings = [finding] if where == "scenario" else [finding, range_finding]
    summary = f"{shown if where == 'scenario' else 'toilet_sit_to_stand'}: {len(findings)} error(s)"

    code, out, err = run(capsys, "validate", "--scenario", path)
    assert (code, out) == (1, f"{summary}, 0 warning(s)\n")
    assert err == "".join(f"error[{f.replace(':', ']:', 1)}\n" for f in findings)
    for command in ("optimize", "render"):
        out_dir = tmp_path / command
        code, out, err = run(capsys, command, "--scenario", path, "--out", str(out_dir))
        assert (code, out) == (1, "")
        assert err == f"error[validation]: {'; '.join(findings)}\n"
        assert not out_dir.exists()


@pytest.mark.parametrize("where", ["scenario", "objective"])
def test_an_unknown_field_is_printed_escaped(capsys, tmp_path, where):
    # a key holding BEL and an ANSI colour escape must not reach the terminal
    def add_key(d):
        (d if where == "scenario" else d["objective"])["a\u0007\u001b[31mb"] = 1

    path = broken_scenario(tmp_path, add_key)
    finding = f"error[schema]: {where} has unknown field(s): a\\u0007\\u001b[31mb\n"
    for command in ("validate", "optimize"):
        out_flag = () if command == "validate" else ("--out", str(tmp_path / "out"))
        code, out, err = run(capsys, command, "--scenario", path, *out_flag)
        assert (code, out, err) == (2, "", finding)
        assert not re.search("[\x00-\x09\x0b-\x1f]", err)


def test_every_too_large_number_is_rejected_with_a_code(capsys, tmp_path):
    base = json.loads(fixture_path("toilet_sit_to_stand").read_text())
    file = tmp_path / "scenario.json"
    for i, path in enumerate(node_paths(base, is_number)):
        if path == ("max_effort_index",):  # an integer field
            continue
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")
        value = (-1) ** i * 1.5 * MAX_MAGNITUDE
        data = copy.deepcopy(base)
        node_at(data, path[:-1])[path[-1]] = value
        file.write_text(json.dumps(data))
        code, out, err = run(capsys, "validate", "--scenario", str(file))
        assert code == 1, (path, value)
        assert f"error[too_large]: {where} is {value!r};" in err, (path, value, err)


def mutated_number(value, kind, rng):
    """One fixture-mutation step: scale, flip the sign, zero, make tiny or huge."""
    if kind == "scale":
        return value * rng.choice([0.1, 0.5, 0.9, 1.1, 2.0, 10.0])
    if kind == "flip":
        return -value
    if kind == "zero":
        return 0.0
    sizes = [1e-10, 1e-100, 5e-324] if kind == "tiny" else [1e10, 1e100, 1e300, 1.7976931348623157e308]
    return math.copysign(rng.choice(sizes), value)


@pytest.mark.parametrize("name", list_fixtures())
def test_mutated_fixtures_fail_with_a_code_or_give_finite_output(tmp_path, name):
    # a seeded sweep of numeric mutations per fixture, each run through the
    # fuzz gate's run_checked; every fixture must give both outcomes
    base = json.loads(fixture_path(name).read_text())
    paths = node_paths(base, is_number)
    rng = random.Random(name)
    outcomes = set()
    for case in range(100):
        data = copy.deepcopy(base)
        for _ in range(rng.randint(1, 3)):
            path = rng.choice(paths)
            parent = node_at(data, path[:-1])
            kind = rng.choice(["scale", "flip", "zero", "tiny", "huge"])
            parent[path[-1]] = mutated_number(parent[path[-1]], kind, rng)
        file = tmp_path / f"{case}.json"
        file.write_text(json.dumps(data))
        out_dir = tmp_path / f"out{case}"
        code, _, _ = run_checked(("optimize", "--scenario", str(file), "--out", str(out_dir),
                                  "--grid-step-deg", "5"), out_dir)
        outcomes.add(code)
    assert 0 in outcomes and 1 in outcomes, outcomes


def test_missing_scenario_flag_is_an_argparse_exit():
    with pytest.raises(SystemExit) as exc:
        main(["optimize"])
    assert exc.value.code == 2


OVERRIDES = {"--grid-step-deg", "--force-model", "--tau", "--limits-deg"}
SOLVE = {"--scenario", "--out", *OVERRIDES, "--constrained", "--robot-base"}
COMMAND_FLAGS = {  # sweep sets a itself, so it alone takes no --a
    "validate": {"--scenario", "--a", *OVERRIDES},
    "analyze": {"--scenario", "--out"},
    "optimize": SOLVE | {"--a"},
    "render": SOLVE | {"--a", "--frame", "--no-placement"},
    "sweep": SOLVE | {"--range"},
}


def test_each_command_takes_only_the_flags_it_reads(capsys):
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    flags = {name: {"/".join(a.option_strings) for a in p._actions if a.dest != "help"}
             for name, p in commands.items()}
    assert flags == COMMAND_FLAGS
    assert sum(len(f) for f in flags.values()) == 37
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--scenario", TOILET, "--robot-base=abc"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --robot-base=abc" in capsys.readouterr().err


def test_readme_cli_quick_start_runs(capsys, tmp_path, monkeypatch):
    section = README.read_text().split("## Quick start (CLI)", 1)[1].split("\n## ", 1)[0]
    lines = [line for block in re.findall(r"```sh\n(.*?)```", section, re.S)
             for line in block.splitlines() if line.startswith("handleopt ")]
    assert [line.split()[1] for line in lines] == [
        "validate", "analyze", "optimize", "render", "sweep"]
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line.replace('"$SCENARIO"', shlex.quote(TOILET)))[1:]
        assert run(capsys, *argv)[0] == 0, line


def test_optimize_prints_summary_and_writes_report(capsys, tmp_path):
    code, out, err = run(
        capsys, "optimize", "--scenario", TOILET, "--out", str(tmp_path),
        "--grid-step-deg", "2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "scenario: toilet_sit_to_stand"
    assert lines[1].startswith("theta5_opt_deg: ")
    assert lines[2].startswith("theta6_opt_deg: ")
    assert lines[3].startswith("handle_xy_m: ")
    assert lines[4].startswith("objective: ")
    assert lines[5].startswith("f_arm_n: ")
    assert lines[6].startswith("f_along_v_n: ")
    assert lines[7].startswith("torque_signs: ")
    assert all(s in ("+1", "-1") for s in lines[7].split()[1:])
    assert lines[8] == "feasible: yes"
    assert lines[9].startswith("wrote ")
    report = json.loads((tmp_path / "placement_report.json").read_text())
    assert report["scenario"] == "toilet_sit_to_stand"
    assert report["feasibility"] == []
    assert (tmp_path / "landscape.csv").exists()


def test_optimize_far_robot_base_is_flagged_not_fatal(capsys, tmp_path):
    code, out, err = run(
        capsys, "optimize", "--scenario", TOILET, "--out", str(tmp_path),
        "--grid-step-deg", "2", "--robot-base", "9,9",
    )
    assert code == 0
    assert "infeasible[robot_reach]:" in out
    assert "feasible: yes" not in out
    report = json.loads((tmp_path / "placement_report.json").read_text())
    kinds = [v["kind"] for v in report["feasibility"]]
    assert kinds == ["robot_reach"]
    assert report["config"]["robot_base_xy_m"] == [9.0, 9.0]


def test_flag_order_does_not_change_outputs(capsys, tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    run(capsys, "optimize", "--scenario", TOILET, "--out", str(d1),
        "--grid-step-deg", "2", "--a", "0.3")
    run(capsys, "optimize", "--a", "0.3", "--grid-step-deg", "2",
        "--out", str(d2), "--scenario", TOILET)
    for name in ("placement_report.json", "landscape.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_analyze_table_marks_max_effort_frame(capsys):
    code, out, err = run(capsys, "analyze", "--scenario", TOILET)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "frame    time_s      com_x_m      com_y_m    speed_mps     dir_x     dir_y"
    assert lines[-1] == "* max-effort frame"
    data_rows = lines[1:-1]
    assert len(data_rows) == 17
    assert data_rows[8].endswith(" *")
    assert sum(1 for row in data_rows if row.endswith(" *")) == 1
    # endpoint frames have no central-difference velocity
    assert data_rows[0].split()[4] == "-"
    assert data_rows[-1].split()[4] == "-"


def test_analyze_writes_csv_and_state(capsys, tmp_path):
    code, out, err = run(capsys, "analyze", "--scenario", TOILET, "--out", str(tmp_path))
    assert code == 0
    csv_lines = (tmp_path / "com_frames.csv").read_text().splitlines()
    assert csv_lines[0] == "frame,time_s,com_x_m,com_y_m,speed_mps,dir_x,dir_y"
    assert len(csv_lines) == 18
    assert csv_lines[1].endswith(",,,")
    state = json.loads((tmp_path / "com_state.json").read_text())
    pin = pinned()["com_state"]["toilet_sit_to_stand"]
    assert state == pin
    # the table's max-effort row prints the same state to 9 significant figures
    g = "{:.9g}".format
    row = (f"{pin['frame']:>5} {g(pin['time_s']):>9} {g(pin['position_m'][0]):>12} "
           f"{g(pin['position_m'][1]):>12} {g(pin['speed_mps']):>12} "
           f"{g(pin['direction'][0]):>9} {g(pin['direction'][1]):>9} *")
    assert row in out.splitlines()


def test_render_defaults_to_max_effort_frame(capsys, tmp_path):
    code, out, err = run(
        capsys, "render", "--scenario", TOILET, "--out", str(tmp_path),
        "--grid-step-deg", "5",
    )
    assert code == 0
    path = tmp_path / "scene_frame008.svg"
    assert path.exists()
    assert f"wrote {path}" in out
    svg = path.read_text()
    assert '<g id="handle">' in svg


def test_render_no_placement_skips_overlay(capsys, tmp_path):
    code, out, err = run(
        capsys, "render", "--scenario", TOILET, "--out", str(tmp_path),
        "--frame", "2", "--no-placement",
    )
    assert code == 0
    svg = (tmp_path / "scene_frame002.svg").read_text()
    assert '<g id="handle">' not in svg
    assert '<g id="arm">' in svg


def test_render_out_of_range_frame_is_a_usage_error(capsys, tmp_path):
    for frame in ("99", "17", "-1"):
        code, out, err = run(
            capsys, "render", "--scenario", TOILET, "--out", str(tmp_path),
            "--frame", frame, "--no-placement",
        )
        assert (code, out) == (2, "")
        assert err == f"error[usage]: --frame {frame} is out of range for 17 frames\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", [
    "--constrained", "--robot-base=abc", "--grid-step-deg=1e-9", "--force-model=lsq",
    "--tau=1,2,3", "--limits-deg=-60,80,5,120", "--a=0",
])
def test_render_no_placement_refuses_each_solve_flag(capsys, tmp_path, flag):
    # the recorded pose needs no solve, so a solve flag is refused, even a
    # malformed one or one that sizes a grid never built, and before the
    # file is read
    out_dir = tmp_path / "out"
    for scenario in (TOILET, str(tmp_path / "absent.json")):
        code, out, err = run(capsys, "render", "--scenario", scenario, "--out", str(out_dir),
                             "--no-placement", flag)
        assert (code, out) == (2, "")
        assert re.fullmatch(rf"error\[usage\]: [^\n]*{flag.split('=')[0]}\b[^\n]*\n", err), err
        assert not out_dir.exists()


@pytest.mark.parametrize("frame", ["5", "8"])
def test_solved_render_refuses_frame(capsys, tmp_path, frame):
    # a solved render draws the max-effort frame it solved (8 on the toilet
    # fixture), so --frame goes with --no-placement only, even when it names
    # that frame; it is refused before the file is read
    out_dir = tmp_path / "out"
    for scenario in (TOILET, str(tmp_path / "absent.json")):
        code, out, err = run(capsys, "render", "--scenario", scenario, "--out", str(out_dir),
                             "--frame", frame)
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error\[usage\]: [^\n]*--frame\b[^\n]*\n", err), err
        assert not out_dir.exists()


def test_sweep_writes_per_value_landscapes(capsys, tmp_path):
    code, out, err = run(
        capsys, "sweep", "--scenario", TOILET, "--out", str(tmp_path),
        "--range", "0,0.4,0.2", "--grid-step-deg", "2",
    )
    assert code == 0
    for stem in ("landscape_a_0", "landscape_a_0.2", "landscape_a_0.4"):
        assert (tmp_path / f"{stem}.csv").exists()
        assert (tmp_path / f"{stem}.svg").exists()
    sweep_lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert sweep_lines[0] == "value,theta5_opt_deg,theta6_opt_deg,objective,handle_x_m,handle_y_m"
    assert len(sweep_lines) == 4
    assert [row.split(",")[0] for row in sweep_lines[1:]] == ["0.0", "0.2", "0.4"]
    assert "wrote" in out and "6 landscape files" in out
    # a larger elbow penalty can only lower the optimum
    objectives = [float(row.split(",")[3]) for row in sweep_lines[1:]]
    assert objectives[0] >= objectives[1] >= objectives[2]


def test_sweep_holds_one_landscape_at_a_time(capsys, tmp_path, monkeypatch):
    # when the next value's solve starts, no name may still hold the last
    # value's landscape arrays
    run_optimization = handleopt.cli._run_optimization
    refs, solves = [], 0

    def tracked(*args):
        nonlocal solves
        alive = sum(ref() is not None for ref in refs)
        assert alive == 0, f"{alive} array(s) of value {solves - 1} still alive"
        solves += 1
        result = run_optimization(*args)
        refs[:] = [weakref.ref(a) for a in result[2]]  # both axes, objective, eligible
        return result

    monkeypatch.setattr(handleopt.cli, "_run_optimization", tracked)
    code, out, err = run(
        capsys, "sweep", "--scenario", TOILET, "--out", str(tmp_path),
        "--range", "0,0.4,0.2", "--grid-step-deg", "5",
    )
    assert (code, err, solves, len(refs)) == (0, "", 3, 4)


def test_sweep_rejects_bad_range(capsys, tmp_path):
    code, out, err = run(
        capsys, "sweep", "--scenario", TOILET, "--out", str(tmp_path),
        "--range", "0.4,0.0,0.2",
    )
    assert code == 1
    assert err.startswith("error[validation]:")
    assert "--range" in err


@pytest.mark.parametrize("spec", ["0,1,1e-9", "0,1e308,1e-308"])
def test_sweep_rejects_too_many_values_before_any_solve(capsys, tmp_path, spec):
    out_dir = tmp_path / "out"
    code, out, err = run(
        capsys, "sweep", "--scenario", TOILET, "--out", str(out_dir),
        f"--range={spec}",
    )
    assert code == 1
    assert err.startswith("error[validation]: --range makes")
    assert f"more than the {MAX_SWEEP_VALUES}" in err
    assert out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("sweep_range, message", [
    # 1.000001 .. 1.000004 all print as 1 to 6 significant digits
    pytest.param("1,1.000004,0.000001",
                 "--range values 1.0 and 1.000001 share the landscape file stem landscape_a_1; "
                 "each value is named to 6 significant digits", id="six_digit_stem"),
    # 0 and 1e-14 differ, but both are a = 0.0 at 12 decimal places
    pytest.param("0,1e-13,1e-14",
                 "--range values 0.0 and 1e-14 both round to a = 0.0; each value is rounded "
                 "to 12 decimal places", id="twelve_place_rounding"),
])
def test_sweep_refuses_values_that_share_a_file_name(capsys, tmp_path, sweep_range, message):
    code, out, err = run(
        capsys, "sweep", "--scenario", TOILET, "--out", str(tmp_path), f"--range={sweep_range}",
    )
    assert code == 1
    assert err == f"error[validation]: {message}\n"
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_sweep_readme_range_keeps_its_values_and_file_names(capsys, tmp_path):
    # 3 * 0.2 is 0.6000000000000001; the values are rounded to 12 places
    code, out, err = run(
        capsys, "sweep", "--scenario", TOILET, "--out", str(tmp_path),
        "--range", "0,0.6,0.2", "--grid-step-deg", "5",
    )
    assert code == 0
    sweep_lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in sweep_lines[1:]] == ["0.0", "0.2", "0.4", "0.6"]
    stems = ("landscape_a_0", "landscape_a_0.2", "landscape_a_0.4", "landscape_a_0.6")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["sweep.csv"] + [f"{stem}.{ext}" for stem in stems for ext in ("csv", "svg")])


def test_sweep_validates_every_swept_value(capsys, tmp_path):
    code, out, err = run(
        capsys, "sweep", "--scenario", TOILET, "--out", str(tmp_path),
        "--range=-1,0,0.5",
    )
    assert code == 1
    assert err.startswith("error[validation]: objective_a:")
    assert list(tmp_path.iterdir()) == []


def test_sweep_ignores_the_files_own_a(capsys, tmp_path):
    path = broken_scenario(tmp_path, lambda d: d["objective"].update(a=-1.0))
    out_dir = tmp_path / "out"
    code, out, err = run(
        capsys, "sweep", "--scenario", path, "--out", str(out_dir),
        "--range=0,0.2,0.2", "--grid-step-deg", "5",
    )
    assert (code, err) == (0, "")
    sweep_lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in sweep_lines[1:]] == ["0.0", "0.2"]


# A mutation of the toilet fixture that draws one warning, by its code
WARNED = {"slow_com": slow, "nonarm_band": shift_arm_mass}
# Each command that loads a scenario, with the flags that keep it quick
LOADING = {
    "analyze": (),
    "optimize": ("--grid-step-deg", "5"),
    "render": ("--grid-step-deg", "5"),
    "sweep": ("--range=0,0.4,0.2", "--grid-step-deg", "5"),
}


@pytest.mark.parametrize("warning", WARNED)
@pytest.mark.parametrize("command", LOADING)
def test_commands_print_each_warning_once_on_stderr(capsys, tmp_path, command, warning):
    # a sweep prints its warnings once for the whole range
    path = broken_scenario(tmp_path, WARNED[warning])
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, command, "--scenario", path, "--out", str(out_dir),
                         *LOADING[command])
    assert code == 0
    assert re.fullmatch(rf"warning\[{warning}\]: [^\n]+\n", err), err
    assert out_dir.is_dir()


@pytest.mark.parametrize("warning", WARNED)
@pytest.mark.parametrize("command", LOADING)
def test_an_error_finding_comes_alone_and_writes_nothing(capsys, tmp_path, command, warning):
    def mutate(d):
        WARNED[warning](d)
        d["total_mass_kg"] = 59.0

    path = broken_scenario(tmp_path, mutate)
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, command, "--scenario", path, "--out", str(out_dir),
                         *LOADING[command])
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error\[validation\]: mass_closure: [^\n]+\n", err), err
    assert not out_dir.exists()


# A mutation of each section that only a solve reads, by the code it draws
SOLVE_SECTIONS = {
    "grid_too_large": lambda d: d["objective"].update(grid_step_deg=1e-9),
    "elbow_limit_margin": lambda d: d.update(joint_limits_deg=[-60.0, 80.0, 0.0, 120.0]),
    "robot_positive": lambda d: d["robot"].update(reach_limit_m=0.0),
}


@pytest.mark.parametrize("finding", SOLVE_SECTIONS)
@pytest.mark.parametrize("argv", [("analyze",), ("render", "--no-placement")])
def test_the_commands_that_solve_nothing_validate_the_whole_file(capsys, tmp_path, argv,
                                                                 finding):
    path = broken_scenario(tmp_path, SOLVE_SECTIONS[finding])
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--scenario", path, "--out", str(out_dir))
    assert (code, out) == (1, "")
    assert re.fullmatch(rf"error\[validation\]: {finding}: [^\n]+\n", err), err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", LOADING)
def test_an_unusable_out_prints_and_writes_nothing(capsys, tmp_path, command):
    # an --out that names a file fails before any table is printed
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    code, out, err = run(capsys, command, "--scenario", TOILET, "--out", str(taken),
                         *LOADING[command])
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error\[io\]: [^\n]+\n", err), err
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert taken.read_text() == "kept\n"


def test_no_exclusion_depends_on_a_so_a_failing_sweep_writes_nothing(capsys, tmp_path,
                                                                    monkeypatch):
    # a sweep can fail only at its first solve, and then it prints and
    # writes nothing, as optimize does
    run_optimization = handleopt.cli._run_optimization
    masks, solves = [], 0

    def tracked(*args):
        nonlocal solves
        solves += 1
        result = run_optimization(*args)
        masks.append(result[2].eligible.copy())
        return result

    monkeypatch.setattr(handleopt.cli, "_run_optimization", tracked)
    flags = ("--range=0,0.2,0.1", "--grid-step-deg", "5", "--constrained")
    code, out, err = run(capsys, "sweep", "--scenario", TOILET, "--out", str(tmp_path / "near"),
                         *flags, "--robot-base=0.5,0.5")
    assert (code, err, solves) == (0, "", 3)
    assert 0 < masks[0].sum() < masks[0].size
    assert all((mask == masks[0]).all() for mask in masks)

    solves = 0
    for command in ("optimize", "sweep"):
        out_dir = tmp_path / command
        code, out, err = run(capsys, command, "--scenario", TOILET, "--out", str(out_dir),
                             *(flags if command == "sweep" else flags[1:]), "--robot-base=50,50")
        assert (code, out) == (3, "")
        assert err == "error[numeric]: every grid point is singular or excluded\n"
        assert not out_dir.exists()
    assert solves == 2


SRC = Path(handleopt.__file__).parents[1]


# argv of each command that prints the fixture's numbers: a fresh process
# must give the exit code and bytes that cli.main gives in process
MAIN_CASES = [
    ["analyze", "--scenario", TOILET, "--out", "out"],
    ["sweep", "--scenario", TOILET, "--out", "out", "--range=0,0.2,0.2", "--grid-step-deg", "5"],
    ["optimize", "--scenario", TOILET, "--out", "out", "--grid-step-deg", "5"],
]

# (argv, exit code, stdout, stderr) for each other exit path of the CLI and
# each other command that writes a file, run in a directory holding
# scenario.json (fails validation) and broken.json
ENTRY_CASES = [
    (["validate", "--scenario", TOILET], 0,
     "toilet_sit_to_stand: 0 error(s), 0 warning(s)\n", ""),
    (["render", "--scenario", TOILET, "--out", "out", "--grid-step-deg", "5"], 0,
     "wrote out/scene_frame008.svg\n", ""),
    (["validate", "--scenario", "scenario.json"], 1,
     "toilet_sit_to_stand: 1 error(s), 0 warning(s)\n",
     "error[mass_closure]: segment masses sum to 59.99999999999999 kg"
     " but total_mass_kg is 59.0\n"),
    (["validate", "--scenario", "broken.json"], 2, "",
     "error[parse]: broken.json: invalid JSON at line 1 column 3:"
     " Expecting property name enclosed in double quotes\n"),
    (["validate", "--scenario", TOILET, "--robot-base=abc"], 2, "",
     "usage: handleopt [-h] {validate,analyze,optimize,render,sweep} ...\n"
     "handleopt: error: unrecognized arguments: --robot-base=abc\n"),
    (["render", "--scenario", TOILET, "--out", "out", "--frame", "99", "--no-placement"], 2,
     "", "error[usage]: --frame 99 is out of range for 17 frames\n"),
]


def test_module_entry_point_runs(capsys, monkeypatch, tmp_path):
    # every exit path of a fresh `python -m handleopt`, read through pipes,
    # so the process entry's own handling of the collector and of exit
    # keeps each byte and exit code. Without PYTHONUNBUFFERED the output
    # sits in a buffer until the normal flush at exit; PYTHONPATH finds
    # the same source without an installed copy. An EncodingWarning is an
    # error, so every file the CLI writes names its encoding.
    broken_scenario(tmp_path, lambda d: d.update(total_mass_kg=59.0))
    (tmp_path / "broken.json").write_text("{ not json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    monkeypatch.chdir(tmp_path)
    in_process = [(argv, *run(capsys, *argv)) for argv in MAIN_CASES]
    for argv, code, out, err in in_process + ENTRY_CASES:
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "handleopt", *argv],
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err), argv


def test_console_script_is_the_module_entry():
    text = PYPROJECT.read_text()
    if sys.version_info >= (3, 11):
        import tomllib

        target = tomllib.loads(text)["project"]["scripts"]["handleopt"]
    else:
        target = re.search(r'^handleopt\s*=\s*"([^"]+)"', text, re.M).group(1)
    module, attr = target.split(":")
    # the function that `if __name__ == "__main__":` in __main__.py calls
    tree = ast.parse(Path(handleopt_main.__file__).read_text())
    guard = next(node for node in tree.body if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "__name__ == '__main__'")
    called = {node.func.id for node in ast.walk(guard)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert (module, called) == (handleopt_main.__name__, {attr})
    assert getattr(handleopt_main, attr) is handleopt_main.run


@pytest.mark.parametrize("mutate, status", [(lambda d: None, 0),
                                            (lambda d: d.update(total_mass_kg=59.0), 1)])
def test_main_leaves_the_callers_collector_alone(capsys, tmp_path, mutate, status):
    before = (gc.isenabled(), gc.get_freeze_count())
    assert run(capsys, "validate", "--scenario", broken_scenario(tmp_path, mutate))[0] == status
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_run_disables_the_collector_and_freezes_the_heap(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["handleopt", "validate", "--scenario", TOILET])
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    try:
        assert handleopt_main.run() == 0
        assert not gc.isenabled()
        assert gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()
    assert capsys.readouterr().out == "toilet_sit_to_stand: 0 error(s), 0 warning(s)\n"


def test_cli_runs_leave_no_garbage_per_swept_value(capsys, tmp_path):
    # with the collector off for the whole process, what a run leaves in
    # cycles must not grow with the work: a 12-value sweep leaves what the
    # parser alone does, so a sweep of up to MAX_SWEEP_VALUES keeps none
    def sweep(n, out):
        stop = f"{0.1 * (n - 1):.1f}"
        return lambda: main(["sweep", "--scenario", TOILET, "--out", str(tmp_path / out),
                             f"--range=0,{stop},0.1", "--grid-step-deg", "5"])

    enabled = gc.isenabled()

    def garbage_after(job):
        gc.collect()
        gc.disable()
        try:
            job()
            return gc.collect()
        finally:
            if enabled:
                gc.enable()

    sweep(2, "warm")()  # first-use imports and caches are not per value
    counts = [garbage_after(job) for job in (build_parser, sweep(2, "two"), sweep(12, "twelve"))]
    capsys.readouterr()
    assert len(list((tmp_path / "twelve").glob("landscape_a_*.csv"))) == 12
    assert counts[1] == counts[2] == counts[0], counts


# Runs in a fresh interpreter; prints whether numpy is loaded after a bare
# import, after validate and analyze, and after optimize, and then, with
# every handleopt module loaded, which classes they define are dataclasses.
NUMPY_PROBE = """
import contextlib, io, json, sys
import handleopt
loaded = ["numpy" in sys.modules]
from handleopt.cli import main

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))

fixtures, bad, analyze_out, optimize_out = json.loads(sys.argv[1])
codes = [run("validate", "--scenario", str(handleopt.fixture_path(name))) for name in fixtures]
codes.append(run("validate", "--scenario", bad))
codes.append(run("analyze", "--scenario", str(handleopt.fixture_path(fixtures[0])),
                 "--out", analyze_out))
loaded.append("numpy" in sys.modules)
codes.append(run("optimize", "--scenario", str(handleopt.fixture_path(fixtures[0])),
                 "--out", optimize_out, "--grid-step-deg", "5"))
loaded.append("numpy" in sys.modules)
same = handleopt.optimize_placement is handleopt.placement_opt.optimize_placement
import dataclasses, handleopt.placement_opt, handleopt.reporting
found = sorted(f"{name}.{attr}" for name, mod in list(sys.modules.items())
               if name.split(".")[0] == "handleopt" for attr, obj in vars(mod).items()
               if isinstance(obj, type) and obj.__module__ == name
               and dataclasses.is_dataclass(obj))
print(json.dumps({"codes": codes, "loaded": loaded, "same": same, "dataclasses": found}))
"""


def test_validate_analyze_and_import_leave_numpy_unloaded(tmp_path):
    fixtures = list_fixtures()
    bad = broken_scenario(tmp_path, lambda d: d.update(total_mass_kg=59.0))
    job = [fixtures, bad, str(tmp_path / "analyze"), str(tmp_path / "optimize")]
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, json.dumps(job)],
        capture_output=True, text=True, cwd=SRC,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(fixtures) + [1, 0, 0]
    # not after `import handleopt`, nor after validate and analyze; optimize loads it
    assert result["loaded"] == [False, False, True]
    assert result["same"] is True
    # the value types are NamedTuples, cheaper to create at start-up
    assert result["dataclasses"] == ["handleopt.config.ObjectiveConfig"]
    assert (tmp_path / "analyze" / "com_state.json").exists()
    assert (tmp_path / "optimize" / "placement_report.json").exists()


# Without site, nothing loads importlib.resources before handleopt does.
RESOURCES_PROBE = """
import sys, handleopt, handleopt.cli
print("importlib.resources" in sys.modules, handleopt.fixture_path("toilet_sit_to_stand").is_file())
"""


def test_import_leaves_importlib_resources_unloaded():
    # only fixture_path needs it, and it is slow to import on a plain install
    proc = subprocess.run(
        [sys.executable, "-S", "-c", RESOURCES_PROBE],
        capture_output=True, text=True, cwd=SRC,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
