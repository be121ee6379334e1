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
from pathlib import Path

import pytest

import handleopt
import handleopt.__main__ as handleopt_main
from handleopt import fixture_path
from handleopt.cli import MAX_SWEEP_VALUES, build_parser, main
from handleopt.scenario_io import MAX_MAGNITUDE

from oracles import list_fixtures

TOILET = str(fixture_path("toilet_sit_to_stand"))
README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.parent / "pyproject.toml"

TOILET_COM = (-0.04844583864267679, 0.5127204189511911)
TOILET_DIRECTION = (0.2543456556912991, 0.9671133787881145)
TOILET_SPEED = 0.291137897036205


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


def test_validate_warning_keeps_exit_zero(capsys, tmp_path):
    def shift_arm_mass(d):
        d["segments"][3]["mass_kg"] = 25.02
        d["segments"][5]["mass_kg"] = 6.0
        d["segments"][6]["mass_kg"] = 4.8

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


def numeric_paths(node, path=()):
    """Key paths of every number in a parsed scenario file."""
    if isinstance(node, dict):
        return [p for k, v in node.items() for p in numeric_paths(v, path + (k,))]
    if isinstance(node, list):
        return [p for i, v in enumerate(node) for p in numeric_paths(v, path + (i,))]
    return [path] if isinstance(node, (int, float)) and not isinstance(node, bool) else []


def test_every_non_finite_number_is_rejected_with_a_code(capsys, tmp_path):
    base = json.loads(fixture_path("toilet_sit_to_stand").read_text())
    paths = numeric_paths(base)
    assert len(paths) > 100
    file = tmp_path / "scenario.json"
    for path in paths:
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")
        for value in (math.nan, math.inf, -math.inf):
            data = copy.deepcopy(base)
            node = data
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
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


def test_every_too_large_number_is_rejected_with_a_code(capsys, tmp_path):
    base = json.loads(fixture_path("toilet_sit_to_stand").read_text())
    file = tmp_path / "scenario.json"
    for i, path in enumerate(numeric_paths(base)):
        if path == ("max_effort_index",):  # an integer field
            continue
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")
        value = (-1) ** i * 1.5 * MAX_MAGNITUDE
        data = copy.deepcopy(base)
        parent_of(data, path)[path[-1]] = value
        file.write_text(json.dumps(data))
        code, out, err = run(capsys, "validate", "--scenario", str(file))
        assert code == 1, (path, value)
        assert f"error[too_large]: {where} is {value!r};" in err, (path, value, err)


def parent_of(data, path):
    """The list or dict holding the number at a numeric_paths key path."""
    for key in path[:-1]:
        data = data[key]
    return data


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


@pytest.mark.parametrize("name", ["bathtub_stand", "lie_to_sit_bed", "sit_to_stand_bed",
                                  "toilet_sit_to_stand"])
def test_mutated_fixtures_fail_with_a_code_or_give_finite_output(capsys, tmp_path, name):
    # every mutated scenario is either rejected with a code and nothing written,
    # or solved into a finite report and a landscape.csv that parses; an
    # exception (a NumPy RuntimeWarning included) escapes main and fails the test
    base = json.loads(fixture_path(name).read_text())
    paths = numeric_paths(base)
    rng = random.Random(name)
    outcomes = set()
    for case in range(100):
        data = copy.deepcopy(base)
        for _ in range(rng.randint(1, 3)):
            path = rng.choice(paths)
            parent = parent_of(data, path)
            kind = rng.choice(["scale", "flip", "zero", "tiny", "huge"])
            parent[path[-1]] = mutated_number(parent[path[-1]], kind, rng)
        file = tmp_path / f"{case}.json"
        file.write_text(json.dumps(data))
        out_dir = tmp_path / f"out{case}"
        code, out, err = run(capsys, "optimize", "--scenario", str(file), "--out", str(out_dir),
                             "--grid-step-deg", "5")
        if code != 0:
            assert re.search(r"^error\[[a-z_]+\]: ", err, re.M), (case, code, err)
            assert not out_dir.exists(), case
            outcomes.add(code)
            continue
        outcomes.add(0)
        report = json.loads((out_dir / "placement_report.json").read_text())
        assert all(math.isfinite(parent_of(report, p)[p[-1]]) for p in numeric_paths(report)), case
        lines = (out_dir / "landscape.csv").read_text().split("\n")
        n5, n6 = report["grid"]["theta5_points"], report["grid"]["theta6_points"]
        assert lines[0] == "theta5_deg,theta6_deg,objective,feasible"
        assert lines[-1] == "" and len(lines) == n5 * n6 + 2, case
        rows = [line.split(",") for line in lines[1:-1]]
        assert all(len(row) == 4 and row[3] in ("true", "false") for row in rows), case
        cells = [[float(x) for x in row[:3]] for row in rows]
        i5, i6 = report["grid"]["argmax_index"]
        assert cells[i5 * n6 + i6][2] == report["objective_value"], case
    assert 0 in outcomes and 1 in outcomes, outcomes


def test_missing_scenario_flag_is_an_argparse_exit():
    with pytest.raises(SystemExit) as exc:
        main(["optimize"])
    assert exc.value.code == 2


OVERRIDES = {"--grid-step-deg", "--force-model", "--tau", "--limits-deg"}
SOLVE = {"--scenario", "--out", "-v/--verbose", *OVERRIDES, "--constrained", "--robot-base"}
COMMAND_FLAGS = {  # sweep sets a itself, so it alone takes no --a
    "validate": {"--scenario", "--a", *OVERRIDES},
    "analyze": {"--scenario", "--out", "-v/--verbose"},
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
    assert sum(len(f) for f in flags.values()) == 41
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
    assert lines[0].split() == [
        "frame", "time_s", "com_x_m", "com_y_m", "speed_mps", "dir_x", "dir_y"
    ]
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
    assert state["frame"] == 8
    assert state["position_m"][0] == pytest.approx(TOILET_COM[0], abs=1e-12)
    assert state["position_m"][1] == pytest.approx(TOILET_COM[1], abs=1e-12)
    assert state["direction"][0] == pytest.approx(TOILET_DIRECTION[0], abs=1e-12)
    assert state["direction"][1] == pytest.approx(TOILET_DIRECTION[1], abs=1e-12)
    assert state["speed_mps"] == pytest.approx(TOILET_SPEED, abs=1e-12)


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


def test_sweep_refuses_values_that_share_a_file_name(capsys, tmp_path):
    # 1.000001 .. 1.000004 all print as 1 to 6 significant digits
    code, out, err = run(
        capsys, "sweep", "--scenario", TOILET, "--out", str(tmp_path),
        "--range=1,1.000004,0.000001",
    )
    assert code == 1
    assert err == ("error[validation]: --range values 1.0 and 1.000001 share the landscape "
                   "file stem landscape_a_1; each value is named to 6 significant digits\n")
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


def slow(d):
    for i, frame in enumerate(d["frames"]):
        frame["base_xy_m"] = [i * 1e-5, 0.0]
        frame["theta_deg"] = d["frames"][8]["theta_deg"]


def test_verbose_optimize_surfaces_warnings(capsys, tmp_path):
    path = broken_scenario(tmp_path, slow)
    code, out, err = run(
        capsys, "optimize", "--scenario", path, "--out", str(tmp_path),
        "--grid-step-deg", "5", "-v",
    )
    assert code == 0
    assert "warning[slow_com]:" in err


def test_verbose_sweep_prints_each_warning_once(capsys, tmp_path):
    path = broken_scenario(tmp_path, slow)
    code, out, err = run(
        capsys, "sweep", "--scenario", path, "--out", str(tmp_path / "out"),
        "--range=0,0.4,0.2", "--grid-step-deg", "5", "-v",
    )
    assert code == 0
    assert err.count("warning[slow_com]:") == 1


SRC = Path(handleopt.__file__).parents[1]


# `analyze --out` on the toilet fixture, as a fresh process prints it
TOILET_ANALYZE_OUT = (
    "frame    time_s      com_x_m      com_y_m    speed_mps     dir_x     dir_y\n"
    "    0         0 -0.195609425  0.571411315            -         -         -\n"
    "    1    0.0875 -0.171566917  0.568907914  0.275545393 0.984706859 -0.174219408\n"
    "    2     0.175 -0.148126423  0.563010378  0.275525702 0.94991173 -0.312518329\n"
    "    3    0.2625 -0.125765025  0.553839218  0.275500393 0.895797425 -0.444462567\n"
    "    4      0.35 -0.104937728  0.541581696  0.230158494 0.89016897 -0.455630557\n"
    "    5    0.4375 -0.0899110337  0.535487451  0.184055984 0.915399006 -0.402547711\n"
    "    6     0.525 -0.075452912  0.528615716  0.181624086 0.890251913 -0.455468475\n"
    "    7    0.6125 -0.0616150754  0.521010743  0.179071753 0.861811707 -0.507228332\n"
    "    8       0.7 -0.0484458386  0.512720419  0.291137897 0.254345656 0.967113379 *\n"
    "    9    0.7875 -0.0486563851   0.57028433  0.638615267 0.0617493419 0.998091689\n"
    "   10     0.875 -0.041544876  0.624264822  0.601327765 0.199164514 0.979966069\n"
    "   11    0.9625 -0.0276978334  0.673408471  0.561466648 0.342456401 0.939533721\n"
    "   12      1.05 -0.00789625269  0.716580271  0.507840465 0.396213716 0.918158315\n"
    "   13    1.1375 0.00751450417  0.755007111  0.440107286 0.435941908 0.899974807\n"
    "   14     1.225  0.025679459  0.785895228  0.376637258 0.580396935 0.814333714\n"
    "   15    1.3125 0.0457693484  0.808681084  0.316780291 0.74354069 0.668690693\n"
    "   16       1.4 0.0668987903  0.822965134            -         -         -\n"
    "* max-effort frame\n"
    "wrote out/com_frames.csv and out/com_state.json\n"
)

# (argv, exit code, stdout, stderr) for each exit path of the CLI and each
# command that writes a file, run in a directory holding scenario.json (fails
# validation) and broken.json
ENTRY_CASES = [
    (["validate", "--scenario", TOILET], 0,
     "toilet_sit_to_stand: 0 error(s), 0 warning(s)\n", ""),
    (["analyze", "--scenario", TOILET, "--out", "out"], 0, TOILET_ANALYZE_OUT, ""),
    (["render", "--scenario", TOILET, "--out", "out", "--grid-step-deg", "5"], 0,
     "wrote out/scene_frame008.svg\n", ""),
    (["sweep", "--scenario", TOILET, "--out", "out", "--range=0,0.2,0.2",
      "--grid-step-deg", "5"], 0,
     "         a   theta5_deg   theta6_deg      objective\n"
     "         0          -40          120     4.09534054\n"
     "       0.2          -40          120     3.99534054\n"
     "wrote out/sweep.csv and 4 landscape files\n", ""),
    (["optimize", "--scenario", TOILET, "--out", "out", "--grid-step-deg", "5"], 0,
     "scenario: toilet_sit_to_stand\ntheta5_opt_deg: -40\ntheta6_opt_deg: 120\n"
     "handle_xy_m: 0.28405401 1.04215721\nobjective: 3.99534054\n"
     "f_arm_n: -1.70639688 4.68337558\nf_along_v_n: 4.09534054\n"
     "torque_signs: -1 -1 +1\nfeasible: yes\n"
     "wrote out/placement_report.json and out/landscape.csv\n", ""),
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


def test_module_entry_point_runs(tmp_path):
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
    for argv, code, out, err in ENTRY_CASES:
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
