import copy
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import handleopt
from handleopt import fixture_path
from handleopt.cli import main

TOILET = str(fixture_path("toilet_sit_to_stand"))

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


def test_bad_json_exits_two(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    code, out, err = run(capsys, "optimize", "--scenario", str(path))
    assert code == 2
    assert err.startswith("error[parse]:")
    assert "line 1 column" in err


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
    (("sweep", "--param", "a", "--range=0,inf,0.2"), 2, "error[usage]: --range needs finite"),
])
def test_non_finite_overrides_are_rejected_with_a_code(capsys, tmp_path, argv, status, finding):
    code, out, err = run(capsys, argv[0], "--scenario", TOILET, "--out", str(tmp_path), *argv[1:])
    assert code == status
    assert finding in err
    assert "feasible" not in out
    assert list(tmp_path.iterdir()) == []


def test_missing_scenario_flag_is_an_argparse_exit():
    with pytest.raises(SystemExit) as exc:
        main(["optimize"])
    assert exc.value.code == 2


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


def test_render_out_of_range_frame_exits_three(capsys, tmp_path):
    code, out, err = run(
        capsys, "render", "--scenario", TOILET, "--out", str(tmp_path),
        "--frame", "99", "--no-placement",
    )
    assert code == 3
    assert err.startswith("error[numeric]:")
    assert "99" in err


def test_sweep_writes_per_value_landscapes(capsys, tmp_path):
    code, out, err = run(
        capsys, "sweep", "--scenario", TOILET, "--out", str(tmp_path),
        "--param", "a", "--range", "0,0.4,0.2", "--grid-step-deg", "2",
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
        "--param", "a", "--range", "0.4,0.0,0.2",
    )
    assert code == 1
    assert err.startswith("error[validation]:")
    assert "--range" in err


def test_sweep_readme_range_keeps_its_values_and_file_names(capsys, tmp_path):
    # 3 * 0.2 is 0.6000000000000001; the values are rounded to 12 places
    code, out, err = run(
        capsys, "sweep", "--scenario", TOILET, "--out", str(tmp_path),
        "--param", "a", "--range", "0,0.6,0.2", "--grid-step-deg", "5",
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
        "--param", "a", "--range=-1,0,0.5",
    )
    assert code == 1
    assert err.startswith("error[validation]: objective_a:")
    assert list(tmp_path.iterdir()) == []


def test_verbose_optimize_surfaces_warnings(capsys, tmp_path):
    def slow(d):
        for i, frame in enumerate(d["frames"]):
            frame["base_xy_m"] = [i * 1e-5, 0.0]
            frame["theta_deg"] = d["frames"][8]["theta_deg"]

    path = broken_scenario(tmp_path, slow)
    code, out, err = run(
        capsys, "optimize", "--scenario", path, "--out", str(tmp_path),
        "--grid-step-deg", "5", "-v",
    )
    assert code == 0
    assert "warning[slow_com]:" in err


def test_module_entry_point_runs():
    # run from the directory holding the imported package, so the child
    # process finds the same source without an installed copy
    proc = subprocess.run(
        [sys.executable, "-m", "handleopt", "validate", "--scenario", TOILET],
        capture_output=True, text=True, cwd=Path(handleopt.__file__).parents[1],
    )
    assert proc.returncode == 0
    assert "0 error(s)" in proc.stdout
