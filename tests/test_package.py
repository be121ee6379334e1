"""The package root's public surface, the README's library example, the
value types and the oldest Python the package claims to run on."""

import ast
import dataclasses
import math
import re
from pathlib import Path

import pytest

import handleopt
from handleopt.arm_kinetics import build_chain
from handleopt.body_model import Vec2, forward_kinematics
from handleopt.scenario_io import Finding

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

ROOT_NAMES = {
    "load_scenario", "fixture_path", "make_context", "optimize_placement",
    "HandleOptError", "DegenerateVelocity", "IndexOutOfRange", "SingularChain",
    "IllConditioned", "ZeroTorque", "NoFeasiblePoint", "ScenarioError",
    "ParseError", "SchemaError", "ValidationError",
    "__version__",
}


def test_root_exports_only_the_documented_names():
    assert len(handleopt.__all__) == len(ROOT_NAMES) == 16
    assert set(handleopt.__all__) == ROOT_NAMES
    for name in handleopt.__all__:
        assert getattr(handleopt, name) is not None
    for name in ROOT_NAMES - {"__version__", "load_scenario", "fixture_path",
                              "make_context", "optimize_placement"}:
        assert issubclass(getattr(handleopt, name), handleopt.HandleOptError)


def test_readme_library_quick_start_runs(capsys):
    text = README.read_text()
    section = text.split("## Quick start (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    theta5, theta6, handle = capsys.readouterr().out.split(" ", 2)
    assert math.isfinite(float(theta5)) and math.isfinite(float(theta6))
    assert handle.startswith("Vec2(")


def test_value_types_are_immutable_and_replace_keeps_the_type():
    scenario = handleopt.load_scenario(handleopt.fixture_path("toilet_sit_to_stand"))
    ctx, state = handleopt.make_context(scenario)
    config = dataclasses.replace(scenario.objective, grid_step=math.radians(5.0))
    placement, landscape = handleopt.optimize_placement(
        ctx, scenario.limits, config, robot=scenario.robot, robot_base=Vec2(9.0, 9.0))
    frame = scenario.frames[0]
    values = [
        scenario, scenario.segments, scenario.segments.segments[0], frame, frame.pose,
        frame.pose.base, forward_kinematics(frame.pose, scenario.segments), state, ctx,
        scenario.limits, scenario.robot, placement,
        placement.feasibility[0], landscape, Finding("warning", "code", "message"),
        build_chain(ctx, 0.5, 1.5),
    ]
    assert len({type(v) for v in values}) == len(values) == 16
    for v in values:
        field = v._fields[0]
        with pytest.raises(AttributeError):
            setattr(v, field, getattr(v, field))
        copy = v._replace(**{field: getattr(v, field)})
        assert type(copy) is type(v)
        assert all(a is b for a, b in zip(copy, v))


def test_sources_parse_as_the_oldest_supported_python():
    # pyproject.toml's requires-python; the suite itself may run on a newer one
    version = re.search(r'^requires-python = ">=3\.(\d+)"$',
                        (ROOT / "pyproject.toml").read_text(), re.M)
    assert version is not None and version[1] == "10"
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert Path(__file__).resolve() in paths and ROOT / "src" / "handleopt" / "cli.py" in paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_modules_import_no_private_name_of_another_module():
    # a module's _-prefixed names are its own; the others use its public ones
    paths = sorted((ROOT / "src" / "handleopt").glob("*.py"))
    assert ROOT / "src" / "handleopt" / "placement_opt.py" in paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "handleopt"):
                found += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []
