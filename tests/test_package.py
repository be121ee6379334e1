"""The package root's public surface and the README's library example."""

import math
import re
from pathlib import Path

import handleopt

README = Path(__file__).resolve().parents[1] / "README.md"

ROOT_NAMES = {
    "load_scenario", "fixture_path", "make_context", "optimize_placement",
    "HandleOptError", "DegenerateVelocity", "IndexOutOfRange", "SingularChain",
    "IllConditioned", "ZeroTorque", "NoFeasiblePoint", "ReachExceeded",
    "ScenarioError", "ParseError", "SchemaError", "ValidationError",
    "__version__",
}


def test_root_exports_only_the_documented_names():
    assert len(handleopt.__all__) == len(ROOT_NAMES) == 17
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
