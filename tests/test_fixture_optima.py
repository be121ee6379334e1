"""The packaged fixtures' answers, pinned in a table a reader can diff.

fixture_optima.md holds one row per solve that perfbench/reference.json
also pins: each fixture under each force model, at the fixture's own
joint limits and at JointLimits(), with the arm force and torque signs
of its placement. A change that moves an optimum or its force shows the
moved rows in its diff. To rewrite the table after such a change:

    PYTHONPATH=src python3 tests/test_fixture_optima.py
"""

import json
import math
from dataclasses import replace
from pathlib import Path

from handleopt import fixture_path, load_scenario, make_context, optimize_placement
from handleopt.config import FORCE_MODELS, JointLimits

from oracles import list_fixtures

TABLE = Path(__file__).resolve().parent / "fixture_optima.md"
REFERENCE = TABLE.parents[1] / "perfbench" / "reference.json"
LIMITS = ("scenario", "full")
HEADER = [
    "| fixture | model | limits | theta5_deg | theta6_deg | handle_x_mm | handle_y_mm | objective "
    "| f_arm_x_n | f_arm_y_n | torque_signs |",
    "|---|---|---|---:|---:|---:|---:|---:|---:|---:|---|",
]


def solves():
    """(fixture/model/limits key, placement) of every pinned solve."""
    for name in list_fixtures():
        scenario = load_scenario(fixture_path(name))
        ctx, _ = make_context(scenario)
        for model in FORCE_MODELS:
            config = replace(scenario.objective, force_model=model)
            for key in LIMITS:
                limits = scenario.limits if key == "scenario" else JointLimits()
                placement, _ = optimize_placement(ctx, limits, config)
                yield f"{name}/{model}/{key}", placement


def deg(rad: float) -> str:
    return f"{math.degrees(rad):.2f}"


def row(key: str, placement) -> str:
    cells = [*key.split("/"), deg(placement.theta5_opt), deg(placement.theta6_opt),
             f"{1000.0 * placement.handle.x:.2f}", f"{1000.0 * placement.handle.y:.2f}",
             f"{placement.objective_value:.6g}", f"{placement.f_arm.x:.6g}",
             f"{placement.f_arm.y:.6g}", " ".join(f"{s:+d}" for s in placement.torque_signs)]
    return "| " + " | ".join(cells) + " |"


def table_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.startswith("|")]


def test_fixture_optima_match_the_table_and_the_benchmark_reference():
    solved = dict(solves())
    assert table_lines(TABLE.read_text(encoding="utf-8")) == HEADER + [
        row(key, placement) for key, placement in solved.items()]
    # the benchmark's answers name the same 16 cells
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["optimum"]
    assert sorted(reference) == sorted(solved)
    for key, placement in solved.items():
        pinned = reference[key]
        assert tuple(pinned["argmax_index"]) == placement.argmax_index, key
        assert (deg(pinned["theta5_rad"]), deg(pinned["theta6_rad"])) == (
            deg(placement.theta5_opt), deg(placement.theta6_opt)), key


if __name__ == "__main__":
    old = TABLE.read_text(encoding="utf-8").splitlines()
    prose = [line for line in old if not line.startswith("|")]
    new = HEADER + [row(key, placement) for key, placement in solves()]
    TABLE.write_text("\n".join(prose + new) + "\n", encoding="utf-8")
