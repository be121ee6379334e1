"""Every number the tests pin about a packaged fixture, in one generated file.

fixture_optima.json holds each fixture's COM state at its max-effort
frame and the optimum of each solve that perfbench/reference.json also
pins (each fixture under each force model, at its own joint limits and
at JointLimits()), every float as its repr, so it reads back bit for
bit. fixture_optima.md shows the same numbers rounded, for a reader to
diff. To rewrite both after a change that moves an answer:

    PYTHONPATH=src python3 tests/test_fixture_optima.py
"""

import json
import math
from dataclasses import replace
from pathlib import Path

from handleopt import fixture_path, load_scenario, make_context, optimize_placement
from handleopt.config import FORCE_MODELS, JointLimits

from oracles import list_fixtures

PINS = Path(__file__).resolve().parent / "fixture_optima.json"
TABLE = PINS.with_suffix(".md")
REFERENCE = PINS.parents[1] / "perfbench" / "reference.json"
LIMITS = ("scenario", "full")
OPTIMA_HEADER = [
    "| fixture | model | limits | theta5_deg | theta6_deg | handle_x_mm | handle_y_mm | objective "
    "| f_arm_x_n | f_arm_y_n | torque_signs |",
    "|---|---|---|---:|---:|---:|---:|---:|---:|---:|---|",
]
COM_HEADER = [
    "| fixture | frame | time_s | com_x_m | com_y_m | dir_x | dir_y | speed_mps |",
    "|---|---:|---:|---:|---:|---:|---:|---:|",
]


def pinned() -> dict:
    """The pins as fixture_optima.json holds them."""
    return json.loads(PINS.read_text(encoding="utf-8"))


def solve_pins() -> dict:
    """The pins as the program computes them now."""
    com_state, optimum = {}, {}
    for name in list_fixtures():
        scenario = load_scenario(fixture_path(name))
        ctx, state = make_context(scenario)
        # the layout of the com_state.json that `analyze --out` writes
        com_state[name] = {
            "frame": scenario.max_effort_index,
            "time_s": scenario.frames[scenario.max_effort_index].time,
            "position_m": [*state.position],
            "direction": [*state.direction],
            "speed_mps": state.speed,
        }
        for model in FORCE_MODELS:
            config = replace(scenario.objective, force_model=model)
            for key in LIMITS:
                limits = scenario.limits if key == "scenario" else JointLimits()
                placement, _ = optimize_placement(ctx, limits, config)
                optimum[f"{name}/{model}/{key}"] = optimum_pin(placement)
    return {"com_state": com_state, "optimum": optimum}


def optimum_pin(placement) -> dict:
    """A placement as fixture_optima.json holds it; the first five fields
    are perfbench/reference.json's."""
    return {
        "theta5_rad": placement.theta5_opt,
        "theta6_rad": placement.theta6_opt,
        "handle_xy_m": [*placement.handle],
        "objective_value": placement.objective_value,
        "argmax_index": [*placement.argmax_index],
        "f_arm_n": [*placement.f_arm],
        "torque_signs": [*placement.torque_signs],
    }


def pins_text(pins: dict) -> str:
    return json.dumps(pins, indent=1) + "\n"


def deg(rad: float) -> str:
    return f"{math.degrees(rad):.2f}"


def table_text(prose: list[str], pins: dict) -> str:
    """fixture_optima.md: its prose, then one table of the optima and one of
    the COM states."""
    lines = prose + OPTIMA_HEADER
    for key, p in pins["optimum"].items():
        cells = [*key.split("/"), deg(p["theta5_rad"]), deg(p["theta6_rad"]),
                 *(f"{1000.0 * x:.2f}" for x in p["handle_xy_m"]),
                 *(f"{x:.6g}" for x in (p["objective_value"], *p["f_arm_n"])),
                 " ".join(f"{s:+d}" for s in p["torque_signs"])]
        lines.append("| " + " | ".join(cells) + " |")
    lines += [""] + COM_HEADER
    for name, s in pins["com_state"].items():
        cells = [name, str(s["frame"]), *(f"{x:.9g}" for x in (
            s["time_s"], *s["position_m"], *s["direction"], s["speed_mps"]))]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def prose_of(text: str) -> list[str]:
    """The lines of fixture_optima.md before its first table."""
    lines = text.splitlines()
    return lines[:next(i for i, line in enumerate(lines) if line.startswith("|"))]


def reference_bits(optimum: dict) -> list:
    """An optimum's perfbench/reference.json fields, floats by float.hex."""
    return [float(x).hex() for x in (optimum["theta5_rad"], optimum["theta6_rad"],
                                     *optimum["handle_xy_m"], optimum["objective_value"])
            ] + optimum["argmax_index"]


def test_fixture_optima_match_the_table_and_the_benchmark_reference():
    pins = solve_pins()
    assert PINS.read_text(encoding="utf-8") == pins_text(pins)
    text = TABLE.read_text(encoding="utf-8")
    assert text == table_text(prose_of(text), pins)
    # the benchmark's answers are the same 16 cells, bit for bit
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["optimum"]
    assert sorted(reference) == sorted(pins["optimum"])
    for key, want in reference.items():
        assert reference_bits(pins["optimum"][key]) == reference_bits(want), key


if __name__ == "__main__":
    pins = solve_pins()
    prose = prose_of(TABLE.read_text(encoding="utf-8"))
    PINS.write_text(pins_text(pins), encoding="utf-8")
    TABLE.write_text(table_text(prose, pins), encoding="utf-8")
