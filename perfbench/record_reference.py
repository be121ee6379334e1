#!/usr/bin/env python3
"""Write perfbench/reference.json: the answers the benchmark checks outputs against.

    python3 perfbench/record_reference.py

Run from the root of a checkout. The file holds, for every lib_grid solve
(fixture / force model / limits), the optimum as the library returns it.
The committed file was recorded from commit c2a92b0 and must not be
re-recorded to make a changed answer pass.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from child import FIXTURES, LIMITS, MODELS  # noqa: E402

from handleopt import placement_opt, scenario_io  # noqa: E402


def main() -> int:
    optimum = {}
    for name in FIXTURES:
        scenario = scenario_io.load_scenario(scenario_io.fixture_path(name))
        ctx, _ = scenario_io.make_context(scenario)
        for model in MODELS:
            config = replace(scenario.objective, force_model=model)
            for key in LIMITS:
                limits = scenario.limits if key == "scenario" else placement_opt.JointLimits()
                placement, land = placement_opt.optimize_placement(
                    ctx, limits, config, robot=scenario.robot, floor_y=scenario.floor_y,
                )
                optimum[f"{name}/{model}/{key}"] = {
                    "theta5_rad": placement.theta5_opt,
                    "theta6_rad": placement.theta6_opt,
                    "handle_xy_m": [placement.handle.x, placement.handle.y],
                    "objective_value": placement.objective_value,
                    "argmax_index": list(placement_opt.argmax_lexicographic(land)),
                }
    doc = {
        "about": "Answers of the program at commit c2a92b0; perfbench/run.py checks every output against them.",
        "optimum": optimum,
    }
    (BENCH_DIR / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
