"""Code that runs inside a benchmark child process.

    child.py cli SPANS ARGS...   one traced CLI request: handleopt.cli.main(ARGS)
    child.py setup               lib_grid set-up only: import, load, validate, make_context
    child.py lib JOB             the lib_grid workload; JOB is a JSON file of settings

The first statement stamps the monotonic clock, which the parent also reads
at spawn time, so the gap between the two is interpreter start.
"""

import time

T0 = time.monotonic_ns()

import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402

FIXTURES = ("bathtub_stand", "lie_to_sit_bed", "sit_to_stand_bed", "toilet_sit_to_stand")
LIMITS = ("scenario", "full")
MODELS = ("expanded", "lsq")

# Scalar objective() queries per lib_grid solve, at seeded cells of its grid.
POINT_QUERIES = 200
# A point query must match its grid cell within this relative error; the
# floor of 1.0 in the denominator keeps cells near zero from failing on
# rounding alone.
POINT_RTOL = 1e-9


def same(a: float, b: float) -> bool:
    """Bit-exact float equality (also tells 0.0 from -0.0)."""
    return float(a).hex() == float(b).hex()


def import_handleopt() -> int:
    t = time.monotonic_ns()
    import handleopt.cli  # noqa: F401  (the CLI module pulls in every layer)

    return time.monotonic_ns() - t


def load_fixtures():
    """(name, scenario, ctx) for each fixture, through the traced module attributes."""
    from handleopt import scenario_io

    out = []
    for name in FIXTURES:
        scenario = scenario_io.read_scenario_file(scenario_io.fixture_path(name))
        errors = [f for f in scenario_io.validate_scenario(scenario) if f.is_error]
        if errors:
            raise RuntimeError(f"fixture {name} does not validate: {errors}")
        ctx, _ = scenario_io.make_context(scenario)
        out.append((name, scenario, ctx))
    return out


def cli(spans_path: str, argv: list[str]) -> int:
    import_ns = import_handleopt()
    import handleopt.cli
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = handleopt.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit from inside main
        code = exc.code if isinstance(exc.code, int) else 1
    with open(spans_path, "w") as fh:
        json.dump({"t0": T0, "import_ns": import_ns, "summary": tracer.summary()}, fh)
    return code


def setup() -> int:
    import_handleopt()
    load_fixtures()
    return 0


def lib(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    import_ns = import_handleopt()
    from handleopt import placement_opt, reporting
    from handleopt.errors import IllConditioned, SingularChain
    from yardstick import in_process as yardstick

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    fixtures = load_fixtures()

    solves = []
    for name, scenario, ctx in fixtures:
        for model in MODELS:
            config = replace(scenario.objective, force_model=model)
            for key in LIMITS:
                limits = scenario.limits if key == "scenario" else placement_opt.JointLimits()
                solves.append((f"{name}/{model}/{key}", scenario, ctx, limits, config))
    reference = job["reference"]
    rng = random.Random(job["seed"])
    now = time.monotonic_ns
    deadline = now() + int(job["seconds"] * 1e9)

    requests, failures = [], []
    queries = query_ns = 0
    yardstick()  # warm-up
    yards = [yardstick()]
    for n in itertools.count():
        order = list(solves)
        rng.shuffle(order)
        for label, scenario, ctx, limits, config in order:
            if tracer is not None:
                tracer.request_id += 1
            # One request: the solve, its point queries and, for the scenario's
            # own settings, the scene drawing that `handleopt render` makes.
            t0 = now()
            placement, land = placement_opt.optimize_placement(
                ctx, limits, config, robot=scenario.robot, floor_y=scenario.floor_y,
            )
            t1 = now()
            n5, n6 = land.theta5.size, land.theta6.size
            cells = [(rng.randrange(n5), rng.randrange(n6)) for _ in range(POINT_QUERIES)]
            angles = [(float(land.theta5[i]), float(land.theta6[j])) for i, j in cells]
            values = []
            t2 = now()
            for t5, t6 in angles:
                try:
                    values.append(placement_opt.objective(t5, t6, ctx, config))
                except (SingularChain, IllConditioned):
                    values.append(None)
            t3 = now()
            svg = None
            if label.endswith("/expanded/scenario"):
                svg = reporting.render_scene(scenario, scenario.max_effort_index, placement)
            t4 = now()
            yards.append(yardstick())
            requests.append((n, (t1 - t0) + (t4 - t2)))
            queries += POINT_QUERIES
            query_ns += t3 - t2

            problems = optimum_problems(
                reference[label],
                [placement.theta5_opt, placement.theta6_opt, placement.handle.x,
                 placement.handle.y, placement.objective_value],
                [int((land.theta5 == placement.theta5_opt).argmax()),
                 int((land.theta6 == placement.theta6_opt).argmax())],
            )
            for (i, j), value in zip(cells, values):
                grid = float(land.objective[i, j])
                if math.isnan(grid) != (value is None) or (
                    value is not None
                    and abs(value - grid) > POINT_RTOL * max(abs(grid), 1.0)
                ):
                    problems.append(f"point query ({i}, {j}) gave {value!r}, grid cell {grid!r}")
                    break
            if svg is not None and not (svg.startswith("<svg") and svg.endswith("</svg>\n")):
                problems.append("render_scene did not return an SVG document")
            if problems:
                failures.append(f"{label}: {'; '.join(problems)}")
        if now() >= deadline:
            break

    result = {
        "t0": T0,
        "import_ns": import_ns,
        "requests": requests,
        "yards": yards,
        "solves": len(requests),
        "queries": queries,
        "query_ns": query_ns,
        "failures": failures,
        "trace": None,
    }
    if tracer is not None:
        tracer.uninstall()
        from tracing import grid_peak_alloc_mb

        result["trace"] = tracer.summary()
        result["peak_alloc_mb"] = grid_peak_alloc_mb(
            [(ctx, limits, config) for _, _, ctx, limits, config in solves])
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


def optimum_problems(ref: dict, got: list[float], argmax_index: list[int]) -> list[str]:
    """Compare (theta5, theta6, handle x, handle y, objective) and the argmax
    cell with a recorded optimum, bit for bit."""
    want = [ref["theta5_rad"], ref["theta6_rad"], *ref["handle_xy_m"], ref["objective_value"]]
    problems = []
    if len(got) != len(want) or not all(same(a, b) for a, b in zip(got, want)):
        problems.append(f"optimum {got!r} != reference {want!r}")
    if list(argmax_index) != ref["argmax_index"]:
        problems.append(f"argmax_index {list(argmax_index)} != reference {ref['argmax_index']}")
    return problems


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "cli":
        sys.exit(cli(rest[0], rest[1:]))
    if mode == "setup":
        sys.exit(setup())
    if mode == "lib":
        sys.exit(lib(rest[0]))
    sys.exit(f"unknown mode {mode!r}")
