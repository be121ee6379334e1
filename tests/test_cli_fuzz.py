"""The fuzz gate for the two-outcome contract: a scenario file is either
rejected with a documented exit code and a stable code, or it gives finite
output that a rerun repeats byte for byte. run_checked is the contract's
one checker; test_cli.py's seeded sweep of numeric mutations per fixture
runs through it too, so a change to the contract is made here.

Hypothesis mutates the packaged fixtures' JSON trees. It scales, flips,
replaces, deletes, copies and adds keys and values, with strings that hold
control, surrogate and markup characters and numbers at the extremes. Each
mutated file runs in-process through validate, analyze, optimize and render
at a 5 degree grid, through render --no-placement and through a two-value
sweep at a 10 degree grid, since a fresh process per run would cost 80-250
ms. A file that optimize solves runs optimize and the sweep once more under
--constrained with a robot base near the optimal handle or far from it.
stdout and stderr are strict UTF-8 streams, so a lone surrogate that
reaches them raises.
"""

import contextlib
import copy
import io
import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from handleopt import fixture_path
from handleopt.cli import main

from oracles import finite, is_number, list_fixtures, node_at, node_paths

FIXTURES = [json.loads(fixture_path(name).read_text()) for name in list_fixtures()]

EXIT_CODES = {0, 1, 2, 3}  # success, failed validation, parse/schema/usage/IO, numeric
# The one line that main prints for a command it refuses.
ERROR_LINE = re.compile(r"error\[(parse|schema|validation|numeric|usage|io)\]: [^\n]*\n")
# What validate prints to stderr for a scenario with error findings.
FINDING_LINES = re.compile(r"(error\[[a-z_]+\]: [^\n]*\n)+")
# What the other commands print to stderr, first, for a scenario that passes
# validation with warnings.
WARNING_LINES = re.compile(r"(warning\[[a-z_]+\]: [^\n]*\n)*")
C0_BUT_NEWLINE_AND_TAB = re.compile("[\x00-\x08\x0b-\x1f]")
GRID = ("--grid-step-deg", "5")
SWEEP = ("--grid-step-deg", "10", "--range=0,0.2,0.2")

ODD_CHARACTERS = ["\x00", "\x07", "\x1b[31m", "\r", "\t", "\n", "\x7f", "\x85", "\ud800",
                  "\udfff", "\ufffe", "\uffff", "\u202e", "<", ">", "&", "]]>", '"', "'",
                  "\\", "{", "%s", "é", "\U0001f600", " "]
strings = st.one_of(
    st.lists(st.sampled_from(ODD_CHARACTERS), max_size=4).map("".join),
    st.text(max_size=6),
)
EXTREME_NUMBERS = [0, -0.0, 1, -1, 5e-324, -5e-324, 1e-300, 1e-9, 1e16, 1e300, -1e300,
                   1.7976931348623157e308, math.inf, -math.inf, math.nan, 2**53 + 1,
                   -(2**63), 10**400]
numbers = st.one_of(st.sampled_from(EXTREME_NUMBERS), st.floats(), st.integers(-1000, 1000))
values = st.recursive(
    st.one_of(numbers, strings, st.booleans(), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(strings, inner, max_size=3)),
    max_leaves=6,
)


# How often each mutation is drawn: the ones that keep the schema's types
# come first and most often, so that most files get past the schema check.
MUTATIONS = (["scale"] * 6 + ["number"] * 3 + ["flip"] * 3 + ["string", "add"] * 2
             + ["copy", "replace", "delete"])
# The values each mutation applies to; the others apply to any value.
TARGETS = {
    "scale": lambda x: isinstance(x, float),
    "number": is_number,
    "flip": is_number,
    "string": lambda x: isinstance(x, str),
    "add": lambda x: isinstance(x, (dict, list)),
}


@st.composite
def mutated_scenarios(draw):
    """A fixture's JSON tree after one to three mutations."""
    tree = copy.deepcopy(draw(st.sampled_from(FIXTURES)))
    keys = sorted({k for p in node_paths(tree) for k in p if isinstance(k, str)})
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(MUTATIONS))
        paths = node_paths(tree, TARGETS.get(op))
        if op == "delete":
            paths = paths[1:]  # all but the root
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        node = node_at(tree, path)
        if op == "delete":
            del node_at(tree, path[:-1])[path[-1]]
            continue
        if op == "add":
            value = draw(values)
            if isinstance(node, dict):
                node[draw(st.one_of(st.sampled_from(keys), strings))] = value
            else:
                node.insert(draw(st.integers(0, len(node))), value)
            continue
        if op == "scale":
            new = node * draw(st.sampled_from([0.1, 0.5, 0.9, 1.1, 2.0, 10.0]))
        elif op == "flip":
            new = -node
        elif op == "number":
            new = draw(numbers)
        elif op == "string":
            new = draw(strings)
        elif op == "copy":
            new = copy.deepcopy(node_at(tree, draw(st.sampled_from(node_paths(tree)))))
        else:
            new = draw(values)
        if path:
            node_at(tree, path[:-1])[path[-1]] = new
        else:
            tree = new
    return tree


def slow(tree):
    """Make a scenario's COM barely move: every frame takes the max-effort
    pose, on a base that drifts 10 um a frame. It then passes validation
    with a slow_com warning."""
    pose = tree["frames"][tree["max_effort_index"]]["theta_deg"]
    for i, frame in enumerate(tree["frames"]):
        frame["base_xy_m"] = [i * 1e-5, 0.0]
        frame["theta_deg"] = pose
    return tree


def run(*argv):
    """main's exit code, stdout and stderr, each stream strict UTF-8."""
    streams = [io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for _ in range(2)]
    with contextlib.redirect_stdout(streams[0]), contextlib.redirect_stderr(streams[1]):
        code = main(list(argv))
    for stream in streams:
        stream.flush()
    out, err = (stream.buffer.getvalue().decode("utf-8") for stream in streams)
    return code, out, err


def written(out_dir):
    """Each file under out_dir by name, as bytes."""
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} if out_dir.exists() else {}


def printed_numbers_are_finite(out):
    """Whether every number in optimize's stdout, the scenario's name and the
    path of the files it wrote aside, is finite."""
    lines = [line for line in out.splitlines() if not line.startswith(("scenario: ", "wrote "))]
    for token in " ".join(lines).split():
        try:
            value = float(token.strip("[],"))
        except ValueError:
            continue
        if not math.isfinite(value):
            return False
    return True


def check_outcome(command, code, out, err, out_dir, warnings=None):
    """The two-outcome contract for one run's exit code, streams and output
    directory. warnings, when given, is the warning lines that validate
    printed for the same file and flags: every other command prints them on
    stderr unless the file fails validation, and then it prints its one
    error line alone. Returns each file written, by name, as bytes."""
    files = written(out_dir)
    assert code in EXIT_CODES, (command, code, err)
    for text in (out, err, *(b.decode("utf-8") for b in files.values())):
        assert not C0_BUT_NEWLINE_AND_TAB.search(text), (command, text[:500])
    shown = "" if command == "validate" else WARNING_LINES.match(err).group()
    if warnings is not None and code != 1:
        assert shown == warnings, (command, shown, warnings)
    if code == 0:
        assert err == shown, (command, err)
        return files
    if command == "validate" and code == 1:
        assert FINDING_LINES.fullmatch(err), err
        assert out.endswith(" warning(s)\n"), out
    else:
        assert ERROR_LINE.fullmatch(err[len(shown):]), (command, code, err)
        assert code != 1 or not shown, (command, err)
        assert out == "", (command, out)
    assert not out_dir.exists(), (command, sorted(files))


def check_landscape(report, csv):
    """landscape.csv holds a header and one four-field row per grid cell,
    and the argmax cell's row holds the report's objective value."""
    lines = csv.split("\n")
    n5, n6 = report["grid"]["theta5_points"], report["grid"]["theta6_points"]
    assert lines[0] == "theta5_deg,theta6_deg,objective,feasible", lines[0]
    assert lines[-1] == "" and len(lines) == n5 * n6 + 2, (len(lines), n5, n6)
    rows = [line.split(",") for line in lines[1:-1]]
    assert all(len(row) == 4 and row[3] in ("true", "false") for row in rows)
    cells = [[float(x) for x in row[:3]] for row in rows]
    i5, i6 = report["grid"]["argmax_index"]
    assert cells[i5 * n6 + i6][2] == report["objective_value"], (i5, i6)


def run_checked(argv, out_dir, warnings=None):
    """Run main on argv, check the two-outcome contract (see check_outcome),
    and for a solved optimize or sweep check its output. A solved optimize
    or sweep, and a successful render --no-placement, must repeat every
    byte on a rerun. Returns the exit code, stdout and the files written."""
    command = argv[0]
    code, out, err = run(*argv)
    files = check_outcome(command, code, out, err, out_dir, warnings)
    if command in ("optimize", "sweep") and code == 0:
        assert printed_numbers_are_finite(out), out
        if command == "optimize":
            report = json.loads(files["placement_report.json"])
            assert all(math.isfinite(node_at(report, p))
                       for p in node_paths(report, is_number)), report
            check_landscape(report, files["landscape.csv"].decode("utf-8"))
        else:
            rows = files["sweep.csv"].decode("utf-8").splitlines()[1:]
            assert all(math.isfinite(float(x)) for row in rows for x in row.split(",")), rows
    if code == 0 and (command in ("optimize", "sweep") or "--no-placement" in argv):
        assert run(*argv) == (code, out, err)
        assert written(out_dir) == files
    return code, out, files


# An offset of the robot base from the optimal handle, within reach_limit_m
# of it or not. A base near the float range has its own test below.
offsets = st.one_of(finite(-0.6, 0.6), finite(-1e6, 1e6))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(scenario=mutated_scenarios(), robot_offset=st.tuples(offsets, offsets),
       optimize_exit=st.none())
@example(scenario=FIXTURES[0], robot_offset=(0.0, 0.0), optimize_exit=0)
@example(scenario={**FIXTURES[0], "name": "a\x07\x1b[31mb\ud800"}, robot_offset=(0.0, 0.0),
         optimize_exit=1)
# a file with a warning whose constrained solves fail: the warning, then one
# error line, and nothing written
@example(scenario=slow(copy.deepcopy(FIXTURES[0])), robot_offset=(50.0, 50.0), optimize_exit=0)
def test_mutated_scenarios_are_rejected_with_a_code_or_give_finite_reproducible_output(
        tmp_path_factory, scenario, robot_offset, optimize_exit):
    # optimize_exit pins optimize's exit code in the examples, so that both a
    # solved and a rejected file stay among them
    root = tmp_path_factory.mktemp("fuzz")
    path = root / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    runs = [
        ("validate", GRID),
        ("analyze", ()),
        ("optimize", GRID),
        ("render", GRID),
        ("render", ("--no-placement",)),
        ("sweep", SWEEP),
    ]
    warnings = None
    for i, (command, flags) in enumerate(runs):
        out_dir = root / f"{i}_{command}"
        argv = (command, "--scenario", str(path), *flags)
        if command != "validate":  # validate writes nothing and takes no --out
            argv += ("--out", str(out_dir))
        code, out, files = run_checked(argv, out_dir, warnings)
        if command == "validate" and code == 0:
            warnings = "".join(f"{line}\n" for line in out.splitlines()
                               if line.startswith("warning["))
        if command != "optimize":
            continue
        assert optimize_exit in (None, code), (optimize_exit, code)
        if code == 0:
            handle = json.loads(files["placement_report.json"])["handle_xy_m"]
            base = ",".join(repr(h + d) for h, d in zip(handle, robot_offset))
            for solve, solve_flags in (("optimize", GRID), ("sweep", SWEEP)):
                robot_dir = root / f"{solve}_robot"
                run_checked((solve, "--scenario", str(path), *solve_flags, "--out", str(robot_dir),
                             "--constrained", f"--robot-base={base}"), robot_dir, warnings)


def test_a_robot_base_near_the_float_range_gives_a_code_or_finite_output(tmp_path):
    path = str(fixture_path(list_fixtures()[0]))
    for name, flags in (("free", ()), ("constrained", ("--constrained",))):
        out_dir = tmp_path / name
        run_checked(("optimize", "--scenario", path, *GRID, "--out", str(out_dir),
                     "--robot-base=1.7976931348623157e308,1e308", *flags), out_dir)


def test_a_robot_base_on_the_scenario_bound_gives_finite_output(tmp_path):
    # a coordinate may lie within 1e6 m of zero, as every scenario number must
    path = str(fixture_path(list_fixtures()[0]))
    for base, want in (("1e6,0", 0), ("1.000001e6,0", 2)):
        out_dir = tmp_path / str(want)
        code, _, _ = run_checked(("optimize", "--scenario", path, *GRID, "--out", str(out_dir),
                                  f"--robot-base={base}"), out_dir)
        assert code == want, (base, code)
