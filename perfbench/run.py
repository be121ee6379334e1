#!/usr/bin/env python3
"""The handleopt benchmark.

    python3 perfbench/run.py --workload cli_optimize --seed 1 --seconds 25 --trace 0

Run from the root of a checkout (the program is taken from ./src). Each
workload is a closed loop with one client: the next request starts when the
previous one has finished, so there is never more than this process and one
child. Requests cycle through a seeded order of inputs, and a run always ends
on a whole cycle, so every run sees the same mix.

  cli_optimize  a fresh `python -m handleopt optimize` process per request
  lib_grid      optimize_placement and scalar objective() queries in one warm child
  cli_validate  a fresh `python -m handleopt validate` on fixtures and mutations

Every output is checked (see reference.json). Each request and set-up time is
divided by a yardstick timed next to it (yardstick.py), so that the drifting
speed of a shared machine cancels. With --trace 0 the last line of stdout is a
JSON object with the end-to-end metrics of BENCHMARK.json; with
--trace 1 the run is split into an untraced and a traced half and the JSON
carries the per-layer metrics. Lines before it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from child import FIXTURES, optimum_problems
from yardstick import IN_PROCESS_REF_S, PROCESS_REF_S

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("cli_optimize", "lib_grid", "cli_validate")
SETUP_PROBES = 8
# One BLAS thread per process keeps this process plus one child within the
# two CPUs the benchmark is sized for; handleopt's matrices are 2x2 and 2x3.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_ENV = {
    "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    **THREAD_ENV,
}

KNOWN_DEFECT = "known defect: validate accepts a non-finite number or a huge grid"


@dataclass
class Proc:
    start_ns: int
    end_ns: int
    code: int
    cpu_s: float
    maxrss_kb: int
    stdout: str
    stderr: str

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


def yardstick() -> float:
    """Wall time of one process yardstick (see yardstick.py)."""
    proc = spawn([str(BENCH_DIR / "yardstick.py"), str(WORK / "yardstick.csv")])
    if proc.code != 0:
        raise RuntimeError(f"yardstick exited {proc.code}: {proc.stderr.strip()[-2000:]}")
    return proc.wall_s


def normalized(times: list[float], yards: list[float], ref: float) -> list[float]:
    """Each time over the mean of the yardsticks just before and after it
    (len(yards) == len(times) + 1), in seconds at the reference speed."""
    return [t * 2 * ref / (a + b) for t, a, b in zip(times, yards, yards[1:])]


def spawn(argv: list[str]) -> Proc:
    """Run `python ARGV` to completion; rusage comes from this child alone."""
    out, err = WORK / "stdout", WORK / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    start = time.monotonic_ns()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], CHILD_ENV, file_actions=actions)
    _, status, ru = os.wait4(pid, 0)
    end = time.monotonic_ns()
    return Proc(start, end, os.waitstatus_to_exitcode(status), ru.ru_utime + ru.ru_stime,
                ru.ru_maxrss, out.read_text(errors="replace"), err.read_text(errors="replace"))


# ---------------------------------------------------------------- inputs


@dataclass
class Request:
    argv: list[str]
    label: str
    solves: int
    expect: str = ""  # cli_validate: "ok", a finding code, or "reject"


def fixture_file(name: str) -> str:
    return str(SRC / "handleopt" / "data" / "scenarios" / f"{name}.json")


def set_path(data, path, value):
    for key in path[:-1]:
        data = data[key]
    data[path[-1]] = value


# Fields where the validator at commit c2a92b0 lets a non-finite number
# through. cli_validate expects such a file to be rejected.
NAN_FIELDS = (
    [("objective", "a"), ("objective", "grid_step_deg"), ("floor_y_m",),
     ("total_mass_kg",), ("robot", "reach_limit_m"), ("robot", "handle_length_m"),
     ("robot", "handle_height_range_m", 0), ("robot", "handle_height_range_m", 1)]
    + [("objective", "torque_magnitudes_nm", k) for k in range(3)]
    + [("segments", i, key) for i in range(7) for key in ("length_m", "mass_kg")]
    + [("frames", j, "theta_deg", k) for j in (7, 8, 9) for k in range(6)]
)
INF_FIELDS = (
    [("objective", "a", 1), ("objective", "grid_step_deg", 1), ("floor_y_m", 1),
     ("floor_y_m", -1), ("robot", "reach_limit_m", 1), ("robot", "handle_length_m", 1),
     ("robot", "handle_diameter_m", 1), ("robot", "handle_height_range_m", 0, -1),
     ("robot", "handle_height_range_m", 1, 1)]
    + [("objective", "torque_magnitudes_nm", k, 1) for k in range(3)]
    + [("segments", i, "length_m", 1) for i in range(7)]
)


def _mutations(rng: random.Random, base: dict) -> list[tuple[str, str, dict]]:
    """(expected finding code or "reject", label, mutated scenario) triples."""
    out = []

    def mutated(expect, *edits):
        data = json.loads(json.dumps(base))
        for path, value in edits:
            set_path(data, path, value)
        where = ", ".join(f"{'.'.join(map(str, path))}={value!r}" for path, value in edits)
        out.append((expect, f"{expect} {base['name']} {where}", data))

    n = len(base["frames"])
    lim = base["joint_limits_deg"]
    mutated("length_positive",
            (("segments", rng.randrange(7), "length_m"), -rng.choice([0.0, rng.uniform(0.01, 0.5)])))
    i = rng.randrange(7)
    mutated("mass_closure",
            (("segments", i, "mass_kg"), base["segments"][i]["mass_kg"] + rng.uniform(0.5, 3.0)))
    mutated("max_effort_interior",
            (("max_effort_index",), rng.choice([0, n - 1, n + rng.randrange(5), -1 - rng.randrange(5)])))
    if rng.random() < 0.5:
        mutated("limits_order", (("joint_limits_deg",), [lim[1], lim[0], lim[2], lim[3]]))
    else:
        mutated("limits_order",
                (("joint_limits_deg",), [lim[0], lim[1], lim[3] + rng.uniform(0.0, 10.0), lim[3]]))
    if rng.random() < 0.5:
        mutated("elbow_limit_margin",
                (("joint_limits_deg",), [lim[0], lim[1], rng.uniform(-10.0, 1.9), lim[3]]))
    else:
        mutated("elbow_limit_margin",
                (("joint_limits_deg",), [lim[0], lim[1], lim[2], rng.uniform(178.1, 190.0)]))
    mutated("reject", (rng.choice(NAN_FIELDS), math.nan))
    *path, sign = rng.choice(INF_FIELDS)
    mutated("reject", (tuple(path), sign * math.inf))
    mutated("reject", (("objective", "grid_step_deg"), 1e-7))
    return out


def cycle(workload: str, rng: random.Random, fixtures: dict, serial: itertools.count) -> list[Request]:
    """One whole cycle of requests in seeded order."""
    names = list(fixtures)
    rng.shuffle(names)
    if workload == "cli_optimize":
        return [Request(["optimize", "--scenario", fixture_file(f)], f, 1) for f in names]
    requests = [Request(["validate", "--scenario", fixture_file(f)], f, 0, "ok") for f in names]
    for expect, label, data in _mutations(rng, fixtures[rng.choice(names)]):
        path = WORK / "inputs" / f"{next(serial)}.json"
        path.write_text(json.dumps(data))
        requests.append(Request(["validate", "--scenario", str(path)], label, 0, expect))
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------- checks


def check_optimize(req: Request, out: Path, ref: dict, landscapes: dict, verified: dict) -> list[str]:
    report = json.loads((out / "placement_report.json").read_text())
    problems = optimum_problems(
        ref["optimum"][f"{req.label}/expanded/scenario"],
        [report["optimal"]["theta5_rad"], report["optimal"]["theta6_rad"],
         *report["handle_xy_m"], report["objective_value"]],
        report["grid"]["argmax_index"],
    )
    text = (out / "landscape.csv").read_text()
    if verified.get(req.label) != text:  # identical text parses identically
        csv_problems = check_landscape_csv(text, landscapes[req.label])
        if not csv_problems:
            verified[req.label] = text
        problems += csv_problems
    return problems


def check_landscape_csv(text: str, land) -> list[str]:
    """landscape.csv has n5*n6+1 lines and parses back bit-exact to `land`."""
    import numpy as np

    lines = text.split("\n")
    n5, n6 = land.theta5.size, land.theta6.size
    if lines[-1] != "" or len(lines) - 1 != n5 * n6 + 1:
        return [f"landscape.csv has {len(lines) - 1} lines, expected {n5 * n6 + 1}"]
    if lines[0] != "theta5_deg,theta6_deg,objective,feasible":
        return [f"landscape.csv header {lines[0]!r}"]
    cols = list(zip(*(line.split(",") for line in lines[1:-1])))
    t5 = np.array([math.degrees(float(v)) for v in land.theta5])
    t6 = np.array([math.degrees(float(v)) for v in land.theta6])
    expect = {
        "theta5_deg": (0, np.repeat(t5, n6)),
        "theta6_deg": (1, np.tile(t6, n5)),
        "objective": (2, land.objective.ravel()),
    }
    problems = []
    for name, (k, want) in expect.items():
        got = np.array([float(v) for v in cols[k]])
        nan = np.isnan(want)
        if not (np.array_equal(nan, np.isnan(got))
                and np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))):
            problems.append(f"landscape.csv column {name} differs from the in-process landscape")
    feasible = np.array([v == "true" for v in cols[3]])
    if not np.array_equal(feasible, land.eligible.ravel()):
        problems.append("landscape.csv column feasible differs from the in-process landscape")
    return problems


def check_validate(req: Request, proc: Proc, names: dict) -> tuple[list[str], bool]:
    """(problems, known): known marks accepted non-finite or huge-grid inputs."""
    if "Traceback" in proc.stderr:
        return ["traceback on stderr"], False
    if req.expect == "ok":
        want = rf"^{re.escape(names[req.label])}: 0 error\(s\), \d+ warning\(s\)$"
        last = proc.stdout.strip().split("\n")[-1]
        if proc.code != 0 or not re.match(want, last) or "error[" in proc.stderr:
            return [f"fixture {req.label}: exit {proc.code}, {last!r}"], False
        return [], False
    if req.expect == "reject":
        if proc.code in (1, 2) and "error[" in proc.stderr:
            return [], False
        if proc.code == 0:
            return [f"{KNOWN_DEFECT} (exit 0)"], True
        return [f"non-finite input: exit {proc.code}"], False
    if proc.code != 1 or f"error[{req.expect}]" not in proc.stderr:
        return [f"mutation {req.expect}: exit {proc.code}, stderr {proc.stderr.strip()!r}"], False
    return [], False


# ---------------------------------------------------------------- runs


@dataclass
class Phase:
    requests: list[tuple[int, float]] = field(default_factory=list)  # (cycle, latency s)
    yards: list[float] = field(default_factory=list)  # one before each request and one after the last
    yard_ref: float = PROCESS_REF_S
    cpu_s: float = 0.0
    maxrss_kb: list[int] = field(default_factory=list)
    solves: int = 0
    output_bytes: int = 0
    queries: int = 0
    query_s: float = 0.0
    failures: list[tuple[str, bool]] = field(default_factory=list)
    trace: dict = field(default_factory=dict)
    interpreter_s: list[float] = field(default_factory=list)
    import_s: list[float] = field(default_factory=list)
    peak_alloc_mb: float = 0.0

    @property
    def latencies(self) -> list[float]:
        return [lat for _, lat in self.requests]

    @property
    def normalized(self) -> list[float]:
        return normalized(self.latencies, self.yards, self.yard_ref)


def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_cli(workload: str, seed: int, seconds: float, traced: bool, ctx: dict) -> Phase:
    from tracing import merge

    phase, serial = Phase(), itertools.count()
    rng = random.Random(seed)
    deadline = time.monotonic() + seconds
    spans = WORK / "spans.json"
    phase.yards.append(yardstick())
    for n in itertools.count():
        for req in cycle(workload, rng, ctx["fixture_json"], serial):
            out = WORK / "out"
            args = list(req.argv) if workload == "cli_validate" else [*req.argv, "--out", str(out)]
            if traced:
                proc = spawn([str(BENCH_DIR / "child.py"), "cli", str(spans), *args])
            else:
                proc = spawn(["-m", "handleopt", *args])
            phase.yards.append(yardstick())
            phase.requests.append((n, proc.wall_s))
            phase.cpu_s += proc.cpu_s
            phase.maxrss_kb.append(proc.maxrss_kb)
            phase.solves += req.solves
            known = False
            try:
                if workload == "cli_validate":
                    problems, known = check_validate(req, proc, ctx["names"])
                elif proc.code != 0:
                    problems = [f"exit {proc.code}: {proc.stderr.strip()[-300:]}"]
                else:
                    problems = check_optimize(req, out, ctx["reference"], ctx["landscapes"], ctx["verified_csv"])
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if out.exists():
                phase.output_bytes += tree_bytes(out)
                shutil.rmtree(out)
            if problems:
                phase.failures.append((f"{req.label}: {'; '.join(problems)}", known))
            if traced:
                record = json.loads(spans.read_text())
                spans.unlink()
                phase.interpreter_s.append((record["t0"] - proc.start_ns) * 1e-9)
                phase.import_s.append(record["import_ns"] * 1e-9)
                merge(phase.trace, record["summary"])
        if time.monotonic() >= deadline:
            return phase


def run_lib(seed: int, seconds: float, traced: bool, ctx: dict) -> Phase:
    job_path, result_path = WORK / "job.json", WORK / "result.json"
    job_path.write_text(json.dumps({
        "seed": seed, "seconds": seconds, "trace": traced,
        "reference": ctx["reference"]["optimum"], "result": str(result_path),
    }))
    proc = spawn([str(BENCH_DIR / "child.py"), "lib", str(job_path)])
    if proc.code != 0:
        raise RuntimeError(f"lib_grid child exited {proc.code}: {proc.stderr.strip()[-2000:]}")
    res = json.loads(result_path.read_text())
    return Phase(
        requests=[(n, ns * 1e-9) for n, ns in res["requests"]],
        yards=[ns * 1e-9 for ns in res["yards"]],
        yard_ref=IN_PROCESS_REF_S,
        cpu_s=proc.cpu_s,
        maxrss_kb=[proc.maxrss_kb],
        solves=res["solves"],
        queries=res["queries"],
        query_s=res["query_ns"] * 1e-9,
        failures=[(f, False) for f in res["failures"]],
        trace=res["trace"] or {},
        interpreter_s=[(res["t0"] - proc.start_ns) * 1e-9],
        import_s=[res["import_ns"] * 1e-9],
        peak_alloc_mb=res.get("peak_alloc_mb", 0.0),
    )


def run_phase(workload: str, seed: int, seconds: float, traced: bool, ctx: dict) -> Phase:
    if workload == "lib_grid":
        return run_lib(seed, seconds, traced, ctx)
    return run_cli(workload, seed, seconds, traced, ctx)


def setup_seconds(workload: str, probes: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh set-up processes, and a process yardstick before
    each and after the last.

    CLI workloads: an interpreter doing `import handleopt`. lib_grid: import,
    then load, validate and make_context for the four fixtures.
    """
    if workload == "lib_grid":
        argv = [str(BENCH_DIR / "child.py"), "setup"]
    else:
        argv = ["-c", "import handleopt"]
    times, yards = [], [yardstick()]
    for _ in range(probes):
        proc = spawn(argv)
        if proc.code != 0:
            raise RuntimeError(f"set-up probe exited {proc.code}: {proc.stderr.strip()[-2000:]}")
        times.append(proc.wall_s)
        yards.append(yardstick())
    return times, yards


# ---------------------------------------------------------------- reporting


def quantile(samples: list[float], q: float) -> float:
    """Quantile by linear interpolation between order statistics."""
    xs = sorted(samples)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_quantile(n: int) -> float:
    """Highest quantile up to 0.9 with at least ten of n samples beyond it; at
    least the median, which is all that fewer than 20 samples support."""
    return max(0.5, min(0.9, (n - 10) / n))


def environment(ctx: dict) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "unknown"
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "handleopt").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cells = ctx["max_cells"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l3_cache": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "largest_grid_cells": cells,
        "largest_grid_array_bytes_computed": cells * 8,
    }


def end_to_end(workload: str, phase: Phase, setup: list[float], setup_norm: list[float]
               ) -> tuple[dict, list[str]]:
    lat = phase.normalized
    q = tail_quantile(len(lat))
    metrics = {
        "setup_s": statistics.median(setup_norm),
        "latency_p50_s": quantile(lat, 0.5),
        "latency_p90_s": quantile(lat, q),
        "requests_per_s": len(lat) / sum(lat),
        "peak_rss_mb": statistics.median(phase.maxrss_kb) / 1024,
    }
    every = phase.latencies
    busy = sum(every)
    notes = [
        f"times above are over a yardstick, in s at its reference speed; latency_p90_s is the "
        f"p{q * 100:.0f} of {len(lat)} requests in {phase.requests[-1][0] + 1} whole cycles, the "
        f"highest quantile with ten samples beyond it",
        f"wall clock: p50 {quantile(every, 0.5):.6f} s, p{q * 100:.0f} {quantile(every, q):.6f} s, "
        f"{len(every) / busy:.4f} requests/s, setup_s {statistics.median(setup):.6f} s",
        f"yardstick: median {statistics.median(phase.yards):.6f} s, reference {phase.yard_ref} s, "
        f"quartiles {' '.join(f'{v:.6f}' for v in statistics.quantiles(phase.yards, n=4))}",
        f"setup_s probes (wall clock): {', '.join(f'{s:.4f}' for s in setup)}",
        f"cpu_s_per_request {phase.cpu_s / len(every):.4f} s (user+sys from wait4)",
    ]
    if phase.solves:
        notes.append(f"solves_per_s {phase.solves / busy:.3f} 1/s (wall clock)")
    if phase.queries:
        notes.append(f"point_queries_per_s {phase.queries / phase.query_s:.1f} 1/s (wall clock)")
    if workload == "cli_optimize":
        notes.append(f"output_bytes_per_solve {phase.output_bytes / phase.solves:.1f} bytes "
                     f"(exact total {phase.output_bytes} over {phase.solves} solves)")
    return metrics, notes


def self_time_table(phase: Phase) -> list[str]:
    spans = phase.trace.get("spans", {})
    rows = [f"{'span':<38} {'calls':>8} {'total_s':>10} {'self_s':>10} {'mean_us':>10}"]
    for name, (calls, total, own) in sorted(spans.items(), key=lambda kv: -kv[1][2]):
        if calls:
            rows.append(f"{name:<38} {calls:>8} {total * 1e-9:>10.4f} {own * 1e-9:>10.4f} "
                        f"{total * 1e-3 / calls:>10.2f}")
    return rows


def prepare(workload: str) -> dict:
    """Load what the checks need; import the program from ./src."""
    sys.path.insert(0, str(SRC))
    from handleopt import placement_opt, scenario_io

    ctx = {"reference": json.loads((BENCH_DIR / "reference.json").read_text()),
           "fixture_json": {}, "names": {}, "landscapes": {}, "verified_csv": {}, "solves": []}
    full = placement_opt.JointLimits()
    ctx["max_cells"] = 0
    for name in FIXTURES:
        path = fixture_file(name)
        ctx["fixture_json"][name] = json.loads(Path(path).read_text())
        scenario = scenario_io.load_scenario(path)
        ctx["names"][name] = scenario.name
        step = scenario.objective.grid_step
        limits = (scenario.limits, full) if workload == "lib_grid" else (scenario.limits,)
        for lim in limits:
            n5 = placement_opt.grid_axis(lim.theta5_min, lim.theta5_max, step).size
            n6 = placement_opt.grid_axis(lim.theta6_min, lim.theta6_max, step).size
            ctx["max_cells"] = max(ctx["max_cells"], n5 * n6)
        if workload == "cli_optimize":
            pctx, _ = scenario_io.make_context(scenario)
            ctx["solves"].append((pctx, scenario.limits, scenario.objective))
            _, land = placement_opt.optimize_placement(
                pctx, scenario.limits, scenario.objective,
                robot=scenario.robot, floor_y=scenario.floor_y)
            ctx["landscapes"][name] = land
    return ctx


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; a run always finishes its current cycle")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "handleopt" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'handleopt'}; run from a handleopt checkout",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.update(THREAD_ENV)  # before this process imports numpy

    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "inputs").mkdir(parents=True)
    try:
        ctx = prepare(args.workload)
        env = environment(ctx)
        setup_seconds(args.workload, 1)  # warm-up: byte-compiles ./src
        if args.trace:
            half = args.seconds / 2
            plain = run_phase(args.workload, args.seed, half, False, ctx)
            phase = run_phase(args.workload, args.seed, half, True, ctx)
            result, unit_key = traced_metrics(args.workload, plain, phase, ctx), "per_layer"
            phases = (plain, phase)
            notes = [f"trace overhead: mean latency {statistics.mean(phase.normalized):.6f} s traced, "
                     f"{statistics.mean(plain.normalized):.6f} s untraced, over the yardstick "
                     f"({len(phase.latencies)} and {len(plain.latencies)} requests)"]
            notes += self_time_table(phase)
        else:
            # Half the set-up probes before the run and half after, so that
            # one slow spell of the machine does not set the median.
            before = setup_seconds(args.workload, SETUP_PROBES // 2)
            phase = run_phase(args.workload, args.seed, args.seconds, False, ctx)
            after = setup_seconds(args.workload, SETUP_PROBES - SETUP_PROBES // 2)
            setup = before[0] + after[0]
            setup_norm = normalized(*before, PROCESS_REF_S) + normalized(*after, PROCESS_REF_S)
            result, notes = end_to_end(args.workload, phase, setup, setup_norm)
            unit_key, phases = "end_to_end", (phase,)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in declared[unit_key]}
    if set(units) != set(result):
        print(f"error: metrics {sorted(set(result) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    attempted = sum(len(p.latencies) for p in phases)
    failures = [f for p in phases for f in p.failures]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in result.items():
        print(f"{name} {value!r} {units[name]}")
    for line in notes:
        print(line)
    print(f"failed_ratio {len(failures) / attempted!r} ratio ({len(failures)} of {attempted})")
    for text, known in failures[:20]:
        print(("known: " if known else "FAILED: ") + text)
    print(json.dumps({
        "correct": all(known for _, known in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result.items()},
    }))
    return 0


def traced_metrics(workload: str, plain: Phase, phase: Phase, ctx: dict) -> dict:
    from tracing import grid_peak_alloc_mb, layer_metrics

    if workload == "lib_grid":
        peak = phase.peak_alloc_mb
    elif ctx["solves"]:
        peak = grid_peak_alloc_mb(ctx["solves"])
    else:
        peak = 0.0
    process = {"interpreter_s": statistics.mean(phase.interpreter_s),
               "import_s": statistics.mean(phase.import_s)}
    metrics = layer_metrics(phase.trace, process, peak)
    metrics["trace.overhead_ratio"] = (
        statistics.mean(phase.normalized) / statistics.mean(plain.normalized) - 1.0)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
