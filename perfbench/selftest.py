#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at its smallest size.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about a minute. `--seconds 0` runs
exactly one cycle of each workload, traced and untraced. The test asserts
that every metric BENCHMARK.json names is printed with its unit, that the
other figures are printed, that failed_ratio is that of commit c2a92b0 (0,
except the three non-finite or huge-grid files in each cli_validate cycle of
12), and that the benchmark refuses to run where there is no program.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED_FAILED_RATIO = {"cli_optimize": 0.0, "lib_grid": 0.0, "cli_validate": 3 / 12}
PRINTED = {
    "cli_optimize": ("solves_per_s", "output_bytes_per_solve"),
    "lib_grid": ("solves_per_s", "point_queries_per_s"),
    "cli_validate": (),
}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check(workload: str, trace: int, declared: dict) -> None:
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True, proc.stdout
    assert result["failed"] / result["attempted"] == SEED_FAILED_RATIO[workload], proc.stdout
    section = declared["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for metric in section:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"][name]
        assert got["unit"] == unit and math.isfinite(got["value"]), (name, got)
        assert not trace or got["value"] >= 0 or name == "trace.overhead_ratio", (name, got)
        assert trace or got["value"] > 0, (name, got)
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines), name
    figures = ("failed_ratio",) if trace else ("failed_ratio", *PRINTED[workload])
    for name in figures:
        assert any(line.startswith(f"{name} ") for line in lines[:-1]), (workload, name)
    if trace:
        assert any(line.startswith("trace overhead:") for line in lines), workload
        assert any(line.startswith("span ") and "self_s" in line for line in lines), workload


def check_refuses_without_program() -> None:
    bare = ROOT / ".perfbench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("cli_optimize", 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(SEED_FAILED_RATIO)
    check_refuses_without_program()
    for workload in SEED_FAILED_RATIO:
        for trace in (0, 1):
            check(workload, trace, declared)
            print(f"ok {workload} trace {trace}", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
