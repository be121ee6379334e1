#!/usr/bin/env python3
"""A fixed piece of work that times how fast the machine is right now.

    yardstick.py OUT.csv    one process yardstick: start, import numpy, compute, write OUT.csv

The benchmark times a yardstick next to every request and every set-up probe
and divides by it, so that the speed of a shared machine, which drifts by a
third within minutes, cancels out of the reported figures. A yardstick uses
nothing of handleopt: a change to the program moves the request time and not
the yardstick, and shows in full.

`process()` is the yardstick of the CLI workloads and of set-up: a fresh
interpreter importing numpy, some array arithmetic, a pure-Python loop and
about a MB of CSV text written to a file, as a CLI request does. `in_process()` is
the yardstick of lib_grid: array arithmetic on grids of its size and a loop of
small numpy calls, as a solve and its point queries do.

PROCESS_REF_S and IN_PROCESS_REF_S are round figures for the two yardsticks'
times on the machine the benchmark was sized on (2 CPUs of an Intel Xeon,
105 MB L3, Python 3.11, numpy 2.4, one BLAS thread), whose run medians ranged
over 0.18-0.35 s and 0.016-0.027 s as its speed drifted. A time divided by its
yardstick and multiplied by the reference reads as seconds on that machine at
a typical speed. They are constants: they scale every run alike.
"""

import sys
import time

PROCESS_REF_S = 0.30
IN_PROCESS_REF_S = 0.025

_GRID = None


def in_process() -> int:
    """Run the lib_grid yardstick in this process; return its wall time in ns."""
    global _GRID
    import numpy as np

    if _GRID is None:
        _GRID = np.linspace(0.0, 3.0, 167_281).reshape(409, 409)
    t = time.monotonic_ns()
    a = _GRID
    for _ in range(3):
        b = np.sin(a) * np.cos(a) + a * a
        b = np.where(b > 0.5, b, np.nan)
        np.nanargmax(b)
    m = np.eye(2)
    rhs = np.ones(2)
    s = 0.0
    for i in range(150):
        s += float(np.linalg.solve(m + i * 1e-3, rhs)[0]) + float(np.hypot(s, i))
    return time.monotonic_ns() - t


def process(out_path: str) -> None:
    """The process yardstick's work, after interpreter start."""
    import json  # noqa: F401  (a CLI request imports these too)
    import argparse  # noqa: F401

    import numpy as np

    a = np.linspace(0.0, 1.0, 20_000)
    for _ in range(10):
        b = np.sin(a) * np.cos(a) + a * a
    s = 0
    for i in range(50_000):
        s += i * i
    with open(out_path, "w") as fh:
        fh.write("x,y\n")
        fh.write("\n".join(f"{x!r},{y!r}" for x, y in zip(a.tolist(), b.tolist())))


if __name__ == "__main__":
    process(sys.argv[1])
