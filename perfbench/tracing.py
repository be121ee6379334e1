"""Spans around handleopt's public functions, recorded from outside the package.

Callers look functions up as attributes of their own module (``cli`` calls
``cli.optimize_placement``, ``placement_opt.optimize_placement`` calls
``placement_opt.evaluate_grid``), so replacing every module attribute that is
bound to a traced function with one wrapper sees each call, whichever module
makes it. The package source is not touched.

Spans are kept in memory as parallel arrays (name, parent span, request,
start, end) and reduced to per-name totals and self times when the run ends.
"""

from __future__ import annotations

import importlib
import os
import time
import tracemalloc
from array import array
from collections import Counter

# The layers are the package modules; ``errors`` does no work.
MODULES = ("cli", "scenario_io", "body_model", "arm_kinetics", "placement_opt", "reporting")

# Public functions timed as spans, by defining module.
TRACED = {
    "cli": ("main",),
    "scenario_io": (
        "read_scenario_file", "validate_scenario", "make_context",
        "write_placement_report", "write_landscape_csv",
    ),
    "body_model": ("forward_kinematics", "nonarm_com", "com_velocity", "shoulder_frame"),
    "arm_kinetics": ("build_chain", "arm_force_expanded", "arm_force_lsq"),
    "placement_opt": (
        "optimize_placement", "evaluate_grid", "argmax_lexicographic",
        "objective", "feasibility_check",
    ),
    "reporting": ("render_scene",),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _observe_grid(counters, args, kwargs, landscape, dt_ns):
    model = _arg(args, kwargs, 2, "config").force_model
    obj = landscape.objective
    cells = int(obj.size)
    counters["grid.calls"] += 1
    counters["grid.cells"] += cells
    counters["grid.singular"] += int(cells - (obj == obj).sum())  # NaN cells
    counters["grid.eligible"] += int(landscape.eligible.sum())
    counters[f"grid.cells.{model}"] += cells
    counters[f"grid.ns.{model}"] += dt_ns


def _observe_objective(counters, args, kwargs, value, dt_ns):
    model = _arg(args, kwargs, 3, "config").force_model
    counters[f"objective.calls.{model}"] += 1
    counters[f"objective.ns.{model}"] += dt_ns


def _observe_csv(counters, args, kwargs, result, dt_ns):
    counters["landscape_csv.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _observe_report(counters, args, kwargs, result, dt_ns):
    counters["report_json.bytes"] += os.path.getsize(result[0])


# Counts taken at a boundary when its call returns, outside the span's time.
OBSERVERS = {
    "placement_opt.evaluate_grid": _observe_grid,
    "placement_opt.objective": _observe_objective,
    "scenario_io.write_landscape_csv": _observe_csv,
    "scenario_io.write_placement_report": _observe_report,
}


class Tracer:
    """Records one span per call of a traced function."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("l")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("q")
        self.end = array("q")
        self.counters: Counter = Counter()
        self.request_id = 0
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        stack, now = self._stack, time.monotonic_ns
        name_ids, parents, requests = self.name_id, self.parent, self.request
        starts, ends, counters = self.start, self.end, self.counters

        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request_id)
            ends.append(0)
            stack.append(i)
            starts.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = now()
                stack.pop()
            if observe is not None:
                observe(counters, args, kwargs, result, ends[i] - starts[i])
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Replace every module attribute bound to a traced function."""
        modules = [importlib.import_module("handleopt")]
        modules += [importlib.import_module(f"handleopt.{m}") for m in MODULES]
        wrappers = {}
        for layer, functions in TRACED.items():
            mod = importlib.import_module(f"handleopt.{layer}")
            for fname in functions:
                fn = getattr(mod, fname)
                wrappers[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._installed.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._installed):
            setattr(mod, attr, value)
        self._installed.clear()

    def summary(self) -> dict:
        """Per span name: [calls, total ns, self ns]; plus boundary counters.

        Self time is a span's duration minus the durations of its child
        spans; children of one span never overlap (one thread).
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        spans = {name: [0, 0, 0] for name in self.names}
        for i in range(n):
            row = spans[self.names[self.name_id[i]]]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return {"spans": spans, "counters": dict(self.counters)}


def merge(total: dict, part: dict) -> dict:
    """Add one summary into another, in place."""
    spans = total.setdefault("spans", {})
    for name, row in part["spans"].items():
        acc = spans.setdefault(name, [0, 0, 0])
        for k in range(3):
            acc[k] += row[k]
    counters = total.setdefault("counters", {})
    for key, value in part["counters"].items():
        counters[key] = counters.get(key, 0) + value
    return total


def grid_peak_alloc_mb(solves) -> float:
    """Largest tracemalloc peak, MiB, of evaluate_grid over (ctx, limits, config).

    Measured apart from the timed spans, because tracemalloc slows every
    allocation it sees. NumPy reports its array buffers to tracemalloc.
    """
    from handleopt.placement_opt import evaluate_grid

    peak = 0
    for ctx, limits, config in solves:
        tracemalloc.start()
        try:
            evaluate_grid(ctx, limits, config)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2**20


def span_mean(summary: dict, name: str, scale: float = 1e-9) -> float:
    """Mean duration per call of a span, in seconds (or scaled); 0 if never called."""
    calls, total, _ = summary.get("spans", {}).get(name, (0, 0, 0))
    return total * scale / calls if calls else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, process: dict, peak_alloc_mb: float) -> dict:
    """Per-layer metrics of a traced run.

    ``process`` holds the means over traced child processes of interpreter
    start and ``import handleopt`` (seconds).
    """
    c = summary.get("counters", {})
    calls = {name: row[0] for name, row in summary.get("spans", {}).items()}
    m = {
        "cli.interpreter_s": process["interpreter_s"],
        "cli.import_s": process["import_s"],
        "cli.main_s": span_mean(summary, "cli.main"),
        "scenario_io.read_s": span_mean(summary, "scenario_io.read_scenario_file"),
        "scenario_io.validate_s": span_mean(summary, "scenario_io.validate_scenario"),
        "scenario_io.make_context_s": span_mean(summary, "scenario_io.make_context"),
        "scenario_io.write_report_s": span_mean(summary, "scenario_io.write_placement_report"),
        "scenario_io.landscape_csv_s": span_mean(summary, "scenario_io.write_landscape_csv"),
        "scenario_io.landscape_csv_bytes": ratio(
            c.get("landscape_csv.bytes", 0), calls.get("scenario_io.write_landscape_csv", 0)),
        "scenario_io.report_json_bytes": ratio(
            c.get("report_json.bytes", 0), calls.get("scenario_io.write_placement_report", 0)),
        "body_model.com_velocity_s": span_mean(summary, "body_model.com_velocity"),
        "body_model.forward_kinematics_s": span_mean(summary, "body_model.forward_kinematics"),
        "reporting.render_scene_s": span_mean(summary, "reporting.render_scene"),
        "placement_opt.optimize_s": span_mean(summary, "placement_opt.optimize_placement"),
        "placement_opt.evaluate_grid_s": span_mean(summary, "placement_opt.evaluate_grid"),
        "placement_opt.argmax_s": span_mean(summary, "placement_opt.argmax_lexicographic"),
        "placement_opt.grid_peak_alloc_mb": peak_alloc_mb,
        "placement_opt.cells": ratio(c.get("grid.cells", 0), c.get("grid.calls", 0)),
        "placement_opt.singular_cells": ratio(c.get("grid.singular", 0), c.get("grid.calls", 0)),
        "placement_opt.eligible_ratio": ratio(c.get("grid.eligible", 0), c.get("grid.cells", 0)),
        "arm_kinetics.build_chain_us": span_mean(summary, "arm_kinetics.build_chain", 1e-3),
        "arm_kinetics.force_expanded_us": span_mean(summary, "arm_kinetics.arm_force_expanded", 1e-3),
        "arm_kinetics.force_lsq_us": span_mean(summary, "arm_kinetics.arm_force_lsq", 1e-3),
    }
    for model in ("expanded", "lsq"):
        m[f"placement_opt.cells_per_s.{model}"] = ratio(
            c.get(f"grid.cells.{model}", 0), c.get(f"grid.ns.{model}", 0) * 1e-9)
        m[f"placement_opt.objective_us.{model}"] = ratio(
            c.get(f"objective.ns.{model}", 0) * 1e-3, c.get(f"objective.calls.{model}", 0))
    return m
