"""Hooks that time calls into the package's public functions.

Nothing under ``src/`` is changed: a worker process replaces module (or
class) attributes with timing wrappers before it calls the CLI.  A name
bound into another module with ``from x import f`` is replaced there too,
so every call site goes through the wrapper.

Two kinds of hook exist:

* ``OpClock`` times the workload's unit of work (a flow step, a gap
  evaluation, a CLI subcommand) with one clock read at each end.  It runs
  on timed and traced invocations alike and feeds the end-to-end metrics.
* ``Tracer`` records a span per call of each function in ``LAYERS``: name,
  start, end, parent span and a size taken from the arguments or result.
  Spans stay in memory and are written when the worker ends.
"""

from __future__ import annotations

import importlib
import itertools
import math
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

PACKAGE = "nematic_walls"


def patch(module: str, attr: str, make_wrapper: Callable) -> None:
    """Replace ``module.attr`` (``attr`` may be ``Class.method``) by
    ``make_wrapper(original)``, and rebind every alias of a module-level
    function in the package's public modules."""
    mod = importlib.import_module(module)
    owner = mod
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = getattr(owner, name)
    wrapper = make_wrapper(original)
    setattr(owner, name, wrapper)
    if path:
        return
    for mname, m in list(sys.modules.items()):
        if m is None or m is mod or not mname.startswith(PACKAGE):
            continue
        if mname.rsplit(".", 1)[-1].startswith("_"):
            continue  # private kernels keep their own bindings
        for key, val in list(vars(m).items()):
            if val is original:
                setattr(m, key, wrapper)


def now() -> float:
    """Monotonic clock shared by all processes on the machine."""
    return time.monotonic()


class OpClock:
    """Start/end times of the workload's operations.

    ``on_first_end`` runs once, after the first operation completes; a
    set-up probe uses it to stop the process there.
    """

    def __init__(self, on_first_end: Optional[Callable[[], None]] = None):
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._on_first_end = on_first_end
        self._open = threading.local()

    def start(self) -> None:
        if getattr(self._open, "t0", None) is None:
            self._open.t0 = now()

    def end(self) -> None:
        t0 = getattr(self._open, "t0", None)
        if t0 is None:
            return
        self._open.t0 = None
        self.starts.append(t0)
        self.ends.append(now())
        if len(self.ends) == 1 and self._on_first_end is not None:
            self._on_first_end()

    def around(self, fn):
        def timed(*args, **kwargs):
            self.start()
            result = fn(*args, **kwargs)
            self.end()
            return result
        return timed

    def opens(self, fn):
        def opening(*args, **kwargs):
            self.start()
            return fn(*args, **kwargs)
        return opening

    def closes(self, fn):
        def closing(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.end()
            return result
        return closing

    def install(self, op: str) -> None:
        """Hook the operation of kind ``op``: "step" is one accepted flow
        step; "gap" is one cross-tie minus 1D energy evaluation, from
        building the construction to the 1D minimum; "command" is one CLI
        subcommand and is timed by the worker itself."""
        if op == "step":
            patch(f"{PACKAGE}.gradflow", "FlowSolver.step", self.around)
        elif op == "gap":
            patch(f"{PACKAGE}.crosstie", "build_crosstie", self.opens)
            patch(f"{PACKAGE}.rect1d", "min_energy_1d", self.closes)
        elif op != "command":
            raise ValueError(f"unknown operation kind {op!r}")


# --- sizes taken from arguments and results ----------------------------------

def _points(*arrays) -> int:
    return math.prod(np.broadcast_shapes(*(np.shape(a) for a in arrays)))


def _arc_points(args, kwargs, result):
    return _points(*args[:5])


def _first_size(args, kwargs, result):
    return int(np.size(args[0]))


def _second_size(args, kwargs, result):
    return int(np.size(args[1]))


def _cells(args, kwargs, result):
    n1, n2 = np.shape(args[0])
    return (n1 - 1) * (n2 - 1)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


def _cg_iters(args, kwargs, result):
    return int(result[1])


# (span name, module, attribute, size function); several attributes may
# share a span name (rectangle and polar stencils are merged).
LAYERS = [
    ("gradflow.FlowSolver.step", "gradflow", "FlowSolver.step", None),
    ("gradflow.implicit_solve", "gradflow", "FlowSolver.implicit_solve",
     _cg_iters),
    ("energy.eval_E_eps", "energy", "eval_E_eps", None),
    ("stencils.grad_op", "stencils", "rect_grad_op", None),
    ("stencils.grad_op", "stencils", "polar_grad_op", None),
    ("stencils.div_op", "stencils", "rect_div_op", None),
    ("stencils.div_op", "stencils", "polar_div_op", None),
    ("stencils.grad_form", "stencils", "rect_grad_form", None),
    ("stencils.grad_form", "stencils", "polar_grad_form", None),
    ("stencils.div_form", "stencils", "rect_div_form", None),
    ("stencils.div_form", "stencils", "polar_div_form", None),
    ("characteristics.arc_xy", "characteristics", "arc_xy", _arc_points),
    ("energy.family_bulk_integral", "energy", "family_bulk_integral", None),
    ("energy.wall_energy", "energy", "wall_energy", None),
    ("energy.eval_E0_piecewise", "energy", "eval_E0_piecewise", None),
    ("crosstie.region2_theta_star", "crosstie", "region2_theta_star",
     _first_size),
    ("crosstie.crosstie_energy_per_length", "crosstie",
     "crosstie_energy_per_length", None),
    ("crosstie.build_crosstie", "crosstie", "build_crosstie", None),
    ("crosstie.find_crossing", "crosstie", "find_crossing", None),
    ("crosstie.crosstie_field_sample", "crosstie", "crosstie_field_sample",
     _second_size),
    ("rect1d.min_energy_1d", "rect1d", "min_energy_1d", None),
    ("contours.marching_squares", "contours", "marching_squares", _cells),
    ("contours.contours_to_csv", "contours", "contours_to_csv", _file_bytes),
    ("core.field_to_csv", "core", "field_to_csv", _file_bytes),
    ("disc.build_deg_minus_one", "disc", "build_deg_minus_one", None),
    ("disc.deg_minus_one_sample", "disc", "deg_minus_one_sample",
     _second_size),
]


class Tracer:
    """In-memory spans: [id, parent id (0 = none), name, t0, t1, size]."""

    def __init__(self):
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrapping(self, name: str, size_fn: Optional[Callable]):
        def make(fn):
            def traced(*args, **kwargs):
                stack = self._stack()
                sid = next(self._ids)
                parent = stack[-1] if stack else 0
                stack.append(sid)
                t0 = now()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = now()
                    stack.pop()
                size = size_fn(args, kwargs, result) if size_fn else None
                self.spans.append([sid, parent, name, t0, t1, size])
                return result
            return traced
        return make

    def install(self) -> None:
        for name, module, attr, size_fn in LAYERS:
            patch(f"{PACKAGE}.{module}", attr, self.wrapping(name, size_fn))


def summarize(spans: List[list]) -> Dict[str, dict]:
    """Per span name: calls, busy s, self s (minus direct children), p50
    and first call in ms, and the summed size."""
    child_time: Dict[int, float] = defaultdict(float)
    for _sid, parent, _name, t0, t1, _size in spans:
        if parent:
            child_time[parent] += t1 - t0
    by_name: Dict[str, dict] = {}
    for sid, _parent, name, t0, t1, size in sorted(spans, key=lambda s: s[3]):
        d = by_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                      "durations": [], "size": 0})
        d["calls"] += 1
        d["s"] += t1 - t0
        d["self_s"] += (t1 - t0) - child_time[sid]
        d["durations"].append(t1 - t0)
        if size is not None:
            d["size"] += size
    for d in by_name.values():
        durs = d.pop("durations")
        d["first_ms"] = durs[0] * 1e3
        d["ms_p50"] = float(np.median(durs)) * 1e3
    return by_name


# Per-layer metrics reported by a traced run.  Busy and self time are
# reported as a share of the traced invocation's wall time, so that a
# layer a workload never calls reads 0 % rather than a zero duration; the
# absolute seconds and per-call latencies are printed and written to the
# trace file.  (metric, unit, better)
PER_LAYER = [
    ("gradflow.implicit_solve.calls", "count", "lower"),
    ("gradflow.implicit_solve.share", "%", "lower"),
    ("gradflow.implicit_solve.cg_iters_mean", "count", "lower"),
    ("gradflow.FlowSolver.step.calls", "count", "lower"),
    ("gradflow.FlowSolver.step.self_share", "%", "lower"),
    ("gradflow.step.accept_ratio", "ratio", "higher"),
    ("energy.eval_E_eps.calls", "count", "lower"),
    ("energy.eval_E_eps.share", "%", "lower"),
    ("stencils.grad_op.calls", "count", "lower"),
    ("stencils.grad_op.share", "%", "lower"),
    ("stencils.div_op.calls", "count", "lower"),
    ("stencils.div_op.share", "%", "lower"),
    ("stencils.grad_form.calls", "count", "lower"),
    ("stencils.grad_form.share", "%", "lower"),
    ("stencils.div_form.calls", "count", "lower"),
    ("stencils.div_form.share", "%", "lower"),
    ("characteristics.arc_xy.calls", "count", "lower"),
    ("characteristics.arc_xy.share", "%", "lower"),
    ("characteristics.arc_xy.points", "count", "lower"),
    ("energy.family_bulk_integral.calls", "count", "lower"),
    ("energy.family_bulk_integral.share", "%", "lower"),
    ("energy.wall_energy.share", "%", "lower"),
    ("energy.eval_E0_piecewise.calls", "count", "lower"),
    ("energy.eval_E0_piecewise.share", "%", "lower"),
    ("crosstie.region2_theta_star.calls", "count", "lower"),
    ("crosstie.region2_theta_star.share", "%", "lower"),
    ("crosstie.region2_theta_star.points", "count", "lower"),
    ("crosstie.crosstie_energy_per_length.calls", "count", "lower"),
    ("crosstie.build_crosstie.calls", "count", "lower"),
    ("crosstie.build_crosstie.share", "%", "lower"),
    ("crosstie.gaps_per_grid_point", "ratio", "lower"),
    ("crosstie.find_crossing.share", "%", "lower"),
    ("rect1d.min_energy_1d.calls", "count", "lower"),
    ("rect1d.min_energy_1d.share", "%", "lower"),
    ("contours.marching_squares.calls", "count", "lower"),
    ("contours.marching_squares.share", "%", "lower"),
    ("contours.marching_squares.cells", "count", "lower"),
    ("contours.contours_to_csv.share", "%", "lower"),
    ("contours.contours_to_csv.bytes", "count", "lower"),
    ("core.field_to_csv.share", "%", "lower"),
    ("core.field_to_csv.bytes", "count", "lower"),
    ("disc.build_deg_minus_one.calls", "count", "lower"),
    ("disc.build_deg_minus_one.share", "%", "lower"),
    ("disc.deg_minus_one_sample.share", "%", "lower"),
    ("disc.deg_minus_one_sample.points", "count", "lower"),
    ("crosstie.crosstie_field_sample.share", "%", "lower"),
    ("crosstie.crosstie_field_sample.points", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def layer_metrics(summary: Dict[str, dict], run_s: float,
                  grid_points: int) -> Dict[str, float]:
    """Every PER_LAYER metric except trace.overhead_s, for one traced
    invocation; layers that were not called read 0."""
    def get(layer, key):
        return summary.get(layer, {}).get(key, 0)

    out = {}
    for metric, _unit, _better in PER_LAYER:
        layer, kind = metric.rsplit(".", 1)
        if kind == "calls":
            out[metric] = get(layer, "calls")
        elif kind == "share":
            out[metric] = 100.0 * get(layer, "s") / run_s
        elif kind == "self_share":
            out[metric] = 100.0 * get(layer, "self_s") / run_s
        elif kind in ("points", "cells", "bytes"):
            out[metric] = get(layer, "size")
    solves = get("gradflow.implicit_solve", "calls")
    steps = get("gradflow.FlowSolver.step", "calls")
    gaps = get("crosstie.crosstie_energy_per_length", "calls")
    out["gradflow.implicit_solve.cg_iters_mean"] = (
        get("gradflow.implicit_solve", "size") / solves if solves else 0.0)
    out["gradflow.step.accept_ratio"] = steps / solves if solves else 0.0
    out["crosstie.gaps_per_grid_point"] = (
        gaps / grid_points if grid_points else 0.0)
    return out
