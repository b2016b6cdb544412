"""Spans around the calls into each ``ldp_hull`` module, recorded from outside.

Each public function is wrapped at the binding its caller looks up (the
module attribute behind ``inc.cumulant``, the name ``arc_parametrization``
imported into ``solver``, and so on), so no file of the program changes.
Spans (name, start, end, parent, rows, family) are kept in memory and written
out when the run ends.  A span's self time is its duration minus the time its
child spans cover; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time

import numpy as np


def _rows_planar(args, kwargs):
    u = kwargs.get("u", args[1] if len(args) > 1 else None)
    return int(np.size(u) // 2)


def _rows_line(args, kwargs):
    w = kwargs.get("w", args[1] if len(args) > 1 else None)
    return int(np.size(w))


def _rows_rate_batch(args, kwargs):
    v = kwargs.get("V", args[1] if len(args) > 1 else None)
    return int(np.size(v) // 2)


def _family(args, kwargs):
    model = kwargs.get("model", args[0] if args else None)
    kind = type(getattr(model, "kind", None)).__name__
    return {"Gaussian": "gauss", "Atoms": "atoms", "Graph1D": "graph"}.get(kind, "other")


KERNEL = "increments.kernel"
HULL = "polyline.hull"

# (module, attribute, span name, rows, family): every binding a caller uses.
BINDINGS = [
    ("ldp_hull.increments", "cumulant", KERNEL, _rows_planar, None),
    ("ldp_hull.increments", "cumulant_gradient", KERNEL, _rows_planar, None),
    ("ldp_hull.increments", "cumulant_hessian", KERNEL, _rows_planar, None),
    ("ldp_hull.increments", "y_cumulant", KERNEL, _rows_line, None),
    ("ldp_hull.increments", "y_cumulant_d1", KERNEL, _rows_line, None),
    ("ldp_hull.increments", "y_cumulant_d2", KERNEL, _rows_line, None),
    ("ldp_hull.solver", "rate_of_area", "solver.rate_of_area", None, _family),
    ("ldp_hull.solver", "arc_parametrization", "levelset.arc_parametrization", None, None),
    ("ldp_hull.levelset", "arc_parametrization", "levelset.arc_parametrization", None, None),
    ("ldp_hull.levelset", "trace_level", "levelset.trace_level", None, None),
    ("ldp_hull.legendre", "rate_batch", "legendre.rate_batch", _rows_rate_batch, None),
    ("ldp_hull.legendre", "rate_1d", "legendre.rate_1d", None, None),
    ("ldp_hull.legendre", "rate_1d_gradient", "legendre.rate_1d_gradient", None, None),
    ("ldp_hull.oracle", "minimize_discrete", "oracle.minimize_discrete", None, None),
    ("ldp_hull.polyline", "convexify", "polyline.convexify", None, None),
    ("ldp_hull.polyline", "convex_hull_vertices", HULL, None, None),
    ("ldp_hull.increments", "convex_hull_vertices", HULL, None, None),
    ("ldp_hull.legendre", "convex_hull_vertices", HULL, None, None),
    ("ldp_hull.montecarlo", "convex_hull_vertices", HULL, None, None),
    ("ldp_hull.montecarlo", "hull_area_points", HULL, None, None),
    ("ldp_hull.montecarlo", "estimate_ldp", "montecarlo.estimate_ldp", None, None),
]

TILT_CHILDREN = ("solver.rate_of_area", "legendre.rate_batch", "legendre.rate_1d_gradient")


class Tracer:
    """Records spans while ``enabled``; only calls on the installing thread."""

    def __init__(self):
        self.spans: list = []
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list = []
        self._thread = threading.get_ident()

    def install(self) -> None:
        for modname, attr, name, rows, family in BINDINGS:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            setattr(mod, attr, self._wrap(orig, name, rows, family))
            self._patches.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def _wrap(self, fn, name, rows, family):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled or threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            return tracer.call(name, fn, args, kwargs, rows, family)

        return traced

    def call(self, name, fn, args=(), kwargs=None, rows=None, family=None):
        kwargs = kwargs or {}
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (
                name,
                start,
                end,
                parent,
                rows(args, kwargs) if rows else 0,
                family(args, kwargs) if family else None,
            )

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


def dump(path, rounds: list[list]) -> None:
    """Write the spans of every traced round as JSON rows
    ``[name, start, end, parent, rows, family]``."""
    with open(path, "w") as fh:
        json.dump(rounds, fh)


def layer_metrics(spans: list) -> tuple[dict, dict]:
    """Per-layer times and counts of one traced round.

    A span nested inside a span of the same name (``cumulant`` calling
    ``y_cumulant``, ``hull_area_points`` calling ``convex_hull_vertices``) is
    part of its outer span and is neither timed nor counted again.
    """
    n = len(spans)
    dur = np.array([s[2] - s[1] for s in spans]) if n else np.zeros(0)
    child_time = np.zeros(n)
    ancestors: list = [frozenset()] * n
    for i, (name, _s, _e, parent, _r, _f) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += dur[i]
            ancestors[i] = ancestors[parent] | {spans[parent][0]}
    times: dict[str, float] = {}
    counts: dict[str, int] = {}

    def add(d, key, v):
        d[key] = d.get(key, 0) + v

    for i, (name, _s, _e, parent, rows, family) in enumerate(spans):
        self_t = dur[i] - child_time[i]
        if name in ancestors[i]:
            continue
        add(times, name + "_s", dur[i])
        add(counts, name + "_calls", 1)
        add(counts, name + "_rows", rows)
        add(times, name + ".self_s", self_t)
        if family:
            add(times, f"{name}_s.{family}", dur[i])
        if parent >= 0 and spans[parent][0] == "montecarlo.estimate_ldp" and name in TILT_CHILDREN:
            add(times, "montecarlo.tilt_solve_s", dur[i])
    return times, counts
