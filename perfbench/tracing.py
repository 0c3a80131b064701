"""In-memory spans around the public calls of each martinlevels module.

The benchmark never edits the package: :func:`install` replaces functions
and methods with timing wrappers at every place they are bound, after the
package is imported and before ``cli.main`` runs.  Each span records its
name, start, end, parent and an optional work count; :func:`summarize`
turns a span list into per-layer durations, self times and call counts.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

# span name -> (module, attribute path) of every function the span wraps.
# Membership (geometry.contains) is wrapped on every Domain class and on
# ConvexBody, whose scalar calls build the ring's boundary data.
TARGETS = {
    "cli.main": [("cli", "main")],
    "geometry.hull": [("geometry", "convex_hull_2d")],
    "fields.value": [("fields", "HolomorphicReField.value"),
                     ("fields", "CylinderModeField.value")],
    "fields.check": [("fields", "harmonicity_residual"), ("fields", "boundary_vanishing")],
    "greenratio.build_grid": [("greenratio", "build_grid")],
    "greenratio.solve": [("greenratio", "solve_dirichlet")],
    # private: no public call reports CG iterations, so the operator
    # application is counted directly.
    "greenratio.matvec": [("greenratio", "_apply_neg_laplacian")],
    "greenratio.probe": [("greenratio", "GridField.value")],
    "greenratio.ring_data": [("greenratio", "ring_dirichlet_data"),
                             ("greenratio", "inner_body_nodes")],
    "greenratio.superlevel": [("greenratio", "superlevel_boundary_nodes"),
                              ("greenratio", "superlevel_nodes")],
    "levelset.extract": [("levelset", "extract_level_curve")],
    "levelset.certify": [("levelset", "convexity_test")],
    "levelset.strictness": [("levelset", "classify_strictness")],
    "slices.scan": [("slices", "slice_scan"), ("slices", "ray_monotonicity")],
    "export.write": [("export", "write_json"), ("export", "write_csv"),
                     ("export", "write_svg_levels")],
}
CONTAINS = "geometry.contains"
SPAN_NAMES = sorted(list(TARGETS) + [CONTAINS])


def _solve_unknowns(args, kwargs, result):
    grid = kwargs["grid"] if "grid" in kwargs else args[0]
    return grid.interior_count()


def _extract_vertices(args, kwargs, result):
    return sum(len(c.vertices) for c in result)


def _written_bytes(args, kwargs, result):
    return os.path.getsize(kwargs["path"] if "path" in kwargs else args[0])


# span name -> (metric name, reader) of the work count its spans carry.
COUNTS = {
    "greenratio.solve": ("greenratio.unknowns", _solve_unknowns),
    "levelset.extract": ("levelset.vertices", _extract_vertices),
    "export.write": ("export.bytes", _written_bytes),
}


class Tracer:
    """Collects spans as ``[name, start, end, parent_index, count]`` lists.

    Times come from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), so a
    parent process can compare them with its own spawn timestamps.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.missing = []

    def wrap(self, name, fn):
        counter = COUNTS.get(name, (None, None))[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self.spans.append(span)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[1] = t0
                self._stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "martinlevels" or n.startswith("martinlevels."))]


def _rebind(original, wrapper):
    """Replace every module-level binding of ``original`` in the package."""
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer):
    """Wrap every target; names that no longer exist go to ``tracer.missing``."""
    import martinlevels.cli  # imports every layer module
    pkg = martinlevels
    for name, targets in TARGETS.items():
        for module, path in targets:
            owner = getattr(pkg, module, None)
            *outer, leaf = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                tracer.missing.append(f"{module}.{path}")
                continue
            wrapper = tracer.wrap(name, fn)
            if outer:
                setattr(owner, leaf, wrapper)
            else:
                _rebind(fn, wrapper)
    geometry = pkg.geometry
    for _, cls in inspect.getmembers(geometry, inspect.isclass):
        if issubclass(cls, (geometry.Domain, geometry.ConvexBody)):
            for method in ("contains", "contains_closure"):
                if method in vars(cls):
                    setattr(cls, method, tracer.wrap(CONTAINS, vars(cls)[method]))


def missing_spans(missing):
    """Span names with a wrapped function among the ``missing`` paths."""
    return {span for span, targets in TARGETS.items()
            if any(f"{m}.{p}" in missing for m, p in targets)}


def summarize(spans):
    """Per span name: outermost duration, self time, calls and work count.

    A span nested in a span of the same name adds to the call count but not
    to the duration.  Self time is a span's duration minus the durations of
    its direct children, so self times over all names add up to the
    duration of the root spans.
    """
    out = {n: {"s": 0.0, "self_s": 0.0, "calls": 0, "count": 0} for n in SPAN_NAMES}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for k, (name, start, end, parent, count) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[k]
        if count is not None:
            row["count"] += count
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["s"] += end - start
    return out


def matvec_seconds_and_nodes(spans):
    """Matvec seconds and the interior unknowns they covered, summed.

    Each matvec counts the unknowns of the solve that issued it, so the
    ratio of the two is the time per node of one operator application.
    """
    seconds, nodes = 0.0, 0
    for name, start, end, parent, _ in spans:
        if name != "greenratio.matvec":
            continue
        p = parent
        while p >= 0 and spans[p][0] != "greenratio.solve":
            p = spans[p][3]
        if p >= 0 and spans[p][4]:
            seconds += end - start
            nodes += spans[p][4]
    return seconds, nodes
