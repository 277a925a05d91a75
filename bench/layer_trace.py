"""Per-layer tracing of one `run_experiment`, installed from outside `src/`.

Each public function on the run's path is replaced by a wrapper at every
`adaptfd` module attribute bound to it (for example `regrid` is called
through `adaptivity` and `solvers`, `build_quadtree` through `adaptivity`
and `harness`), and methods are replaced on their class.  A wrapper records
the call's self time (its duration minus that of traced callees) under one
layer metric, and its counters are taken from arguments and return values,
never from wall-clock fields of the artifacts.

Spans opened while no other span is open are top-level; their summed
duration over the traced wall time of the run is `trace.coverage`, and the
rest of that wall time is `harness.other_s`.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict

# artifacts whose wall-clock fields change their length from run to run;
# leaving them out of harness.artifact_bytes keeps that counter exact
_WALL_CLOCK_ARTIFACTS = ("solver_log.csv", "report.csv")

# every per-layer metric, with its unit; the order is the report's order
METRICS = {
    "grid.build_s": "s", "grid.classify_s": "s", "grid.interpolate_s": "s",
    "grid.interpolate_calls": "count", "grid.builds": "count",
    "grid.nodes_built": "count", "grid.build_ops": "count",
    "grid.nodes_final": "count", "grid.cells_final": "count",
    "adaptivity.criteria_s": "s", "adaptivity.refine_s": "s",
    "adaptivity.regrid_s": "s", "adaptivity.regrids": "count",
    "adaptivity.regrid_changed_ratio": "ratio",
    "adaptivity.requests": "count",
    "stencils.laplacian_s": "s", "stencils.one_sided_s": "s",
    "stencils.nnz": "count",
    "operators.assemble_s": "s", "operators.assemblies": "count",
    "operators.residual_s": "s", "operators.residual_calls": "count",
    "operators.lipschitz_s": "s", "operators.lipschitz_calls": "count",
    "operators.jacobian_s": "s",
    "solvers.newton_s": "s", "solvers.newton_solves": "count",
    "solvers.newton_iters": "count", "solvers.spsolve_s": "s",
    "solvers.schedule_s": "s", "solvers.euler_s": "s",
    "solvers.euler_steps": "count", "solvers.group_visits": "count",
    "solvers.node_updates": "count", "solvers.driver_s": "s",
    "contour.extract_s": "s", "contour.points": "count",
    "harness.preset_s": "s", "harness.report_s": "s",
    "harness.artifacts_s": "s", "harness.artifact_bytes": "bytes",
    "harness.other_s": "s",
    "trace.coverage": "ratio", "trace.overhead": "ratio",
}

# metrics that must repeat exactly between two runs of the same code and seed
EXACT = tuple(name for name, unit in METRICS.items()
              if unit in ("count", "bytes")) + ("adaptivity.regrid_changed_ratio",)


class Tracer:
    """Self time per metric, top-level span time and integer counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.top_s = 0.0
        self._open = []      # per open span: time covered by its traced callees

    def wrap(self, fn, metric, after=None):
        """fn with its self time added to `metric`; after(result, *args,
        **kwargs) updates counters once the span has closed."""
        clock = time.perf_counter
        opened = self._open
        self_s = self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self_s[metric] += dur - opened.pop()
                if opened:
                    opened[-1] += dur
                else:
                    self.top_s += dur
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return traced

    def count(self, name, n=1):
        self.counts[name] += n


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _targets(tr):
    """(owner, attribute, metric, counter hook) for every traced callable."""
    import scipy.sparse.linalg as spla
    from adaptfd import (adaptivity, contour, grid, harness, operators,
                         solvers, stencils, svgplot)

    def built(g, *a, **k):
        tr.count("grid.builds")
        tr.count("grid.nodes_built", g.n_nodes())
        tr.count("grid.build_ops", g.build_ops)

    def regridded(out, *args, **kwargs):
        tr.count("adaptivity.regrids")
        tr.count("adaptivity.requests", len(_arg(args, kwargs, 2, "requests")))
        if out[0] is not _arg(args, kwargs, 0, "grid"):
            tr.count("adaptivity.regrids_changed")

    def stepped(out, *args, **kwargs):
        sched = _arg(args, kwargs, 3, "schedule")
        tr.count("solvers.group_visits", len(sched.schedule))
        tr.count("solvers.node_updates",
                 sum(len(sched.groups[g]) for g in sched.schedule))

    def written(out, path, text):
        if os.path.basename(path) not in _WALL_CLOCK_ARTIFACTS:
            tr.count("harness.artifact_bytes", len(text.encode("utf-8")))

    def counter(name):
        return lambda *a, **k: tr.count(name)

    return [
        (grid, "build_quadtree", "grid.build_s", built),
        (grid, "classify_nodes", "grid.classify_s", None),
        (grid.QuadtreeGrid, "interpolate", "grid.interpolate_s",
         counter("grid.interpolate_calls")),
        (adaptivity, "evaluate_criteria", "adaptivity.criteria_s", None),
        (adaptivity, "compute_refinement", "adaptivity.refine_s", None),
        (adaptivity, "cells_as_requests", "adaptivity.refine_s", None),
        (adaptivity, "regrid", "adaptivity.regrid_s", regridded),
        (stencils, "laplacian_system", "stencils.laplacian_s",
         lambda out, *a, **k: tr.count("stencils.nnz", out[0].nnz)),
        (stencils, "one_sided_matrices", "stencils.one_sided_s", None),
        (operators, "instantiate_builtin", "operators.assemble_s", None),
        (operators.OperatorSpec, "__post_init__", "operators.assemble_s",
         counter("operators.assemblies")),
        (operators.OperatorSpec, "residual", "operators.residual_s",
         counter("operators.residual_calls")),
        (operators.OperatorSpec, "lipschitz", "operators.lipschitz_s",
         counter("operators.lipschitz_calls")),
        (operators.OperatorSpec, "jacobian", "operators.jacobian_s", None),
        (solvers, "newton_solve", "solvers.newton_s",
         counter("solvers.newton_solves")),
        (spla, "spsolve", "solvers.spsolve_s", None),
        (solvers, "build_schedule", "solvers.schedule_s", None),
        (solvers, "euler_step", "solvers.euler_s", stepped),
        (solvers, "evolve", "solvers.driver_s", None),
        (contour, "extract_contour", "contour.extract_s",
         lambda out, *a, **k: tr.count("contour.points",
                                       sum(len(p) for p in out))),
        (harness, "make_preset", "harness.preset_s", None),
        (harness, "uniform_requests", "harness.preset_s", None),
        (harness, "resource_report", "harness.report_s", None),
        (harness, "atomic_write", "harness.artifacts_s", written),
        (harness, "solution_csv", "harness.artifacts_s", None),
        (harness, "contour_csv", "harness.artifacts_s", None),
        (harness, "report_csv", "harness.artifacts_s", None),
        (harness, "solver_log_csv", "harness.artifacts_s", None),
        (grid.QuadtreeGrid, "dump", "harness.artifacts_s", None),
        (svgplot, "grid_svg", "harness.artifacts_s", None),
        (svgplot, "solution_svg", "harness.artifacts_s", None),
    ]


def _bindings(owner, attr):
    """Every (namespace, name) through which owner.attr is reachable: the
    owner itself, and for a module function each adaptfd module that
    imported it by name."""
    fn = getattr(owner, attr)
    found = [(owner, attr)]
    if isinstance(owner, type):
        return found
    for mod_name, mod in list(sys.modules.items()):
        if mod is owner or not (mod_name == "adaptfd"
                                or mod_name.startswith("adaptfd.")):
            continue
        for name, value in vars(mod).items():
            if value is fn:
                found.append((mod, name))
    return found


@contextlib.contextmanager
def installed(tr):
    """Trace every target while the block runs; restore them afterwards."""
    from adaptfd import solvers

    saved = []

    def patch(owner, attr, wrapper):
        for ns, name in _bindings(owner, attr):
            saved.append((ns, name, getattr(ns, name)))
            setattr(ns, name, wrapper)

    try:
        for owner, attr, metric, after in _targets(tr):
            patch(owner, attr, tr.wrap(getattr(owner, attr), metric, after))
        # the continuation driver also gets a traced copy of its per-grid
        # callback, which the harness uses for resource accounting
        driver = solvers.multiscale_solve

        @functools.wraps(driver)
        def multiscale_solve(*args, **kwargs):
            if kwargs.get("grid_watch") is not None:
                kwargs["grid_watch"] = tr.wrap(kwargs["grid_watch"],
                                               "harness.report_s")
            return driver(*args, **kwargs)

        patch(solvers, "multiscale_solve",
              tr.wrap(multiscale_solve, "solvers.driver_s"))
        yield tr
    finally:
        for ns, name, value in reversed(saved):
            setattr(ns, name, value)


def layer_metrics(tr, results, run_s):
    """The per-layer numbers of one traced run, keyed like METRICS (all but
    trace.overhead, which needs an untraced run to compare with)."""
    counts = dict(tr.counts)
    log = results["log"]
    counts["solvers.newton_iters"] = sum(e.get("event") == "newton"
                                         for e in log)
    counts["solvers.euler_steps"] = sum(e.get("event") == "euler" for e in log)
    counts["grid.nodes_final"] = results["grid"].n_nodes()
    counts["grid.cells_final"] = results["grid"].n_cells()
    changed = counts.pop("adaptivity.regrids_changed", 0)
    regrids = counts.get("adaptivity.regrids", 0)
    out = {}
    for name, unit in METRICS.items():
        if unit == "s":
            out[name] = tr.self_s.get(name, 0.0)
        elif unit in ("count", "bytes"):
            out[name] = counts.get(name, 0)
    out["adaptivity.regrid_changed_ratio"] = changed / regrids if regrids else 0.0
    out["harness.other_s"] = run_s - tr.top_s
    out["trace.coverage"] = tr.top_s / run_s
    return out
