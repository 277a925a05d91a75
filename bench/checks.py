"""Output checks for one benchmark run.

A run fails when any check here returns a message.  At every seed the
paper's invariants are checked; at a workload's committed seed the artifacts
are also compared with the references in `refs/`:

* `grid.txt` must be byte-identical (compared by SHA-256);
* every solution CSV must match within SOLUTION_TOL in the max norm;
* every contour CSV must have the same curves and points, each point within
  CONTOUR_TOL times the domain side.  The bound is loose next to
  SOLUTION_TOL because level crossings move by (value change) / (slope),
  and the far-field solution is nearly flat where its zero lines meet the
  walls.

Checks run after the tracer (if any) is removed, so their own calls into the
program are neither timed nor counted.
"""

from __future__ import annotations

import glob
import hashlib
import os

import numpy as np

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
SOLUTION_TOL = 1e-6
CONTOUR_TOL = 1e-4
STEFAN_RANGE_TOL = 1e-12


def artifact_names(out_dir, pattern):
    return sorted(os.path.basename(p)
                  for p in glob.glob(os.path.join(out_dir, pattern)))


def read_table(path):
    """Numeric rows of an artifact CSV (header skipped) as an (n, m) array."""
    with open(path, encoding="utf-8") as fh:
        next(fh)
        rows = [[float(tok) for tok in line.split(",")] for line in fh]
    return np.array(rows, dtype=float).reshape(len(rows), -1)


def grid_sha256(out_dir):
    with open(os.path.join(out_dir, "grid.txt"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def reference_arrays(out_dir):
    """What the reference stores: the grid hash, every solution column and
    every contour table, keyed by artifact name."""
    ref = {"grid.txt": np.array(grid_sha256(out_dir))}
    for name in artifact_names(out_dir, "solution*.csv"):
        ref[name] = read_table(os.path.join(out_dir, name))[:, 4]
    for name in artifact_names(out_dir, "contours*.csv"):
        ref[name] = read_table(os.path.join(out_dir, name))
    return ref


def reference_path(name):
    return os.path.join(REF_DIR, "%s.npz" % name)


def compare_reference(workload, out_dir, side):
    path = reference_path(workload.name)
    if not os.path.isfile(path):
        return ["no reference output at %s" % path]
    failures = []
    with np.load(path, allow_pickle=False) as ref:
        got = reference_arrays(out_dir)
        if sorted(ref.files) != sorted(got):
            return ["artifacts %s differ from the reference's %s"
                    % (sorted(got), sorted(ref.files))]
        if str(ref["grid.txt"]) != str(got["grid.txt"]):
            failures.append("grid.txt differs from the reference")
        for name in sorted(got):
            if name == "grid.txt":
                continue
            want, have = ref[name], got[name]
            if want.shape != have.shape:
                failures.append("%s has shape %s, reference %s"
                                % (name, have.shape, want.shape))
            elif name.startswith("solution"):
                err = float(np.max(np.abs(have - want), initial=0.0))
                if err > SOLUTION_TOL:
                    failures.append("%s differs from the reference by %.3e"
                                    % (name, err))
            else:
                if not np.array_equal(have[:, :2], want[:, :2]):
                    failures.append("%s curve layout differs from the "
                                    "reference" % name)
                err = float(np.max(np.abs(have[:, 2:] - want[:, 2:]),
                                   initial=0.0))
                if err > CONTOUR_TOL * side:
                    failures.append("%s points differ from the reference by "
                                    "%.3e" % (name, err))
    return failures


def _closed_contours(out_dir):
    failures = []
    names = artifact_names(out_dir, "contours*.csv")
    for name in names:
        table = read_table(os.path.join(out_dir, name))
        curves = np.unique(table[:, 0]) if len(table) else []
        if len(curves) == 0:
            failures.append("%s holds no contour" % name)
        for cid in curves:
            pts = table[table[:, 0] == cid, 2:]
            if len(pts) < 4 or not np.array_equal(pts[0], pts[-1]):
                failures.append("%s curve %d is not a closed polyline"
                                % (name, int(cid)))
    if not names:
        failures.append("no contour artifact written")
    return failures


def _newton_checks(preset, grid, u):
    from adaptfd import instantiate_builtin

    op = instantiate_builtin(preset.kind, preset.problem, grid)
    act = op.active
    tol = preset.stopping.threshold()
    failures = []
    rmax = float(np.max(np.abs(op.residual(u.values)[act]), initial=0.0))
    if rmax > tol:
        failures.append("final residual %.3e above the last stopping "
                        "threshold %.1e" % (rmax, tol))
    if preset.kind == "obstacle":
        # the contact rows are solved to the same threshold, so u - g may
        # sit that far below 0 at contact nodes
        gap = float(np.min(u.values[act] - op.gvals[act], initial=0.0))
        if gap < -tol:
            failures.append("u falls below the obstacle by %.3e" % -gap)
    return failures


def _initial_range(preset):
    """[min, max] of the initial data: the run starts from a uniform grid of
    the preset's initial scale, whose nodes are every 2^scale-th lattice
    point."""
    box, side = preset.box, 1 << preset.depth
    idx = range(0, side + 1, 1 << preset.initial_scale)
    vals = [preset.u0(box.x_min + i * box.lx / side,
                      box.y_min + j * box.ly / side)
            for i in idx for j in idx]
    return min(vals), max(vals)


def _stefan_range(preset, snapshots):
    lo, hi = _initial_range(preset)
    failures = []
    for (_, u, t) in snapshots:
        vmin, vmax = float(u.values.min()), float(u.values.max())
        if vmin < lo - STEFAN_RANGE_TOL or vmax > hi + STEFAN_RANGE_TOL:
            failures.append("values at t=%g span [%.6g, %.6g], outside the "
                            "initial [%.6g, %.6g]" % (t, vmin, vmax, lo, hi))
    return failures


def check_outputs(workload, seed, results, out_dir):
    """Failure messages for one finished run (empty when it passed)."""
    preset = results["preset"]
    failures = []
    if preset.solver == "newton_multiscale":
        failures += _newton_checks(preset, results["grid"], results["u"])
    if preset.kind == "stefan":
        failures += _stefan_range(preset, results["snapshots"])
    if workload.closed_contours:
        failures += _closed_contours(out_dir)
    if seed == workload.committed_seed:
        failures += compare_reference(workload, out_dir, preset.box.lx)
    return failures
