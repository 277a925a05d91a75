"""Refinement criteria, threshold rules, regridding and solution transfer.

A refinement policy evaluates a nonnegative criteria field at every active
node and compares it against a nondecreasing threshold ladder: crossing a
higher rung demands a finer scale.  Crossing nodes turn into scale requests
(dilated by an optional padding ring of cells), the fixed initial quadtree is
always appended, and the grid is rebuilt with values transferred by bilinear
interpolation; surviving nodes keep their values exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import (GridError, GridFunction, QuadtreeGrid, ScaleRequest,
                   build_quadtree)
from .stencils import one_sided_matrices


@dataclass
class RefinementPolicy:
    """criteria(op, grid, u_values) -> nonnegative per-node array.

    thresholds t_1 <= ... <= t_K map to scales: a node whose value exceeds
    t_k (largest such k) is refined to scales[k]; by default scales descend
    to the finest, so a larger criteria value demands a finer grid.
    """
    criteria: object
    thresholds: tuple
    scales: tuple | None = None
    extra_padding: int = 0
    initial_cells: tuple = ()

    def __post_init__(self):
        self.thresholds = tuple(self.thresholds)
        if not self.thresholds:
            raise GridError("refinement policy needs at least one threshold")
        if any(a > b for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise GridError("refinement thresholds must be nondecreasing")
        if self.scales is None:
            self.scales = tuple(range(len(self.thresholds) - 1, -1, -1))
        self.scales = tuple(self.scales)
        if len(self.scales) != len(self.thresholds):
            raise GridError("one scale per threshold required")


def evaluate_criteria(policy: RefinementPolicy, op, grid: QuadtreeGrid,
                      u: GridFunction) -> GridFunction:
    """Nonnegative criteria value per node; pinned nodes evaluate to 0."""
    u.check(grid)
    vals = np.asarray(policy.criteria(op, grid, u.values), dtype=float)
    vals = np.abs(vals)
    if op is not None:
        vals = np.where(op.active, vals, 0.0)
    return GridFunction(grid, vals)


def compute_refinement(policy: RefinementPolicy, values: GridFunction,
                       grid: QuadtreeGrid, coarsest_allowed: int | None = None
                       ) -> list:
    """Scale requests from threshold exceedances.

    coarsest_allowed clamps demanded scales from below (no request finer than
    that scale), which is how the coarse-to-fine ladder of the multiscale
    solver admits one scale at a time.  The fixed initial quadtree is always
    part of the request list.
    """
    values.check(grid)
    side = grid.side
    reqs = []
    for idx, v in enumerate(values.values):
        k = -1
        for t_i, t in enumerate(policy.thresholds):
            if v > t:
                k = t_i
        if k < 0:
            continue
        scale = policy.scales[k]
        if coarsest_allowed is not None:
            scale = max(scale, coarsest_allowed)
        scale = min(scale, grid.depth)
        node = grid.nodes[idx]
        reqs.extend(_ring_requests(grid, node.i, node.j, scale,
                                   policy.extra_padding))
    for (a, b, k) in policy.initial_cells:
        reqs.append(_square_request(grid, a, b, k))
    return reqs


def _square_request(grid: QuadtreeGrid, a: int, b: int, k: int) -> ScaleRequest:
    # probe at 0.4 of the square side: snaps strictly inside the square (or
    # onto its anchor at scale 0), so the request pins exactly this square
    # even under float rounding of the physical coordinates
    s = 1 << k
    x, y = grid.position(a + 0.4 * s, b + 0.4 * s)
    return ScaleRequest(x, y, k)


def _ring_requests(grid: QuadtreeGrid, i: int, j: int, scale: int,
                   pad: int) -> list:
    side = grid.side
    s = 1 << scale
    a_lo = (i - 1) // s * s if i > 0 else 0
    a_hi = i // s * s if i < side else side - s
    b_lo = (j - 1) // s * s if j > 0 else 0
    b_hi = j // s * s if j < side else side - s
    out = []
    for a in range(max(a_lo - pad * s, 0), min(a_hi + pad * s, side - s) + 1, s):
        for b in range(max(b_lo - pad * s, 0), min(b_hi + pad * s, side - s) + 1, s):
            out.append(_square_request(grid, a, b, scale))
    return out


def regrid(grid: QuadtreeGrid, u: GridFunction, requests):
    """Rebuild from requests and transfer u.

    Returns the same (grid, u) objects when the requests reproduce the
    current cells.  New nodes take the piecewise-bilinear interpolant of u on
    the old leaves; surviving nodes are copied exactly.
    """
    u.check(grid)
    g2 = build_quadtree(requests, grid.depth, grid.box, grid.pads,
                        generation=grid.generation + 1)
    if g2.same_cells(grid):
        return grid, u
    vals = np.empty(g2.n_nodes())
    old_id = grid.node_id
    for idx, n in enumerate(g2.nodes):
        at = old_id.get((n.i, n.j))
        if at is not None:
            vals[idx] = u.values[at]
        else:
            vals[idx] = grid.interpolate(u.values, n.x, n.y)
    return g2, GridFunction(g2, vals)


def cells_as_requests(grid: QuadtreeGrid) -> list:
    """Requests that rebuild exactly this grid's cells."""
    return [_square_request(grid, a, b, k) for (a, b), k in grid.cells.items()]


# ---------------------------------------------------------------------------
# built-in criteria

def residual_criteria():
    """G = |F[u]|: the operator's own residual magnitude."""
    return lambda op, grid, u: np.abs(op.residual(u))


def free_boundary_criteria(closeness: float):
    """(closeness - max(|Lap_h u|, |u - g|))+: positive exactly where BOTH
    terms of the obstacle operator are close to zero, i.e. in a band around
    the contact contour, so that band scores high under the
    exceeds-threshold rule."""

    def crit(op, grid, u):
        lap = np.abs(op.L @ u + op.Lconst)
        both = np.maximum(lap, np.abs(u - op.gvals))
        return np.maximum(closeness - both, 0.0)

    return crit


def stefan_terms_criteria():
    """min(|Lap_h u|, |grad u|^2): large near the advancing front."""

    def crit(op, grid, u):
        lap = np.abs(op.L @ u + op.Lconst)
        rx, ry, _ = op._gradient_sq(u)
        return np.minimum(lap, rx * rx + ry * ry)

    return crit


def distance_criteria(targets):
    """G = distance to the nearest target point."""
    pts = np.asarray(targets, dtype=float)

    def crit(op, grid, u):
        xs, ys = grid.positions()
        d = np.full(len(xs), np.inf)
        for (tx, ty) in pts:
            d = np.minimum(d, np.hypot(xs - tx, ys - ty))
        return d

    return crit


def proximity_criteria(targets, reach: float):
    """G = (reach - distance)+: bands around targets map onto the ladder."""
    dist = distance_criteria(targets)

    def crit(op, grid, u):
        return np.maximum(reach - dist(op, grid, u), 0.0)

    return crit


def slope_criteria(weight_fn=None):
    """Largest one-sided slope magnitude, optionally weighted by position
    (e.g. proximity to an interior boundary)."""

    def crit(op, grid, u):
        # a row of T[d] is empty where the difference toward d does not exist
        T, _ = one_sided_matrices(grid)
        gx = np.maximum(np.abs(T["E"] @ u), np.abs(T["W"] @ u))
        gy = np.maximum(np.abs(T["N"] @ u), np.abs(T["S"] @ u))
        v = np.hypot(gx, gy)
        if weight_fn is not None:
            xs, ys = grid.positions()
            v = v * np.array([weight_fn(x, y) for x, y in zip(xs, ys)])
        return v

    return crit
