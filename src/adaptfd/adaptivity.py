"""Refinement criteria, threshold rules, regridding and solution transfer.

A refinement policy evaluates a nonnegative criteria field at every active
node and compares it against a nondecreasing threshold ladder: crossing a
higher rung demands a finer scale.  Crossing nodes turn into required
squares (a, b, k) (every incident square of the demanded scale, dilated by
an optional padding ring of squares), the fixed initial quadtree is always
appended, and the grid is rebuilt with values transferred by bilinear
interpolation; surviving nodes keep their values exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (GridError, GridFunction, QuadtreeGrid, _ring_squares,
                   quadtree_leaves)
from .stencils import one_sided_matrices, sample_nodes


@dataclass
class RefinementPolicy:
    """criteria(op, u_values) -> nonnegative array over the nodes of op.grid.

    thresholds t_1 <= ... <= t_K map to scales: a node whose value exceeds
    t_k (largest such k) is refined to scales[k]; by default scales descend
    to the finest, so a larger criteria value demands a finer grid.
    extra_padding rings of squares are added around each demanded square,
    and initial_cells, squares (a, b, k), are demanded always.
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
        if np.isnan(self.thresholds).any() or any(
                a > b for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise GridError("refinement thresholds must be nondecreasing "
                            "numbers")
        if self.scales is None:
            self.scales = tuple(range(len(self.thresholds) - 1, -1, -1))
        self.scales = tuple(self.scales)
        if len(self.scales) != len(self.thresholds):
            raise GridError("one scale per threshold required")
        if any(k < 0 for k in self.scales):
            raise GridError("refinement scales must be >= 0")
        if self.extra_padding < 0:
            raise GridError("refinement padding must be >= 0")
        self.initial_cells = np.asarray(self.initial_cells,
                                        dtype=np.int64).reshape(-1, 3)


def evaluate_criteria(policy: RefinementPolicy, op,
                      u: GridFunction) -> GridFunction:
    """Nonnegative criteria value per node of op.grid; pinned nodes give 0."""
    u.check(op.grid)
    vals = np.asarray(policy.criteria(op, u.values), dtype=float)
    vals = np.abs(vals)
    return GridFunction(op.grid, np.where(op.active, vals, 0.0))


def compute_refinement(policy: RefinementPolicy, values: GridFunction,
                       grid: QuadtreeGrid, coarsest_allowed: int | None = None
                       ) -> np.ndarray:
    """Required squares (a, b, k), an (m, 3) int array, from threshold
    exceedances.

    coarsest_allowed clamps demanded scales from below (no request finer than
    that scale), which is how the coarse-to-fine ladder of the multiscale
    solver admits one scale at a time.  The fixed initial quadtree is always
    part of the result.
    """
    values.check(grid)
    v = values.values
    # the largest rung t_k < v: thresholds are nondecreasing
    rung = np.searchsorted(policy.thresholds, v, side="left") - 1
    hot = np.flatnonzero((rung >= 0) & ~np.isnan(v))
    scale = np.asarray(policy.scales, dtype=np.int64)[rung[hot]]
    if coarsest_allowed is not None:
        scale = np.maximum(scale, coarsest_allowed)
    scale = np.minimum(scale, grid.depth)
    rings = _ring_squares(grid.side, grid.i[hot], grid.j[hot], scale,
                          policy.extra_padding)
    return np.concatenate([rings, policy.initial_cells])


def regrid(grid: QuadtreeGrid, u: GridFunction, requests):
    """Rebuild from requests, squares as build_quadtree takes them, and
    transfer u.

    Returns the same (grid, u) objects when the requests reproduce the
    current cells; the leaves are compared before any node is classified.
    New nodes take the piecewise-bilinear interpolant of u on the old
    leaves, in one pass; surviving nodes are copied exactly.
    """
    leaves, ops = quadtree_leaves(requests, grid.depth, grid.box, grid.pads)
    return transfer(grid, u, leaves, ops)


def transfer(grid: QuadtreeGrid, u: GridFunction, leaves, build_ops=0):
    """The grid on leaves, with the depth, box and pads of grid, and u moved
    onto it as regrid moves it; the same (grid, u) objects when leaves are
    grid.leaves, in their order.  The leaves must form a legal quadtree."""
    u.check(grid)
    if np.array_equal(leaves, grid.leaves):
        return grid, u
    g2 = QuadtreeGrid(grid.box, grid.depth, grid.pads, leaves,
                      grid.generation + 1, build_ops)
    old = grid.find(g2.i, g2.j)
    kept = old >= 0
    vals = np.empty(g2.n_nodes())
    vals[kept] = u.values[old[kept]]
    vals[~kept] = grid.interpolate(u.values, g2.x[~kept], g2.y[~kept])
    return g2, GridFunction(g2, vals)


def cells_as_requests(grid: QuadtreeGrid) -> np.ndarray:
    """Squares that rebuild exactly this grid's cells: its leaves."""
    return grid.leaves


# ---------------------------------------------------------------------------
# built-in criteria

def residual_criteria():
    """G = |F[u]|: the operator's own residual magnitude."""
    return lambda op, u: np.abs(op.residual(u))


def free_boundary_criteria(closeness: float):
    """(closeness - max(|Lap_h u|, |u - g|))+: positive exactly where BOTH
    terms of the obstacle operator are close to zero, i.e. in a band around
    the contact contour, so that band scores high under the
    exceeds-threshold rule."""

    def crit(op, u):
        lap = np.abs(op.L @ u + op.Lconst)
        both = np.maximum(lap, np.abs(u - op.gvals))
        return np.maximum(closeness - both, 0.0)

    return crit


def stefan_terms_criteria():
    """min(|Lap_h u|, |grad u|^2): large near the advancing front."""

    def crit(op, u):
        lap = np.abs(op.L @ u + op.Lconst)
        rx, ry, _ = op._evaluate(u)[1]
        return np.minimum(lap, rx * rx + ry * ry)

    return crit


def distance_criteria(targets):
    """G = distance to the nearest target point."""
    pts = np.asarray(targets, dtype=float)

    def crit(op, u):
        xs, ys = op.grid.x, op.grid.y
        d = np.full(len(xs), np.inf)
        for (tx, ty) in pts:
            d = np.minimum(d, np.hypot(xs - tx, ys - ty))
        return d

    return crit


def proximity_criteria(targets, reach: float):
    """G = (reach - distance)+: bands around targets map onto the ladder."""
    dist = distance_criteria(targets)

    def crit(op, u):
        return np.maximum(reach - dist(op, u), 0.0)

    return crit


def slope_criteria(weight_fn=None):
    """Largest one-sided slope magnitude, optionally weighted by position
    (e.g. proximity to an interior boundary): weight_fn takes node arrays
    (x, y), like problem data."""

    def crit(op, u):
        # a row of T[d] is empty where the difference toward d does not exist
        T = one_sided_matrices(op.grid)
        gx = np.maximum(np.abs(T["E"] @ u), np.abs(T["W"] @ u))
        gy = np.maximum(np.abs(T["N"] @ u), np.abs(T["S"] @ u))
        v = np.hypot(gx, gy)
        if weight_fn is not None:
            v = v * sample_nodes(weight_fn, op.grid.x, op.grid.y, "weight")
        return v

    return crit
