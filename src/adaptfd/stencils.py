"""Degenerate-elliptic stencil rows on classified quadtree nodes.

Every row is kept in the form

    wbar * u_i - sum_j w_j * u_j + constant,      w_j >= 0,

which is nondecreasing in u_i and in each difference u_i - u_j whenever
wbar >= sum_j w_j.  Laplacian rows satisfy wbar == sum_j w_j exactly.

Regular nodes use the nearest equidistant opposing pair per axis (second
order).  Dangling nodes use the I-shaped stencil: the four corners of the two
equal-size cells that straddle the hanging edge plus the two fine axis
neighbors, widened along the coarse axis until the axis-pair weight stays
nonnegative.  Boundary nodes eliminate the outward derivative through a Robin
condition A u' + B u = C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .grid import (BOUNDARY, CLASSES, CODE, DIRS, REGULAR, GridError,
                   QuadtreeGrid)

OPPOSITE = {"+x": "W", "-x": "E", "+y": "S", "-y": "N"}


class StencilUnavailableError(GridError):
    """No monotone stencil exists at this node for the requested quantity."""


class IllPosedBoundaryError(GridError):
    """Robin data with A = B = 0 pins nothing and fixes nothing."""


@dataclass
class StencilRow:
    """One node's discretization: evaluates wbar*u_i - sum w_j u_j + constant."""
    center: int
    wbar: float
    neighbors: list          # [(node id, weight >= 0), ...]
    constant: float = 0.0

    def evaluate(self, u: np.ndarray) -> float:
        acc = self.wbar * u[self.center] + self.constant
        for (j, w) in self.neighbors:
            acc -= w * u[j]
        return acc


@dataclass(frozen=True)
class InactiveMark:
    """Dirichlet pin: the node is removed from the unknowns at this value."""
    value: float


def _index(grid: QuadtreeGrid, node) -> int:
    """Node id of a node given by id or as a GridNode record."""
    if isinstance(node, (int, np.integer)):
        return int(node)
    return int(grid.find(node.i, node.j))


def _inv_sq(d):
    """1 / d**2 per entry, with Python's float power: its pow() and numpy's
    squaring can round differently, and rows must not change bits."""
    values, inverse = np.unique(d, return_inverse=True)
    return np.array([1.0 / v**2 for v in values.tolist()])[inverse]


def one_sided(grid: QuadtreeGrid, idx: int, side: str):
    """Where a one-sided difference toward `side` looks: (ids, dist), with the
    value on that side the mean of u over ids at distance dist.  A neighbor
    gives one id; the coarse side of a dangling node gives the two far
    corners of the coarse cell at distance band * h (first order, monotone).
    None when the node has no value on that side."""
    d = DIRS.index(side)
    if grid.nbr[idx, d] >= 0:
        return (int(grid.nbr[idx, d]),), float(grid.dist[idx, d])
    if grid.coarse_side[idx] == d:
        return (tuple(grid.drv_pair[idx].tolist()),
                int(grid.band[idx]) * (grid.hx if d < 2 else grid.hy))
    return None


def upwind_first_derivative(grid: QuadtreeGrid, node, direction: str,
                            u) -> float:
    """One-sided derivative along `direction`, differencing against the
    opposite-side neighbor: D_{+x} u = (u_i - u_W)/dW approximates du/dx,
    with the far-corner average standing in for a missing coarse side."""
    idx = _index(grid, node)
    values = u.values if hasattr(u, "values") else u
    side = OPPOSITE[direction]
    found = one_sided(grid, idx, side)
    if found is None:
        raise StencilUnavailableError(
            "no %s neighbor at node (%d, %d)" % (side, grid.i[idx],
                                                  grid.j[idx]))
    ids, dist = found
    opp = sum(values[j] for j in ids) / len(ids)
    return (values[idx] - opp) / dist


def laplacian_row(grid: QuadtreeGrid, node) -> StencilRow:
    """Row encoding -Laplacian(u) at a regular or dangling node."""
    idx = _index(grid, node)
    at = (grid.i[idx], grid.j[idx])
    klass = CLASSES[grid.klass[idx]]
    if klass == BOUNDARY:
        raise StencilUnavailableError(
            "boundary node (%d, %d) needs Robin data" % at)
    if klass == REGULAR:
        ide, idw, idn, ids = grid.pair[idx].tolist()
        dx, dy = grid.pair_dist[idx].tolist()
        wx, wy = 1.0 / dx**2, 1.0 / dy**2
        return StencilRow(idx, 2 * wx + 2 * wy,
                          [(ide, wx), (idw, wx), (idn, wy), (ids, wy)])
    # dangling: I-stencil, possibly widened along the coarse axis
    m = int(grid.wide[idx])
    if m == 0:
        raise StencilUnavailableError(
            "monotone I-stencil width unavailable at (%d, %d); "
            "grid padding violated" % at)
    band = int(grid.band[idx])
    nbr = grid.nbr[idx].tolist()
    if grid.coarse_side[idx] < 2:
        coarse = m * band * grid.hx
        fine = 0.5 * band * grid.hy
        axis_pair = (nbr[2], nbr[3])
    else:
        coarse = m * band * grid.hy
        fine = 0.5 * band * grid.hx
        axis_pair = (nbr[0], nbr[1])
    wc = 0.5 / coarse**2
    wp = 1.0 / fine**2 - 1.0 / coarse**2
    if wp < 0:
        raise StencilUnavailableError("negative axis weight at (%d, %d)" % at)
    nbrs = [(c, wc) for c in grid.wide_ids[idx].tolist()] \
        + [(p, wp) for p in axis_pair]
    return StencilRow(idx, 2.0 / fine**2, nbrs)


def upwind_gradient_sq(grid: QuadtreeGrid, node, u) -> float:
    """Monotone |grad u|^2: per axis the uphill one-sided slope, clamped at 0
    and squared, so that -(result) is nondecreasing in every u_i - u_j."""
    idx = _index(grid, node)
    values = u.values if hasattr(u, "values") else u
    ui = values[idx]
    total = 0.0
    for sides in (("E", "W"), ("N", "S")):
        best = 0.0
        for s in sides:
            found = one_sided(grid, idx, s)
            if found is not None:
                ids, dist = found
                opp = sum(values[j] for j in ids) / len(ids)
                best = max(best, (opp - ui) / dist)
        total += best * best
    return total


def robin_row(grid: QuadtreeGrid, node, A, B, C):
    """Boundary row for A u' + B u = C (u' = outward normal derivative).

    A, B, C are callables (x, y, nx, ny) -> float, evaluated per wall with
    that wall's outward normal.  A = 0 pins the node (returns InactiveMark
    with value C/B); otherwise the outward derivative is eliminated and
    combined with the one-sided inward derivative, plus the centered
    tangential second difference, into a -Laplacian row.
    """
    idx = _index(grid, node)
    if grid.klass[idx] != CODE[BOUNDARY]:
        raise StencilUnavailableError("robin_row applies to boundary nodes")
    i, j = int(grid.i[idx]), int(grid.j[idx])
    x, y = float(grid.x[idx]), float(grid.y[idx])
    side = grid.side
    walls = []
    if i == 0:
        walls.append((0, -1.0, 0.0))
    if i == side:
        walls.append((1, 1.0, 0.0))
    if j == 0:
        walls.append((2, 0.0, -1.0))
    if j == side:
        walls.append((3, 0.0, 1.0))

    coeffs = []
    for (inward, nx, ny) in walls:
        a = A(x, y, nx, ny)
        b = B(x, y, nx, ny)
        c = C(x, y, nx, ny)
        if a == 0.0:
            if b == 0.0:
                raise IllPosedBoundaryError(
                    "A = B = 0 at boundary node (%d, %d)" % (i, j))
            return InactiveMark(c / b)
        coeffs.append((inward, a, b, c))

    nbr = grid.nbr[idx].tolist()
    dist = grid.dist[idx].tolist()
    wbar = 0.0
    const = 0.0
    nbrs = []
    for (inward, a, b, c) in coeffs:
        d = dist[inward]
        nbrs.append((nbr[inward], 1.0 / d**2))
        wbar += 1.0 / d**2 + b / (a * d)
        const += -c / (a * d)
    if len(coeffs) == 1:
        # tangential second difference along the wall
        ax = 1 if coeffs[0][0] < 2 else 0
        idp, idm = grid.pair[idx, 2 * ax:2 * ax + 2].tolist()
        if idp >= 0:
            w = 1.0 / float(grid.pair_dist[idx, ax])**2
            nbrs += [(idp, w), (idm, w)]
            wbar += 2 * w
    return StencilRow(idx, wbar, nbrs, const)


# ---------------------------------------------------------------------------
# bulk assembly helpers

def laplacian_system(grid: QuadtreeGrid, robin=None):
    """Assemble -Laplacian rows for the whole grid.

    Returns (L, const, active, pins): sparse matrix and constant vector over
    all nodes, a boolean mask of active unknowns, and pinned values (zero
    where active).  Boundary nodes use the Robin triple when given, else they
    are treated as Dirichlet pins at 0 to be overridden by the caller.
    Regular rows come from the pair arrays at once; dangling and wall rows
    are built one by one.
    """
    nn = grid.n_nodes()
    const = np.zeros(nn)
    active = np.ones(nn, dtype=bool)
    pins = np.zeros(nn)
    reg = np.flatnonzero(grid.klass == CODE[REGULAR])
    wx = _inv_sq(grid.pair_dist[reg, 0])
    wy = _inv_sq(grid.pair_dist[reg, 1])
    rows = [np.repeat(reg, 5)]
    cols = [np.column_stack([reg, grid.pair[reg]]).ravel()]
    vals = [np.column_stack([2 * wx + 2 * wy, -wx, -wx, -wy, -wy]).ravel()]
    wall = CODE[BOUNDARY]
    for idx in np.flatnonzero(grid.klass != CODE[REGULAR]).tolist():
        if grid.klass[idx] == wall:
            if robin is None:
                active[idx] = False
                continue
            r = robin_row(grid, idx, *robin)
            if isinstance(r, InactiveMark):
                active[idx] = False
                pins[idx] = r.value
                continue
        else:
            r = laplacian_row(grid, idx)
        rows.append([idx] * (len(r.neighbors) + 1))
        cols.append([idx] + [j for (j, _) in r.neighbors])
        vals.append([r.wbar] + [-w for (_, w) in r.neighbors])
        const[idx] = r.constant
    L = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(nn, nn))
    return L, const, active, pins


def one_sided_matrices(grid: QuadtreeGrid):
    """Sparse one-sided difference operators toward each side.

    T[d] @ u gives (u_side - u_i)/dist per node, with the dangling missing
    side replaced by the far-corner average.  have[d] marks nodes where the
    difference exists.
    """
    nn = grid.n_nodes()
    T = {}
    have = {}
    for d, name in enumerate(DIRS):
        near = np.flatnonzero(grid.nbr[:, d] >= 0)
        inv = 1.0 / grid.dist[near, d]
        dang = np.flatnonzero(grid.coarse_side == d)
        inv_c = 1.0 / (grid.band[dang] * (grid.hx if d < 2 else grid.hy))
        rows = np.concatenate([near, near, dang, dang, dang])
        cols = np.concatenate([grid.nbr[near, d], near, grid.drv_pair[dang, 0],
                               grid.drv_pair[dang, 1], dang])
        vals = np.concatenate([inv, -inv, inv_c / 2, inv_c / 2, -inv_c])
        T[name] = sp.csr_matrix((vals, (rows, cols)), shape=(nn, nn))
        mask = np.zeros(nn, dtype=bool)
        mask[near] = True
        mask[dang] = True
        have[name] = mask
    return T, have
