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

from .grid import BOUNDARY, REGULAR, GridError, GridNode, QuadtreeGrid

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


def _node(grid: QuadtreeGrid, node) -> GridNode:
    return grid.nodes[node] if isinstance(node, (int, np.integer)) else node


def one_sided(grid: QuadtreeGrid, node: GridNode, side: str):
    """Where a one-sided difference toward `side` looks: (ids, dist), with the
    value on that side the mean of u over ids at distance dist.  A neighbor
    gives one id; the coarse side of a dangling node gives the two far
    corners of the coarse cell at distance band * h (first order, monotone).
    None when the node has no value on that side."""
    if side in node.nbr:
        return (node.nbr[side],), node.dist(side)
    if node.coarse_side == side:
        return node.drv_pair, node.band * (grid.hx if side in ("E", "W")
                                           else grid.hy)
    return None


def upwind_first_derivative(grid: QuadtreeGrid, node, direction: str,
                            u) -> float:
    """One-sided derivative along `direction`, differencing against the
    opposite-side neighbor: D_{+x} u = (u_i - u_W)/dW approximates du/dx,
    with the far-corner average standing in for a missing coarse side."""
    n = _node(grid, node)
    values = u.values if hasattr(u, "values") else u
    side = OPPOSITE[direction]
    found = one_sided(grid, n, side)
    if found is None:
        raise StencilUnavailableError(
            "no %s neighbor at node (%d, %d)" % (side, n.i, n.j))
    ids, dist = found
    opp = sum(values[j] for j in ids) / len(ids)
    return (values[grid.node_id[(n.i, n.j)]] - opp) / dist


def laplacian_row(grid: QuadtreeGrid, node) -> StencilRow:
    """Row encoding -Laplacian(u) at a regular or dangling node."""
    n = _node(grid, node)
    nid = grid.node_id[(n.i, n.j)]
    if n.klass == BOUNDARY:
        raise StencilUnavailableError(
            "boundary node (%d, %d) needs Robin data" % (n.i, n.j))
    if n.klass == REGULAR:
        ide, idw, dx = n.pair_x
        idn, ids, dy = n.pair_y
        wx, wy = 1.0 / dx**2, 1.0 / dy**2
        return StencilRow(nid, 2 * wx + 2 * wy,
                          [(ide, wx), (idw, wx), (idn, wy), (ids, wy)])
    # dangling: I-stencil, possibly widened along the coarse axis
    if n.wide is None:
        raise StencilUnavailableError(
            "monotone I-stencil width unavailable at (%d, %d); "
            "grid padding violated" % (n.i, n.j))
    m, corners = n.wide
    if n.coarse_side in ("E", "W"):
        coarse = m * n.band * grid.hx
        fine = 0.5 * n.band * grid.hy
        axis_pair = (n.nbr["N"], n.nbr["S"])
    else:
        coarse = m * n.band * grid.hy
        fine = 0.5 * n.band * grid.hx
        axis_pair = (n.nbr["E"], n.nbr["W"])
    wc = 0.5 / coarse**2
    wp = 1.0 / fine**2 - 1.0 / coarse**2
    if wp < 0:
        raise StencilUnavailableError("negative axis weight at (%d, %d)"
                                      % (n.i, n.j))
    nbrs = [(c, wc) for c in corners] + [(p, wp) for p in axis_pair]
    return StencilRow(nid, 2.0 / fine**2, nbrs)


def upwind_gradient_sq(grid: QuadtreeGrid, node, u) -> float:
    """Monotone |grad u|^2: per axis the uphill one-sided slope, clamped at 0
    and squared, so that -(result) is nondecreasing in every u_i - u_j."""
    n = _node(grid, node)
    values = u.values if hasattr(u, "values") else u
    ui = values[grid.node_id[(n.i, n.j)]]
    total = 0.0
    for sides in (("E", "W"), ("N", "S")):
        best = 0.0
        for s in sides:
            found = one_sided(grid, n, s)
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
    n = _node(grid, node)
    if n.klass != BOUNDARY:
        raise StencilUnavailableError("robin_row applies to boundary nodes")
    nid = grid.node_id[(n.i, n.j)]
    side = grid.side
    walls = []
    if n.i == 0:
        walls.append(("E", -1.0, 0.0))
    if n.i == side:
        walls.append(("W", 1.0, 0.0))
    if n.j == 0:
        walls.append(("N", 0.0, -1.0))
    if n.j == side:
        walls.append(("S", 0.0, 1.0))

    coeffs = []
    for (inward, nx, ny) in walls:
        a = A(n.x, n.y, nx, ny)
        b = B(n.x, n.y, nx, ny)
        c = C(n.x, n.y, nx, ny)
        if a == 0.0:
            if b == 0.0:
                raise IllPosedBoundaryError(
                    "A = B = 0 at boundary node (%d, %d)" % (n.i, n.j))
            return InactiveMark(c / b)
        coeffs.append((inward, a, b, c))

    wbar = 0.0
    const = 0.0
    nbrs = []
    for (inward, a, b, c) in coeffs:
        d = n.dist(inward)
        nbrs.append((n.nbr[inward], 1.0 / d**2))
        wbar += 1.0 / d**2 + b / (a * d)
        const += -c / (a * d)
    if len(coeffs) == 1:
        # tangential second difference along the wall
        pair = n.pair_y if coeffs[0][0] in ("E", "W") else n.pair_x
        if pair is not None:
            idp, idm, d = pair
            w = 1.0 / d**2
            nbrs += [(idp, w), (idm, w)]
            wbar += 2 * w
    return StencilRow(nid, wbar, nbrs, const)


# ---------------------------------------------------------------------------
# bulk assembly helpers

def laplacian_system(grid: QuadtreeGrid, robin=None):
    """Assemble -Laplacian rows for the whole grid.

    Returns (L, const, active, pins): sparse matrix and constant vector over
    all nodes, a boolean mask of active unknowns, and pinned values (zero
    where active).  Boundary nodes use the Robin triple when given, else they
    are treated as Dirichlet pins at 0 to be overridden by the caller.
    """
    nn = grid.n_nodes()
    rows, cols, vals = [], [], []
    const = np.zeros(nn)
    active = np.ones(nn, dtype=bool)
    pins = np.zeros(nn)
    for idx, n in enumerate(grid.nodes):
        if n.klass == BOUNDARY:
            if robin is None:
                active[idx] = False
                continue
            r = robin_row(grid, n, *robin)
            if isinstance(r, InactiveMark):
                active[idx] = False
                pins[idx] = r.value
                continue
        else:
            r = laplacian_row(grid, n)
        rows.append(idx)
        cols.append(idx)
        vals.append(r.wbar)
        for (j, w) in r.neighbors:
            rows.append(idx)
            cols.append(j)
            vals.append(-w)
        const[idx] = r.constant
    L = sp.csr_matrix((vals, (rows, cols)), shape=(nn, nn))
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
    for d in ("E", "W", "N", "S"):
        rows, cols, vals = [], [], []
        mask = np.zeros(nn, dtype=bool)
        for idx, n in enumerate(grid.nodes):
            found = one_sided(grid, n, d)
            if found is None:
                continue
            ids, dist = found
            rows += [idx] * (len(ids) + 1)
            cols += [*ids, idx]
            vals += [1.0 / dist / len(ids)] * len(ids) + [-1.0 / dist]
            mask[idx] = True
        T[d] = sp.csr_matrix((vals, (rows, cols)), shape=(nn, nn))
        have[d] = mask
    return T, have

