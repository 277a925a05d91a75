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
condition A u' + B u = C.  Each rule is built once, from the node arrays, for
any set of nodes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .grid import BOUNDARY, CODE, DIRS, REGULAR, GridError, QuadtreeGrid

# outward normal (nx, ny) of the wall whose inward direction is DIRS[d]:
# the walls i = 0, i = side, j = 0, j = side
_NORMALS = ((-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0))


class StencilUnavailableError(GridError):
    """No monotone stencil exists at this node for the requested quantity."""


class IllPosedBoundaryError(GridError):
    """Robin data with A = B = 0 pins nothing and fixes nothing."""


class OperatorError(GridError):
    """Bad operator construction (unknown kind, missing datum)."""


def sample_nodes(fn, x, y, name: str, *normal) -> np.ndarray:
    """fn(x, y, *normal), called once on node coordinate arrays (wall data
    also get the wall's outward normal nx, ny as floats), as a new float
    array of len(x); a scalar result is broadcast."""
    try:
        v = np.array(fn(x, y, *normal), dtype=float)
    except (TypeError, ValueError) as exc:
        raise OperatorError("problem datum %s must take node arrays x, y: "
                            "%s" % (name, exc)) from None
    if v.shape not in ((), (len(x),)):
        raise OperatorError("problem datum %s gave shape %s for %d nodes"
                            % (name, v.shape, len(x)))
    return np.full(len(x), v) if v.ndim == 0 else v


def _inv_sq(d):
    """1 / d**2 per entry, with Python's float power: its pow() and numpy's
    squaring can round differently, and rows must not change bits."""
    values, inverse = np.unique(d, return_inverse=True)
    return np.array([1.0 / v**2 for v in values.tolist()])[inverse]


# ---------------------------------------------------------------------------
# rows from the node arrays: COO entries (rows, cols, vals), each row its
# center first and then its neighbors in stencil order, and the faults, as
# (node ids without a monotone row, error class, message)

def _interior_rows(grid: QuadtreeGrid, ids):
    """Entries and faults of the rows at regular and dangling node ids."""
    klass = grid.klass[ids]
    reg = ids[klass == CODE[REGULAR]]
    wx = _inv_sq(grid.pair_dist[reg, 0])
    wy = _inv_sq(grid.pair_dist[reg, 1])
    # the dangling weights depend only on the coarse axis, band and width m:
    # wbar = 2/fine^2, 0.5/coarse^2 on the four corners of the widened
    # stencil and 1/fine^2 - 1/coarse^2 on the fine axis pair
    dang = ids[klass != CODE[REGULAR]]
    faults = [(dang[grid.wide[dang] == 0], StencilUnavailableError,
               "monotone I-stencil width unavailable at (%d, %d); "
               "grid padding violated")]
    dang = dang[grid.wide[dang] > 0]
    band = grid.band[dang]
    along_x = grid.coarse_side[dang] < 2
    inv_c = _inv_sq(grid.wide[dang] * band
                    * np.where(along_x, grid.hx, grid.hy))
    inv_f = _inv_sq(0.5 * band * np.where(along_x, grid.hy, grid.hx))
    wp = inv_f - inv_c
    faults.append((dang[wp < 0], StencilUnavailableError,
                   "negative axis weight at (%d, %d)"))
    axis_pair = np.where(along_x[:, None], grid.nbr[dang, 2:],
                         grid.nbr[dang, :2])
    rows = np.concatenate([np.repeat(reg, 5), np.repeat(dang, 7)])
    cols = np.concatenate([
        np.column_stack([reg, grid.pair[reg]]).ravel(),
        np.column_stack([dang, grid.wide_ids[dang], axis_pair]).ravel()])
    vals = np.concatenate([
        np.column_stack([2 * wx + 2 * wy, -wx, -wx, -wy, -wy]).ravel(),
        np.column_stack([2 * inv_f] + [-0.5 * inv_c] * 4 + [-wp] * 2)
        .ravel()])
    return (rows, cols, vals), faults


def _wall_rows(grid: QuadtreeGrid, ids, A, B, C):
    """Entries, then per id the constant, active mask and pins, and the
    faults of the rows at wall node ids, as laplacian_system describes
    them."""
    k = len(ids)
    wbar, const, pins = np.zeros(k), np.zeros(k), np.zeros(k)
    pinned, ill = np.zeros(k, dtype=bool), np.zeros(k, dtype=bool)
    i, j = grid.i[ids], grid.j[ids]
    corner = np.isin(i, (0, grid.side)) & np.isin(j, (0, grid.side))
    blocks = []
    for d, normal in enumerate(_NORMALS):
        p = np.flatnonzero((i, i, j, j)[d] == (0, grid.side)[d % 2])
        x, y = grid.x[ids[p]], grid.y[ids[p]]
        a, b, c = (sample_nodes(fn, x, y, name, *normal)
                   for fn, name in zip((A, B, C), "ABC"))
        pin = (a == 0.0) & ~pinned[p]
        ill[p[pin & (b == 0.0)]] = True
        ok = pin & (b != 0.0)
        pins[p[ok]] = c[ok] / b[ok]
        pinned[p[pin]] = True
        row = a != 0.0
        if not row.any():
            continue
        p, a, b, c = p[row], a[row], b[row], c[row]
        dist = grid.dist[ids[p], d]
        inv = _inv_sq(dist)
        wbar[p] += inv + b / (a * dist)
        const[p] += -c / (a * dist)
        blocks.append((p, grid.nbr[ids[p], d], -inv))
        # off the corners, the centered second difference along the wall
        p, ax = p[~corner[p]], 1 if d < 2 else 0
        w = _inv_sq(grid.pair_dist[ids[p], ax])
        wbar[p] += 2 * w
        blocks += [(p, grid.pair[ids[p], 2 * ax], -w),
                   (p, grid.pair[ids[p], 2 * ax + 1], -w)]
    # a corner can be pinned by its second wall after its first gave terms
    const[pinned] = 0.0
    blocks.insert(0, (np.arange(k), ids, wbar))
    rows, cols, vals = (np.concatenate(part) for part in zip(*blocks))
    live = ~pinned[rows]
    faults = [(ids[ill], IllPosedBoundaryError,
               "A = B = 0 at boundary node (%d, %d)")]
    return (ids[rows[live]], cols[live], vals[live]), const, ~pinned, pins, \
        faults


def _rows(grid: QuadtreeGrid, ids, robin=None):
    """(entries, const, active, pins) of the -Laplacian rows at node ids
    (ascending), the last three per id.  Without Robin data, walls are
    pinned at 0.  Raises the error of the first node without a monotone row,
    the one a row-by-row assembly meets first."""
    wall = grid.klass[ids] == CODE[BOUNDARY]
    entries, faults = _interior_rows(grid, ids[~wall])
    const, active, pins = np.zeros(len(ids)), ~wall, np.zeros(len(ids))
    if robin is not None:
        more, const[wall], active[wall], pins[wall], bad = _wall_rows(
            grid, ids[wall], *robin)
        entries = [np.concatenate(part) for part in zip(entries, more)]
        faults += bad
    first = [(int(at[0]), error, text) for at, error, text in faults
             if len(at)]
    if first:
        k, error, text = min(first, key=lambda f: f[0])
        raise error(text % (grid.i[k], grid.j[k]))
    return entries, const, active, pins


# ---------------------------------------------------------------------------
# bulk assembly helpers

def laplacian_system(grid: QuadtreeGrid, robin=None):
    """Assemble -Laplacian rows for the whole grid.

    Returns (L, const, active, pins): sparse matrix and constant vector over
    all nodes, a boolean mask of active unknowns, and pinned values (zero
    where active).  Boundary nodes use the Robin triple when given, else they
    are treated as Dirichlet pins at 0 to be overridden by the caller.

    The Robin triple (A, B, C) of A u' + B u = C (u' the outward normal
    derivative) is called once per wall, in the order i = 0, i = side,
    j = 0, j = side, on the arrays x, y of the wall's nodes and the wall's
    outward normal nx, ny as floats; scalar results are broadcast.  The
    first wall with A = 0 pins the node at C/B.  Otherwise each wall's
    outward derivative is eliminated against the one-sided inward
    derivative and, off the corners, the centered tangential second
    difference is added.
    """
    nn = grid.n_nodes()
    (rows, cols, vals), const, active, pins = _rows(grid, np.arange(nn),
                                                    robin)
    L = sp.csr_matrix((vals, (rows, cols)), shape=(nn, nn))
    return L, const, active, pins


def one_sided_entries(grid: QuadtreeGrid, d: int, idx, scale=1.0):
    """COO entries (rows, cols, vals) of scale * (u_side - u_i) / dist toward
    DIRS[d] at node ids idx (scale a number or one per id), and the ids of
    idx with no value on that side, which get no entries.  That value is the
    neighbor's, or on the coarse side of a dangling node (far) the mean of
    the coarse cell's two far corners at distance band * h (first order,
    monotone): scale / dist on the neighbor or half of it on each far
    corner, and -scale / dist on the node itself."""
    far = grid.coarse_side[idx] == d
    ids = np.stack([np.where(far, grid.drv_pair[idx, k], grid.nbr[idx, d])
                    for k in (0, 1)], axis=-1)
    dist = np.where(far, grid.band[idx] * (grid.hx if d < 2 else grid.hy),
                    grid.dist[idx, d])
    have = ids[:, 0] >= 0
    w = (scale / dist)[have]
    missing = idx[~have]
    idx, ids, far = idx[have], ids[have], far[have]
    half = w[far] / 2
    rows = np.concatenate([idx, idx[~far], idx[far], idx[far]])
    cols = np.concatenate([idx, ids[~far, 0], ids[far, 0], ids[far, 1]])
    vals = np.concatenate([-w, w[~far], half, half])
    return (rows, cols, vals), missing


def one_sided_matrices(grid: QuadtreeGrid):
    """Sparse one-sided difference operators toward each side: T[d] @ u
    gives (u_side - u_i)/dist per node, with the dangling missing side
    replaced by the far-corner average.  A row of T[d] is empty where no
    difference toward d exists."""
    nn = grid.n_nodes()
    T = {}
    for d, name in enumerate(DIRS):
        (rows, cols, vals), _ = one_sided_entries(grid, d, np.arange(nn))
        T[name] = sp.csr_matrix((vals, (rows, cols)), shape=(nn, nn))
    return T
