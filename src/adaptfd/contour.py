"""Level-set extraction by marching over quadtree leaf cells.

Each leaf is walked counterclockwise through all grid nodes on its perimeter
(corners plus any hanging midpoints, which 2:1 balance limits to one per
edge).  Crossings are linearly interpolated on these sub-edges, so the two
cells sharing an edge compute bitwise-identical crossing points and the
polylines stitch watertight across scale changes.  The crossed leaves are
found from the grid segments between line neighbors that the level
crosses, and every crossing of them is computed at once, as arrays; only
the chaining of segments into polylines walks them one by one.
"""

from __future__ import annotations

import numpy as np

from .grid import GridFunction, QuadtreeGrid


def extract_contour(grid: QuadtreeGrid, values: np.ndarray,
                    level: float) -> list:
    """Polylines of {values = level} as arrays of (x, y) points; values has
    one entry per node of grid (GridError otherwise).  A level outside the
    value range gives an empty list.  Closed contours repeat their first
    point at the end.
    """
    values = GridFunction(grid, values).values
    if not (values.min() <= level <= values.max()):
        return []

    # a leaf is crossed where its ring holds nodes on both sides of the
    # level, so where one of its sub-edges does: a sub-edge is a segment
    # between line neighbors E or N, and both leaves it bounds are crossed
    lt = values < level
    side = grid.side
    ci, cj = [], []
    for d, (di, dj) in ((0, (0, -1)), (2, (-1, 0))):
        nbr = grid.nbr[:, d]
        at = np.flatnonzero(nbr >= 0)
        at = at[lt[at] != lt[nbr[at]]]
        # the unit cells above and below a segment E, right and left of
        # one N
        ci += [grid.i[at], grid.i[at] + di]
        cj += [grid.j[at], grid.j[at] + dj]
    ci, cj = np.concatenate(ci), np.concatenate(cj)
    inside = (ci >= 0) & (ci < side) & (cj >= 0) & (cj < side)
    a, b, k = grid.leaves[np.unique(
        grid.leaf_of_cell(ci[inside], cj[inside]))].T
    # in the dump order, by (b, a)
    order = np.lexsort((a, b))
    a, b, k = a[order], b[order], k[order]

    # each crossed leaf's perimeter ring, counterclockwise: corner, edge
    # midpoint, corner, ...; a midpoint slot holds -1 where no node bisects
    # that edge
    s = 1 << k
    h = s >> 1
    ring_i = np.stack([a, a + h, a + s, a + s, a + s, a + h, a, a], axis=1)
    ring_j = np.stack([b, b, b, b + h, b + s, b + s, b + s, b + h], axis=1)
    ring = grid.find(ring_i, ring_j)
    ring[h == 0, 1::2] = -1
    lt = lt[ring]
    present = ring >= 0

    # each present slot's sub-edge ends at the next slot, or past a missing
    # midpoint at the corner after it; every crossed sub-edge in leaf and
    # ring order, an even number per leaf
    after = np.arange(1, 9) % 8
    succ = np.where(present[:, after], after, (after + 1) % 8)
    leaf = np.arange(len(ring))[:, None]
    c, e = np.nonzero(present & (lt != lt[leaf, succ]))
    f = succ[c, e]
    # canonical endpoint order, by (j, i), so both sides of a shared edge
    # compute the identical crossing point
    swap = (ring_j[c, f] < ring_j[c, e]) | (
        (ring_j[c, f] == ring_j[c, e]) & (ring_i[c, f] < ring_i[c, e]))
    e, f = np.where(swap, f, e), np.where(swap, e, f)
    v1, v2 = values[ring[c, e]], values[ring[c, f]]
    t = (level - v1) / (v2 - v1)
    x1, y1 = grid.position(ring_i[c, e], ring_j[c, e])
    x2, y2 = grid.position(ring_i[c, f], ring_j[c, f])
    px = x1 + t * (x2 - x1)
    py = y1 + t * (y2 - y1)
    # a leaf's crossings pair up in ring order into its segments
    keep = (px[0::2] != px[1::2]) | (py[0::2] != py[1::2])
    pts = list(zip(px.tolist(), py.tolist()))
    segments = [(pts[2 * m], pts[2 * m + 1])
                for m in np.flatnonzero(keep).tolist()]
    return _chain(segments)


def _chain(segments) -> list:
    """Join segments into ordered polylines by exact endpoint matching."""
    from collections import defaultdict
    touch = defaultdict(list)
    for sid, (p, q) in enumerate(segments):
        touch[p].append(sid)
        touch[q].append(sid)
    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        p, q = segments[start]
        chain = [p, q]
        for head in (1, 0):
            while True:
                end = chain[-1] if head else chain[0]
                nxt = next((sid for sid in touch[end] if not used[sid]), None)
                if nxt is None:
                    break
                used[nxt] = True
                a, b = segments[nxt]
                point = b if a == end else a
                if head:
                    chain.append(point)
                else:
                    chain.insert(0, point)
            if chain[0] == chain[-1]:
                break
        polylines.append(np.array(chain))
    return polylines


def polyline_points(polylines) -> np.ndarray:
    """All vertices of a polyline list as an (n, 2) array."""
    if not polylines:
        return np.zeros((0, 2))
    return np.vstack(polylines)


def hausdorff_distance(polys_a, polys_b) -> float:
    """Symmetric Hausdorff distance between two polyline families, measured
    on their vertex sets."""
    from scipy.spatial import cKDTree
    pa = polyline_points(polys_a)
    pb = polyline_points(polys_b)
    if len(pa) == 0 or len(pb) == 0:
        return np.inf
    da = cKDTree(pb).query(pa)[0].max()
    db = cKDTree(pa).query(pb)[0].max()
    return float(max(da, db))
