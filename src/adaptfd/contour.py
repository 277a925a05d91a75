"""Level-set extraction by marching over quadtree leaf cells.

Each leaf is walked counterclockwise through all grid nodes on its perimeter
(corners plus any hanging midpoints, which 2:1 balance limits to one per
edge).  Crossings are linearly interpolated on these sub-edges, so the two
cells sharing an edge compute bitwise-identical crossing points and the
polylines stitch watertight across scale changes.
"""

from __future__ import annotations

import numpy as np

from .grid import QuadtreeGrid


def extract_contour(grid: QuadtreeGrid, values: np.ndarray,
                    level: float) -> list:
    """Polylines of {values = level} as arrays of (x, y) points; values has
    one entry per node of grid.  A level outside the value range gives an
    empty list.  Closed contours repeat their first point at the end.
    """
    if not (values.min() <= level <= values.max()):
        return []

    # each leaf's perimeter ring, counterclockwise: corner, edge midpoint,
    # corner, ...; a midpoint slot holds -1 where no node bisects that edge
    a, b, k = grid.cells_sorted().T
    s = 1 << k
    h = s >> 1
    ring_i = np.stack([a, a + h, a + s, a + s, a + s, a + h, a, a], axis=1)
    ring_j = np.stack([b, b, b, b + h, b + s, b + s, b + s, b + h], axis=1)
    ring = grid.find(ring_i, ring_j)
    ring[h == 0, 1::2] = -1
    # only leaves with ring values on both sides of the level are crossed
    lt = values[ring] < level
    present = ring >= 0
    crossed = np.flatnonzero((lt & present).any(axis=1)
                             & (~lt & present).any(axis=1))

    segments = []
    for c in crossed.tolist():
        at = ring[c] >= 0
        pts = list(zip(ring_i[c, at].tolist(), ring_j[c, at].tolist()))
        ids = ring[c, at].tolist()
        crossings = []
        m = len(pts)
        for e in range(m):
            p, q = pts[e], pts[(e + 1) % m]
            vp = values[ids[e]]
            vq = values[ids[(e + 1) % m]]
            if (vp < level) == (vq < level):
                continue
            # canonical endpoint order so both sides of a shared edge
            # compute the identical crossing point
            (p1, v1), (p2, v2) = sorted(((p, vp), (q, vq)),
                                        key=lambda t: (t[0][1], t[0][0]))
            t = (level - v1) / (v2 - v1)
            x = grid.position(*p1)
            y = grid.position(*p2)
            crossings.append((x[0] + t * (y[0] - x[0]),
                              x[1] + t * (y[1] - x[1])))
        for c0, c1 in zip(crossings[0::2], crossings[1::2]):
            if c0 != c1:
                segments.append((c0, c1))
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
