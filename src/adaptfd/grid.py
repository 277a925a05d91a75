"""Balanced quadtree grids over a virtual (2^N+1) x (2^N+1) index lattice.

A grid is a set of leaf cells tiling a rectangular domain.  A cell at scale k
has side 2^k in virtual units and its corner indices are multiples of 2^k, so
any two cells either nest or are disjoint.  Construction enforces, in one
bottom-up pass over scales:

  * full subdivision (a split cell always has all four children),
  * 2:1 balance (edge-adjacent leaves differ by at most one scale),
  * scale-padding (every dangling node keeps pad equal-size cells on both
    sides of its hanging edge, so the widened I-stencil always fits),
  * fill-to-the-edge (no dangling node closer than pad coarse cells to a
    wall; the fine region is extended to the wall instead).

Grid nodes are the union of cell corners, ordered by (j, i).  A finished grid
is immutable and safe to share across threads for read-only queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import LinearNDInterpolator, NearestNDInterpolator
from scipy.spatial import QhullError

REGULAR = "regular"
DANGLING_X = "dangling-x"
DANGLING_Y = "dangling-y"
BOUNDARY = "boundary"

# direction indices used throughout: E, W, N, S
DIRS = ("E", "W", "N", "S")


class GridError(Exception):
    """Structural problem with a quadtree grid."""


class DomainError(GridError):
    """A requested coordinate lies outside the domain box."""


class ScaleError(GridError):
    """A requested scale is outside [0, depth]."""


class InputError(GridError):
    """Bad scattered-data input (e.g. conflicting duplicate points)."""


class GenerationMismatchError(GridError):
    """A grid function was built for a different grid generation."""


@dataclass(frozen=True)
class DomainBox:
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise DomainError("domain box must have positive side lengths")

    @property
    def lx(self) -> float:
        return self.x_max - self.x_min

    @property
    def ly(self) -> float:
        return self.y_max - self.y_min

    def contains(self, x: float, y: float, tol: float = 1e-12) -> bool:
        tx = tol * self.lx
        ty = tol * self.ly
        return (self.x_min - tx <= x <= self.x_max + tx
                and self.y_min - ty <= y <= self.y_max + ty)


@dataclass(frozen=True)
class ScaleRequest:
    """Ask that the location lie in a cell no larger than 2^scale virtual units."""
    x: float
    y: float
    scale: int


@dataclass
class GridNode:
    i: int
    j: int
    x: float
    y: float
    klass: str = REGULAR
    # physical distances to the nearest node in each direction (None = absent)
    de: float | None = None
    dw: float | None = None
    dn: float | None = None
    ds: float | None = None
    # node ids of those nearest neighbors
    nbr: dict = field(default_factory=dict)
    # equidistant opposing pairs for the second-order Laplacian:
    # (id_plus, id_minus, physical distance)
    pair_x: tuple | None = None
    pair_y: tuple | None = None
    # dangling-node extras
    coarse_side: str | None = None      # which direction holds the coarse cell
    band: int | None = None             # virtual size of the coarse cell
    drv_pair: tuple | None = None       # two corner ids for the upwind derivative
    wide: tuple | None = None           # (m, (id_c1, id_c2, id_c3, id_c4)) or None

    def dist(self, d: str) -> float | None:
        return {"E": self.de, "W": self.dw, "N": self.dn, "S": self.ds}[d]


def default_pads(box: DomainBox) -> tuple[int, int]:
    """Scale padding from the domain aspect ratio: pad_x = ceil(Ly / 2Lx)."""
    pad_x = max(1, math.ceil(box.ly / (2.0 * box.lx) - 1e-12))
    pad_y = max(1, math.ceil(box.lx / (2.0 * box.ly) - 1e-12))
    return pad_x, pad_y


class QuadtreeGrid:
    """Immutable balanced quadtree with classified nodes.

    cells maps SW-corner (i, j) -> scale k.  Nodes are the union of cell
    corners, sorted by (j, i); node ids are positions in that order.
    """

    def __init__(self, box: DomainBox, depth: int, pads: tuple[int, int],
                 cells: dict, generation: int = 0, build_ops: int = 0):
        self.box = box
        self.depth = depth
        self.side = 1 << depth
        self.pad_x, self.pad_y = pads
        self.cells = cells
        self.generation = generation
        self.build_ops = build_ops
        self.hx = box.lx / self.side
        self.hy = box.ly / self.side
        self.nodes: list[GridNode] = []
        self.node_id: dict = {}
        self._collect_nodes()
        classify_nodes(self)

    # -- basic queries ------------------------------------------------------

    @property
    def pads(self) -> tuple[int, int]:
        return self.pad_x, self.pad_y

    def n_nodes(self) -> int:
        return len(self.nodes)

    def n_cells(self) -> int:
        return len(self.cells)

    def scales(self) -> list[int]:
        return sorted(set(self.cells.values()))

    def position(self, i: int, j: int) -> tuple[float, float]:
        return self.box.x_min + i * self.hx, self.box.y_min + j * self.hy

    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        x = np.array([n.x for n in self.nodes])
        y = np.array([n.y for n in self.nodes])
        return x, y

    def is_node(self, i: int, j: int) -> bool:
        return (i, j) in self.node_id

    def cells_sorted(self) -> list[tuple[int, int, int]]:
        return sorted(((i, j, k) for (i, j), k in self.cells.items()),
                      key=lambda c: (c[1], c[0]))

    def same_cells(self, other: "QuadtreeGrid") -> bool:
        return self.cells == other.cells and self.depth == other.depth \
            and self.box == other.box

    # -- leaf search --------------------------------------------------------

    def leaf_at_doubled(self, ci: int, cj: int) -> tuple[int, int, int]:
        """Leaf containing the point (ci/2, cj/2), given in doubled virtual
        coordinates so that quadrant probes (2i +/- 1) stay integral."""
        a = b = 0
        k = self.depth
        while True:
            if self.cells.get((a, b)) == k:
                return a, b, k
            if k == 0:
                raise GridError("leaf search fell through the tree")
            k -= 1
            half = 1 << k
            if ci >= 2 * (a + half):
                a += half
            if cj >= 2 * (b + half):
                b += half

    def leaf_containing(self, x: float, y: float) -> tuple[int, int, int]:
        """Leaf containing a physical point (half-open from below, clamped)."""
        fi = (x - self.box.x_min) / self.hx
        fj = (y - self.box.y_min) / self.hy
        ci = min(max(int(math.floor(fi)) * 2 + 1, 1), 2 * self.side - 1)
        cj = min(max(int(math.floor(fj)) * 2 + 1, 1), 2 * self.side - 1)
        return self.leaf_at_doubled(ci, cj)

    # -- value transfer -----------------------------------------------------

    def interpolate(self, values: np.ndarray, x: float, y: float) -> float:
        """Bilinear interpolation from the corners of the leaf containing (x, y)."""
        a, b, k = self.leaf_containing(x, y)
        s = 1 << k
        x0, y0 = self.position(a, b)
        x1, y1 = self.position(a + s, b + s)
        tx = min(max((x - x0) / (x1 - x0), 0.0), 1.0)
        ty = min(max((y - y0) / (y1 - y0), 0.0), 1.0)
        nid = self.node_id
        v00 = values[nid[(a, b)]]
        v10 = values[nid[(a + s, b)]]
        v01 = values[nid[(a, b + s)]]
        v11 = values[nid[(a + s, b + s)]]
        return ((1 - tx) * (1 - ty) * v00 + tx * (1 - ty) * v10
                + (1 - tx) * ty * v01 + tx * ty * v11)

    # -- dump ---------------------------------------------------------------

    def dump(self) -> str:
        """Plain-text dump: `node i j x y class dE dW dN dS` then `cell i j k`,
        both ordered by (j, i)."""
        out = []

        def fmt(v):
            return "-" if v is None else repr(v)

        for n in self.nodes:
            out.append("node %d %d %r %r %s %s %s %s %s" % (
                n.i, n.j, n.x, n.y, n.klass,
                fmt(n.de), fmt(n.dw), fmt(n.dn), fmt(n.ds)))
        for (i, j, k) in self.cells_sorted():
            out.append("cell %d %d %d" % (i, j, k))
        return "\n".join(out) + "\n"

    def _collect_nodes(self):
        seen = set()
        for (a, b), k in self.cells.items():
            s = 1 << k
            seen.update(((a, b), (a + s, b), (a, b + s), (a + s, b + s)))
        order = sorted(seen, key=lambda t: (t[1], t[0]))
        self.node_id = {ij: idx for idx, ij in enumerate(order)}
        self.nodes = [GridNode(i, j, *self.position(i, j)) for (i, j) in order]


@dataclass
class GridFunction:
    """Real values attached to every node of a specific grid."""
    grid: QuadtreeGrid
    values: np.ndarray
    generation: int = -1

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_nodes(),):
            raise GridError("grid function size does not match node count")
        if self.generation < 0:
            self.generation = self.grid.generation

    def check(self, grid: QuadtreeGrid):
        if self.generation != grid.generation:
            raise GenerationMismatchError(
                "grid function generation %d does not match grid generation %d"
                % (self.generation, grid.generation))

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy(), self.generation)


# ---------------------------------------------------------------------------
# construction

def _snap_index(frac: float, side: int) -> int:
    # nearest lattice point; exact ties snap toward the origin
    i = math.ceil(frac - 0.5)
    return min(max(i, 0), side)


def _seed_for_request(req: ScaleRequest, box: DomainBox, depth: int):
    side = 1 << depth
    if not box.contains(req.x, req.y):
        raise DomainError("request at (%g, %g) lies outside the domain box"
                          % (req.x, req.y))
    if not 0 <= req.scale <= depth:
        raise ScaleError("requested scale %d outside [0, %d]" % (req.scale, depth))
    i = _snap_index((req.x - box.x_min) / (box.lx / side), side)
    j = _snap_index((req.y - box.y_min) / (box.ly / side), side)
    s = 1 << req.scale
    a = min((i // s) * s, side - s)
    b = min((j // s) * s, side - s)
    return a, b, req.scale


def _build_from_seeds(seeds, box: DomainBox, depth: int,
                      pads: tuple[int, int], generation: int = 0) -> QuadtreeGrid:
    """Bottom-up construction: per scale, close the required-square list under
    siblings and fill-to-the-edge, then push parents plus padding neighbors up
    one scale.  Each rule only looks sideways or upward, so one sweep with an
    intra-level fixpoint loop reaches the closure."""
    side = 1 << depth
    pad_x, pad_y = pads
    if pad_x < 1 or pad_y < 1:
        raise GridError("pads must be >= 1")
    levels: list[set] = [set() for _ in range(depth + 1)]
    ops = 0
    for (a, b, k) in seeds:
        levels[k].add((a, b))
        ops += 1
    levels[depth].add((0, 0))

    for k in range(depth):
        req = levels[k]
        if not req:
            continue
        size = 1 << k
        psize = size << 1
        changed = True
        while changed:
            changed = False
            parents = set()
            for (a, b) in req:
                parents.add((min(a // psize * psize, side - psize),
                             min(b // psize * psize, side - psize)))
                ops += 1
            # sibling closure: a split parent keeps all four children
            for (pa, pb) in parents:
                for (ca, cb) in ((pa, pb), (pa + size, pb),
                                 (pa, pb + size), (pa + size, pb + size)):
                    ops += 1
                    if (ca, cb) not in req:
                        req.add((ca, cb))
                        changed = True
            # fill to the edge: a split parent too close to a wall drags its
            # neighbor toward the wall into the split set, so no dangling node
            # sits within pad coarse cells of that wall
            for (pa, pb) in list(parents):
                for (na, nb) in _edge_fill_neighbors(pa, pb, psize, side,
                                                     pad_x, pad_y):
                    ops += 1
                    for (ca, cb) in ((na, nb), (na + size, nb),
                                     (na, nb + size), (na + size, nb + size)):
                        if (ca, cb) not in req:
                            req.add((ca, cb))
                            changed = True
        # push required squares one scale up: parents of everything here,
        # plus pad equal-size neighbors of each split parent
        up = levels[k + 1]
        parents = set()
        for (a, b) in req:
            parents.add((a // psize * psize, b // psize * psize))
            ops += 1
        for (pa, pb) in parents:
            up.add((pa, pb))
            for s in range(1, pad_x + 1):
                for na in (pa - s * psize, pa + s * psize):
                    ops += 1
                    if 0 <= na <= side - psize:
                        up.add((na, pb))
            for s in range(1, pad_y + 1):
                for nb in (pb - s * psize, pb + s * psize):
                    ops += 1
                    if 0 <= nb <= side - psize:
                        up.add((pa, nb))

    cells = {}
    for k in range(depth + 1):
        size = 1 << k
        for (a, b) in levels[k]:
            ops += 1
            if k == 0 or not _has_child(levels[k - 1], a, b, size >> 1):
                cells[(a, b)] = k
    return QuadtreeGrid(box, depth, pads, cells, generation, ops)


def _edge_fill_neighbors(pa, pb, psize, side, pad_x, pad_y):
    """Neighbors of a split square that must themselves split because a
    dangling node on the shared edge could not fit its pad-wide stencil
    window inside [0, side]."""
    out = []
    span_x = pad_x * psize
    span_y = pad_y * psize
    for edge, nbr in ((pa, (pa - psize, pb)), (pa + psize, (pa + psize, pb))):
        if 0 < edge < side and (edge - span_x < 0 or edge + span_x > side):
            out.append(nbr)
    for edge, nbr in ((pb, (pa, pb - psize)), (pb + psize, (pa, pb + psize))):
        if 0 < edge < side and (edge - span_y < 0 or edge + span_y > side):
            out.append(nbr)
    return out


def _has_child(finer: set, a, b, half):
    return ((a, b) in finer or (a + half, b) in finer
            or (a, b + half) in finer or (a + half, b + half) in finer)


def build_quadtree(requests, depth: int, box: DomainBox,
                   pads: tuple[int, int] | None = None,
                   generation: int = 0) -> QuadtreeGrid:
    """Build the minimal legal quadtree whose cells contain every request.

    Each request pins the half-open scale-k square containing its snapped
    lattice point; coordinates already aligned at scale k thereby become grid
    nodes.  With M requests the construction touches O(depth * M) squares.
    """
    if pads is None:
        pads = default_pads(box)
    seeds = [_seed_for_request(r, box, depth) for r in requests]
    return _build_from_seeds(seeds, box, depth, pads, generation)


def init_from_scattered(points, depth: int,
                        box: DomainBox | None = None,
                        pads: tuple[int, int] | None = None):
    """Interpolate scattered (x, y, value) data onto the smallest quadtree on
    which every data point appears as a node.

    Points snap to the virtual lattice; each becomes a node by requiring all
    cells incident to it at its alignment scale (the largest scale at which
    both indices are corner-aligned).  Returns (grid, GridFunction); the grid
    is the fixed initial quadtree that later refinements must contain.
    """
    pts = list(points)
    if not pts:
        raise InputError("no scattered points supplied")
    if box is None:
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        box = DomainBox(min(xs), max(xs), min(ys), max(ys))
    if pads is None:
        pads = default_pads(box)
    side = 1 << depth

    snapped = {}
    for (x, y, v) in pts:
        if not box.contains(x, y):
            raise DomainError("scattered point (%g, %g) outside the domain box"
                              % (x, y))
        i = _snap_index((x - box.x_min) / (box.lx / side), side)
        j = _snap_index((y - box.y_min) / (box.ly / side), side)
        if (i, j) in snapped and abs(snapped[(i, j)] - v) > 1e-12 * max(1.0, abs(v)):
            raise InputError("duplicate points at lattice (%d, %d) with "
                             "conflicting values" % (i, j))
        snapped[(i, j)] = v

    def val2(n):
        return depth if n == 0 else min((n & -n).bit_length() - 1, depth)

    seeds = []
    for (i, j) in snapped:
        k = min(val2(i), val2(j))
        s = 1 << k
        for a in {max(i - s, 0), min(i, side - s)}:
            for b in {max(j - s, 0), min(j, side - s)}:
                if a % s == 0 and b % s == 0 and a <= i <= a + s and b <= j <= b + s:
                    seeds.append((a, b, k))
    grid = _build_from_seeds(seeds, box, depth, pads)

    values = _interpolate_scattered(grid, snapped)
    return grid, GridFunction(grid, values)


def _interpolate_scattered(grid: QuadtreeGrid, snapped: dict) -> np.ndarray:
    pts = np.array([grid.position(i, j) for (i, j) in snapped])
    vals = np.array(list(snapped.values()), dtype=float)
    out = np.empty(grid.n_nodes())
    xs, ys = grid.positions()
    if len(snapped) == 1:
        out[:] = vals[0]
    else:
        nearest = NearestNDInterpolator(pts, vals)
        out[:] = nearest(xs, ys)
        if len(snapped) >= 3:
            try:
                lin = LinearNDInterpolator(pts, vals)
                inside = lin(xs, ys)
                mask = ~np.isnan(inside)
                out[mask] = inside[mask]
            except QhullError:
                pass  # collinear data: nearest-point fill stands
    for (i, j), v in snapped.items():
        out[grid.node_id[(i, j)]] = v
    return out


# ---------------------------------------------------------------------------
# node classification

def classify_nodes(grid: QuadtreeGrid) -> QuadtreeGrid:
    """Assign every node a class and populate neighbor distances, equidistant
    opposing pairs, and the dangling-node stencil geometry."""
    side = grid.side
    nid = grid.node_id
    # virtual distance from each node to its nearest neighbor
    grid.min_spacing = np.zeros(grid.n_nodes(), dtype=int)
    for idx, node in enumerate(grid.nodes):
        i, j = node.i, node.j
        quads = {}
        for qname, (dx, dy) in (("NE", (1, 1)), ("NW", (-1, 1)),
                                ("SW", (-1, -1)), ("SE", (1, -1))):
            ci, cj = 2 * i + dx, 2 * j + dy
            if 0 < ci < 2 * side and 0 < cj < 2 * side:
                quads[qname] = grid.leaf_at_doubled(ci, cj)
        on_wall = i == 0 or i == side or j == 0 or j == side

        coarse_side = None
        if not on_wall:
            if quads["NW"] == quads["SW"]:
                coarse_side = "W"
            elif quads["NE"] == quads["SE"]:
                coarse_side = "E"
            elif quads["NE"] == quads["NW"]:
                coarse_side = "N"
            elif quads["SE"] == quads["SW"]:
                coarse_side = "S"

        dist_v = {}
        for d, qnames in (("E", ("NE", "SE")), ("W", ("NW", "SW")),
                          ("N", ("NE", "NW")), ("S", ("SE", "SW"))):
            if coarse_side == d:
                dist_v[d] = None
                continue
            exts = []
            for q in qnames:
                if q not in quads:
                    continue
                a, b, k = quads[q]
                s = 1 << k
                ext = {"E": a + s - i, "W": i - a,
                       "N": b + s - j, "S": j - b}[d]
                exts.append(ext)
            dist_v[d] = min(exts) if exts else None

        node.klass = BOUNDARY if on_wall else (
            DANGLING_X if coarse_side in ("E", "W") else
            DANGLING_Y if coarse_side in ("N", "S") else REGULAR)
        node.coarse_side = coarse_side

        node.nbr = {}
        for d, dv in dist_v.items():
            if dv is None:
                continue
            ni, nj = {"E": (i + dv, j), "W": (i - dv, j),
                      "N": (i, j + dv), "S": (i, j - dv)}[d]
            node.nbr[d] = nid[(ni, nj)]
        node.de = dist_v["E"] * grid.hx if dist_v["E"] is not None else None
        node.dw = dist_v["W"] * grid.hx if dist_v["W"] is not None else None
        node.dn = dist_v["N"] * grid.hy if dist_v["N"] is not None else None
        node.ds = dist_v["S"] * grid.hy if dist_v["S"] is not None else None

        grid.min_spacing[idx] = min(
            (v for v in dist_v.values() if v is not None), default=0)

        # nearest equidistant opposing pairs (the far node on the finer side
        # always exists: the fine cells' parent supplies the corner)
        node.pair_x = node.pair_y = None
        if dist_v["E"] is not None and dist_v["W"] is not None:
            d = max(dist_v["E"], dist_v["W"])
            node.pair_x = (nid[(i + d, j)], nid[(i - d, j)], d * grid.hx)
        if dist_v["N"] is not None and dist_v["S"] is not None:
            d = max(dist_v["N"], dist_v["S"])
            node.pair_y = (nid[(i, j + d)], nid[(i, j - d)], d * grid.hy)

        node.band = node.drv_pair = node.wide = None
        if coarse_side is not None:
            _dangling_geometry(grid, node)
    return grid


def _dangling_geometry(grid: QuadtreeGrid, node: GridNode):
    """Corner ids for the dangling-node I-stencil: the value opposite the
    coarse cell is interpolated from equidistant far corners; the stencil is
    widened until the axis-pair weight stays nonnegative."""
    nid = grid.node_id
    i, j = node.i, node.j
    a, b, k = {"W": grid.leaf_at_doubled(2 * i - 1, 2 * j),
               "E": grid.leaf_at_doubled(2 * i + 1, 2 * j),
               "N": grid.leaf_at_doubled(2 * i, 2 * j + 1),
               "S": grid.leaf_at_doubled(2 * i, 2 * j - 1)}[node.coarse_side]
    band = 1 << k
    node.band = band
    half = band >> 1

    if node.coarse_side in ("E", "W"):
        sgn = 1 if node.coarse_side == "E" else -1
        cpair = ((i + sgn * band, j - half), (i + sgn * band, j + half))
        fine, coarse = half * grid.hy, band * grid.hx
        m = max(1, math.ceil(fine / coarse - 1e-12))

        def corners(mm):
            w = mm * band
            return ((i - w, j - half), (i - w, j + half),
                    (i + w, j - half), (i + w, j + half))
    else:
        sgn = 1 if node.coarse_side == "N" else -1
        cpair = ((i - half, j + sgn * band), (i + half, j + sgn * band))
        fine, coarse = half * grid.hx, band * grid.hy
        m = max(1, math.ceil(fine / coarse - 1e-12))

        def corners(mm):
            w = mm * band
            return ((i - half, j - w), (i + half, j - w),
                    (i - half, j + w), (i + half, j + w))

    node.drv_pair = tuple(nid[c] for c in cpair)
    pad = grid.pad_x if node.coarse_side in ("E", "W") else grid.pad_y
    cs = corners(m)
    if m <= pad and all(c in nid for c in cs):
        node.wide = (m, tuple(nid[c] for c in cs))
    else:
        node.wide = None


# ---------------------------------------------------------------------------
# dump parsing (used by the render verb)

def parse_dump(text: str):
    """Parse a grid dump back into (nodes, cells, box, depth).

    nodes: list of dicts with i, j, x, y, klass; cells: list of (i, j, k).
    The box and depth are recovered from the records themselves.
    """
    nodes = []
    cells = []
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "node":
            nodes.append({"i": int(parts[1]), "j": int(parts[2]),
                          "x": float(parts[3]), "y": float(parts[4]),
                          "klass": parts[5]})
        elif parts[0] == "cell":
            cells.append((int(parts[1]), int(parts[2]), int(parts[3])))
    if not nodes or not cells:
        raise GridError("dump contains no node/cell records")
    side = max(i + (1 << k) for (i, j, k) in cells)
    depth = side.bit_length() - 1
    xs = [n["x"] for n in nodes]
    ys = [n["y"] for n in nodes]
    box = DomainBox(min(xs), max(xs), min(ys), max(ys))
    return nodes, cells, box, depth
