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

The grid is a linear quadtree: its leaves are an (m, 3) integer array of
squares (a, b, k) sorted by the Morton key of their SW corner, so the leaf
containing any lattice cell is one binary search away.  Grid nodes are the
union of cell corners, ordered by (j, i), and every per-node quantity is an
array indexed by node id.  A finished grid is immutable (its arrays are
read-only) and safe to share across threads for read-only queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

REGULAR = "regular"
DANGLING_X = "dangling-x"
DANGLING_Y = "dangling-y"
BOUNDARY = "boundary"

# node class codes index this tuple
CLASSES = (REGULAR, DANGLING_X, DANGLING_Y, BOUNDARY)
CODE = {name: c for c, name in enumerate(CLASSES)}

# direction indices used throughout: E, W, N, S
DIRS = ("E", "W", "N", "S")


class GridError(Exception):
    """Structural problem with a quadtree grid."""


class DomainError(GridError):
    """A domain box without finite positive sides or usable node spacings."""


class ScaleError(GridError):
    """A requested scale is outside [0, depth], or a grid depth outside
    [0, MAX_DEPTH]."""


class GenerationMismatchError(GridError):
    """A grid function lives on a grid with other cells."""


@dataclass(frozen=True)
class DomainBox:
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (self.x_max > self.x_min and self.y_max > self.y_min
                and math.isfinite(self.lx + self.ly)):
            raise DomainError("domain box must have finite positive sides")

    @property
    def lx(self) -> float:
        return self.x_max - self.x_min

    @property
    def ly(self) -> float:
        return self.y_max - self.y_min


def default_pads(box: DomainBox) -> tuple[int, int]:
    """Scale padding from the domain aspect ratio: pad_x = ceil(Ly / 2Lx)."""
    pad_x = max(1, math.ceil(box.ly / (2.0 * box.lx) - 1e-12))
    pad_y = max(1, math.ceil(box.lx / (2.0 * box.ly) - 1e-12))
    return pad_x, pad_y


# node keys j * (side + 1) + i with i, j <= side = 2^depth fit in an int64
# up to depth 31, as do the packed squares (a << 32) | b of _pack
MAX_DEPTH = 31


def text_by_key(keys, values, fmt) -> list:
    """[fmt(v) for v in values.tolist()], calling fmt once per distinct key:
    values[n] must depend on the nonnegative int keys[n] alone."""
    at = np.full(int(keys.max(initial=-1)) + 1, -1)
    at[keys] = np.arange(len(keys))
    seen = np.flatnonzero(at >= 0)
    table = np.empty(len(at), dtype=object)
    table[seen] = np.array(list(map(fmt, values[at[seen]].tolist())),
                           dtype=object)
    return table[keys].tolist()


def _lattice_side(depth) -> int:
    """2^depth, the lattice side; ScaleError outside [0, MAX_DEPTH]."""
    if not 0 <= depth <= MAX_DEPTH:
        raise ScaleError("grid depth %r outside [0, %d]" % (depth, MAX_DEPTH))
    return 1 << depth


def _spacings(box: DomainBox, depth: int):
    """(hx, hy) of the depth-level lattice on box; DomainError unless every
    node distance d, from min(hx, hy) to max(lx, ly), has a finite positive
    d * d and 1 / (d * d), which the stencils divide by."""
    side = _lattice_side(depth)
    hx, hy = box.lx / side, box.ly / side
    for d in (min(hx, hy), max(box.lx, box.ly)):
        if not (0.0 < d * d < math.inf and 1.0 / (d * d) < math.inf):
            raise DomainError("a depth-%d grid on this box has node distance "
                              "%r, too far from 1 to square and invert"
                              % (depth, d))
    return hx, hy


def _spread_bits(v):
    # the low 32 bits of v moved to the even bit positions of a uint64
    v = np.asarray(v).astype(np.uint64) & np.uint64(0xFFFFFFFF)
    for shift, mask in ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
                        (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
                        (1, 0x5555555555555555)):
        v = (v | (v << np.uint64(shift))) & np.uint64(mask)
    return v


def morton(a, b):
    """Morton (Z-order) key of lattice points: the bits of a and b
    interleaved, a in the even positions."""
    return _spread_bits(a) | (_spread_bits(b) << np.uint64(1))


def _frozen(arr):
    arr.flags.writeable = False
    return arr


def _morton_sorted(leaves):
    """Squares (a, b, k) as an (m, 3) int array sorted by the Morton key of
    their SW corner, and those keys."""
    leaves = np.asarray(leaves, dtype=np.int64).reshape(-1, 3)
    keys = morton(leaves[:, 0], leaves[:, 1])
    order = np.argsort(keys, kind="stable")
    return leaves[order], keys[order]


def _check_tiling(leaves, keys, depth: int):
    """GridError unless the Morton-sorted squares (a, b, k), with keys their
    Morton keys, tile the lattice: aligned inside it, each covers the keys
    [morton(a, b), + 4^k), and those ranges run from 0 to 4^depth with no
    gap or overlap."""
    _as_seeds(leaves, depth)
    ends = keys + (np.uint64(1) << (2 * leaves[:, 2]).astype(np.uint64))
    if not len(keys) or keys[0] != 0 or ends[-1] != 1 << 2 * depth \
            or np.any(keys[1:] != ends[:-1]):
        raise GridError("cells do not form a legal quadtree: they do not "
                        "tile the %d x %d lattice" % (1 << depth, 1 << depth))


class QuadtreeGrid:
    """Immutable balanced quadtree with classified nodes.

    leaves is an (m, 3) int array of squares (a, b, k), Morton-sorted.  Nodes
    are the union of cell corners, sorted by (j, i); node ids are positions
    in that order, and the node arrays are indexed by them:

      i, j, x, y      lattice indices and physical coordinates
      klass           class code, an index into CLASSES
      nbr, dist       (n, 4) id of and physical distance to the nearest node
                      toward E, W, N, S (-1 and NaN where absent)
      pair, pair_dist (n, 4) ids (x+, x-, y+, y-) and (n, 2) distances of
                      the nearest equidistant opposing pairs
      coarse_side     direction index of the coarse cell of a dangling node
                      (-1 elsewhere); band is that cell's virtual side
      drv_pair        (n, 2) the coarse cell's far corners on that side
      wide, wide_ids  width m of the monotone I-stencil (0 where none fits)
                      and its four corner ids
      min_spacing     virtual distance to the nearest neighbor

    node_text is the nodes' i, j, x, y as text, built on first access for
    the writers.  keys, when given, are the Morton keys of leaves that come
    sorted by them, as quadtree_leaves returns both; otherwise the leaves
    are sorted here.  Leaves that do not tile the lattice raise GridError.
    """

    def __init__(self, box: DomainBox, depth: int, pads: tuple[int, int],
                 leaves, build_ops: int = 0, keys=None):
        self.box = box
        self.depth = depth
        self.side = _lattice_side(depth)
        self.pad_x, self.pad_y = pads
        self.build_ops = build_ops
        self.hx, self.hy = _spacings(box, depth)
        if keys is None:
            leaves, keys = _morton_sorted(leaves)
        _check_tiling(leaves, keys, depth)
        self.leaves = _frozen(leaves)
        self._leaf_keys = _frozen(keys)
        self._collect_nodes()
        classify_nodes(self)

    # -- basic queries ------------------------------------------------------

    @property
    def pads(self) -> tuple[int, int]:
        return self.pad_x, self.pad_y

    def n_nodes(self) -> int:
        return len(self.i)

    def n_cells(self) -> int:
        return len(self.leaves)

    def scales(self) -> list[int]:
        return np.unique(self.leaves[:, 2]).tolist()

    def position(self, i, j):
        return self.box.x_min + i * self.hx, self.box.y_min + j * self.hy

    def find(self, i, j):
        """Node ids of lattice points (i, j); -1 where there is no node."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        side = self.side
        inside = (i >= 0) & (i <= side) & (j >= 0) & (j <= side)
        key = np.where(inside, j * (side + 1) + i, -1)
        pos = np.searchsorted(self._node_keys, key)
        pos = np.minimum(pos, len(self._node_keys) - 1)
        return np.where(inside & (self._node_keys[pos] == key), pos, -1)

    def cells_sorted(self) -> np.ndarray:
        """Leaves as an (m, 3) array ordered by (b, a), the dump order."""
        lv = self.leaves
        return lv[np.lexsort((lv[:, 0], lv[:, 1]))]

    def same_cells(self, other: "QuadtreeGrid") -> bool:
        return self.depth == other.depth and self.box == other.box \
            and np.array_equal(self.leaves, other.leaves)

    # -- leaf search --------------------------------------------------------

    def leaf_of_cell(self, ci, cj):
        """Index into leaves of the leaf containing each unit lattice cell
        [ci, ci+1] x [cj, cj+1]: the last leaf whose Morton key is not
        above the cell's, since every leaf covers one contiguous key range."""
        return np.searchsorted(self._leaf_keys, morton(ci, cj),
                               side="right") - 1

    # -- value transfer -----------------------------------------------------

    def interpolate(self, values: np.ndarray, x, y):
        """Bilinear interpolation from the corners of the leaf containing
        each point of the arrays x, y (half-open from below, clamped)."""
        top = self.side - 1
        ci = np.clip(np.floor((x - self.box.x_min) / self.hx), 0, top)
        cj = np.clip(np.floor((y - self.box.y_min) / self.hy), 0, top)
        a, b, k = self.leaves[self.leaf_of_cell(ci.astype(np.int64),
                                                cj.astype(np.int64))].T
        s = 1 << k
        x0, y0 = self.position(a, b)
        x1, y1 = self.position(a + s, b + s)
        tx = np.minimum(np.maximum((x - x0) / (x1 - x0), 0.0), 1.0)
        ty = np.minimum(np.maximum((y - y0) / (y1 - y0), 0.0), 1.0)
        v00 = values[self.find(a, b)]
        v10 = values[self.find(a + s, b)]
        v01 = values[self.find(a, b + s)]
        v11 = values[self.find(a + s, b + s)]
        return ((1 - tx) * (1 - ty) * v00 + tx * (1 - ty) * v10
                + (1 - tx) * ty * v01 + tx * ty * v11)

    # -- dump ---------------------------------------------------------------

    @cached_property
    def node_text(self):
        """Per-node text of i, j (str) and x, y (repr), as four tuples; each
        distinct lattice value is formatted once, and every writer of this
        grid shares them."""
        i, j = self.i, self.j
        return tuple(tuple(text_by_key(k, v, fmt)) for k, v, fmt in (
            (i, i, str), (j, j, str), (i, self.x, repr), (j, self.y, repr)))

    def dump(self) -> str:
        """Plain-text dump: `node i j x y class dE dW dN dS` then `cell i j k`,
        both ordered by (j, i)."""
        # the distance columns E, W, N, S end to end; each distinct distance
        # (by its bits) formatted once, NaN as "-"
        cols = self.dist.T.ravel()
        _, key = np.unique(cols.view(np.int64), return_inverse=True)
        text = text_by_key(key, cols, lambda d: repr(d) if d == d else "-")
        n = self.n_nodes()
        names = np.array(CLASSES, dtype=object)[self.klass].tolist()
        out = ["node " + " ".join(row) for row in zip(
            *self.node_text, names, *(text[d * n:(d + 1) * n]
                                      for d in range(4)))]
        a, b, k = self.cells_sorted().T
        out += map("cell %s %s %s".__mod__, zip(
            text_by_key(a, a, str), text_by_key(b, b, str),
            text_by_key(k, k, str)))
        return "\n".join(out) + "\n"

    def _collect_nodes(self):
        a, b, k = self.leaves.T
        s = 1 << k
        stride = self.side + 1
        corners = np.concatenate([b * stride + a, b * stride + a + s,
                                  (b + s) * stride + a,
                                  (b + s) * stride + a + s])
        self._node_keys = _frozen(_unique(corners))
        self.i = _frozen(self._node_keys % stride)
        self.j = _frozen(self._node_keys // stride)
        x, y = self.position(self.i, self.j)
        self.x = _frozen(x)
        self.y = _frozen(y)


@dataclass
class GridFunction:
    """Real values attached to every node of a specific grid."""
    grid: QuadtreeGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_nodes(),):
            raise GridError("grid function size does not match node count")

    def check(self, grid: QuadtreeGrid):
        """GenerationMismatchError unless these values live on grid's cells."""
        if not (self.grid is grid or self.grid.same_cells(grid)):
            raise GenerationMismatchError(
                "grid function on %d nodes does not live on this grid of %d "
                "nodes" % (self.grid.n_nodes(), grid.n_nodes()))


# ---------------------------------------------------------------------------
# construction

def _as_seeds(requests, depth: int) -> np.ndarray:
    """Required squares (a, b, k), checked: an integer array of m rows."""
    side = _lattice_side(depth)
    if not (isinstance(requests, np.ndarray) and requests.dtype.kind in "iu"
            and requests.size % 3 == 0):
        raise GridError("requests must be an (m, 3) integer array of "
                        "squares (a, b, k)")
    seeds = requests.astype(np.int64, copy=False).reshape(-1, 3)
    a, b, k = seeds.T
    if np.any((k < 0) | (k > depth)):
        raise ScaleError("requested scale outside [0, %d]" % depth)
    s = 1 << k
    if np.any((a % s != 0) | (b % s != 0) | (a < 0) | (b < 0)
              | (a > side - s) | (b > side - s)):
        raise GridError("requested square not aligned inside the lattice")
    return seeds


def _ring_squares(side: int, i, j, scale) -> np.ndarray:
    """Per lattice point (i, j), every scale-s square incident to it, inside
    [0, side]; a-major order."""
    s = 1 << scale

    def span(n):
        lo = np.where(n > 0, (n - 1) // s * s, 0)
        hi = np.where(n < side, n // s * s, side - s)
        return lo, (hi - lo) // s + 1

    a0, na = span(i)
    b0, nb = span(j)
    count = na * nb
    owner = np.repeat(np.arange(len(count)), count)
    t = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    s, nb = s[owner], nb[owner]
    return np.stack([a0[owner] + t // nb * s, b0[owner] + t % nb * s,
                     scale[owner]], axis=1)


# squares at one scale are packed into one int64 key, a in the high half
_SHIFT = np.int64(32)
_LOW = np.int64((1 << 32) - 1)


def _pack(a, b):
    return (a << _SHIFT) | b


def _children(a, b, size):
    return np.concatenate([_pack(a, b), _pack(a + size, b),
                           _pack(a, b + size), _pack(a + size, b + size)])


def _unique(keys):
    """The distinct values of an integer array, ascending, as np.unique
    gives them: one sort and a neighbor compare (np.unique without
    return_inverse hashes, several times slower on these keys)."""
    keys = np.sort(keys)
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _difference(keys, drop):
    """The values of keys, ascending and distinct, that are not in drop:
    np.setdiff1d by one sort of drop and a binary search."""
    drop = np.sort(drop)
    return keys[np.searchsorted(drop, keys, "left")
                == np.searchsorted(drop, keys, "right")]


def quadtree_leaves(requests, depth: int, pads: tuple[int, int]):
    """The leaves of build_quadtree's grid, Morton-sorted like
    QuadtreeGrid.leaves, their Morton keys and its build_ops, the number of
    squares each rule visits; no node is collected or classified.

    Bottom-up closure: per scale, close the required-square set under
    siblings and fill-to-the-edge, then push parents plus padding neighbors up
    one scale.  Each rule only looks sideways or upward, so one sweep with an
    intra-level fixpoint loop reaches the closure.  A pad above side acts
    as pad = side: no wall is farther away."""
    seeds = _as_seeds(requests, depth)
    side = 1 << depth
    pad_x, pad_y = pads
    if pad_x < 1 or pad_y < 1:
        raise GridError("pads must be >= 1")
    pad_x, pad_y = min(pad_x, side), min(pad_y, side)
    ops = len(seeds)
    levels = [_unique(_pack(seeds[seeds[:, 2] == k, 0],
                            seeds[seeds[:, 2] == k, 1]))
              for k in range(depth + 1)]
    levels[depth] = _unique(np.append(levels[depth], 0))

    for k in range(depth):
        req = levels[k]
        if not req.size:
            continue
        size = 1 << k
        psize = size << 1
        while True:
            a, b = req >> _SHIFT, req & _LOW
            parents = _unique(_pack(a // psize * psize, b // psize * psize))
            pa, pb = parents >> _SHIFT, parents & _LOW
            # sibling closure: a split parent keeps all four children; fill
            # to the edge: a split parent too close to a wall drags its
            # neighbor toward the wall into the split set, so no dangling
            # node sits within pad coarse cells of that wall
            na, nb = _edge_fill_neighbors(pa, pb, psize, side, pad_x, pad_y)
            ops += len(req) + 4 * len(parents) + len(na)
            grown = _unique(np.concatenate(
                [req, _children(pa, pb, size), _children(na, nb, size)]))
            if len(grown) == len(req):
                break
            req = grown
        levels[k] = req
        # push required squares one scale up: parents of everything here,
        # plus pad equal-size neighbors of each split parent; no neighbor
        # lies more than side // psize squares away
        a, b = req >> _SHIFT, req & _LOW
        parents = _unique(_pack(a // psize * psize, b // psize * psize))
        reach_x = min(pad_x, side // psize)
        reach_y = min(pad_y, side // psize)
        ops += len(req) + len(parents) * 2 * (reach_x + reach_y)
        pa, pb = parents >> _SHIFT, parents & _LOW
        up = [levels[k + 1], parents]
        for s in range(1, reach_x + 1):
            for na in (pa - s * psize, pa + s * psize):
                ok = (na >= 0) & (na <= side - psize)
                up.append(_pack(na[ok], pb[ok]))
        for s in range(1, reach_y + 1):
            for nb in (pb - s * psize, pb + s * psize):
                ok = (nb >= 0) & (nb <= side - psize)
                up.append(_pack(pa[ok], nb[ok]))
        levels[k + 1] = _unique(np.concatenate(up))

    # a square is a leaf unless a square one scale down lies inside it
    leaves = []
    for k in range(depth + 1):
        ops += len(levels[k])
        keys = levels[k]
        if k > 0:
            size = 1 << k
            a, b = levels[k - 1] >> _SHIFT, levels[k - 1] & _LOW
            keys = _difference(keys, _pack(a // size * size,
                                           b // size * size))
        leaves.append(np.stack([keys >> _SHIFT, keys & _LOW,
                                np.full(len(keys), k, dtype=np.int64)], axis=1))
    return (*_morton_sorted(np.concatenate(leaves)), ops)


def _edge_fill_neighbors(pa, pb, psize, side, pad_x, pad_y):
    """Neighbors of split squares that must themselves split because a
    dangling node on the shared edge could not fit its pad-wide stencil
    window inside [0, side]; one entry per (square, edge)."""
    out_a, out_b = [], []
    span_x = pad_x * psize
    span_y = pad_y * psize
    for edge, na in ((pa, pa - psize), (pa + psize, pa + psize)):
        ok = (0 < edge) & (edge < side) & ((edge - span_x < 0)
                                           | (edge + span_x > side))
        out_a.append(na[ok])
        out_b.append(pb[ok])
    for edge, nb in ((pb, pb - psize), (pb + psize, pb + psize)):
        ok = (0 < edge) & (edge < side) & ((edge - span_y < 0)
                                           | (edge + span_y > side))
        out_a.append(pa[ok])
        out_b.append(nb[ok])
    return np.concatenate(out_a), np.concatenate(out_b)


def build_quadtree(requests, depth: int, box: DomainBox,
                   pads: tuple[int, int] | None = None) -> QuadtreeGrid:
    """Build the minimal legal quadtree whose cells contain every request.

    requests are an (m, 3) int array of squares (a, b, k), each a scale-k
    square aligned inside the lattice.  With M requests the construction
    touches O(depth * M) squares.
    """
    if pads is None:
        pads = default_pads(box)
    leaves, keys, ops = quadtree_leaves(requests, depth, pads)
    return QuadtreeGrid(box, depth, pads, leaves, build_ops=ops, keys=keys)


# ---------------------------------------------------------------------------
# node classification

# Morton key bits of i (even positions) and of j (odd positions)
_X_BITS = np.uint64(0x5555555555555555)
_Y_BITS = np.uint64(0xAAAAAAAAAAAAAAAA)
# per direction E, W, N, S: the quadrants (NE, NW, SW, SE) on that side,
# the unit step, and the quadrant whose leaf is the coarse cell of a node
# that dangles toward it
_SIDE_QUADS = ((0, 3), (1, 2), (0, 1), (3, 2))
_STEP = np.array([(1, 0), (-1, 0), (0, 1), (0, -1)], dtype=np.int64)
_COARSE_QUAD = np.array([0, 1, 0, 3])


def classify_nodes(grid: QuadtreeGrid) -> QuadtreeGrid:
    """Assign every node a class and fill the neighbor ids and distances,
    equidistant opposing pairs and the dangling-node stencil geometry.

    The leaves of a node's quadrants NE, NW, SW, SE come from one Morton
    key per node, moved one cell W and S by dilated decrements, and one
    binary search in the leaf keys per quadrant.  A direction's distance is
    the nearer edge on that side of its two quadrant leaves; no node lies
    strictly inside the edge to that neighbor, so the E and W neighbors are
    the next and previous ids in the (j, i) node order and the N and S
    neighbors those in the (i, j) order, checked to lie where the distances
    put them.  Only pairs of unequal distances and the dangling-node
    geometry search the node keys."""
    side = grid.side
    i, j = grid.i, grid.j
    n = len(i)
    key = morton(i, j)
    # the keys of (i - 1, j) and (i, j - 1): a decrement of i's dilated
    # bits borrows through the cleared bits of j, and the mask drops them
    key_x, key_y = key & _X_BITS, key & _Y_BITS
    key_w = (key_x - np.uint64(1)) & _X_BITS
    key_s = (key_y - np.uint64(2)) & _Y_BITS
    inside = ((i < side) & (j < side), (i > 0) & (j < side),
              (i > 0) & (j > 0), (i < side) & (j > 0))
    # -1 where the quadrant is outside the lattice: the last entry of the
    # leaf edge arrays below, beyond every wall
    quads = np.stack([np.where(ok, np.searchsorted(
        grid._leaf_keys, q, side="right") - 1, -1) for q, ok in zip(
            (key, key_w | key_y, key_w | key_s, key_x | key_s), inside)],
        axis=1)
    on_wall = (i == 0) | (i == side) | (j == 0) | (j == side)
    ne, nw, sw, se = quads.T
    # a node whose two quadrants toward d lie in one leaf dangles toward d;
    # the order of the tests is the order of precedence
    coarse = np.select([~on_wall & (nw == sw), ~on_wall & (ne == se),
                        ~on_wall & (ne == nw), ~on_wall & (se == sw)],
                       [1, 0, 2, 3], -1)

    # per direction, the leaf edges on that side, negated toward W and S so
    # that the nearer edge is the smaller, and the node coordinate alike
    a, b, k = grid.leaves.T
    s = 1 << k
    far = 2 * side + 1
    dist_v = np.empty((n, 4), dtype=np.int64)
    for d, (edge, pos) in enumerate(((a + s, i), (-a, -i), (b + s, j),
                                     (-b, -j))):
        edge = np.append(edge, far + side)
        q1, q2 = _SIDE_QUADS[d]
        dist_v[:, d] = np.minimum(edge[quads[:, q1]], edge[quads[:, q2]]) - pos
    dist_v[dist_v > side] = 0
    dangling = coarse >= 0
    dist_v[dangling, coarse[dangling]] = 0
    present = dist_v > 0

    # E and W neighbors by the (j, i) node order, N and S by the (i, j) one
    by_i = np.argsort(i, kind="stable")
    north, south = _line_neighbors(j[by_i], i[by_i], dist_v[by_i, 2],
                                   dist_v[by_i, 3])
    nbr = np.empty((n, 4), dtype=np.int64)
    nbr[:, 0], nbr[:, 1] = _line_neighbors(i, j, dist_v[:, 0], dist_v[:, 1])
    ids = np.append(by_i, -1)
    nbr[by_i, 2], nbr[by_i, 3] = ids[north], ids[south]
    h = np.array([grid.hx, grid.hx, grid.hy, grid.hy])
    grid.nbr = _frozen(nbr)
    grid.dist = _frozen(np.where(present, dist_v * h, np.nan))
    spacing = np.where(present, dist_v, far)
    spacing = np.minimum(np.minimum(spacing[:, 0], spacing[:, 1]),
                         np.minimum(spacing[:, 2], spacing[:, 3]))
    spacing[spacing == far] = 0
    grid.min_spacing = _frozen(spacing)

    # nearest equidistant opposing pairs: the two neighbors where they are
    # equidistant, else the nodes at the farther one's distance (the far
    # node on the finer side always exists: the fine cells' parent supplies
    # the corner)
    both = present[:, 0::2] & present[:, 1::2]
    span = np.maximum(dist_v[:, 0::2], dist_v[:, 1::2])
    pair = np.where(np.repeat(both, 2, axis=1), nbr, -1)
    for ax in range(2):
        at = np.flatnonzero(both[:, ax]
                            & (dist_v[:, 2 * ax] != dist_v[:, 2 * ax + 1]))
        # rows: the + and the - node of the pair
        du = span[at, ax] * np.array([[1], [-1]])
        di, dj = _STEP[2 * ax]
        pair[at, 2 * ax:2 * ax + 2] = _node_ids(grid, i[at] + di * du,
                                                j[at] + dj * du).T
    grid.pair = _frozen(pair)
    grid.pair_dist = _frozen(np.where(both, span * h[0::2], np.nan))

    grid.klass = _frozen(np.select(
        [on_wall, coarse >= 2, coarse >= 0],
        [CODE[BOUNDARY], CODE[DANGLING_Y], CODE[DANGLING_X]],
        CODE[REGULAR]).astype(np.int8))
    grid.coarse_side = _frozen(coarse.astype(np.int8))
    at = np.flatnonzero(dangling)
    _dangling_geometry(grid, at, k[quads[at, _COARSE_QUAD[coarse[at]]]])
    return grid


def _line_neighbors(u, v, ahead, behind):
    """Positions of the neighbors of nodes listed line by line (v, then u
    ascending) at distances ahead and behind along u (0 where absent, -1
    returned): the next and the previous entry, checked to lie on the same
    line at that distance."""
    step = u[1:] - u[:-1]
    apart = v[1:] != v[:-1]
    has_ahead, has_behind = ahead > 0, behind > 0
    if has_ahead[-1] or has_behind[0] \
            or np.any(has_ahead[:-1] & ((step != ahead[:-1]) | apart)) \
            or np.any(has_behind[1:] & ((step != behind[1:]) | apart)):
        raise GridError("cells do not form a legal quadtree: a neighbor "
                        "corner is missing")
    pos = np.arange(len(u))
    return np.where(has_ahead, pos + 1, -1), np.where(has_behind, pos - 1, -1)


def _node_ids(grid: QuadtreeGrid, i, j):
    ids = grid.find(i, j)
    if np.any(ids < 0):
        raise GridError("cells do not form a legal quadtree: a neighbor "
                        "corner is missing")
    return ids


def _dangling_geometry(grid: QuadtreeGrid, at, scale):
    """Corner ids for the I-stencils of the dangling nodes at, whose coarse
    cells have the given scales: the value opposite the coarse cell is
    interpolated from equidistant far corners; the stencil is widened until
    the axis-pair weight stays nonnegative."""
    n = grid.n_nodes()
    d = grid.coarse_side[at]
    along_x = d < 2
    bd = 1 << scale
    half = bd >> 1
    # no m above side fits: the pads are clipped to side + 1 before any
    # int64 array is built, so an extreme aspect ratio cannot overflow
    pad = np.where(along_x, min(grid.pad_x, grid.side + 1),
                   min(grid.pad_y, grid.side + 1))
    fine = half * np.where(along_x, grid.hy, grid.hx)
    coarse = bd * np.where(along_x, grid.hx, grid.hy)
    m = np.clip(np.ceil(fine / coarse - 1e-12), 1, pad + 1).astype(np.int64)
    # the two far corners and the four wide-stencil corners, as offsets u
    # along the coarse axis and v across it; (ex, ey) is the unit step along
    beyond = np.where(d % 2 == 0, bd, -bd)
    w = m * bd
    u = np.stack([beyond, beyond, -w, -w, w, w])
    v = np.stack([-half, half] * 3)
    ex, ey = along_x.astype(np.int64), (~along_x).astype(np.int64)
    corners = grid.find(grid.i[at] + u * ex + v * ey,
                        grid.j[at] + u * ey + v * ex).T
    fits = (m <= pad) & np.all(corners[:, 2:] >= 0, axis=1)
    band = np.zeros(n, dtype=np.int64)
    band[at] = bd
    drv = np.full((n, 2), -1, dtype=np.int64)
    drv[at] = corners[:, :2]
    wide = np.zeros(n, dtype=np.int64)
    wide[at[fits]] = m[fits]
    wide_ids = np.full((n, 4), -1, dtype=np.int64)
    wide_ids[at[fits]] = corners[fits, 2:]
    grid.band = _frozen(band)
    grid.drv_pair = _frozen(drv)
    grid.wide = _frozen(wide)
    grid.wide_ids = _frozen(wide_ids)


# ---------------------------------------------------------------------------
# dump parsing (used by the render verb)

def parse_dump(text: str):
    """Parse a grid dump back into (cells, box, depth): cells are the
    aligned squares (a, b, k) of the cell records, depth is read from their
    extent (QuadtreeGrid checks that they tile that lattice), and the box
    spans the x and y of the node records."""
    xs, ys, cells = [], [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        try:
            if parts and parts[0] == "node":
                # node i j x y class ...; only x and y are kept
                int(parts[1]), int(parts[2]), parts[5]
                xs.append(float(parts[3]))
                ys.append(float(parts[4]))
            elif parts and parts[0] == "cell":
                cells.append((int(parts[1]), int(parts[2]), int(parts[3])))
        except (IndexError, ValueError):
            raise GridError("dump line %d is not a node or cell record: %r"
                            % (lineno, line)) from None
    if not xs or not cells:
        raise GridError("dump contains no node/cell records")
    cells = _as_seeds(np.array(cells), MAX_DEPTH)
    a, b, k = cells.T
    depth = int(np.max(np.maximum(a, b) + (1 << k))).bit_length() - 1
    return cells, DomainBox(min(xs), max(xs), min(ys), max(ys)), depth
