"""Independent brute-force oracles and legality checkers for quadtree grids.

The grid checks work directly on a plain cells dict {(i, j): scale} (of a
built grid: cell_map) so they can be used both on built grids and on
enumerated candidate trees, without going through the production
construction path.  The per-node and per-point
forms of array code (problem data, the upwind first-order rows, the
Laplacian and Robin rows, config expressions) are kept at the end as
references.
"""

import itertools


def closure_oracle(seed_squares, depth, pads):
    """Minimal legal cell set containing every seed square.

    Legality rules are Horn clauses over the set D of subdivided squares
    (ancestor closure, balance/padding neighbors, fill-to-the-edge), so the
    minimal solution is unique and reached by a dumb fixpoint sweep.
    """
    side = 1 << depth
    pad_x, pad_y = pads
    D = set()

    def require_exists(a, b, k):
        for kk in range(k + 1, depth + 1):
            s = 1 << kk
            D.add((a // s * s, b // s * s, kk))

    for (a, b, k) in seed_squares:
        require_exists(a, b, k)

    changed = True
    while changed:
        before = len(D)
        for (a, b, k) in list(D):
            size = 1 << k
            for s in range(1, pad_x + 1):
                for na in (a - s * size, a + s * size):
                    if 0 <= na <= side - size:
                        require_exists(na, b, k)
            for s in range(1, pad_y + 1):
                for nb in (b - s * size, b + s * size):
                    if 0 <= nb <= side - size:
                        require_exists(a, nb, k)
            for (na, nb) in _fill_neighbors(a, b, size, side, pad_x, pad_y):
                require_exists(na, nb, k)
                D.add((na, nb, k))
        changed = len(D) != before

    cells = {}

    def emit(a, b, k):
        if k > 0 and (a, b, k) in D:
            h = 1 << (k - 1)
            for (ca, cb) in ((a, b), (a + h, b), (a, b + h), (a + h, b + h)):
                emit(ca, cb, k - 1)
        else:
            cells[(a, b)] = k

    emit(0, 0, depth)
    return cells


def _fill_neighbors(a, b, size, side, pad_x, pad_y):
    # a dangling node on an edge of a split square needs pad cells on BOTH
    # sides of the edge inside the domain, else the neighbor must split too
    out = []
    span_x = pad_x * size
    span_y = pad_y * size
    for edge, nbr in ((a, (a - size, b)), (a + size, (a + size, b))):
        if 0 < edge < side and (edge - span_x < 0 or edge + span_x > side):
            out.append(nbr)
    for edge, nbr in ((b, (a, b - size)), (b + size, (a, b + size))):
        if 0 < edge < side and (edge - span_y < 0 or edge + span_y > side):
            out.append(nbr)
    return out


def enumerate_trees(depth):
    """All quadtrees over the root square, as sets of subdivided squares."""

    def gen(a, b, k):
        yield set()
        if k > 0:
            h = 1 << (k - 1)
            kids = ((a, b), (a + h, b), (a, b + h), (a + h, b + h))
            subtrees = [list(gen(ca, cb, k - 1)) for (ca, cb) in kids]
            for combo in itertools.product(*subtrees):
                s = {(a, b, k)}
                for c in combo:
                    s |= c
                yield s

    yield from gen(0, 0, depth)


def cells_from_subdivided(D, depth):
    cells = {}

    def emit(a, b, k):
        if k > 0 and (a, b, k) in D:
            h = 1 << (k - 1)
            for (ca, cb) in ((a, b), (a + h, b), (a, b + h), (a + h, b + h)):
                emit(ca, cb, k - 1)
        else:
            cells[(a, b)] = k

    emit(0, 0, depth)
    return cells


# ---------------------------------------------------------------------------
# legality checkers

def cell_map(grid):
    """The leaves of a built grid as a cells dict {(a, b): k}."""
    return {(a, b): k for a, b, k in grid.leaves.tolist()}


def vertices_of(cells):
    verts = set()
    for (a, b), k in cells.items():
        s = 1 << k
        verts.update(((a, b), (a + s, b), (a, b + s), (a + s, b + s)))
    return verts


def check_quadtree_structure(cells, depth):
    """Cells tile the root square and arise from recursive 4-subdivision."""
    count = 0

    def cover(a, b, k):
        nonlocal count
        if cells.get((a, b)) == k:
            count += 1
            return True
        if k == 0:
            return False
        h = 1 << (k - 1)
        return all(cover(ca, cb, k - 1) for (ca, cb) in
                   ((a, b), (a + h, b), (a, b + h), (a + h, b + h)))

    return cover(0, 0, depth) and count == len(cells)


def _leaf_lookup(cells, depth, ci, cj):
    """Leaf containing the doubled-coordinate point (ci/2, cj/2)."""
    a = b = 0
    k = depth
    while True:
        if cells.get((a, b)) == k:
            return a, b, k
        if k == 0:
            return None
        k -= 1
        half = 1 << k
        if ci >= 2 * (a + half):
            a += half
        if cj >= 2 * (b + half):
            b += half


def check_balance(cells, depth):
    """Edge-adjacent leaves differ by at most one scale level."""
    side = 1 << depth
    for (a, b), k in cells.items():
        s = 1 << k
        probes = []
        for y in range(b, b + s):
            if a > 0:
                probes.append((2 * a - 1, 2 * y + 1))
            if a + s < side:
                probes.append((2 * (a + s) + 1, 2 * y + 1))
        for x in range(a, a + s):
            if b > 0:
                probes.append((2 * x + 1, 2 * b - 1))
            if b + s < side:
                probes.append((2 * x + 1, 2 * (b + s) + 1))
        for (ci, cj) in probes:
            leaf = _leaf_lookup(cells, depth, ci, cj)
            if leaf is None or abs(leaf[2] - k) > 1:
                return False
    return True


def dangling_nodes_of(cells):
    """Dangling nodes found geometrically: a vertex at the midpoint of some
    leaf's edge.  Yields (i, j, orientation, band, rows/cols of the band)."""
    verts = vertices_of(cells)
    out = []
    for (a, b), k in cells.items():
        if k == 0:
            continue
        s = 1 << k
        h = s >> 1
        if (a, b + h) in verts:           # west edge midpoint
            out.append((a, b + h, "x", s, (b, b + s)))
        if (a + s, b + h) in verts:       # east edge midpoint
            out.append((a + s, b + h, "x", s, (b, b + s)))
        if (a + h, b) in verts:           # south edge midpoint
            out.append((a + h, b, "y", s, (a, a + s)))
        if (a + h, b + s) in verts:       # north edge midpoint
            out.append((a + h, b + s, "y", s, (a, a + s)))
    return out


def check_padding(cells, depth, pads):
    """The wide I-stencil fits at every dangling node: pad equal-size bands to
    both sides of the hanging edge, with all four corner vertices present."""
    side = 1 << depth
    pad_x, pad_y = pads
    verts = vertices_of(cells)
    for (i, j, orient, band, (lo, hi)) in dangling_nodes_of(cells):
        pad = pad_x if orient == "x" else pad_y
        for s in range(1, pad + 1):
            for sgn in (-1, 1):
                if orient == "x":
                    e = i + sgn * s * band
                    if not (0 <= e <= side):
                        return False
                    if (e, lo) not in verts or (e, hi) not in verts:
                        return False
                else:
                    e = j + sgn * s * band
                    if not (0 <= e <= side):
                        return False
                    if (lo, e) not in verts or (hi, e) not in verts:
                        return False
    return True


def check_contains_seeds(cells, seed_squares):
    """Every seed square is a union of leaves (exists at its scale or finer)."""
    for (a, b, k) in seed_squares:
        found = cells.get((a, b))
        if found is not None and found <= k:
            continue
        # otherwise some leaf must sit strictly inside the seed square
        s = 1 << k
        ok = any(a <= ca and ca + (1 << ck) <= a + s and
                 b <= cb and cb + (1 << ck) <= b + s
                 for (ca, cb), ck in cells.items())
        if not ok:
            return False
    return True


def check_legal(cells, depth, pads, seed_squares=()):
    return (check_quadtree_structure(cells, depth)
            and check_balance(cells, depth)
            and check_padding(cells, depth, pads)
            and check_contains_seeds(cells, seed_squares))


def brute_classify(cells, depth):
    """Classify every vertex by scanning all incident cells directly."""
    side = 1 << depth
    classes = {}
    cell_list = [(a, b, 1 << k) for (a, b), k in cells.items()]
    for (i, j) in vertices_of(cells):
        if i == 0 or i == side or j == 0 or j == side:
            classes[(i, j)] = "boundary"
            continue
        incident = [(a, b, s) for (a, b, s) in cell_list
                    if a <= i <= a + s and b <= j <= b + s]
        mid = None
        for (a, b, s) in incident:
            corner = i in (a, a + s) and j in (b, b + s)
            if corner:
                continue
            if i in (a, a + s):
                mid = "x"
            else:
                mid = "y"
        classes[(i, j)] = {"x": "dangling-x", "y": "dangling-y",
                           None: "regular"}[mid]
    return classes


def psor_solve(op, tol=1e-12, omega=1.5, max_sweeps=20000):
    """Projected SOR oracle for min(wbar u - sum w u_j, u - g) = 0."""
    import numpy as np
    L = op.L.tocsr()
    u = op.apply_pins(np.maximum(op.gvals, 0.0))
    act = np.flatnonzero(op.active)
    indptr, indices, data = L.indptr, L.indices, L.data
    for _ in range(max_sweeps):
        delta = 0.0
        for i in act:
            s = 0.0
            diag = 0.0
            for p in range(indptr[i], indptr[i + 1]):
                j = indices[p]
                if j == i:
                    diag = data[p]
                else:
                    s -= data[p] * u[j]
            gs = s / diag
            new = max(op.gvals[i], (1 - omega) * u[i] + omega * gs)
            delta = max(delta, abs(new - u[i]))
            u[i] = new
        if delta < tol:
            break
    return u


def random_requests(rng, depth, count):
    """Random squares (a, b, k): each the half-open scale-k square that
    contains a random lattice point, as an (m, 3) int array."""
    import numpy as np
    side = 1 << depth
    seeds = []
    for _ in range(count):
        i = int(rng.integers(0, side + 1))
        j = int(rng.integers(0, side + 1))
        k = int(rng.integers(0, depth + 1))
        s = 1 << k
        seeds.append((min(i // s * s, side - s), min(j // s * s, side - s), k))
    return np.array(seeds, dtype=np.int64).reshape(-1, 3)


def seeds_for_requests(points, depth, box):
    """Squares (a, b, k) for points (x, y, k), as an (m, 3) int array: the
    half-open scale-k square containing the lattice point nearest (x, y),
    exact ties toward the origin."""
    import math
    import numpy as np
    side = 1 << depth
    seeds = []
    for (x, y, k) in points:
        fi = (x - box.x_min) / (box.lx / side)
        fj = (y - box.y_min) / (box.ly / side)
        i = min(max(math.ceil(fi - 0.5), 0), side)
        j = min(max(math.ceil(fj - 0.5), 0), side)
        s = 1 << k
        seeds.append((min(i // s * s, side - s), min(j // s * s, side - s), k))
    return np.array(seeds, dtype=np.int64).reshape(-1, 3)


def one_sided_oracle(cells, depth, i, j, side):
    """The one-sided difference toward `side` at vertex (i, j), found from
    the cell set alone: (lattice points, virtual distance), with the value
    on that side the mean over the points.  Where (i, j) bisects an edge of
    a coarser leaf on that side, the points are that leaf's two far corners
    and the distance is its side; otherwise the point is the nearest vertex
    along the grid line.  None at a wall."""
    di, dj = {"E": (1, 0), "W": (-1, 0), "N": (0, 1), "S": (0, -1)}[side]
    leaves = {_leaf_lookup(cells, depth, 2 * i + di + s * dj,
                           2 * j + dj + s * di) for s in (1, -1)}
    if len(leaves) == 1 and None not in leaves:
        (a, b, k), = leaves
        s = 1 << k
        if (i, j) not in ((a, b), (a + s, b), (a, b + s), (a + s, b + s)):
            if di:
                x = a + s if di > 0 else a
                return [(x, b), (x, b + s)], s
            y = b + s if dj > 0 else b
            return [(a, y), (a + s, y)], s
    verts = vertices_of(cells)
    side_len = 1 << depth
    t = 1
    while 0 <= i + t * di <= side_len and 0 <= j + t * dj <= side_len:
        if (i + t * di, j + t * dj) in verts:
            return [(i + t * di, j + t * dj)], t
        t += 1
    return None


def leaf_edges(cells):
    """Every unit lattice segment on the boundary of some leaf, as its lower
    end point and orientation: ((x, y), "h") spans (x, y)-(x + 1, y) and
    ((x, y), "v") spans (x, y)-(x, y + 1)."""
    edges = set()
    for (a, b), k in cells.items():
        s = 1 << k
        for t in range(s):
            edges.update((((a + t, b), "h"), ((a + t, b + s), "h"),
                          ((a, b + t), "v"), ((a + s, b + t), "v")))
    return edges


def neighbor_oracle(verts, edges, depth, i, j, side):
    """Nearest node toward `side` from vertex (i, j) along leaf edges, found
    by walking unit steps: (vertex, virtual distance), or None where the
    first step leaves the domain or enters the interior of a leaf (the
    coarse side of a dangling node)."""
    di, dj = {"E": (1, 0), "W": (-1, 0), "N": (0, 1), "S": (0, -1)}[side]
    size = 1 << depth
    t = 0
    while True:
        p = (i + t * di, j + t * dj)
        q = (p[0] + di, p[1] + dj)
        if not (0 <= q[0] <= size and 0 <= q[1] <= size):
            return None
        if (min(p, q), "h" if dj == 0 else "v") not in edges:
            return None
        t += 1
        if q in verts:
            return q, t


def dump_rows(grid, L, const, ids) -> str:
    """Text dump of rows ids of a CSR -Laplacian L with constants const:
    `row i j wbar constant n  i1 j1 w1 ...`, with weights w = -L[row, col]."""
    out = []
    for r in ids:
        lo, hi = L.indptr[r], L.indptr[r + 1]
        cols, vals = L.indices[lo:hi].tolist(), L.data[lo:hi].tolist()
        nbrs = [(c, -v) for c, v in zip(cols, vals) if c != r]
        parts = ["row %d %d %r %r %d" % (grid.i[r], grid.j[r],
                                         float(L[r, r]), float(const[r]),
                                         len(nbrs))]
        parts += ["%d %d %r" % (grid.i[c], grid.j[c], w) for c, w in nbrs]
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def dump_triplets(matrix) -> str:
    """`row col value` text dump of a sparse matrix for offline inspection."""
    import numpy as np
    import scipy.sparse as sp
    coo = sp.coo_matrix(matrix)
    order = np.lexsort((coo.col, coo.row))
    lines = ["%d %d %r" % (coo.row[k], coo.col[k], float(coo.data[k]))
             for k in order]
    return "\n".join(lines) + "\n"


def euler_step_reference(op, values, schedule):
    """One coarse Euler step as a per-group formula on explicit CSR row
    slices: each visit checks tau * lipschitz(v, rows) <= 1 and updates
    v[rows] -= tau * residual(v, rows), with both computed from L[rows],
    T[d][rows] and the first-order rows at rows only.  The solver's
    whole-grid products must reproduce it bit for bit."""
    import numpy as np
    from adaptfd.solvers import InstabilityError
    v = np.array(values, dtype=float)
    for gid in schedule.schedule:
        rows = schedule.groups[gid]
        tau = schedule.taus[gid]
        _, lip, res, _ = row_terms(op, v, rows)
        if np.any(tau * lip > 1.0 + 1e-9):
            raise InstabilityError("group step %.3e exceeds 1/L = %.3e"
                                   % (tau, 1.0 / lip.max()))
        v[rows] -= tau * res
    return v


def branches(op, u):
    """Branch of largest weight per node: 0 = PDE row, 1 = data row,
    2 = first-order row, 3 = gradient-square row.  Ties go to the PDE."""
    import numpy as np
    w = op._weighted(np.asarray(u, dtype=float))[0]
    return np.argmax(w, axis=0).astype(np.int8)


def row_terms(op, u, rows):
    """(weights, Lipschitz bound, residual, gradient) of op at rows, from
    row slices, evaluating every branch the operator has whether or not it
    carries weight.  The gradient is (rx, ry, (cE, cW, cN, cS)), or None
    without T."""
    import numpy as np
    vals = {0: op.L[rows] @ u + op.Lconst[rows] - op.fvals[rows],
            1: u[rows] - op.gvals[rows]}
    bound = {0: op.wbar[rows], 1: 1.0}
    grad = None
    if op.first is not None:
        M, const, lip = op.first
        vals[2] = M[rows] @ u + const[rows]
        bound[2] = lip[rows]
    if op.T is not None:
        cE, cW, cN, cS = slopes = tuple(op.T[d][rows] @ u for d in "EWNS")
        rx = np.maximum(np.maximum(cE, cW), 0.0)
        ry = np.maximum(np.maximum(cN, cS), 0.0)
        vals[3] = -(rx * rx + ry * ry)
        bound[3] = 2.0 * (rx * op.wx_max[rows] + ry * op.wy_max[rows])
        grad = (rx, ry, slopes)
    w = list(op.weights[:, rows])
    if op.second is not None:
        b = op.second
        is_open = op.is_open(u[rows])
        take = (w[0] > 0) & is_open & (vals[b] < vals[0])
        w[0] = w[0] - take
        w[b] = w[b] + take
        bound[0] = np.where(is_open, np.maximum(bound[0], bound[b]), bound[0])
    lip = sum(op.weights[k][rows] * lb for k, lb in bound.items())
    return w, lip, sum(w[k] * val for k, val in vals.items()), grad


def jacobian_reference(op, u):
    """The generalized Jacobian from row_terms over every node: each branch
    row weighted by its weight, the gradient-square rows from the
    one-sided difference each node selects."""
    import numpy as np
    import scipy.sparse as sp
    w, _, _, grad = row_terms(op, u, np.arange(op.grid.n_nodes()))
    J = sp.diags(w[0]) @ op.L \
        + sp.diags(w[1]) @ sp.eye(op.grid.n_nodes(), format="csr")
    if op.first is not None:
        J = J + sp.diags(w[2]) @ op.first[0]
    if op.T is not None:
        rx, ry, (cE, cW, cN, cS) = grad
        sel = {"E": (cE >= cW) & (rx > 0), "W": (cW > cE) & (rx > 0),
               "N": (cN >= cS) & (ry > 0), "S": (cS > cN) & (ry > 0)}
        S = {d: sp.diags(sel[d].astype(float)) @ op.T[d] for d in sel}
        Jg = sp.diags(-2.0 * rx) @ (S["E"] + S["W"]) \
            + sp.diags(-2.0 * ry) @ (S["N"] + S["S"])
        J = J + sp.diags(w[3]) @ Jg
    return J.tocsr()


def schedule_reference(grid, op, u, rng):
    """build_schedule with its groups found per call: np.unique over the
    spacing classes of the active nodes with a positive Lipschitz bound,
    coarsest first, each group's step the least 1/L_i in it."""
    import math
    import numpy as np
    from adaptfd.solvers import TimeGroups
    _, lip, res, _ = row_terms(op, u.values, np.arange(grid.n_nodes()))
    start = (u.values.copy(), lip, res)
    active = op.active & (lip > 0)
    if not active.any():
        return TimeGroups([], [], [], np.empty(0, dtype=int), 0.0, start)
    dt = 1.0 / lip[active]
    idx = np.flatnonzero(active)
    spacing = grid.min_spacing[idx]
    groups, dts = [], []
    for s in np.unique(spacing)[::-1]:
        sel = spacing == s
        groups.append(idx[sel])
        dts.append(float(dt[sel].min()))
    coarse_tau = dts[0]
    taus, mults = [], []
    for dtg in dts:
        p = 0 if dtg >= coarse_tau else max(0, math.ceil(
            math.log2(coarse_tau / dtg) - 1e-12))
        taus.append(coarse_tau / (1 << p))
        mults.append(1 << p)
    order = np.concatenate([np.full(m, gi) for gi, m in enumerate(mults)])
    return TimeGroups(groups, taus, mults, rng.permutation(order),
                      coarse_tau, start)


# ---------------------------------------------------------------------------
# scalar problem data: the per-point forms the harness samples as arrays

def obstacle_fn(x, y):
    """The obstacle preset's g at one point, with math."""
    import math
    r = math.hypot(x, y)
    v = x * x
    if x < 0:
        v *= 2.0 * math.sin(math.pi * y) ** 2
    if r > 0.25:
        v *= math.exp(-r)
    return v


def stefan_initial(x, y):
    """The stefan preset's initial values at one point."""
    from adaptfd.harness import STEFAN_BACKGROUND, STEFAN_BUMPS
    v = -STEFAN_BACKGROUND
    for ((cx, cy), r, a) in STEFAN_BUMPS:
        d2 = ((x - cx) ** 2 + (y - cy) ** 2) / (r * r)
        if d2 < 1.0:
            v += a * (1.0 - d2) ** 2
    return v


def top_maxima(fn, box, count, samples=200):
    """Interior local maxima of a scalar fn on a scan lattice, highest
    first, by a per-point scan of every 3 x 3 patch."""
    import math
    import numpy as np
    xs = np.linspace(box.x_min, box.x_max, samples + 1)
    ys = np.linspace(box.y_min, box.y_max, samples + 1)
    G = np.array([[fn(x, y) for x in xs] for y in ys])
    found = []
    for j in range(1, samples):
        for i in range(1, samples):
            patch = G[j - 1:j + 2, i - 1:i + 2]
            v = G[j, i]
            if v > 0 and v >= patch.max() and v > patch.min():
                found.append((v, xs[i], ys[j]))
    found.sort(reverse=True)
    out = []
    for (v, x, y) in found:
        if all(math.hypot(x - a, y - b) > 0.2 for (a, b) in out):
            out.append((x, y))
        if len(out) == count:
            break
    return out


def upwind_directional_build(hop, grid):
    """UpwindDirectional.build as a per-node loop: region, direction and rhs
    called at each interior node with scalars, rows from one_sided_oracle on
    the grid's cell set."""
    import numpy as np
    import scipy.sparse as sp
    from adaptfd.grid import BOUNDARY, CODE
    nn = grid.n_nodes()
    mask = np.zeros(nn, dtype=bool)
    lip = np.zeros(nn)
    const = np.zeros(nn)
    rows, cols, vals = [], [], []
    cells = cell_map(grid)
    inner = np.flatnonzero(grid.klass != CODE[BOUNDARY])
    for idx, x, y in zip(inner.tolist(), grid.x[inner].tolist(),
                         grid.y[inner].tolist()):
        if not hop.region(x, y):
            continue
        nx, ny = (float(c) for c in hop.direction(x, y))
        mask[idx] = True
        const[idx] = -hop.rhs(x, y)
        for comp, upw in ((nx, "W"), (-nx, "E"), (ny, "S"), (-ny, "N")):
            if comp <= 0.0:
                continue
            pts, t = one_sided_oracle(cells, grid.depth, int(grid.i[idx]),
                                      int(grid.j[idx]), upw)
            ids = [int(grid.find(*p)) for p in pts]
            dist = t * (grid.hx if upw in "EW" else grid.hy)
            rows += [idx] * (len(ids) + 1)
            cols += [idx, *ids]
            vals += [comp / dist] + [-comp / dist / len(ids)] * len(ids)
            lip[idx] += comp / dist
    M = sp.csr_matrix((vals, (rows, cols)), shape=(nn, nn))
    return mask, M, const, lip


def laplacian_system_reference(grid, robin=None):
    """stencils.laplacian_system as a per-node loop: each row built on its
    own with Python floats, wall data called per wall of each wall node with
    scalars.  Returns (L, const, active, pins) like the array assembly."""
    import numpy as np
    import scipy.sparse as sp
    from adaptfd.grid import BOUNDARY, CLASSES, REGULAR
    from adaptfd.stencils import (IllPosedBoundaryError,
                                  StencilUnavailableError)
    nn = grid.n_nodes()
    const = np.zeros(nn)
    active = np.ones(nn, dtype=bool)
    pins = np.zeros(nn)
    rows, cols, vals = [], [], []

    def interior_row(idx):
        at = (grid.i[idx], grid.j[idx])
        if CLASSES[grid.klass[idx]] == REGULAR:
            ide, idw, idn, ids = grid.pair[idx].tolist()
            dx, dy = grid.pair_dist[idx].tolist()
            wx, wy = 1.0 / dx**2, 1.0 / dy**2
            return 2 * wx + 2 * wy, [(ide, wx), (idw, wx), (idn, wy),
                                     (ids, wy)], 0.0
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
            raise StencilUnavailableError("negative axis weight at (%d, %d)"
                                          % at)
        nbrs = [(c, wc) for c in grid.wide_ids[idx].tolist()] \
            + [(p, wp) for p in axis_pair]
        return 2.0 / fine**2, nbrs, 0.0

    def wall_row(idx, A, B, C):
        """(wbar, neighbors, constant), or the pinned value as a float."""
        i, j = int(grid.i[idx]), int(grid.j[idx])
        x, y = float(grid.x[idx]), float(grid.y[idx])
        walls = [w for w, on in ((0, i == 0), (1, i == grid.side),
                                 (2, j == 0), (3, j == grid.side)) if on]
        normals = ((-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0))
        coeffs = []
        for inward in walls:
            a, b, c = (fn(x, y, *normals[inward]) for fn in (A, B, C))
            if a == 0.0:
                if b == 0.0:
                    raise IllPosedBoundaryError(
                        "A = B = 0 at boundary node (%d, %d)" % (i, j))
                return c / b
            coeffs.append((inward, a, b, c))
        nbr = grid.nbr[idx].tolist()
        dist = grid.dist[idx].tolist()
        wbar = 0.0
        constant = 0.0
        nbrs = []
        for (inward, a, b, c) in coeffs:
            d = dist[inward]
            nbrs.append((nbr[inward], 1.0 / d**2))
            wbar += 1.0 / d**2 + b / (a * d)
            constant += -c / (a * d)
        if len(coeffs) == 1:
            ax = 1 if coeffs[0][0] < 2 else 0
            idp, idm = grid.pair[idx, 2 * ax:2 * ax + 2].tolist()
            if idp >= 0:
                w = 1.0 / float(grid.pair_dist[idx, ax])**2
                nbrs += [(idp, w), (idm, w)]
                wbar += 2 * w
        return wbar, nbrs, constant

    for idx in range(nn):
        if CLASSES[grid.klass[idx]] == BOUNDARY:
            if robin is None:
                active[idx] = False
                continue
            row = wall_row(idx, *robin)
            if not isinstance(row, tuple):
                active[idx] = False
                pins[idx] = row
                continue
        else:
            row = interior_row(idx)
        wbar, nbrs, const[idx] = row
        rows += [idx] * (len(nbrs) + 1)
        cols += [idx] + [j for (j, _) in nbrs]
        vals += [wbar] + [-w for (_, w) in nbrs]
    L = sp.csr_matrix((np.array(vals, dtype=float),
                       (np.array(rows, dtype=np.int64),
                        np.array(cols, dtype=np.int64))), shape=(nn, nn))
    return L, const, active, pins


# ---------------------------------------------------------------------------
# config expressions, one point at a time

def math_expression(text):
    """Per-point evaluator of the config expression grammar with math and
    Python floats: fn(x, y) -> float.  Logical operators and comparisons
    give 0.0 or 1.0, like their elementwise forms."""
    import ast
    import math
    import operator as opm

    funcs = {"sin": math.sin, "cos": math.cos, "tan": math.tan,
             "exp": math.exp, "log": math.log, "sqrt": math.sqrt,
             "hypot": math.hypot, "arctan2": math.atan2, "abs": abs,
             "minimum": min, "maximum": max, "min": min, "max": max,
             "sign": lambda v: float((v > 0) - (v < 0)),
             "where": lambda c, a, b: a if c else b}
    ops = {ast.Add: opm.add, ast.Sub: opm.sub, ast.Mult: opm.mul,
           ast.Div: opm.truediv, ast.Pow: opm.pow, ast.UAdd: opm.pos,
           ast.USub: opm.neg, ast.Not: lambda v: float(not v),
           ast.Lt: opm.lt, ast.LtE: opm.le, ast.Gt: opm.gt, ast.GtE: opm.ge,
           ast.Eq: opm.eq, ast.NotEq: opm.ne}
    tree = ast.parse(text, mode="eval").body

    def ev(node, env):
        if isinstance(node, ast.Constant):
            return float(node.value)
        if isinstance(node, ast.Name):
            return env[node.id]
        if isinstance(node, ast.BinOp):
            return ops[type(node.op)](ev(node.left, env), ev(node.right, env))
        if isinstance(node, ast.UnaryOp):
            return ops[type(node.op)](ev(node.operand, env))
        if isinstance(node, ast.BoolOp):
            vals = [bool(ev(v, env)) for v in node.values]
            return float(all(vals) if isinstance(node.op, ast.And)
                         else any(vals))
        if isinstance(node, ast.Compare):
            terms = [ev(t, env) for t in [node.left, *node.comparators]]
            return float(all(ops[type(o)](a, b) for o, a, b
                             in zip(node.ops, terms, terms[1:])))
        if isinstance(node, ast.IfExp):
            return ev(node.body if ev(node.test, env) else node.orelse, env)
        if isinstance(node, ast.Call):
            return float(funcs[node.func.id](*[ev(a, env)
                                               for a in node.args]))
        raise ValueError("not in the grammar: %s" % ast.dump(node))

    def fn(x, y):
        env = {"x": x, "y": y, "r": math.hypot(x, y),
               "theta": math.atan2(y, x), "pi": math.pi, "e": math.e}
        return float(ev(tree, env))

    return fn


# ---------------------------------------------------------------------------
# row-wise artifact writers: every value formatted per node or per cell

def grid_dump(grid) -> str:
    """QuadtreeGrid.dump, one repr per coordinate and distance."""
    import numpy as np
    from adaptfd.grid import CLASSES
    dist = np.array(list(map(repr, grid.dist.ravel().tolist())),
                    dtype=object).reshape(grid.dist.shape)
    dist[np.isnan(grid.dist)] = "-"
    out = ["node " + " ".join(row) for row in zip(
        map(str, grid.i.tolist()), map(str, grid.j.tolist()),
        map(repr, grid.x.tolist()), map(repr, grid.y.tolist()),
        [CLASSES[c] for c in grid.klass.tolist()], *dist.T)]
    for (i, j, k) in grid.cells_sorted().tolist():
        out.append("cell %d %d %d" % (i, j, k))
    return "\n".join(out) + "\n"


def solution_csv(grid, u) -> str:
    """harness.solution_csv, one %d / %r per field of every row."""
    rows = zip(grid.i.tolist(), grid.j.tolist(), grid.x.tolist(),
               grid.y.tolist(), u.values.tolist())
    return "\n".join(["i,j,x,y,u"] + ["%d,%d,%r,%r,%r" % row
                                      for row in rows]) + "\n"


def _svg_mapper(box):
    from adaptfd.svgplot import WIDTH
    scale = WIDTH / max(box.lx, box.ly)
    height = box.ly * scale

    def to_px(x, y):
        return ((x - box.x_min) * scale, height - (y - box.y_min) * scale)

    return to_px, height, scale


def _svg_head(height):
    from adaptfd.svgplot import WIDTH
    return ('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
            'viewBox="0 0 %d %d">' % (WIDTH, int(height) + 1, WIDTH,
                                      int(height) + 1))


def grid_svg(grid) -> str:
    """svgplot.grid_svg, one %.2f per coordinate of every cell and node."""
    from adaptfd.grid import CLASSES
    from adaptfd.svgplot import CLASS_COLOR
    to_px, height, scale = _svg_mapper(grid.box)
    out = [_svg_head(height)]
    a, b, k = grid.cells_sorted().T
    s = 1 << k
    px, py = to_px(*grid.position(a, b + s))
    for row in zip(px.tolist(), py.tolist(), (s * grid.hx * scale).tolist(),
                   (s * grid.hy * scale).tolist()):
        out.append('<rect class="cell" x="%.2f" y="%.2f" width="%.2f" '
                   'height="%.2f" fill="none" stroke="#999" '
                   'stroke-width="0.5"/>' % row)
    radius = max(0.8, 0.22 * min(grid.hx, grid.hy) * scale)
    px, py = to_px(grid.x, grid.y)
    for c, x, y in zip(grid.klass.tolist(), px.tolist(), py.tolist()):
        out.append('<circle class="node %s" cx="%.2f" cy="%.2f" r="%.2f" '
                   'fill="%s"/>' % (CLASSES[c], x, y, radius,
                                    CLASS_COLOR[CLASSES[c]]))
    out.append("</svg>")
    return "\n".join(out)


def svg_colors(t):
    """svgplot's blue-white-red fill of each value of t, one %02x triple
    per value."""
    import numpy as np
    t = np.clip(t, 0.0, 1.0)
    low = t < 0.5
    f = np.where(low, t / 0.5, (t - 0.5) / 0.5)
    r = np.where(low, 40 + 215 * f, 255)
    g = np.where(low, 80 + 175 * f, 255 - 175 * f)
    b = np.where(low, 255, 255 - 215 * f)
    return ["#%02x%02x%02x" % c for c in zip(*(
        v.astype(int).tolist() for v in (r, g, b)))]


def solution_svg(grid, values, polylines=()) -> str:
    """svgplot.solution_svg, one %.2f per coordinate and one fill per
    cell."""
    import numpy as np
    to_px, height, scale = _svg_mapper(grid.box)
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo if hi > lo else 1.0
    out = [_svg_head(height)]
    a, b, k = grid.cells_sorted().T
    s = 1 << k
    corners = np.stack([grid.find(a, b), grid.find(a + s, b),
                        grid.find(a, b + s), grid.find(a + s, b + s)], axis=1)
    means = values[corners].mean(axis=1)
    px, py = to_px(*grid.position(a, b + s))
    for row in zip(px.tolist(), py.tolist(), (s * grid.hx * scale).tolist(),
                   (s * grid.hy * scale).tolist(),
                   svg_colors((means - lo) / span)):
        out.append('<rect class="cell" x="%.2f" y="%.2f" width="%.2f" '
                   'height="%.2f" fill="%s" stroke="none"/>' % row)
    for poly in polylines:
        pts = " ".join("%.2f,%.2f" % to_px(x, y) for (x, y) in poly)
        out.append('<polyline class="contour" points="%s" fill="none" '
                   'stroke="black" stroke-width="1.2"/>' % pts)
    out.append("</svg>")
    return "\n".join(out)
