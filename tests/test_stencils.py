import math

import numpy as np
import pytest
import sympy as sym

from adaptfd.grid import (BOUNDARY, CODE, DANGLING_X, DIRS, REGULAR,
                          DomainBox, build_quadtree)
from adaptfd.harness import uniform_requests
from adaptfd.stencils import (IllPosedBoundaryError, laplacian_system,
                              one_sided_matrices)
from oracles import cell_map, one_sided_oracle, random_requests

UNIT = DomainBox(0.0, 1.0, 0.0, 1.0)


def field(grid, f):
    return np.array([f(x, y) for x, y in zip(grid.x.tolist(),
                                             grid.y.tolist())])


def row(L, idx):
    """(wbar, {neighbor id: weight w >= 0}) of row idx of a CSR -Laplacian,
    which stores wbar on the diagonal and -w off it."""
    lo, hi = L.indptr[idx], L.indptr[idx + 1]
    w = dict(zip(L.indices[lo:hi].tolist(), (-L.data[lo:hi]).tolist()))
    return -w.pop(idx), w


def lap(grid, u, robin=None):
    """L @ u + const of the grid's -Laplacian rows."""
    L, const, _, _ = laplacian_system(grid, robin)
    return L @ u + const


def uniform_grid(depth):
    return build_quadtree(uniform_requests(UNIT, depth, 0), depth, UNIT,
                          pads=(1, 1))


def one_split_grid():
    # splits the SW quadrant of a depth-2 grid; dangling-x node at (2, 1)
    return build_quadtree(np.array([[0, 0, 0]]), 2, UNIT, pads=(1, 1))


def test_upwind_exact_on_linears_and_constants():
    # D_{+x} u = -(T[W] @ u) and D_{-x} u = -(T[E] @ u)
    g = uniform_grid(3)
    ux = field(g, lambda x, y: x)
    uc = field(g, lambda x, y: 3.7)
    T = one_sided_matrices(g)
    have = {d: np.diff(t.indptr) > 0 for d, t in T.items()}
    reg = g.klass == CODE[REGULAR]
    assert all(have[d][reg].all() for d in DIRS)
    assert -(T["W"] @ ux)[reg] == pytest.approx(1.0)
    assert -(T["E"] @ ux)[reg] == pytest.approx(-1.0)
    for d in DIRS:
        assert -(T[d] @ uc)[reg] == pytest.approx(0.0)


def test_upwind_dangling_matches_symbolic_expansion():
    g = one_split_grid()
    k = int(g.find(2, 1))
    assert g.klass[k] == CODE[DANGLING_X] and DIRS[g.coarse_side[k]] == "E"
    dx, dy = g.band[k] * g.hx, 0.5 * g.band[k] * g.hy
    T = one_sided_matrices(g)
    have = {d: np.diff(t.indptr) > 0 for d, t in T.items()}
    assert have["E"][k]

    x0, y0 = g.x[k], g.y[k]
    X, Y = sym.symbols("X Y")
    for f in (Y**2, X**2 + 3 * Y, X * Y):
        fn = sym.lambdify((X, Y), f)
        u = field(g, fn)
        got = -(T["E"] @ u)[k]
        u_ne = f.subs({X: x0 + dx, Y: y0 + dy})
        u_se = f.subs({X: x0 + dx, Y: y0 - dy})
        expected = (f.subs({X: x0, Y: y0}) - (u_ne + u_se) / 2) / dx
        assert got == pytest.approx(float(expected), rel=1e-12, abs=1e-14)
    # error against the true derivative of y^2 is O(dy^2/dx)
    u = field(g, lambda x, y: y * y)
    err = abs(-(T["E"] @ u)[k] - 0.0)
    assert err == pytest.approx(dy**2 / dx, rel=1e-12)


def test_laplacian_exact_on_quadratics_uniform():
    g = uniform_grid(3)
    u = field(g, lambda x, y: x * x + y * y)
    inner = g.klass != CODE[BOUNDARY]
    assert lap(g, u)[inner] == pytest.approx(-4.0, abs=1e-10)


def test_laplacian_zero_on_constants_every_class():
    g = one_split_grid()
    u = field(g, lambda x, y: 2.5)
    inner = g.klass != CODE[BOUNDARY]
    assert lap(g, u)[inner] == pytest.approx(0.0, abs=1e-12)


def test_laplacian_dangling_matches_symbolic_istencil():
    g = one_split_grid()
    k = int(g.find(2, 1))
    dx, dy = g.band[k] * g.hx, 0.5 * g.band[k] * g.hy
    assert dx == pytest.approx(2 * dy)
    L, const, _, _ = laplacian_system(g)
    assert all(w >= 0 for w in row(L, k)[1].values())

    X, Y = sym.symbols("X Y")
    x0, y0 = g.x[k], g.y[k]
    for f in (X**2, Y**2, X * Y, X**2 - 3 * X * Y + Y**2, X**4):
        fn = sym.lambdify((X, Y), f)
        u = field(g, fn)
        corners = sum(f.subs({X: x0 + sx * dx, Y: y0 + sy * dy})
                      for sx in (-1, 1) for sy in (-1, 1))
        axis = f.subs({X: x0, Y: y0 + dy}) + f.subs({X: x0, Y: y0 - dy})
        f0 = f.subs({X: x0, Y: y0})
        expected = (2 * f0 - corners / 2) / dx**2 \
            + (1 / dy**2 - 1 / dx**2) * (2 * f0 - axis)
        assert (L @ u + const)[k] == pytest.approx(float(expected),
                                                   rel=1e-11)
    # on u = x^2 the I-stencil is exact: value -2
    u = field(g, lambda x, y: x * x)
    assert (L @ u + const)[k] == pytest.approx(-2.0, abs=1e-10)


def test_laplacian_regular_exact_on_random_quadratics():
    rng = np.random.default_rng(31)
    for _ in range(10):
        depth = int(rng.integers(3, 6))
        g = build_quadtree(random_requests(rng, depth, 5), depth, UNIT,
                           pads=(1, 1))
        a, b, c, d, e = rng.normal(size=5)
        u = field(g, lambda x, y: a * x * x + b * y * y + c * x * y
                  + d * x + e * y)
        got = lap(g, u)[g.klass == CODE[REGULAR]]
        assert got == pytest.approx(-(2 * a + 2 * b), rel=1e-10, abs=1e-9)


def test_row_weight_identity_and_monotonicity_fuzz():
    rng = np.random.default_rng(41)
    rows_checked = 0
    for _ in range(220):
        depth = int(rng.integers(3, 7))
        g = build_quadtree(random_requests(rng, depth, 8), depth, UNIT,
                           pads=(1, 1))
        L, const, _, _ = laplacian_system(g)
        u = rng.normal(size=g.n_nodes())
        lu = L @ u + const
        for idx in np.flatnonzero(g.klass != CODE[BOUNDARY]).tolist():
            wbar, nbrs = row(L, idx)
            rows_checked += 1
            assert all(w >= 0 for w in nbrs.values())
            assert abs(wbar - sum(nbrs.values())) <= 1e-12 * wbar
            # bumping any neighbor up never increases the row value
            base = lu[idx]
            j = list(nbrs)[int(rng.integers(0, len(nbrs)))]
            u2 = u.copy()
            u2[j] += 0.5
            assert (L @ u2 + const)[idx] <= base + 1e-12
            u3 = u.copy()
            u3[idx] += 0.5
            assert (L @ u3 + const)[idx] >= base - 1e-12
    assert rows_checked >= 10000


def gradient_sq(grid, u):
    """Monotone |grad u|^2 per node: per axis the uphill one-sided slope
    T[d] @ u, clamped at 0, squared."""
    T = one_sided_matrices(grid)
    return sum(np.maximum(np.maximum(T[p] @ u, T[m] @ u), 0.0) ** 2
               for p, m in (("E", "W"), ("N", "S")))


def test_gradient_sq_trivial_cases():
    g = uniform_grid(3)
    uc = field(g, lambda x, y: 1.23)
    ux = field(g, lambda x, y: x)
    reg = g.klass == CODE[REGULAR]
    assert gradient_sq(g, uc)[reg] == pytest.approx(0.0)
    assert gradient_sq(g, ux)[reg] == pytest.approx(1.0)


def test_gradient_sq_matches_direct_formula_random():
    g = uniform_grid(2)
    rng = np.random.default_rng(53)
    E, W, N, S = (DIRS.index(d) for d in "EWNS")
    for _ in range(50):
        u = rng.normal(size=g.n_nodes())
        got = gradient_sq(g, u)
        for i in np.flatnonzero(g.klass == CODE[REGULAR]).tolist():
            nbr, dist = g.nbr[i], g.dist[i]
            rx = max((u[nbr[E]] - u[i]) / dist[E],
                     (u[nbr[W]] - u[i]) / dist[W], 0.0)
            ry = max((u[nbr[N]] - u[i]) / dist[N],
                     (u[nbr[S]] - u[i]) / dist[S], 0.0)
            assert got[i] == pytest.approx(rx * rx + ry * ry, rel=1e-12,
                                           abs=1e-14)


def dirichlet(gfun):
    return (lambda x, y, nx, ny: 0.0,
            lambda x, y, nx, ny: 1.0,
            lambda x, y, nx, ny: gfun(x, y))


def test_robin_dirichlet_pins_node():
    g = uniform_grid(2)
    k = int(np.flatnonzero(g.klass == CODE[BOUNDARY])[0])
    _, _, active, pins = laplacian_system(
        g, dirichlet(lambda x, y: x + 2 * y))
    assert not active[k]
    assert pins[k] == pytest.approx(g.x[k] + 2 * g.y[k])


def test_robin_homogeneous_neumann_zero_on_constants():
    g = uniform_grid(2)
    u = field(g, lambda x, y: 4.2)
    one = lambda x, y, nx, ny: 1.0
    zero = lambda x, y, nx, ny: 0.0
    wall = g.klass == CODE[BOUNDARY]
    assert lap(g, u, (one, zero, zero))[wall] == pytest.approx(0.0,
                                                               abs=1e-12)


def test_robin_ill_posed_rejected():
    g = uniform_grid(2)
    zero = lambda x, y, nx, ny: 0.0
    with pytest.raises(IllPosedBoundaryError):
        laplacian_system(g, (zero, zero, zero))


def test_robin_far_field_matches_hand_assembled_row():
    # radial condition du/dr + u/r = 0 projected on the square boundary:
    # A = (x . n)/r, B = 1/r, C = 0
    box = DomainBox(-1.0, 1.0, -1.0, 1.0)
    g = build_quadtree(uniform_requests(box, 2, 0), 2, box, pads=(1, 1))

    A = lambda x, y, nx, ny: (x * nx + y * ny) / np.hypot(x, y)
    B = lambda x, y, nx, ny: 1.0 / np.hypot(x, y)
    C = lambda x, y, nx, ny: 0.0

    k = int(g.find(0, 2))                  # west wall, not a corner
    assert g.klass[k] == CODE[BOUNDARY] and g.i[k] == 0
    L, const, active, _ = laplacian_system(g, (A, B, C))
    assert active[k]
    wbar_got, weights = row(L, k)

    h = g.hx
    r = math.hypot(g.x[k], g.y[k])
    a = -g.x[k] / r                           # outward normal (-1, 0)
    b = 1.0 / r
    wbar = 1.0 / h**2 + b / (a * h) + 2.0 / h**2
    nbr = dict(zip(DIRS, g.nbr[k].tolist()))
    assert wbar_got == pytest.approx(wbar, rel=1e-12)
    assert weights[nbr["E"]] == pytest.approx(1.0 / h**2)
    assert weights[nbr["N"]] == pytest.approx(1.0 / h**2)
    assert weights[nbr["S"]] == pytest.approx(1.0 / h**2)
    assert const[k] == 0.0
    # degenerate elliptic: bare-u coefficient nonnegative
    assert wbar_got >= sum(weights.values()) - 1e-12


def test_boundary_without_data_raises():
    # without wall data no wall node gets a row: each is pinned at 0 for the
    # caller to override, and a corner has no one-sided difference outward
    g = uniform_grid(2)
    L, const, active, pins = laplacian_system(g)
    wall = np.flatnonzero(g.klass == CODE[BOUNDARY])
    assert not active[wall].any() and not pins[wall].any()
    assert all(L.indptr[k] == L.indptr[k + 1] for k in wall.tolist())
    T = one_sided_matrices(g)
    have = {d: np.diff(t.indptr) > 0 for d, t in T.items()}
    corner = int(g.find(0, 0))             # no west neighbor
    assert not have["W"][corner]
    assert T["W"].indptr[corner] == T["W"].indptr[corner + 1]


def test_one_sided_matrices_match_pointwise_ops():
    # T[d] @ u is the slope toward d, checked against the one-sided oracle
    rng = np.random.default_rng(61)
    boxes = (UNIT, DomainBox(-3.0, 5.0, 0.0, 2.0),
             DomainBox(0.0, 0.3, 0.0, 1.2))
    dangling = dict.fromkeys(DIRS, 0)
    for trial in range(12):
        box = boxes[trial % 3]
        depth = 4 if trial == 0 else int(rng.integers(3, 6))
        g = build_quadtree(random_requests(rng, depth, 5), depth, box,
                           pads=None if trial else (1, 1))
        T = one_sided_matrices(g)
        have = {d: np.diff(t.indptr) > 0 for d, t in T.items()}
        cells = cell_map(g)
        u = rng.normal(size=g.n_nodes())
        for d in DIRS:
            h = g.hx if d in ("E", "W") else g.hy
            td = T[d] @ u
            for idx, ij in enumerate(zip(g.i.tolist(), g.j.tolist())):
                found = one_sided_oracle(cells, depth, *ij, d)
                assert have[d][idx] == (found is not None)
                if found is None:
                    assert td[idx] == 0.0
                    continue
                pts, dist = found
                dangling[d] += len(pts) == 2
                opp = sum(u[g.find(*p)] for p in pts) / len(pts)
                want = (opp - u[idx]) / (dist * h)
                assert td[idx] == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert min(dangling.values()) > 0
