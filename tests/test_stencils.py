import math

import numpy as np
import pytest
import sympy as sym

from adaptfd.grid import (BOUNDARY, DANGLING_X, REGULAR, DomainBox,
                          ScaleRequest, build_quadtree)
from adaptfd.stencils import (IllPosedBoundaryError, InactiveMark,
                              StencilUnavailableError, laplacian_row,
                              laplacian_system, one_sided_matrices, robin_row,
                              upwind_first_derivative, upwind_gradient_sq)
from oracles import one_sided_oracle, random_requests

UNIT = DomainBox(0.0, 1.0, 0.0, 1.0)


def field(grid, f):
    return np.array([f(n.x, n.y) for n in grid.nodes])


def uniform_grid(depth):
    side = 1 << depth
    reqs = [ScaleRequest((i + 0.5) / side, (j + 0.5) / side, 0)
            for i in range(side) for j in range(side)]
    return build_quadtree(reqs, depth, UNIT, pads=(1, 1))


def one_split_grid():
    # splits the SW quadrant of a depth-2 grid; dangling-x node at (2, 1)
    return build_quadtree([ScaleRequest(0.1, 0.1, 0)], 2, UNIT, pads=(1, 1))


def test_upwind_exact_on_linears_and_constants():
    g = uniform_grid(3)
    ux = field(g, lambda x, y: x)
    uc = field(g, lambda x, y: 3.7)
    for n in g.nodes:
        if n.klass != REGULAR:
            continue
        assert upwind_first_derivative(g, n, "+x", ux) == pytest.approx(1.0)
        assert upwind_first_derivative(g, n, "-x", ux) == pytest.approx(-1.0)
        for d in ("+x", "-x", "+y", "-y"):
            assert upwind_first_derivative(g, n, d, uc) == pytest.approx(0.0)


def test_upwind_dangling_matches_symbolic_expansion():
    g = one_split_grid()
    n = g.nodes[g.node_id[(2, 1)]]
    assert n.klass == DANGLING_X and n.coarse_side == "E"
    dx, dy = n.band * g.hx, 0.5 * n.band * g.hy

    x0, y0 = n.x, n.y
    X, Y = sym.symbols("X Y")
    for f in (Y**2, X**2 + 3 * Y, X * Y):
        fn = sym.lambdify((X, Y), f)
        u = field(g, fn)
        got = upwind_first_derivative(g, n, "-x", u)
        u_ne = f.subs({X: x0 + dx, Y: y0 + dy})
        u_se = f.subs({X: x0 + dx, Y: y0 - dy})
        expected = (f.subs({X: x0, Y: y0}) - (u_ne + u_se) / 2) / dx
        assert got == pytest.approx(float(expected), rel=1e-12, abs=1e-14)
    # error against the true derivative of y^2 is O(dy^2/dx)
    u = field(g, lambda x, y: y * y)
    err = abs(upwind_first_derivative(g, n, "-x", u) - 0.0)
    assert err == pytest.approx(dy**2 / dx, rel=1e-12)


def test_laplacian_exact_on_quadratics_uniform():
    g = uniform_grid(3)
    u = field(g, lambda x, y: x * x + y * y)
    for n in g.nodes:
        if n.klass == BOUNDARY:
            continue
        row = laplacian_row(g, n)
        assert row.evaluate(u) == pytest.approx(-4.0, abs=1e-10)


def test_laplacian_zero_on_constants_every_class():
    g = one_split_grid()
    u = field(g, lambda x, y: 2.5)
    for n in g.nodes:
        if n.klass == BOUNDARY:
            continue
        assert laplacian_row(g, n).evaluate(u) == pytest.approx(0.0, abs=1e-12)


def test_laplacian_dangling_matches_symbolic_istencil():
    g = one_split_grid()
    n = g.nodes[g.node_id[(2, 1)]]
    dx, dy = n.band * g.hx, 0.5 * n.band * g.hy
    assert dx == pytest.approx(2 * dy)

    X, Y = sym.symbols("X Y")
    x0, y0 = n.x, n.y
    for f in (X**2, Y**2, X * Y, X**2 - 3 * X * Y + Y**2, X**4):
        fn = sym.lambdify((X, Y), f)
        u = field(g, fn)
        row = laplacian_row(g, n)
        assert all(w >= 0 for (_, w) in row.neighbors)
        corners = sum(f.subs({X: x0 + sx * dx, Y: y0 + sy * dy})
                      for sx in (-1, 1) for sy in (-1, 1))
        axis = f.subs({X: x0, Y: y0 + dy}) + f.subs({X: x0, Y: y0 - dy})
        f0 = f.subs({X: x0, Y: y0})
        expected = (2 * f0 - corners / 2) / dx**2 \
            + (1 / dy**2 - 1 / dx**2) * (2 * f0 - axis)
        assert row.evaluate(u) == pytest.approx(float(expected), rel=1e-11)
    # on u = x^2 the I-stencil is exact: value -2
    u = field(g, lambda x, y: x * x)
    assert laplacian_row(g, n).evaluate(u) == pytest.approx(-2.0, abs=1e-10)


def test_laplacian_regular_exact_on_random_quadratics():
    rng = np.random.default_rng(31)
    for _ in range(10):
        depth = int(rng.integers(3, 6))
        g = build_quadtree(random_requests(rng, depth, 5, UNIT), depth, UNIT,
                           pads=(1, 1))
        a, b, c, d, e = rng.normal(size=5)
        u = field(g, lambda x, y: a * x * x + b * y * y + c * x * y
                  + d * x + e * y)
        for n in g.nodes:
            if n.klass != REGULAR:
                continue
            got = laplacian_row(g, n).evaluate(u)
            assert got == pytest.approx(-(2 * a + 2 * b), rel=1e-10, abs=1e-9)


def test_row_weight_identity_and_monotonicity_fuzz():
    rng = np.random.default_rng(41)
    rows_checked = 0
    for _ in range(220):
        depth = int(rng.integers(3, 7))
        g = build_quadtree(random_requests(rng, depth, 8, UNIT), depth, UNIT,
                           pads=(1, 1))
        u = rng.normal(size=g.n_nodes())
        for n in g.nodes:
            if n.klass == BOUNDARY:
                continue
            row = laplacian_row(g, n)
            rows_checked += 1
            wsum = sum(w for (_, w) in row.neighbors)
            assert all(w >= 0 for (_, w) in row.neighbors)
            assert abs(row.wbar - wsum) <= 1e-12 * row.wbar
            # bumping any neighbor up never increases the row value
            base = row.evaluate(u)
            j, w = row.neighbors[int(rng.integers(0, len(row.neighbors)))]
            u2 = u.copy()
            u2[j] += 0.5
            assert row.evaluate(u2) <= base + 1e-12
            u3 = u.copy()
            u3[row.center] += 0.5
            assert row.evaluate(u3) >= base - 1e-12
    assert rows_checked >= 10000


def test_gradient_sq_trivial_cases():
    g = uniform_grid(3)
    uc = field(g, lambda x, y: 1.23)
    ux = field(g, lambda x, y: x)
    for n in g.nodes:
        if n.klass != REGULAR:
            continue
        assert upwind_gradient_sq(g, n, uc) == pytest.approx(0.0)
        assert upwind_gradient_sq(g, n, ux) == pytest.approx(1.0)


def test_gradient_sq_matches_direct_formula_random():
    g = uniform_grid(2)
    rng = np.random.default_rng(53)
    for _ in range(50):
        u = rng.normal(size=g.n_nodes())
        for n in g.nodes:
            if n.klass != REGULAR:
                continue
            i = g.node_id[(n.i, n.j)]
            rx = max((u[n.nbr["E"]] - u[i]) / n.de,
                     (u[n.nbr["W"]] - u[i]) / n.dw, 0.0)
            ry = max((u[n.nbr["N"]] - u[i]) / n.dn,
                     (u[n.nbr["S"]] - u[i]) / n.ds, 0.0)
            assert upwind_gradient_sq(g, n, u) == pytest.approx(
                rx * rx + ry * ry, rel=1e-12, abs=1e-14)


def dirichlet(gfun):
    return (lambda x, y, nx, ny: 0.0,
            lambda x, y, nx, ny: 1.0,
            lambda x, y, nx, ny: gfun(x, y))


def test_robin_dirichlet_pins_node():
    g = uniform_grid(2)
    n = next(n for n in g.nodes if n.klass == BOUNDARY)
    mark = robin_row(g, n, *dirichlet(lambda x, y: x + 2 * y))
    assert isinstance(mark, InactiveMark)
    assert mark.value == pytest.approx(n.x + 2 * n.y)


def test_robin_homogeneous_neumann_zero_on_constants():
    g = uniform_grid(2)
    u = field(g, lambda x, y: 4.2)
    one = lambda x, y, nx, ny: 1.0
    zero = lambda x, y, nx, ny: 0.0
    for n in g.nodes:
        if n.klass != BOUNDARY:
            continue
        row = robin_row(g, n, one, zero, zero)
        assert row.evaluate(u) == pytest.approx(0.0, abs=1e-12)


def test_robin_ill_posed_rejected():
    g = uniform_grid(2)
    n = next(n for n in g.nodes if n.klass == BOUNDARY)
    zero = lambda x, y, nx, ny: 0.0
    with pytest.raises(IllPosedBoundaryError):
        robin_row(g, n, zero, zero, zero)


def test_robin_far_field_matches_hand_assembled_row():
    # radial condition du/dr + u/r = 0 projected on the square boundary:
    # A = (x . n)/r, B = 1/r, C = 0
    box = DomainBox(-1.0, 1.0, -1.0, 1.0)
    side = 1 << 2
    reqs = [ScaleRequest(-1 + (i + 0.5) / 2, -1 + (j + 0.5) / 2, 0)
            for i in range(side) for j in range(side)]
    g = build_quadtree(reqs, 2, box, pads=(1, 1))

    A = lambda x, y, nx, ny: (x * nx + y * ny) / np.hypot(x, y)
    B = lambda x, y, nx, ny: 1.0 / np.hypot(x, y)
    C = lambda x, y, nx, ny: 0.0

    n = g.nodes[g.node_id[(0, 2)]]          # west wall, not a corner
    assert n.klass == BOUNDARY and n.i == 0
    row = robin_row(g, n, A, B, C)

    h = g.hx
    r = math.hypot(n.x, n.y)
    a = -n.x / r                              # outward normal (-1, 0)
    b = 1.0 / r
    wbar = 1.0 / h**2 + b / (a * h) + 2.0 / h**2
    weights = dict(row.neighbors)
    assert row.wbar == pytest.approx(wbar, rel=1e-12)
    assert weights[n.nbr["E"]] == pytest.approx(1.0 / h**2)
    assert weights[n.nbr["N"]] == pytest.approx(1.0 / h**2)
    assert weights[n.nbr["S"]] == pytest.approx(1.0 / h**2)
    assert row.constant == 0.0
    # degenerate elliptic: bare-u coefficient nonnegative
    assert row.wbar >= sum(w for (_, w) in row.neighbors) - 1e-12


def test_boundary_without_data_raises():
    g = uniform_grid(2)
    n = next(n for n in g.nodes if n.klass == BOUNDARY)
    with pytest.raises(StencilUnavailableError):
        laplacian_row(g, n)
    u = field(g, lambda x, y: x)
    corner = g.nodes[g.node_id[(0, 0)]]
    with pytest.raises(StencilUnavailableError):
        upwind_first_derivative(g, corner, "+x", u)  # no west neighbor


def test_one_sided_matrices_match_pointwise_ops():
    # T[d] @ u is the slope toward d, the negated derivative whose
    # one-sided difference uses side d
    toward = {"E": "-x", "W": "+x", "N": "-y", "S": "+y"}
    rng = np.random.default_rng(61)
    boxes = (UNIT, DomainBox(-3.0, 5.0, 0.0, 2.0),
             DomainBox(0.0, 0.3, 0.0, 1.2))
    dangling = dict.fromkeys(toward, 0)
    for trial in range(12):
        box = boxes[trial % 3]
        depth = 4 if trial == 0 else int(rng.integers(3, 6))
        g = build_quadtree(random_requests(rng, depth, 5, box), depth, box,
                           pads=None if trial else (1, 1))
        T, have = one_sided_matrices(g)
        u = rng.normal(size=g.n_nodes())
        for d in toward:
            h = g.hx if d in ("E", "W") else g.hy
            td = T[d] @ u
            for idx, n in enumerate(g.nodes):
                found = one_sided_oracle(g.cells, depth, n.i, n.j, d)
                assert have[d][idx] == (found is not None)
                if found is None:
                    assert td[idx] == 0.0
                    continue
                pts, dist = found
                dangling[d] += len(pts) == 2
                opp = sum(u[g.node_id[p]] for p in pts) / len(pts)
                want = (opp - u[idx]) / (dist * h)
                assert td[idx] == pytest.approx(want, rel=1e-12, abs=1e-12)
                got = -upwind_first_derivative(g, n, toward[d], u)
                assert td[idx] == pytest.approx(got, rel=1e-12, abs=1e-13)
    assert min(dangling.values()) > 0


def test_laplacian_system_matches_rows():
    rng = np.random.default_rng(71)
    g = build_quadtree(random_requests(rng, 4, 4, UNIT), 4, UNIT, pads=(1, 1))
    L, const, active, pins = laplacian_system(g)
    u = rng.normal(size=g.n_nodes())
    lu = L @ u + const
    for idx, n in enumerate(g.nodes):
        if n.klass == BOUNDARY:
            assert not active[idx]
            continue
        assert lu[idx] == pytest.approx(laplacian_row(g, n).evaluate(u),
                                        rel=1e-12, abs=1e-13)
