
import numpy as np
import pytest
import scipy.sparse.linalg as spla

from adaptfd.grid import (BOUNDARY, CODE, DomainBox, GenerationMismatchError,
                          GridFunction, build_quadtree)
from adaptfd.harness import uniform_requests
from adaptfd.operators import (OperatorError, OperatorSpec,
                               ProblemDefinition, UpwindDirectional,
                               instantiate_builtin)
from adaptfd.solvers import build_schedule, euler_step
from adaptfd.stencils import laplacian_system
from oracles import branches, random_requests

UNIT = DomainBox(0.0, 1.0, 0.0, 1.0)


def uniform_grid(depth, box=UNIT):
    return build_quadtree(uniform_requests(box, depth, 0), depth, box,
                          pads=(1, 1))


def field(grid, f):
    return np.array([f(x, y) for x, y in zip(grid.x.tolist(),
                                             grid.y.tolist())])


def lap(grid, u):
    """L @ u + const of the grid's -Laplacian rows."""
    L, const, _, _ = laplacian_system(grid)
    return L @ u + const


def gfun(grid, f):
    return GridFunction(grid, field(grid, f))


def linear_solve(op, grid):
    """Direct solve of a linear operator, for test setup only."""
    u = op.apply_pins(np.zeros(grid.n_nodes()))
    r = op.residual(u)
    J = op.jacobian(u)
    act = op.active
    delta = spla.spsolve(J[act][:, act].tocsc(), -r[act])
    u[act] += delta
    return u


def test_unknown_kind_rejected():
    g = uniform_grid(2)
    with pytest.raises(OperatorError):
        instantiate_builtin("biharmonic", ProblemDefinition(), g)
    # the operator checks its own kind: built directly, too, and a kind
    # that is no string (here unhashable) is unknown as well
    for kind in ("biharmonic", ["obstacle"]):
        with pytest.raises(OperatorError, match="unknown operator kind"):
            OperatorSpec(kind, ProblemDefinition(), g)


def test_missing_datum_rejected():
    g = uniform_grid(2)
    with pytest.raises(OperatorError):
        instantiate_builtin("obstacle", ProblemDefinition(), g)
    with pytest.raises(OperatorError):
        instantiate_builtin("bc_composite", ProblemDefinition(g=lambda x, y: 0.0), g)


def test_data_the_kind_does_not_read_are_rejected():
    # a min kind has no first-order branch, and only bc_composite reads
    # chi: assembly refuses either datum instead of dropping it
    g = uniform_grid(3)
    band = UpwindDirectional(region=lambda x, y: x > 0.5,
                             direction=lambda x, y: (1.0, 0.0),
                             rhs=lambda x, y: 0.0)
    for kind in ("obstacle", "stefan"):
        with pytest.raises(OperatorError, match="no first-order rows"):
            instantiate_builtin(kind, ProblemDefinition(
                g=lambda x, y: 0.0, first_order=band), g)
    for kind in ("poisson_dirichlet", "obstacle", "stefan"):
        with pytest.raises(OperatorError, match="only bc_composite"):
            instantiate_builtin(kind, ProblemDefinition(
                chi=lambda x, y: 0.0 * x, g=lambda x, y: 0.0), g)
    # the kinds that read them still take them
    op = instantiate_builtin("bc_composite", ProblemDefinition(
        chi=lambda x, y: x < 0.3, g=lambda x, y: 0.0, first_order=band), g)
    assert set(np.unique(op.branch).tolist()) == {-1, 0, 1, 2}
    op = instantiate_builtin("poisson_dirichlet", ProblemDefinition(
        g=lambda x, y: 0.0, first_order=band), g)
    assert (op.branch == 2).any()


def test_obstacle_flat_zero_state_solves():
    g = uniform_grid(3)
    prob = ProblemDefinition(g=lambda x, y: -1.0,
                             robin=(lambda x, y, nx, ny: 0.0,
                                    lambda x, y, nx, ny: 1.0,
                                    lambda x, y, nx, ny: 0.0))
    op = instantiate_builtin("obstacle", prob, g)
    u = GridFunction(g, op.apply_pins(np.zeros(g.n_nodes())))
    r = op.residual(u.values)
    assert np.max(np.abs(r)) == pytest.approx(0.0, abs=1e-14)


def test_stefan_zero_state_is_stationary():
    g = uniform_grid(3)
    op = instantiate_builtin("stefan", ProblemDefinition(), g)
    u = GridFunction(g, np.zeros(g.n_nodes()))
    r = op.residual(u.values)
    assert np.max(np.abs(r)) == 0.0


def test_bc_composite_rows_match_independent_assembly():
    g = build_quadtree(np.array([[4, 4, 0]]), 3, UNIT, pads=(1, 1))
    chi = lambda x, y: (x - 0.5) ** 2 + (y - 0.5) ** 2 < 0.16
    ffun = lambda x, y: 1.0 + x
    gfun_ = lambda x, y: x * y
    prob = ProblemDefinition(chi=chi, f=ffun, g=gfun_)
    op = instantiate_builtin("bc_composite", prob, g)
    rng = np.random.default_rng(2)
    u = rng.normal(size=g.n_nodes())
    r = op.residual(u)
    lu = lap(g, u)
    for idx, (x, y) in enumerate(zip(g.x.tolist(), g.y.tolist())):
        if g.klass[idx] == CODE[BOUNDARY]:
            assert r[idx] == 0.0
            continue
        if chi(x, y):
            want = lu[idx] - ffun(x, y)
        else:
            want = u[idx] - gfun_(x, y)
        assert r[idx] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_poisson_residual_zero_at_discrete_solution():
    g = uniform_grid(3)
    prob = ProblemDefinition(f=lambda x, y: np.sin(np.pi * x),
                             g=lambda x, y: 0.0)
    op = instantiate_builtin("poisson_dirichlet", prob, g)
    u = linear_solve(op, g)
    assert np.max(np.abs(op.residual(u))) < 1e-10


def test_manufactured_residual_is_truncation_error():
    # with u = g everywhere and f = -Lap g, the residual reduces to the
    # second-order truncation error of the stencil
    errs = []
    for depth in (3, 4):
        g = uniform_grid(depth)
        gexact = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        lap_g = lambda x, y: -2 * np.pi ** 2 * gexact(x, y)
        prob = ProblemDefinition(chi=lambda x, y: True,
                                 f=lambda x, y: -lap_g(x, y),
                                 g=gexact)
        op = instantiate_builtin("bc_composite", prob, g)
        u = gfun(g, gexact)
        r = op.residual(u.values)
        errs.append(np.max(np.abs(r)))
    assert errs[1] < 0.3 * errs[0]


def test_obstacle_residual_at_obstacle_nonpositive():
    g = uniform_grid(3)
    gobs = lambda x, y: np.sin(2 * x + y)
    prob = ProblemDefinition(g=gobs)
    op = instantiate_builtin("obstacle", prob, g)
    u = gfun(g, gobs)
    r = op.residual(u.values)
    assert np.all(r <= 1e-12)


def test_linear_jacobian_independent_of_state():
    g = uniform_grid(3)
    prob = ProblemDefinition(f=lambda x, y: 1.0, g=lambda x, y: 0.0)
    op = instantiate_builtin("poisson_dirichlet", prob, g)
    rng = np.random.default_rng(3)
    J1 = op.jacobian(rng.normal(size=g.n_nodes()))
    J2 = op.jacobian(rng.normal(size=g.n_nodes()))
    assert (J1 - J2).nnz == 0
    # interior rows are the Laplacian rows
    u = rng.normal(size=g.n_nodes())
    interior = g.klass != CODE[BOUNDARY]
    assert (J1 @ u)[interior] == pytest.approx(lap(g, u)[interior],
                                               rel=1e-12, abs=1e-12)


def test_obstacle_jacobian_identity_row_on_contact_branch():
    g = uniform_grid(3)
    prob = ProblemDefinition(g=lambda x, y: 0.0,
                             robin=(lambda *a: 0.0, lambda *a: 1.0,
                                    lambda *a: 5.0))
    op = instantiate_builtin("obstacle", prob, g)
    # deep in contact: u - g < pde strictly somewhere
    u = op.apply_pins(field(g, lambda x, y: -x * (1 - x) * y * (1 - y)))
    J = op.jacobian(u)
    br = branches(op, u)
    for idx in np.flatnonzero(g.klass != CODE[BOUNDARY]).tolist():
        if br[idx] != 1:
            continue
        row = J.getrow(idx)
        assert row.nnz == 1 and row[0, idx] == pytest.approx(1.0)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(5)
    kinds = ("poisson_dirichlet", "bc_composite", "obstacle", "stefan")
    for trial in range(8):
        depth = int(rng.integers(2, 5))
        grid = build_quadtree(random_requests(rng, depth, 4), depth,
                              UNIT, pads=(1, 1))
        kind = kinds[trial % 4]
        prob = ProblemDefinition(
            chi=(lambda x, y: x + y < 1.1) if kind == "bc_composite" else None,
            f=lambda x, y: np.cos(3 * x) * y,
            g=lambda x, y: 0.3 * np.sin(4 * x * y))
        op = instantiate_builtin(kind, prob, grid)
        u = op.apply_pins(rng.normal(size=grid.n_nodes()))
        J = op.jacobian(u)
        r0 = op.residual(u)
        eps = 1e-6
        cols = rng.choice(np.flatnonzero(op.active),
                          size=min(12, int(op.active.sum())), replace=False)
        for jcol in cols:
            up = u.copy()
            up[jcol] += eps
            um = u.copy()
            um[jcol] -= eps
            fd = (op.residual(up) - op.residual(um)) / (2 * eps)
            col = np.asarray(J[:, jcol].todense()).ravel()
            # skip rows that straddle a branch tie
            rows = np.flatnonzero(np.abs(fd - col) >
                                  1e-6 * np.maximum(1.0, np.abs(col)))
            for i in rows:
                bru = branches(op, up)[i]
                brm = branches(op, um)[i]
                assert bru != brm, (kind, i, jcol, fd[i], col[i])


def test_cfl_uniform_laplacian_quarter_h_squared():
    g = uniform_grid(3)
    h = 1.0 / 8.0
    prob = ProblemDefinition(f=lambda x, y: 0.0, g=lambda x, y: 0.0)
    op = instantiate_builtin("poisson_dirichlet", prob, g)
    u = GridFunction(g, np.zeros(g.n_nodes()))
    lip = op.lipschitz(u.values)
    wall = g.klass == CODE[BOUNDARY]
    assert (lip[wall] == 0).all()
    assert 1.0 / lip[~wall] == pytest.approx(h * h / 4)


def test_cfl_obstacle_same_as_laplacian():
    g = uniform_grid(3)
    probp = ProblemDefinition(f=lambda x, y: 0.0, g=lambda x, y: 0.0)
    probo = ProblemDefinition(g=lambda x, y: 0.0,
                              robin=(lambda *a: 0.0, lambda *a: 1.0,
                                     lambda *a: 0.0))
    opp = instantiate_builtin("poisson_dirichlet", probp, g)
    opo = instantiate_builtin("obstacle", probo, g)
    rng = np.random.default_rng(9)
    u = GridFunction(g, rng.normal(size=g.n_nodes()))
    act = opp.active
    dtp = 1.0 / opp.lipschitz(u.values)[act]
    dto = 1.0 / opo.lipschitz(u.values)[act]
    assert np.allclose(dtp, dto)


def test_obstacle_step_keeps_order_on_coarse_cells():
    # h = 4, so wbar = 0.25 < 1: the CFL bound must also cover the unit
    # slope of the contact branch u - g, or 1.00 and 0.95 step out of order
    box = DomainBox(-4.0, 4.0, -4.0, 4.0)
    g = build_quadtree(uniform_requests(box, 3, 2), 3, box)
    prob = ProblemDefinition(g=lambda x, y: 0.9,
                             robin=(lambda *a: 0.0, lambda *a: 1.0,
                                    lambda *a: 0.0))
    op = instantiate_builtin("obstacle", prob, g)
    (i,) = np.flatnonzero(op.active)
    assert op.wbar[i] == pytest.approx(0.25)
    hi = GridFunction(g, op.apply_pins(np.zeros(g.n_nodes())))
    hi.values[i] = 1.0
    lo = GridFunction(g, hi.values.copy())
    lo.values[i] = 0.95
    assert 1.0 / op.lipschitz(hi.values)[i] <= 1.0
    sched = build_schedule(op, hi)
    hi2 = euler_step(op, hi, sched)
    lo2 = euler_step(op, lo, sched)
    assert hi2.values[i] >= lo2.values[i]


def test_degenerate_ellipticity_probe_all_builtins():
    rng = np.random.default_rng(13)
    for trial in range(60):
        depth = int(rng.integers(2, 5))
        grid = build_quadtree(random_requests(rng, depth, 3), depth,
                              UNIT, pads=(1, 1))
        kind = ("poisson_dirichlet", "bc_composite", "obstacle",
                "stefan")[trial % 4]
        prob = ProblemDefinition(
            chi=(lambda x, y: x < 0.6) if kind == "bc_composite" else None,
            f=lambda x, y: x - y, g=lambda x, y: 0.2 * np.sin(5 * x))
        op = instantiate_builtin(kind, prob, grid)
        if not op.active.any():
            continue
        u = op.apply_pins(rng.normal(size=grid.n_nodes()))
        r0 = op.residual(u)
        i = int(rng.choice(np.flatnonzero(op.active)))
        # raising u_i does not lower F_i
        u_up = u.copy()
        u_up[i] += 0.3
        assert op.residual(u_up)[i] >= r0[i] - 1e-12
        # raising any other value does not raise F_i
        j = int(rng.integers(0, grid.n_nodes()))
        if j != i:
            u_j = u.copy()
            u_j[j] += 0.3
            assert op.residual(u_j)[i] <= r0[i] + 1e-12


def test_comparison_principle_bc_composite():
    rng = np.random.default_rng(17)
    for _ in range(10):
        depth = int(rng.integers(2, 5))
        grid = build_quadtree(random_requests(rng, depth, 3), depth,
                              UNIT, pads=(1, 1))
        a, b = sorted(rng.normal(size=2))
        f1 = lambda x, y: a + np.sin(3 * x) - 1.0
        f2 = lambda x, y: b + np.sin(3 * x)
        g1 = lambda x, y: 0.1 * x - 0.2
        g2 = lambda x, y: 0.1 * x
        chi = lambda x, y: (x - 0.5) ** 2 + (y - 0.5) ** 2 < 0.1
        u1 = linear_solve(instantiate_builtin(
            "bc_composite", ProblemDefinition(chi=chi, f=f1, g=g1), grid), grid)
        u2 = linear_solve(instantiate_builtin(
            "bc_composite", ProblemDefinition(chi=chi, f=f2, g=g2), grid), grid)
        assert np.all(u1 <= u2 + 1e-10)


def test_first_order_region_rows():
    g = uniform_grid(3)
    region = lambda x, y: (0.3 < x) & (x < 0.7) & (0.3 < y) & (y < 0.7)
    hop = UpwindDirectional(region,
                            direction=lambda x, y: (1.0, 0.0),
                            rhs=lambda x, y: 1.0)
    prob = ProblemDefinition(chi=lambda x, y: ~region(x, y),
                             f=lambda x, y: 0.0, g=lambda x, y: 0.0,
                             first_order=hop)
    op = instantiate_builtin("bc_composite", prob, g)
    # du/dx - 1 with u = x evaluates to zero on the region
    u = field(g, lambda x, y: x)
    r = op.residual(u)
    inside = (g.klass != CODE[BOUNDARY]) & region(g.x, g.y)
    assert r[inside] == pytest.approx(0.0, abs=1e-12)


def test_first_order_rows_override_chis_data_branch():
    # punctured_neumann's upwind band takes its nodes from the data row as
    # from the PDE row: with chi = 0 and chi = 1 alike its nodes take the
    # first-order branch, with the same residual, and every other active
    # node takes the branch chi gives it
    from adaptfd.harness import make_preset, parse_config
    hop = make_preset(parse_config("preset = punctured_neumann\n")) \
        .problem.first_order
    g = uniform_grid(4)
    ops = [instantiate_builtin("bc_composite", ProblemDefinition(
        chi=lambda x, y: inside, f=lambda x, y: 1.0, g=lambda x, y: 0.0,
        first_order=hop), g) for inside in (1.0, 0.0)]
    band = hop.build(g)[0] & ops[0].active
    assert band.sum() > 0
    for op, rest in zip(ops, (0, 1)):
        assert op.first is not None
        assert np.array_equal(op.branch == 2, band)
        assert np.all(op.branch[op.active & ~band] == rest)
    u = ops[0].apply_pins(np.random.default_rng(3).normal(size=g.n_nodes()))
    pde, data = (op.residual(u) for op in ops)
    assert np.array_equal(pde[band], data[band])
    rest = ops[1].active & ~band
    assert np.array_equal(data[rest], u[rest])


def test_generation_mismatch_detected():
    g = uniform_grid(2)
    prob = ProblemDefinition(f=lambda x, y: 0.0, g=lambda x, y: 0.0)
    op = instantiate_builtin("poisson_dirichlet", prob, g)
    other = uniform_grid(3)
    u = GridFunction(other, np.zeros(other.n_nodes()))
    with pytest.raises(GenerationMismatchError):
        build_schedule(op, u)


def test_assemble_jacobian_row_count_is_active_count():
    g = uniform_grid(3)
    prob = ProblemDefinition(g=lambda x, y: -0.5,
                             robin=(lambda *a: 0.0, lambda *a: 1.0,
                                    lambda *a: 0.0))
    op = instantiate_builtin("obstacle", prob, g)
    u = GridFunction(g, op.apply_pins(np.zeros(g.n_nodes())))
    J = op.jacobian(u.values)[op.active]
    assert J.shape == (int(op.active.sum()), g.n_nodes())


def test_upwind_directional_matches_per_node_loop():
    # punctured_neumann's inward band on random graded grids: mask, M,
    # const and lip bitwise equal to a per-node build, including rows whose
    # upwind side is the coarse side of a dangling node; off the unit
    # square hx != hy, so the two spacings cannot stand in for each other
    from adaptfd.harness import make_preset, parse_config
    from oracles import upwind_directional_build
    hop = make_preset(parse_config("preset = punctured_neumann\n")) \
        .problem.first_order
    rng = np.random.default_rng(46)
    for box in (UNIT, DomainBox(0.0, 1.5, 0.0, 1.0),
                DomainBox(0.2, 0.8, 0.1, 0.9)):
        far_rows = 0
        for depth in (4, 5, 6):
            for _ in range(4):
                grid = build_quadtree(random_requests(rng, depth, 6),
                                      depth, box)
                got = hop.build(grid)
                want = upwind_directional_build(hop, grid)
                for a, b in zip(got[:1] + got[2:], want[:1] + want[2:]):
                    assert a.tobytes() == b.tobytes()
                M, W = got[1], want[1]
                assert M.has_canonical_format and W.has_canonical_format
                for name in ("indptr", "indices", "data"):
                    assert getattr(M, name).tobytes() \
                        == getattr(W, name).tobytes()
                # rows that difference against a dangling node's far corners
                for r in np.flatnonzero(got[0] & (grid.coarse_side >= 0)):
                    far_rows += M[r, grid.drv_pair[r, 0]] != 0
        assert far_rows > 0


def test_upwind_directional_calls_direction_once_per_build():
    calls = []

    def direction(x, y):
        calls.append(len(x))
        return np.ones_like(x), -0.5 * np.ones_like(y)

    g = uniform_grid(3)
    hop = UpwindDirectional(region=lambda x, y: x > 0.3, direction=direction,
                            rhs=lambda x, y: 1.0)
    mask = hop.build(g)[0]
    assert calls == [int(mask.sum())]
    for bad in (lambda x, y: (float(x), 0.0), lambda x, y: (x, y, x),
                lambda x, y: (x[:1], y)):
        with pytest.raises(OperatorError, match="direction"):
            UpwindDirectional(region=lambda x, y: x > 0.3, direction=bad,
                              rhs=lambda x, y: 1.0).build(g)


def test_sampling_rejects_pointwise_callables_and_bad_shapes():
    import math
    g = uniform_grid(2)
    with pytest.raises(OperatorError, match="datum f must take node arrays"):
        instantiate_builtin("poisson_dirichlet", ProblemDefinition(
            f=lambda x, y: math.sin(x), g=lambda x, y: 0.0), g)
    with pytest.raises(OperatorError, match="datum chi must take node"):
        instantiate_builtin("bc_composite", ProblemDefinition(
            chi=lambda x, y: 0.2 < x < 0.7, g=lambda x, y: 0.0), g)
    with pytest.raises(OperatorError, match="datum g gave shape"):
        instantiate_builtin("poisson_dirichlet", ProblemDefinition(
            g=lambda x, y: np.zeros((len(x), 2))), g)
    with pytest.raises(OperatorError, match="datum region must take"):
        UpwindDirectional(region=lambda x, y: x < 0.5 and y < 0.5,
                          direction=lambda x, y: (1.0, 0.0),
                          rhs=lambda x, y: 0.0).build(g)
    # scalars are broadcast, and the result never aliases the grid's arrays
    prob = ProblemDefinition(f=lambda x, y: 2.0, g=lambda x, y: x)
    op = instantiate_builtin("poisson_dirichlet", prob, g)
    assert np.array_equal(op.fvals, np.full(g.n_nodes(), 2.0))
    assert op.gvals.flags.writeable and not np.shares_memory(op.gvals, g.x)
