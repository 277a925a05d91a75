import math

import numpy as np
import pytest

from adaptfd.adaptivity import RefinementPolicy, residual_criteria
from adaptfd.adaptivity import evaluate_criteria
from adaptfd.grid import (DomainBox, GenerationMismatchError, GridError,
                          GridFunction, build_quadtree)
from adaptfd.harness import uniform_requests
from adaptfd.operators import ProblemDefinition, instantiate_builtin
from adaptfd.solvers import (InstabilityError, NonconvergenceError,
                             StoppingPolicy, TimeGroups, build_schedule,
                             euler_step, evolve, multiscale_solve,
                             newton_solve)
from oracles import branches, euler_step_reference

UNIT = DomainBox(0.0, 1.0, 0.0, 1.0)

DIRICHLET0 = (lambda x, y, nx, ny: 0.0, lambda x, y, nx, ny: 1.0,
              lambda x, y, nx, ny: 0.0)


def uniform_grid(depth, box=UNIT):
    return build_quadtree(uniform_requests(box, depth, 0), depth, box,
                          pads=(1, 1))


def two_scale_grid(depth=4):
    # fine column along the left wall, scale-1 cells everywhere else
    fine = uniform_requests(UNIT, depth, 0)
    reqs = np.concatenate([uniform_requests(UNIT, depth, 1),
                           fine[fine[:, 0] == 0]])
    return build_quadtree(reqs, depth, UNIT, pads=(1, 1))


def field(grid, f):
    return np.array([f(x, y) for x, y in zip(grid.x.tolist(),
                                             grid.y.tolist())])


def heat_op(grid):
    prob = ProblemDefinition(f=lambda x, y: 0.0, g=lambda x, y: 0.0)
    return instantiate_builtin("poisson_dirichlet", prob, grid)


def test_schedule_uniform_single_group():
    g = uniform_grid(3)
    op = heat_op(g)
    u = GridFunction(g, np.zeros(g.n_nodes()))
    sched = build_schedule(op, u)
    assert len(sched.groups) == 1
    assert sched.mults == [1]
    assert list(sched.schedule) == [0]
    h = 1.0 / 8
    assert sched.coarse_tau == pytest.approx(h * h / 4)


def test_schedule_two_scales_multiplicities_1_4():
    g = two_scale_grid()
    assert g.scales() == [0, 1]
    op = heat_op(g)
    u = GridFunction(g, np.zeros(g.n_nodes()))
    sched = build_schedule(op, u)
    assert sched.mults == [1, 4]
    assert sched.taus[0] == pytest.approx(4 * sched.taus[1])
    assert sorted(sched.schedule.tolist()) == [0, 1, 1, 1, 1]


def test_schedule_three_scales_multiplicities_1_4_16():
    reqs = np.array([[1, 1, 0], [6, 6, 1]])
    g = build_quadtree(reqs, 5, UNIT, pads=(1, 1))
    scales = g.scales()
    assert len(scales) >= 3
    op = heat_op(g)
    u = GridFunction(g, np.zeros(g.n_nodes()))
    sched = build_schedule(op, u)
    assert sched.mults[:3] == [1, 4, 16]
    total = sum(m * len(gr) for m, gr in zip(sched.mults, sched.groups))
    assert sum(len(sched.groups[gid]) for gid in sched.schedule) == total
    # the step makes those visits, one group update each
    v = op.apply_pins(np.random.default_rng(2).normal(size=g.n_nodes()))
    assert np.array_equal(euler_step(op, GridFunction(g, v), sched).values,
                          euler_step_reference(op, v, sched))


def test_euler_fixed_point_at_solution():
    g = uniform_grid(3)
    prob = ProblemDefinition(f=lambda x, y: 1.0, g=lambda x, y: 0.0)
    op = instantiate_builtin("poisson_dirichlet", prob, g)
    u = newton_solve(op, GridFunction(g, np.zeros(g.n_nodes())),
                     StoppingPolicy([1e-12]))
    sched = build_schedule(op, u)
    u2 = euler_step(op, u, sched)
    assert np.max(np.abs(u2.values - u.values)) < 1e-11


def test_euler_discrete_max_principle_heat():
    g = uniform_grid(3)
    op = heat_op(g)
    rng = np.random.default_rng(1)
    u = GridFunction(g, op.apply_pins(rng.uniform(0, 1, g.n_nodes())))
    sched = build_schedule(op, u)
    u2 = euler_step(op, u, sched)
    assert u2.values.max() <= u.values.max() + 1e-12
    assert u2.values.min() >= u.values.min() - 1e-12


def test_euler_contraction_random_pairs():
    rng = np.random.default_rng(7)
    g = two_scale_grid()
    ops = []
    ops.append(heat_op(g))
    ops.append(instantiate_builtin(
        "obstacle", ProblemDefinition(g=lambda x, y: -0.3,
                                      robin=DIRICHLET0), g))
    ops.append(instantiate_builtin(
        "bc_composite",
        ProblemDefinition(chi=lambda x, y: x < 0.7, f=lambda x, y: x,
                          g=lambda x, y: 0.1), g))
    for op in ops:
        for _ in range(100):
            u = GridFunction(g, op.apply_pins(rng.normal(size=g.n_nodes())))
            v = GridFunction(g, op.apply_pins(rng.normal(size=g.n_nodes())))
            sched = build_schedule(op, u)
            d0 = np.max(np.abs(u.values - v.values))
            u2 = euler_step(op, u, sched)
            v2 = euler_step(op, v, sched)
            assert np.max(np.abs(u2.values - v2.values)) <= d0 + 1e-12


def test_euler_contraction_stefan_manual_group():
    rng = np.random.default_rng(9)
    g = uniform_grid(3)
    op = instantiate_builtin("stefan", ProblemDefinition(), g)
    act = np.flatnonzero(op.active)
    for _ in range(100):
        u = GridFunction(g, op.apply_pins(rng.normal(size=g.n_nodes())))
        v = GridFunction(g, op.apply_pins(rng.normal(size=g.n_nodes())))
        lip = np.maximum(op.lipschitz(u.values), op.lipschitz(v.values))
        tau = 0.999 / lip[act].max()
        sched = TimeGroups([act], [tau], [1], np.array([0]), tau)
        d0 = np.max(np.abs(u.values - v.values))
        u2 = euler_step(op, u, sched)
        v2 = euler_step(op, v, sched)
        assert np.max(np.abs(u2.values - v2.values)) <= d0 + 1e-12


def test_euler_instability_detected():
    g = uniform_grid(3)
    op = heat_op(g)
    u = GridFunction(g, op.apply_pins(np.random.default_rng(2).normal(
        size=g.n_nodes())))
    sched = build_schedule(op, u)
    bad = sched.scaled(3.0)
    with pytest.raises(InstabilityError):
        euler_step(op, u, bad)


def graded_grid(box=UNIT, pads=(1, 1)):
    # scale-2 cells refined to scales 1 and 0 toward one corner, so the
    # schedule has at least three spacing groups
    reqs = np.concatenate([uniform_requests(box, 5, 2),
                           [[1, 1, 0], [6, 6, 1]]])
    return build_quadtree(reqs, 5, box, pads=pads)


def euler_case(kind, grid):
    """(op, initial state) of one built-in kind on grid, in box units."""
    box = grid.box

    def xy(x, y):
        return (x - box.x_min) / box.lx, (y - box.y_min) / box.ly

    def bump(x, y):
        a, b = xy(x, y)
        return np.sin(np.pi * a) * np.sin(2.0 * np.pi * b)

    if kind == "bc_composite":
        # PDE inside a disc, a data row outside, and an inward upwind band
        # just inside the rim
        from adaptfd.operators import UpwindDirectional

        def rad(x, y):
            a, b = xy(x, y)
            return np.hypot(a - 0.5, b - 0.5)

        band = UpwindDirectional(
            region=lambda x, y: (0.25 <= rad(x, y)) & (rad(x, y) < 0.35),
            direction=lambda x, y: ((0.5 - xy(x, y)[0]) / rad(x, y),
                                    (0.5 - xy(x, y)[1]) / rad(x, y)),
            rhs=lambda x, y: 1.0)
        prob = ProblemDefinition(chi=lambda x, y: rad(x, y) < 0.35,
                                 f=lambda x, y: 1.0, g=lambda x, y: 0.1,
                                 first_order=band)
    else:
        prob = {"poisson_dirichlet": ProblemDefinition(f=lambda x, y: 2.0,
                                                       g=lambda x, y: 0.0),
                "obstacle": ProblemDefinition(
                    g=lambda x, y: 0.5 * bump(x, y) - 0.2),
                "stefan": ProblemDefinition(g=lambda x, y: -0.5)}[kind]
    op = instantiate_builtin(kind, prob, grid)
    # Stefan: ice below a warm bump, so both of its branches are taken
    shift = 0.4 if kind == "stefan" else 0.0
    return op, op.apply_pins(field(grid, bump) - shift)


@pytest.mark.parametrize("kind", ["poisson_dirichlet", "bc_composite",
                                  "obstacle", "stefan"])
@pytest.mark.parametrize("box", [UNIT, DomainBox(-1.0, 3.0, 0.0, 1.0)])
def test_euler_step_matches_row_slice_reference(kind, box):
    from oracles import euler_step_reference
    pads = (1, 1) if box is UNIT else None
    g = graded_grid(box, pads)
    op, u0 = euler_case(kind, g)
    if kind == "bc_composite":
        assert op.first is not None and op.weights[2].any()
    rng = np.random.default_rng(5)
    u = GridFunction(g, u0)
    for _ in range(3):
        sched = build_schedule(op, u, rng)
        assert len(sched.groups) >= 3
        # the state-dependent Stefan bound can grow inside a step
        sched = sched.scaled(0.5)
        want = euler_step_reference(op, u.values, sched)
        u2 = euler_step(op, u, sched)
        assert np.array_equal(u2.values, want)
        assert not np.array_equal(u2.values, u.values)
        u = u2
    bad = build_schedule(op, u, rng).scaled(3.0)
    with pytest.raises(InstabilityError):
        euler_step(op, u, bad)
    with pytest.raises(InstabilityError):
        euler_step_reference(op, u.values, bad)


@pytest.mark.parametrize("kind", ["poisson_dirichlet", "bc_composite",
                                  "obstacle", "stefan"])
def test_operator_rows_are_views_of_one_stack(kind):
    # L, the first-order rows and T[d] are row blocks of the one CSR stack
    # each evaluation multiplies: their data and indices are the stack's
    op, _ = euler_case(kind, graded_grid())
    views = [op.L]
    if op.first is not None:
        views.append(op.first[0])
    if op.T is not None:
        views += [op.T[d] for d in "EWNS"]
    assert len(views) == {"bc_composite": 2, "stefan": 5}.get(kind, 1)
    assert op.stack.nnz == sum(m.nnz for m in views)
    for m in views:
        assert np.shares_memory(m.data, op.stack.data)
        assert np.shares_memory(m.indices, op.stack.indices)


def test_euler_step_reuses_start_terms_of_a_bitwise_equal_state(monkeypatch):
    # the first visit takes the schedule's terms only from the very state
    # the schedule was built at: a zero of the other sign is another state
    g = graded_grid()
    op, u0 = euler_case("stefan", g)
    k = np.flatnonzero(op.active)[7]
    u0[k] = 0.0
    sched = build_schedule(op, GridFunction(g, u0))
    visits = len(sched.schedule)
    assert visits > 1
    calls = []
    real = op._step_terms
    monkeypatch.setattr(op, "_step_terms",
                        lambda v: calls.append(1) or real(v))
    same = euler_step(op, GridFunction(g, u0.copy()), sched)
    assert len(calls) == visits - 1
    flipped = u0.copy()
    flipped[k] = -0.0
    calls.clear()
    other = euler_step(op, GridFunction(g, flipped), sched)
    assert len(calls) == visits
    assert np.array_equal(same.values, other.values)


def test_evolve_zero_stefan_stays_zero():
    g = uniform_grid(3)
    op = instantiate_builtin("stefan", ProblemDefinition(), g)
    u0 = GridFunction(g, np.zeros(g.n_nodes()))
    snaps = evolve(op, u0, T=0.01, snapshot_times=(0.002, 0.01))
    assert len(snaps) == 2
    for (_, u, t) in snaps:
        assert np.max(np.abs(u.values)) == 0.0


def test_evolve_heat_decays_toward_zero():
    g = uniform_grid(4)
    op = heat_op(g)
    u0 = GridFunction(g, field(
        g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)))
    snaps = evolve(op, u0, T=0.05, snapshot_times=(0.05,))
    (_, u, t) = snaps[0]
    exact = math.exp(-2 * math.pi ** 2 * 0.05)
    got = u.values.max()
    assert got == pytest.approx(exact, rel=0.05)


def test_asynchronous_matches_synchronous_heat():
    # async evolution agrees with global fine-step evolution to O(dt + h^2),
    # checked by the error shrinking under refinement
    diffs = []
    for depth in (4, 5):
        g = two_scale_grid(depth)
        op = heat_op(g)
        u0 = GridFunction(g, op.apply_pins(field(
            g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))))
        T = 0.02
        snaps = evolve(op, u0, T=T, snapshot_times=(T,), seed=3)
        u_async = snaps[0][1].values

        u = u0.values.copy()
        act = np.flatnonzero(op.active)
        tau = 1.0 / op.lipschitz(u)[act].max()
        t = 0.0
        while t < T - 1e-14:
            step = min(tau, T - t)
            u[act] -= step * op.residual(u)[act]
            t += step
        diffs.append(np.max(np.abs(u_async - u)))
    assert diffs[1] <= 0.6 * diffs[0]
    assert diffs[0] < 0.02


@pytest.mark.parametrize("kwargs, match", [
    (dict(T=math.nan), "finite"), (dict(T=math.inf), "finite"),
    (dict(regrid_every=0), "regrid_every"),
    (dict(snapshot_times=(-0.001,)), "snapshot"),
    (dict(snapshot_times=(0.001, 0.02)), "snapshot"),
    (dict(snapshot_times=(math.nan,)), "snapshot")],
    ids=["T_nan", "T_inf", "regrid_every_0", "snapshot_negative",
         "snapshot_after_T", "snapshot_nan"])
def test_evolve_rejects_out_of_range_times(kwargs, match):
    # one all-pinned cell: a run with these arguments would end at once
    g = build_quadtree(np.array([[0, 0, 0]]), 0, UNIT)
    op = heat_op(g)
    u0 = GridFunction(g, np.zeros(g.n_nodes()))
    args = dict(T=0.01, snapshot_times=(0.01,))
    args.update(kwargs)
    with pytest.raises(GridError, match=match):
        evolve(op, u0, **args)


def test_evolve_to_a_time_below_the_step_tolerance_keeps_snapshots():
    g = uniform_grid(2)
    op = heat_op(g)
    u0 = GridFunction(g, op.apply_pins(np.ones(g.n_nodes())))
    snaps = evolve(op, u0, T=1e-15, snapshot_times=(0.0, 1e-15))
    assert [t for (_, _, t) in snaps] == [0.0, 1e-15]
    assert all(np.array_equal(u.values, u0.values) for (_, u, _) in snaps)


def test_stopping_policy_takes_finite_thresholds_only():
    for bad in ((math.nan,), (1e-6, math.nan), (math.inf, 1e-6)):
        with pytest.raises(GridError, match="finite"):
            StoppingPolicy(bad)
    # residuals are measured in the max norm; there is no norm to choose
    with pytest.raises(TypeError):
        StoppingPolicy((1e-6,), "l2")


def test_evolve_determinism_same_seed():
    g = two_scale_grid()
    op = heat_op(g)
    rng = np.random.default_rng(4)
    u0 = GridFunction(g, op.apply_pins(rng.normal(size=g.n_nodes())))
    a = evolve(op, u0, T=0.01, snapshot_times=(0.01,), seed=42)
    b = evolve(op, u0, T=0.01, snapshot_times=(0.01,), seed=42)
    assert np.array_equal(a[0][1].values, b[0][1].values)
    sched_a = build_schedule(op, u0, np.random.default_rng(5))
    sched_b = build_schedule(op, u0, np.random.default_rng(5))
    assert np.array_equal(sched_a.schedule, sched_b.schedule)


def test_newton_linear_one_iteration():
    g = uniform_grid(4)
    prob = ProblemDefinition(f=lambda x, y: np.sin(3 * x + y),
                             g=lambda x, y: 0.0)
    op = instantiate_builtin("poisson_dirichlet", prob, g)
    log = []
    u = newton_solve(op, GridFunction(g, np.zeros(g.n_nodes())),
                     StoppingPolicy([1e-9]), log=log)
    assert len(log) == 1
    assert np.max(np.abs(op.residual(u.values)[op.active])) <= 1e-9


def test_newton_zero_iterations_at_solution():
    g = uniform_grid(3)
    prob = ProblemDefinition(f=lambda x, y: 1.0, g=lambda x, y: 0.0)
    op = instantiate_builtin("poisson_dirichlet", prob, g)
    u = newton_solve(op, GridFunction(g, np.zeros(g.n_nodes())),
                     StoppingPolicy([1e-10]))
    log = []
    u2 = newton_solve(op, u, StoppingPolicy([1e-10]), log=log)
    assert log == []
    assert np.array_equal(u.values, u2.values)


def test_newton_iteration_cap_raises():
    g = uniform_grid(3)
    prob = ProblemDefinition(f=lambda x, y: 1.0, g=lambda x, y: 0.0)
    op = instantiate_builtin("poisson_dirichlet", prob, g)
    with pytest.raises(NonconvergenceError):
        newton_solve(op, GridFunction(g, np.zeros(g.n_nodes())),
                     StoppingPolicy([1e-30]), max_iter=2)


def obstacle_problem():
    gobs = lambda x, y: 0.5 - 2 * ((x - 0.5) ** 2 + (y - 0.5) ** 2)
    return ProblemDefinition(g=gobs, robin=DIRICHLET0)


def test_newton_matches_psor_on_obstacle():
    from oracles import psor_solve
    g = uniform_grid(4)
    op = instantiate_builtin("obstacle", obstacle_problem(), g)
    u0 = GridFunction(g, op.apply_pins(np.maximum(op.gvals, 0.0)))
    u = newton_solve(op, u0, StoppingPolicy([1e-11]))
    ref = psor_solve(op)
    assert np.max(np.abs(u.values - ref)) < 1e-8
    # solution properties: dominance and complementarity
    assert np.all(u.values >= op.gvals - 1e-10)
    r = op.residual(u.values)
    assert np.max(np.abs(r[op.active])) < 1e-8
    # nonlinear-average identity at interior nodes
    L = op.L
    for i in np.flatnonzero(op.active):
        row = L.getrow(i)
        s = -sum(row.data[k] * u.values[row.indices[k]]
                 for k in range(row.nnz) if row.indices[k] != i)
        avg = s / row[0, i]
        assert u.values[i] == pytest.approx(max(avg, op.gvals[i]), abs=1e-8)


def test_newton_residual_monotone_linear_and_stable_active_set():
    g = uniform_grid(4)
    op = instantiate_builtin("obstacle", obstacle_problem(), g)
    u0 = GridFunction(g, op.apply_pins(np.maximum(op.gvals, 0.0)))
    u = newton_solve(op, u0, StoppingPolicy([1e-10]))
    br = branches(op, u.values)
    # one extra Newton step does not change the active set
    import scipy.sparse.linalg as spla
    act = op.active
    J = op.jacobian(u.values)[act][:, act].tocsc()
    r = op.residual(u.values)[act]
    v = u.values.copy()
    v[act] += spla.spsolve(J, -r)
    assert np.array_equal(branches(op, v), br)


def test_multiscale_trivial_criteria_single_solve():
    g = build_quadtree(np.array([[8, 8, 2]]), 4, UNIT, pads=(1, 1))
    prob = ProblemDefinition(f=lambda x, y: 1.0, g=lambda x, y: 0.0)
    policy = RefinementPolicy(residual_criteria(), thresholds=(1e9,),
                              scales=(0,),
                              initial_cells=tuple(map(tuple,
                                                      g.leaves.tolist())))
    log = []
    grid2, u = multiscale_solve(
        instantiate_builtin("poisson_dirichlet", prob, g),
        GridFunction(g, np.zeros(g.n_nodes())),
        policy, StoppingPolicy([1e-9]), log=log)
    assert grid2.same_cells(g)
    assert len(log) == 1      # one linear solve on the initial grid only


def test_multiscale_obstacle_refines_and_contains_initial():
    g0 = build_quadtree(np.array([[16, 16, 3]]), 5, UNIT, pads=(1, 1))
    initial = tuple(map(tuple, g0.leaves.tolist()))
    policy = RefinementPolicy(residual_criteria(),
                              thresholds=(0.5, 50.0),
                              scales=(1, 0),
                              initial_cells=initial)
    log = []
    grid, u = multiscale_solve(
        instantiate_builtin("obstacle", obstacle_problem(), g0),
        GridFunction(g0, np.zeros(g0.n_nodes())),
        policy, StoppingPolicy([1e-6, 1e-8, 1e-9]), log=log)
    assert grid.n_cells() > g0.n_cells()
    # final grid contains every node of the initial quadtree
    assert (grid.find(g0.i, g0.j) >= 0).all()
    r = np.abs(instantiate_builtin("obstacle", obstacle_problem(),
                                   grid).residual(u.values))
    assert r.max() <= 1e-9


def test_schedule_bound_raises_before_allocating():
    # a coarse group of data rows (L = 1) next to finest cells of a thin box
    # (wbar up to 5.5e5) would take over a million group visits per step
    import time
    from adaptfd.solvers import MAX_GROUP_VISITS, ScheduleError
    box = DomainBox(0.0, 0.129, 0.0, 0.365)
    corner = np.array([(a, b, 0) for a in (0, 1) for b in (0, 1)])
    grid = build_quadtree(corner, 6, box)
    prob = ProblemDefinition(chi=lambda x, y: (x < 0.02) & (y < 0.05),
                             f=lambda x, y: 1.0, g=lambda x, y: 0.0)
    op = instantiate_builtin("bc_composite", prob, grid)
    u = GridFunction(grid, np.zeros(grid.n_nodes()))
    t0 = time.perf_counter()
    with pytest.raises(ScheduleError, match=r"spacing \[16, 8, 4, 2, 1\]"):
        build_schedule(op, u)
    with pytest.raises(ScheduleError, match="limit %d" % MAX_GROUP_VISITS):
        evolve(op, u, T=1.0)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("call", [
    lambda op, u, pol, stop: newton_solve(op, u, stop),
    lambda op, u, pol, stop: multiscale_solve(op, u, pol, stop),
    lambda op, u, pol, stop: evolve(op, u, T=0.01),
    lambda op, u, pol, stop: build_schedule(op, u),
    lambda op, u, pol, stop: euler_step(op, u, build_schedule(
        op, GridFunction(op.grid, np.zeros(op.grid.n_nodes())))),
    lambda op, u, pol, stop: evaluate_criteria(pol, op, u)],
    ids=["newton_solve", "multiscale_solve", "evolve", "build_schedule",
         "euler_step", "evaluate_criteria"])
def test_solution_on_another_grid_is_rejected(call):
    # two 19-node grids with other cells: the size alone cannot tell them
    # apart
    g1, g2 = (build_quadtree(np.array([seed]), 3, UNIT, pads=(1, 1))
              for seed in ([0, 0, 0], [7, 7, 0]))
    assert g1.n_nodes() == g2.n_nodes() == 19
    op = instantiate_builtin("poisson_dirichlet", ProblemDefinition(
        f=lambda x, y: 1.0, g=lambda x, y: 0.0), g1)
    policy = RefinementPolicy(residual_criteria(), thresholds=(1.0,))
    with pytest.raises(GenerationMismatchError):
        call(op, GridFunction(g2, np.zeros(19)), policy,
             StoppingPolicy([1e-9]))
