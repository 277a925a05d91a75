"""Property tests of the operator invariants over the grids the API accepts:
box sides from 1e-2 to 1e3, aspect ratios up to 8, depths 2 to 6 and the
default padding, for every built-in kind.  Unit-square grids alone keep the
Laplacian weight wbar far above 1, which hides CFL bounds that forget a
branch of unit slope."""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptfd.grid import DomainBox, GridFunction, ScaleRequest, build_quadtree
from adaptfd.operators import (BUILTIN_KINDS, ProblemDefinition,
                               instantiate_builtin)
from adaptfd.solvers import TimeGroups, build_schedule, euler_step

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60,
                    database=None)


@st.composite
def operators(draw):
    """(op, grid, rng): a built-in operator on a random box and quadtree,
    with a generator for random states."""
    kind = draw(st.sampled_from(BUILTIN_KINDS))
    side = 10.0 ** draw(st.floats(-2.0, 3.0))
    long = side * draw(st.floats(1.0, 8.0))
    lx, ly = (side, long) if draw(st.booleans()) else (long, side)
    x0 = lx * draw(st.floats(-1.0, 1.0))
    y0 = ly * draw(st.floats(-1.0, 1.0))
    box = DomainBox(x0, x0 + lx, y0, y0 + ly)
    depth = draw(st.integers(2, 6))
    n = 1 << depth
    # a uniform base of at most 8 x 8 cells, so every grid has unknowns,
    # refined further toward a few random lattice points
    scale = draw(st.integers(max(0, depth - 3), depth - 1))
    s = 1 << scale
    reqs = [ScaleRequest(x0 + lx * (a + 0.5 * s) / n,
                         y0 + ly * (b + 0.5 * s) / n, scale)
            for a in range(0, n, s) for b in range(0, n, s)]
    reqs += [ScaleRequest(x0 + lx * draw(st.integers(0, n)) / n,
                          y0 + ly * draw(st.integers(0, n)) / n,
                          draw(st.integers(0, depth)))
             for _ in range(draw(st.integers(0, 3)))]
    grid = build_quadtree(reqs, depth, box)

    def xn(x):
        return (x - x0) / lx

    problem = {
        "poisson_dirichlet": ProblemDefinition(
            f=lambda x, y: xn(x) - (y - y0) / ly, g=lambda x, y: 0.0),
        "bc_composite": ProblemDefinition(
            chi=lambda x, y: xn(x) < 0.6, f=lambda x, y: 1.0,
            g=lambda x, y: 0.1 * xn(x)),
        "obstacle": ProblemDefinition(
            g=lambda x, y: 0.2 * math.sin(5.0 * xn(x))),
        "stefan": ProblemDefinition(),
    }[kind]
    op = instantiate_builtin(kind, problem, grid)
    return op, grid, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@PROPERTY
@given(operators())
def test_residual_degenerate_elliptic(case):
    # raising u_i does not lower F_i and does not raise any other F_k
    op, grid, rng = case
    act = np.flatnonzero(op.active)
    if act.size == 0:
        return
    u = op.apply_pins(rng.normal(size=grid.n_nodes()))
    r0 = op.residual(u)
    # rounding scale of a row: its weights times |u| (and |u|^2 for the
    # squared-gradient branch)
    tol = 1e-11 * (1.0 + op.wbar * (1.0 + np.max(np.abs(u))) ** 2)
    for i in rng.choice(act, size=min(5, act.size), replace=False):
        up = u.copy()
        up[i] += 0.3
        dr = op.residual(up) - r0
        assert dr[i] >= -tol[i]
        others = op.active.copy()
        others[i] = False
        assert np.all(dr[others] <= tol[others])


@PROPERTY
@given(operators())
def test_euler_step_does_not_expand(case):
    op, grid, rng = case
    act = np.flatnonzero(op.active)
    if act.size == 0:
        return
    u = GridFunction(grid, op.apply_pins(rng.normal(size=grid.n_nodes())))
    v = GridFunction(grid, op.apply_pins(rng.normal(size=grid.n_nodes())))
    if op.kind == "stefan":
        # the squared-gradient bound depends on the state: step both states
        # with one group under the larger of their bounds
        lip = np.maximum(op.lipschitz(u.values), op.lipschitz(v.values))
        tau = 0.999 / lip[act].max()
        sched = TimeGroups([act], [tau], [1], np.array([0]), tau)
    else:
        # every group update with tau_g * L_i <= 1 is non-expansive, so one
        # visit per group shows it; the full schedule repeats the finest
        # group up to 2^20 times where the coarsest group holds rows with a
        # small bound (L = 1 on data rows) and the finest cells are tiny
        sched = build_schedule(grid, op, u)
        sched = replace(sched, schedule=np.arange(len(sched.groups)))
    d0 = np.max(np.abs(u.values - v.values))
    u2 = euler_step(op, grid, u, sched)
    v2 = euler_step(op, grid, v, sched)
    d1 = np.max(np.abs(u2.values - v2.values))
    assert d1 <= d0 + 1e-12 * (1.0 + np.max(np.abs(u.values))
                               + np.max(np.abs(v.values)))
