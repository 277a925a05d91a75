"""Property tests of the operator invariants over the grids the API accepts:
box sides from 1e-2 to 1e3, aspect ratios up to 8, depths 2 to 6 and pads
from 1 to two above the default, for every built-in kind.  Unit-square grids
alone keep the Laplacian weight wbar far above 1, which hides CFL bounds
that forget a branch of unit slope.  A pad below the default leaves a
dangling node across that axis no room for its I-stencil; assembly must
then refuse the grid."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import adaptfd.grid
from adaptfd.adaptivity import cells_as_requests, regrid, transfer
from adaptfd.contour import extract_contour
from adaptfd.grid import (CLASSES, CODE, DANGLING_X, DANGLING_Y, DIRS,
                          DomainBox, GridFunction, QuadtreeGrid,
                          build_quadtree, default_pads)
from adaptfd.harness import solution_csv
from adaptfd.svgplot import grid_svg, solution_svg
from adaptfd.operators import (BUILTIN_KINDS, ProblemDefinition,
                               UpwindDirectional, instantiate_builtin)
from adaptfd.solvers import (MAX_GROUP_VISITS, InstabilityError,
                             ScheduleError, StoppingPolicy, TimeGroups,
                             _trial_leaves, build_schedule, euler_step,
                             newton_solve)
from adaptfd.stencils import (StencilUnavailableError, laplacian_system,
                              one_sided_matrices)
import oracles
from oracles import (brute_classify, cell_map, check_legal, closure_oracle,
                     jacobian_reference, laplacian_system_reference,
                     leaf_edges, neighbor_oracle, row_terms,
                     schedule_reference, vertices_of)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100,
                    database=None)


@st.composite
def grids(draw, deep=False, wide_pads=False, uniform=False):
    """(grid, requests): a random box and a quadtree on it with random pads,
    built from the requested squares (a, b, k).  A deep grid is refined
    toward 16 to 32 points, each at the base scale or finer, instead of 0
    to 3 points at any scale; a uniform one toward none.  With wide_pads,
    one axis, drawn at random, has a pad above the lattice side."""
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
    reqs = [(a, b, scale) for a in range(0, n, s) for b in range(0, n, s)]
    # the square of each scale k containing a random lattice point (i, j)
    for _ in range(0 if uniform else draw(st.integers(16, 32) if deep
                                          else st.integers(0, 3))):
        i, j, k = (draw(st.integers(0, n)), draw(st.integers(0, n)),
                   draw(st.integers(0, scale if deep else depth)))
        reqs.append((min(i >> k << k, n - (1 << k)),
                     min(j >> k << k, n - (1 << k)), k))
    pad_x, pad_y = default_pads(box)
    pads = [draw(st.integers(1, pad_x + 2)), draw(st.integers(1, pad_y + 2))]
    if wide_pads:
        pads[draw(st.integers(0, 1))] = draw(st.integers(n + 1, 4 * n))
    return build_quadtree(np.array(reqs), depth, box, pads=tuple(pads)), reqs


def _problem(variant, box):
    """The problem of a variant: a built-in kind, or bc_composite with a
    disc as chi ("bc_composite_disc"), with a first-order band
    ("bc_composite_first_order") or with a band of direction (0, 0)
    ("bc_composite_flat_band"), whose rows have no entries and a Lipschitz
    bound of 0."""
    x0, lx, y0, ly = box.x_min, box.lx, box.y_min, box.ly

    def xn(x):
        return (x - x0) / lx

    def yn(y):
        return (y - y0) / ly

    if variant == "bc_composite_disc":
        return ProblemDefinition(
            chi=lambda x, y: (xn(x) - 0.4) ** 2 + (yn(y) - 0.5) ** 2 < 0.1,
            f=lambda x, y: 1.0 + xn(x), g=lambda x, y: 0.1 * xn(x))
    if variant == "bc_composite_flat_band":
        band = UpwindDirectional(region=lambda x, y: xn(x) > 0.8,
                                 direction=lambda x, y: (0.0, 0.0),
                                 rhs=lambda x, y: 1.0)
        return replace(_problem("bc_composite", box), first_order=band)
    if variant == "bc_composite_first_order":
        band = UpwindDirectional(region=lambda x, y: xn(x) > 0.7,
                                 direction=lambda x, y: (1.0, 0.5),
                                 rhs=lambda x, y: 1.0)
        return replace(_problem("bc_composite", box), first_order=band)
    return {
        "poisson_dirichlet": ProblemDefinition(
            f=lambda x, y: xn(x) - (y - y0) / ly, g=lambda x, y: 0.0),
        "bc_composite": ProblemDefinition(
            chi=lambda x, y: xn(x) < 0.6, f=lambda x, y: 1.0,
            g=lambda x, y: 0.1 * xn(x)),
        "obstacle": ProblemDefinition(
            g=lambda x, y: 0.2 * np.sin(5.0 * xn(x))),
        "stefan": ProblemDefinition(),
    }[variant]


KINDS = tuple(BUILTIN_KINDS)
STEP_VARIANTS = KINDS + ("bc_composite_disc", "bc_composite_flat_band",
                         "bc_composite_first_order")
# the variants whose every active node takes a branch that depends on its
# own unknown: the static problems Newton solves
NEWTON_VARIANTS = ("poisson_dirichlet", "bc_composite", "obstacle",
                   "bc_composite_disc", "bc_composite_first_order")


@st.composite
def operators(draw, variants=KINDS, deep=False, uniform=False):
    """(kind, problem, grid, rng): a problem of one of the variants on a
    random grid (deep or uniform as in grids), and a generator for random
    states."""
    variant = draw(st.sampled_from(variants))
    grid, _ = draw(grids(deep, uniform=uniform))
    kind = "bc_composite" if variant.startswith("bc_composite") else variant
    return kind, _problem(variant, grid.box), grid, np.random.default_rng(
        draw(st.integers(0, 2**32 - 1)))


def assembled(case):
    """(op, grid, rng) of a case, or None where assembly must fail.

    The I-stencil of a node dangling across x needs a coarse-axis width of
    ceil(hy / 2hx) cells, which is the default pad_x (likewise across y), so
    a grid whose pad is below the default on the axis of one of its dangling
    nodes has no monotone stencil there: assembly must raise
    StencilUnavailableError exactly for those grids."""
    kind, problem, grid, rng = case
    pad_x, pad_y = default_pads(grid.box)
    short = {DANGLING_X: grid.pad_x < pad_x, DANGLING_Y: grid.pad_y < pad_y}
    if any(short[c] and (grid.klass == CODE[c]).any() for c in short):
        with pytest.raises(StencilUnavailableError):
            instantiate_builtin(kind, problem, grid)
        return None
    return instantiate_builtin(kind, problem, grid), grid, rng


def shared_schedule(op, grid, u, v):
    """One schedule under which an Euler step of either state is stable."""
    act = np.flatnonzero(op.active)
    if op.kind == "stefan":
        # the squared-gradient bound depends on the state: step both states
        # with one group under the larger of their bounds
        lip = np.maximum(op.lipschitz(u.values), op.lipschitz(v.values))
        tau = 0.999 / lip[act].max()
        return TimeGroups([act], [tau], [1], np.array([0]), tau)
    # every group update with tau_g * L_i <= 1 is monotone and
    # non-expansive, so one visit per group shows it; the full schedule
    # repeats the finest group up to 2^20 times where the coarsest group
    # holds rows with a small bound (L = 1 on data rows) and the finest
    # cells are tiny
    sched = build_schedule(op, u)
    return replace(sched, schedule=np.arange(len(sched.groups)))


@PROPERTY
@given(operators())
def test_residual_degenerate_elliptic(case):
    # raising u_i does not lower F_i and does not raise any other F_k
    case = assembled(case)
    if case is None:
        return
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
    case = assembled(case)
    if case is None or not case[0].active.any():
        return
    op, grid, rng = case
    u = GridFunction(grid, op.apply_pins(rng.normal(size=grid.n_nodes())))
    v = GridFunction(grid, op.apply_pins(rng.normal(size=grid.n_nodes())))
    sched = shared_schedule(op, grid, u, v)
    d0 = np.max(np.abs(u.values - v.values))
    u2 = euler_step(op, u, sched)
    v2 = euler_step(op, v, sched)
    d1 = np.max(np.abs(u2.values - v2.values))
    assert d1 <= d0 + 1e-12 * (1.0 + np.max(np.abs(u.values))
                               + np.max(np.abs(v.values)))


@PROPERTY
@given(operators())
def test_euler_step_keeps_order(case):
    # comparison principle: u >= v gives euler_step(u) >= euler_step(v)
    case = assembled(case)
    if case is None or not case[0].active.any():
        return
    op, grid, rng = case
    n = grid.n_nodes()
    v = GridFunction(grid, op.apply_pins(rng.normal(size=n)))
    lift = np.abs(rng.normal(size=n)) * (rng.random(n) < 0.5)
    u = GridFunction(grid, op.apply_pins(v.values + lift))
    assert np.all(u.values >= v.values)
    sched = shared_schedule(op, grid, u, v)
    u2 = euler_step(op, u, sched)
    v2 = euler_step(op, v, sched)
    tol = 1e-12 * (1.0 + np.max(np.abs(u.values)) + np.max(np.abs(v.values)))
    assert np.all(u2.values >= v2.values - tol)


@pytest.mark.xfail(strict=True, reason=(
    "a forward Euler step of stefan does not keep order across u_i = 0: "
    "the residual jumps up by max(0, |grad u|^2 - Lap u) as u_i leaves 0, "
    "so no step tau > 0 keeps u_i - tau F_i nondecreasing in u_i"))
def test_stefan_euler_step_keeps_order_across_zero():
    # one-phase data on the uniform depth-3 unit grid: v is 0 except 4.0 at
    # the four neighbors of node (4, 4), and u = v except u(4, 4) = 1e-9;
    # one visit of every active node at 0.999 / max L over both states
    # gives u2(4, 4) = 0.999 against v2(4, 4) = 1.998
    unit = DomainBox(0.0, 1.0, 0.0, 1.0)
    squares = np.array([(a, b, 0) for a in range(8) for b in range(8)])
    grid = build_quadtree(squares, 3, unit, pads=(1, 1))
    op = instantiate_builtin("stefan", ProblemDefinition(
        g=lambda x, y: 0.0), grid)
    ids = grid.find(np.array([4, 3, 5, 4, 4]), np.array([4, 4, 4, 3, 5]))
    v = np.zeros(grid.n_nodes())
    v[ids[1:]] = 4.0
    u = v.copy()
    u[ids[0]] = 1e-9
    u, v = GridFunction(grid, u), GridFunction(grid, v)
    sched = shared_schedule(op, grid, u, v)
    u2 = euler_step(op, u, sched).values
    v2 = euler_step(op, v, sched).values
    assert u2[ids[0]] >= v2[ids[0]]


@PROPERTY
@given(grids())
def test_array_grid_matches_oracles(case):
    # the Morton-sorted leaves, the node classes and every neighbor id and
    # distance agree with the brute-force oracles
    grid, seeds = case
    cells = closure_oracle(seeds, grid.depth, grid.pads)
    assert cell_map(grid) == cells
    assert check_legal(cells, grid.depth, grid.pads, seeds)
    classes = brute_classify(cells, grid.depth)
    assert [classes[ij] for ij in zip(grid.i.tolist(), grid.j.tolist())] \
        == [CLASSES[c] for c in grid.klass.tolist()]
    verts = vertices_of(cells)
    edges = leaf_edges(cells)
    h = (grid.hx, grid.hx, grid.hy, grid.hy)
    for idx, (i, j) in enumerate(zip(grid.i.tolist(), grid.j.tolist())):
        for d, side in enumerate(DIRS):
            found = neighbor_oracle(verts, edges, grid.depth, i, j, side)
            if found is None:
                assert grid.nbr[idx, d] == -1
                assert np.isnan(grid.dist[idx, d])
            else:
                (ni, nj), t = found
                assert (grid.i[grid.nbr[idx, d]], grid.j[grid.nbr[idx, d]]) \
                    == (ni, nj)
                assert grid.dist[idx, d] == t * h[d]


@PROPERTY
@given(grids())
def test_classify_matches_node_search_reference(case):
    # every node array has the dtype, shape and bytes that the classifier
    # searching the node keys for each neighbor, pair and stencil corner
    # gives
    grid, _ = case
    ref = oracles.classify_reference(grid)
    for name in oracles.CLASSIFIED:
        got = getattr(grid, name)
        assert (got.dtype, got.shape) == (ref[name].dtype, ref[name].shape)
        assert got.tobytes() == ref[name].tobytes(), name


def _step_case(case):
    """(op, grid, state) of a step-kernel case, or None where assembly
    fails: a random state with ties planted on a fifth of the nodes, where
    u equals the datum g (0 without one)."""
    case = assembled(case)
    if case is None:
        return None
    op, grid, rng = case
    n = grid.n_nodes()
    u = np.where(rng.random(n) < 0.2, op.gvals, rng.normal(size=n))
    return op, grid, op.apply_pins(u), rng


@PROPERTY
@given(operators(STEP_VARIANTS))
def test_schedule_matches_per_step_grouping(case):
    # the operator's cached time groups give the schedule the per-call
    # np.unique grouping gives, from one shared seed, and draw the same
    # random numbers; the partition is built once per operator
    case = _step_case(case)
    if case is None:
        return
    op, grid, u, rng = case
    u = GridFunction(grid, u)
    seed = int(rng.integers(2**32))
    want_rng, got_rng = (np.random.default_rng(seed) for _ in range(2))
    want = schedule_reference(grid, op, u, want_rng)
    if sum(want.mults) > MAX_GROUP_VISITS:
        with pytest.raises(ScheduleError):
            build_schedule(op, u, got_rng)
        return
    got = build_schedule(op, u, got_rng)
    assert len(got.groups) == len(want.groups)
    for a, b in zip(got.groups, want.groups):
        assert np.array_equal(a, b)
    assert got.mults == want.mults
    assert got.taus == want.taus
    assert got.coarse_tau == want.coarse_tau
    assert np.array_equal(got.schedule, want.schedule)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    parts = op.time_groups
    build_schedule(op, u)
    assert op.time_groups is parts


@PROPERTY
@given(operators(STEP_VARIANTS))
def test_step_kernel_matches_all_branch_evaluation(case):
    # selecting each node's branch from the branches some node takes gives
    # what the weighted sum of every branch the operator has gives: the
    # step terms, residual, bound, branch choice and Jacobian equal the
    # reference's, with one-hot weights from op.branch
    case = _step_case(case)
    if case is None:
        return
    op, grid, u, _ = case
    w, lip, res, _ = row_terms(op, u, np.arange(grid.n_nodes()))
    got_lip, got_res = op._step_terms(u)
    assert np.all(got_lip == lip)
    assert np.all(got_res == res)
    assert np.all(op.residual(u) == res)
    assert np.all(op.lipschitz(u) == lip)
    assert np.array_equal(oracles.branches(op, u), np.argmax(w, axis=0))
    assert (op.jacobian(u) != jacobian_reference(op, u)).nnz == 0


def _planted(rng, op, u, nan):
    """u with zeros of both signs on a fifth of the nodes and huge values
    (of either sign, |u| up to 1e100, so that no term overflows) on a few;
    with nan, NaN on a few pinned nodes and, on every other draw, one
    active node."""
    u = u.copy()
    n = len(u)
    zero = rng.random(n) < 0.2
    u[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
    huge = rng.choice(n, size=min(3, n), replace=False)
    u[huge] = rng.choice([-1.0, 1.0], size=len(huge)) * 10.0 ** rng.uniform(
        50.0, 100.0, size=len(huge))
    if nan:
        pinned = np.flatnonzero(~op.active)
        u[rng.choice(pinned, size=min(3, len(pinned)), replace=False)] = np.nan
        if rng.random() < 0.5:
            u[rng.choice(np.flatnonzero(op.active))] = np.nan
    return u


@settings(PROPERTY, max_examples=300)
@given(st.one_of(operators(STEP_VARIANTS, uniform=True),
                 operators(STEP_VARIANTS),
                 operators(STEP_VARIANTS, deep=True)), st.booleans())
def test_euler_step_matches_its_reference_to_the_bit(case, nan):
    # a step equals the step under the groups' own boolean masks bit for
    # bit, NaN payloads and the sign of every zero included: the mask True
    # of a one-class operator whose every active bound is positive, which
    # also updates the pinned rows, changes nothing, and a NaN or
    # non-positive bound keeps boolean masks.  Without NaN, the step also
    # equals the per-group row-slice reference bit for bit; the reference
    # weighs every branch, and its 0 * NaN on a branch a node does not
    # take is NaN
    case = _step_case(case)
    if case is None or not case[0].active.any():
        return
    op, grid, u, rng = case
    u = GridFunction(grid, _planted(rng, op, u, nan))
    try:
        sched = build_schedule(op, u, rng)
    except ScheduleError:
        return
    if not sched.groups:
        return
    lip = sched.start[1]
    whole = bool(np.all(lip[op.active] > 0))
    one_class = len(op.time_groups[0]) == 1
    assert [m is True for m in sched.masks] == \
        [one_class and whole] * len(sched.groups)
    for mask, rows in zip(sched.masks, sched.groups):
        if mask is True:
            assert np.array_equal(rows, np.flatnonzero(op.active))
        else:
            assert mask.dtype == bool
            assert np.array_equal(np.flatnonzero(mask), rows)
    # a few visits keep the reference's per-row evaluations cheap; half
    # steps, as the Stefan bound can grow inside one
    sched = replace(sched.scaled(0.5), schedule=sched.schedule[:8])
    try:
        got = euler_step(op, u, sched).values.view(np.int64)
    except InstabilityError:
        with pytest.raises(InstabilityError):
            oracles.euler_step_reference(op, u.values, sched)
        return
    boolean = replace(sched, masks=None)
    assert np.array_equal(got, euler_step(op, u, boolean).values.view(
        np.int64))
    if not nan:
        want = oracles.euler_step_reference(op, u.values, sched)
        assert np.array_equal(got, want.view(np.int64))


# wall data of the step-terms test: pinned walls, and Robin rows whose
# Lconst is zero (neumann) or not
STEP_WALLS = ("none", "neumann", "far_field", "mixed")


@PROPERTY
@given(operators(STEP_VARIANTS), st.sampled_from(STEP_WALLS))
def test_step_terms_match_their_reference_to_the_bit(case, walls):
    # the step form writes its terms over the slopes in the product and
    # skips the constant rows assembly found all zero; its bound and
    # residual are the reference's bit for bit, the sign of every zero
    # included (== cannot see it), with zeros of both signs planted in the
    # state
    kind, problem, grid, rng = case
    robin = _wall_data(walls, grid.box)
    case = _step_case((kind, replace(problem, robin=robin), grid, rng))
    if case is None:
        return
    op, grid, u, rng = case
    zero = rng.random(len(u)) < 0.2
    u[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
    want = [t.view(np.int64) for t in oracles.step_terms_reference(op, u)]
    got = [t.view(np.int64) for t in op._step_terms(u)]
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(op.lipschitz(u).view(np.int64), want[0])
    assert np.array_equal(op.residual(u).view(np.int64), want[1])


@PROPERTY
@given(operators(STEP_VARIANTS))
def test_branch_is_minus_one_exactly_off_the_active_nodes(case):
    # every active node takes one branch of assembly and no pinned node
    # takes any; a min kind's nodes all start on the PDE row
    case = assembled(case)
    if case is None:
        return
    op, _, _ = case
    assert op.branch.dtype == np.int8
    assert np.array_equal(op.branch == -1, ~op.active)
    assert np.all(np.isin(op.branch[op.active], (0, 1, 2)))
    if op.second is not None:
        assert np.all(op.branch[op.active] == 0)


def _wall_data(variant, box):
    """Robin triples (A, B, C) that take scalars and arrays alike: Dirichlet,
    Neumann, a far-field condition about a point outside the box built from
    + - * / and sqrt, mixed walls with A = 0 on the east wall only, and
    A = B = 0 on the north wall or on the upper half of the west wall."""
    cx, cy = box.x_min - 0.3 * box.lx, box.y_min - 0.7 * box.ly
    ymid = box.y_min + 0.5 * box.ly

    def r(x, y):
        return np.sqrt((x - cx) * (x - cx) + (y - cy) * (y - cy))

    return {
        "none": None,
        "dirichlet": (lambda x, y, nx, ny: 0.0, lambda x, y, nx, ny: 1.0,
                      lambda x, y, nx, ny: x - 2.0 * y),
        "neumann": (lambda x, y, nx, ny: 1.0, lambda x, y, nx, ny: 0.0,
                    lambda x, y, nx, ny: 0.0),
        "far_field": (
            lambda x, y, nx, ny: ((x - cx) * nx + (y - cy) * ny) / r(x, y),
            lambda x, y, nx, ny: 1.0 / r(x, y),
            lambda x, y, nx, ny: (0.5 * x - y / 3.0) / r(x, y)),
        "mixed": (lambda x, y, nx, ny: 0.0 if nx > 0 else 1.0,
                  lambda x, y, nx, ny: 2.0 + y / box.ly,
                  lambda x, y, nx, ny: x * y),
        "ill_posed_wall": (lambda x, y, nx, ny: 0.0 if ny > 0 else 1.0,
                           lambda x, y, nx, ny: 0.0 if ny > 0 else 0.5,
                           lambda x, y, nx, ny: 1.0),
        "ill_posed_part": (
            lambda x, y, nx, ny: 1.0 - (nx < 0) * (y > ymid),
            lambda x, y, nx, ny: 1.0 - (nx < 0) * (y > ymid),
            lambda x, y, nx, ny: 0.25 + 0.0 * x),
    }[variant]


WALL_DATA = ("none", "dirichlet", "neumann", "far_field", "mixed",
             "ill_posed_wall", "ill_posed_part")


@settings(PROPERTY, max_examples=400)
@given(grids(), st.sampled_from(WALL_DATA))
def test_laplacian_system_matches_per_node_loop(case, variant):
    # the array rows equal a row-by-row assembly with Python floats bit for
    # bit, and refuse exactly the grids and wall data it refuses, with the
    # error of the first node it cannot build
    grid, _ = case
    robin = _wall_data(variant, grid.box)
    try:
        want = laplacian_system_reference(grid, robin)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            laplacian_system(grid, robin)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return
    L, const, active, pins = laplacian_system(grid, robin)
    W = want[0]
    for name in ("indptr", "indices", "data"):
        assert getattr(L, name).tobytes() == getattr(W, name).tobytes()
    for got, exp in zip((const, active, pins), want[1:]):
        assert got.dtype == exp.dtype and got.tobytes() == exp.tobytes()


def _wild_values(rng, n):
    """n values mixing normal draws, zeros of both signs, subnormals and
    magnitudes near 1e300 and 1e-300 of either sign."""
    sign = rng.choice([-1.0, 1.0], size=n)
    pool = np.stack([
        rng.normal(size=n),
        sign * 0.0,
        sign * rng.integers(1, 2**52, size=n) * 5e-324,
        sign * rng.uniform(1.0, 4.0, size=n) * 1e300,
        sign * rng.uniform(1.0, 9.0, size=n) * 1e-300])
    return pool[rng.integers(0, len(pool), size=n), np.arange(n)]


@PROPERTY
@given(grids(), st.integers(0, 2**32 - 1))
def test_writers_match_row_wise_oracles(case, seed):
    # each writer formats every distinct lattice value once and indexes
    # into those strings: its text is byte for byte the row-wise writer's,
    # for two states on one grid (the second reuses the grid's node text)
    grid, _ = case
    rng = np.random.default_rng(seed)
    assert grid.dump() == oracles.grid_dump(grid)
    assert grid_svg(grid) == oracles.grid_svg(grid)
    box = grid.box
    polys = [np.column_stack([box.x_min + box.lx * rng.random(k),
                              box.y_min + box.ly * rng.random(k)])
             for k in (2, 5)]
    for _ in range(2):
        u = GridFunction(grid, _wild_values(rng, grid.n_nodes()))
        assert solution_csv(grid, u) == oracles.solution_csv(grid, u)
        assert solution_svg(grid, u.values, polys) \
            == oracles.solution_svg(grid, u.values, polys)


def _bits(M):
    return tuple((getattr(M, a).dtype, getattr(M, a).tobytes())
                 for a in ("data", "indices", "indptr"))


@PROPERTY
@given(operators(STEP_VARIANTS))
def test_active_block_is_the_sliced_jacobian_bit_for_bit(case):
    # Newton's block from the cached rows is the full Jacobian cut to the
    # active rows and columns, and the one the sparse products give, to
    # the bit, with the same index dtypes and order
    case = _step_case(case)
    if case is None:
        return
    op, grid, u, _ = case
    act = op.active
    got = op.jacobian(u, act)
    assert got.format == "csc"
    assert _bits(got) == _bits(op.jacobian(u)[act][:, act].tocsc())
    assert _bits(got) == _bits(jacobian_reference(op, u)[act][:, act]
                               .tocsc())
    assert _bits(op.jacobian(u, np.flatnonzero(act))) == _bits(got)


@PROPERTY
@given(operators(NEWTON_VARIANTS))
def test_active_block_is_an_m_matrix(case):
    # positive diagonal, nonpositive off-diagonals and nonnegative row sums:
    # the LU of such a matrix takes its diagonal pivots without row
    # interchanges
    case = _step_case(case)
    if case is None or not case[0].active.any():
        return
    op, grid, u, _ = case
    J = op.jacobian(u, op.active).tocoo()
    diag = J.diagonal()
    assert np.all(diag > 0)
    assert np.all(J.data[J.row != J.col] <= 0)
    rowsum = np.asarray(J.sum(axis=1)).ravel()
    assert np.all(rowsum >= -1e-12 * diag)


@PROPERTY
@given(operators(STEP_VARIANTS))
def test_operator_stack_is_vstack_of_fresh_rows(case):
    # the stack concatenated from the blocks' arrays is sp.vstack of rows
    # assembled afresh, and every block is its row range of the stack,
    # sharing the stack's data and indices
    case = assembled(case)
    if case is None:
        return
    op, grid, _ = case
    blocks = [laplacian_system(grid, robin=op.problem.robin)[0]]
    if op.first is not None:
        blocks.append(op.problem.first_order.build(grid)[1])
    if op.T is not None:
        T = one_sided_matrices(grid)
        blocks += [T[d] for d in "EWNS"]
    assert _bits(op.stack) == _bits(sp.vstack(blocks, format="csr"))
    views = [op.L] + ([op.first[0]] if op.first is not None else []) \
        + ([op.T[d] for d in "EWNS"] if op.T is not None else [])
    n = grid.n_nodes()
    for k, block in enumerate(views):
        assert _bits(block) == _bits(op.stack[k * n:(k + 1) * n])
        if block.nnz:
            assert np.shares_memory(block.data, op.stack.data)
            assert np.shares_memory(block.indices, op.stack.indices)


@PROPERTY
@given(grids(), st.integers(0, 7))
def test_trial_split_is_its_own_closure(case, target):
    # splitting every leaf coarser than the target once keeps the grid
    # balanced and padded: the split leaves are those build_quadtree closes
    # them to, so the trial grid needs no closure
    grid, _ = case
    target = min(target, grid.depth)
    leaves = _trial_leaves(grid, target)
    split = QuadtreeGrid(grid.box, grid.depth, grid.pads, leaves)
    closed = build_quadtree(leaves, grid.depth, grid.box, grid.pads)
    assert np.array_equal(split.leaves, closed.leaves)
    u = GridFunction(grid, np.arange(grid.n_nodes(), dtype=float))
    g2, u2 = transfer(grid, u, leaves)
    if grid.leaves[:, 2].max() <= target:
        assert g2 is grid and u2 is u
    else:
        assert np.array_equal(g2.leaves, closed.leaves)
        assert np.array_equal(u2.values, regrid(grid, u, leaves)[1].values)


@PROPERTY
@given(grids())
def test_unchanged_regrid_classifies_nothing(case):
    # regrid compares the closed leaves with the grid's before it builds a
    # grid, so a request for the current cells classifies no node
    grid, _ = case
    u = GridFunction(grid, np.zeros(grid.n_nodes()))
    calls = []
    classify = adaptfd.grid.classify_nodes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adaptfd.grid, "classify_nodes",
                   lambda g: calls.append(g) or classify(g))
        g2, u2 = regrid(grid, u, cells_as_requests(grid))
        assert g2 is grid and u2 is u
        assert calls == []
        # a changed grid is classified once
        fine = np.concatenate([grid.leaves, [[0, 0, 0]]])
        g3, _ = regrid(grid, u, fine)
    assert len(calls) == (0 if g3 is grid else 1)


# the fields of the contour test: normal noise at a random level, a plane
# (contours that end on the walls), values on a few levels cut at one of
# them (level equal to node values), and a constant field at the level
# (inside the value range, no leaf crossed)
CONTOUR_FIELDS = ("noise", "plane", "levels", "constant")


@PROPERTY
@given(grids(deep=True), st.sampled_from(CONTOUR_FIELDS),
       st.integers(0, 2**32 - 1))
def test_contour_matches_its_reference(case, field, seed):
    # the array walk gives the polylines of the per-leaf loop, in order and
    # point for point, across hanging midpoints and scale changes
    grid, _ = case
    rng = np.random.default_rng(seed)
    n = grid.n_nodes()
    level = float(rng.normal())
    if field == "noise":
        values = rng.normal(size=n)
    elif field == "plane":
        ax, ay = rng.normal(size=2)
        values = ax * (grid.x - grid.box.x_min) / grid.box.lx \
            + ay * (grid.y - grid.box.y_min) / grid.box.ly
        level = float(rng.uniform(values.min(), values.max()))
    elif field == "levels":
        values = rng.integers(-2, 3, size=n) * 0.5
        level = float(rng.choice(values))
    else:
        values = np.full(n, level)
    want = oracles.extract_contour_reference(grid, values, level)
    got = extract_contour(grid, values, level)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    if field == "constant":
        assert got == []


@st.composite
def obstacle_problems(draw, deep=False):
    """(kind, problem, grid, rng) as operators() gives them: an obstacle
    problem on a random grid (deep as in grids), its obstacle a random wave
    that the walls are pinned to, its load a random constant on the scale
    of the box, so that the contact set is neither empty nor everything on
    most draws."""
    grid, _ = draw(grids(deep))
    box = grid.box
    amp, lift = draw(st.floats(0.1, 2.0)), draw(st.floats(-1.0, 1.0))
    kx, ky = draw(st.floats(0.5, 12.0)), draw(st.floats(0.5, 12.0))
    load = draw(st.floats(-30.0, 30.0)) / min(box.lx, box.ly) ** 2

    def obstacle(x, y):
        xn = (x - box.x_min) / box.lx
        yn = (y - box.y_min) / box.ly
        return amp * np.sin(kx * xn) * np.cos(ky * yn) + lift

    return "obstacle", ProblemDefinition(f=lambda x, y: load, g=obstacle), \
        grid, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@PROPERTY
@given(obstacle_problems(), st.floats(0.0, 1.0))
def test_policy_start_reaches_the_plain_solution(case, density):
    # Newton from zero and Newton after the policy solve of a random
    # contact set both stop below the threshold, and their states differ
    # by no more than any two states whose residuals are that small can:
    # F(u) - F(v) = D (u - v), each row of D a convex combination of the
    # PDE row and the unit row, and D^-1 1 <= z + 1 for z = L^-1 1 on the
    # unknowns, so |u - v| <= (1 + max z) (|F(u)| + |F(v)|)
    case = assembled(case)
    if case is None or not case[0].active.any():
        return
    op, grid, rng = case
    act = op.active
    wbar = float(op.wbar[act].max())
    gmax = float(np.abs(op.gvals).max())
    stop = StoppingPolicy([1e-10 * (1.0 + wbar) * (1.0 + gmax)])
    zero = GridFunction(grid, np.zeros(grid.n_nodes()))
    take = (rng.random(grid.n_nodes()) < density) & act
    log = []
    u = newton_solve(op, zero, stop).values
    v = newton_solve(op, zero, stop, take=take, log=log).values
    assert log[0]["event"] == "policy"
    ru = float(np.max(np.abs(op.residual(u)[act])))
    rv = float(np.max(np.abs(op.residual(v)[act])))
    assert max(ru, rv) <= stop.threshold()
    z = spla.spsolve(op.L[act][:, act].tocsc(), np.ones(int(act.sum())))
    assert np.all(z >= 0)
    # the rounding of a residual row: its weights times the state
    size = 1.0 + max(np.abs(u).max(), np.abs(v).max())
    rounding = 1e-14 * (1.0 + wbar) * (size + gmax + abs(op.fvals).max())
    assert np.max(np.abs(u - v)) <= (1.0 + z.max()) * (ru + rv + 2 * rounding)


# the properties above that step no Stefan state across u_i = 0, again on
# deep grids: grids() seldom draws one above 164 nodes.  The Euler tests
# keep grids(); a deep draw finds the Stefan order defect pinned above.
# 75 examples each hold the seven to about 8 s on 2 cores.  The classifier
# is also held to its reference with a pad above the lattice side.
def _on_deep_grids(test, *strategies):
    return settings(PROPERTY, max_examples=75)(
        given(*strategies)(test.hypothesis.inner_test))


test_array_grid_matches_oracles_on_deep_grids = _on_deep_grids(
    test_array_grid_matches_oracles, grids(deep=True))
test_classify_matches_node_search_reference_on_deep_grids = _on_deep_grids(
    test_classify_matches_node_search_reference, grids(deep=True))
test_classify_matches_node_search_reference_with_wide_pads = _on_deep_grids(
    test_classify_matches_node_search_reference, grids(wide_pads=True))
test_laplacian_system_matches_per_node_loop_on_deep_grids = _on_deep_grids(
    test_laplacian_system_matches_per_node_loop, grids(deep=True),
    st.sampled_from(WALL_DATA))
test_step_terms_match_their_reference_to_the_bit_on_deep_grids = \
    _on_deep_grids(test_step_terms_match_their_reference_to_the_bit,
                   operators(STEP_VARIANTS, deep=True),
                   st.sampled_from(STEP_WALLS))
test_residual_degenerate_elliptic_on_deep_grids = _on_deep_grids(
    test_residual_degenerate_elliptic, operators(deep=True))
test_active_block_is_an_m_matrix_on_deep_grids = _on_deep_grids(
    test_active_block_is_an_m_matrix, operators(NEWTON_VARIANTS, deep=True))
test_trial_split_is_its_own_closure_on_deep_grids = _on_deep_grids(
    test_trial_split_is_its_own_closure, grids(deep=True), st.integers(0, 7))
test_unchanged_regrid_classifies_nothing_on_deep_grids = _on_deep_grids(
    test_unchanged_regrid_classifies_nothing, grids(deep=True))
test_policy_start_reaches_the_plain_solution_on_deep_grids = _on_deep_grids(
    test_policy_start_reaches_the_plain_solution,
    obstacle_problems(deep=True), st.floats(0.0, 1.0))
