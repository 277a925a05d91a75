import math

import numpy as np
import pytest

from adaptfd.adaptivity import (RefinementPolicy, cells_as_requests,
                                compute_refinement, distance_criteria,
                                evaluate_criteria, inherit_set, regrid,
                                residual_criteria, stefan_terms_criteria)
from adaptfd.grid import DomainBox, GridFunction, build_quadtree
from adaptfd.harness import uniform_requests
from adaptfd.operators import ProblemDefinition, instantiate_builtin
from adaptfd.solvers import StoppingPolicy, newton_solve
from adaptfd.stencils import laplacian_system, one_sided_matrices
from oracles import cell_map, random_requests, seeds_for_requests

UNIT = DomainBox(0.0, 1.0, 0.0, 1.0)

def uniform_grid(depth):
    return build_quadtree(uniform_requests(UNIT, depth, 0), depth, UNIT,
                          pads=(1, 1))


def all_active_op(grid):
    # Robin walls with A = B = 1 pin no node, so no criteria value is masked
    robin = (lambda *a: 1.0, lambda *a: 1.0, lambda *a: 0.0)
    return instantiate_builtin("poisson_dirichlet",
                               ProblemDefinition(robin=robin), grid)


def test_residual_criteria_zero_at_solution():
    g = uniform_grid(3)
    prob = ProblemDefinition(f=lambda x, y: 1.0, g=lambda x, y: 0.0)
    op = instantiate_builtin("poisson_dirichlet", prob, g)
    u = newton_solve(op, GridFunction(g, np.zeros(g.n_nodes())),
                     StoppingPolicy([1e-12]))
    policy = RefinementPolicy(residual_criteria(), thresholds=(1.0,))
    vals = evaluate_criteria(policy, op, u)
    assert np.max(vals.values) < 1e-10


def test_stefan_terms_match_direct_formula():
    g = uniform_grid(3)
    op = instantiate_builtin("stefan", ProblemDefinition(), g)
    rng = np.random.default_rng(5)
    u = GridFunction(g, op.apply_pins(rng.normal(size=g.n_nodes())))
    policy = RefinementPolicy(stefan_terms_criteria(), thresholds=(1.0,))
    vals = evaluate_criteria(policy, op, u)
    L, const, _, _ = laplacian_system(g)
    lap = np.abs(L @ u.values + const)
    # per axis the uphill one-sided slope, clamped at 0 and squared
    T = one_sided_matrices(g)
    grad_sq = sum(np.maximum(np.maximum(T[p] @ u.values, T[m] @ u.values),
                             0.0) ** 2 for p, m in (("E", "W"), ("N", "S")))
    want = np.minimum(lap, grad_sq)[op.active]
    assert vals.values[op.active] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_criteria_read_the_pde_row_with_its_load():
    # with f set, both criteria measure -Lap_h u - f, the operator's PDE
    # row, not -Lap_h u alone
    from adaptfd.adaptivity import free_boundary_criteria
    g = uniform_grid(4)
    L, const, _, _ = laplacian_system(g)
    rng = np.random.default_rng(7)
    gobs = lambda x, y: 0.25 - (x - 0.5) ** 2 - (y - 0.5) ** 2
    op = instantiate_builtin("obstacle", ProblemDefinition(
        f=lambda x, y: -2.0, g=gobs), g)
    u = op.apply_pins(rng.normal(size=g.n_nodes()))
    pde = np.abs(L @ u + const + 2.0)
    closeness = 1e4     # larger than every term: nothing is clamped
    want = closeness - np.maximum(pde, np.abs(u - op.gvals))
    vals = free_boundary_criteria(closeness)(op, u)
    assert vals[op.active] == pytest.approx(want[op.active], rel=1e-12)

    op = instantiate_builtin("stefan", ProblemDefinition(
        f=lambda x, y: 3.0), g)
    u = op.apply_pins(rng.normal(size=g.n_nodes()))
    T = one_sided_matrices(g)
    grad_sq = sum(np.maximum(np.maximum(T[p] @ u, T[m] @ u), 0.0) ** 2
                  for p, m in (("E", "W"), ("N", "S")))
    want = np.minimum(np.abs(L @ u + const - 3.0), grad_sq)
    vals = stefan_terms_criteria()(op, u)
    assert vals[op.active] == pytest.approx(want[op.active], rel=1e-12,
                                            abs=1e-12)


def test_distance_criteria_matches_scan():
    g = uniform_grid(4)
    targets = [(0.21, 0.7), (0.8, 0.33), (0.5, 0.51)]
    crit = distance_criteria(targets)
    vals = crit(all_active_op(g), np.zeros(g.n_nodes()))
    for idx, (x, y) in enumerate(zip(g.x.tolist(), g.y.tolist())):
        want = min(math.hypot(x - tx, y - ty) for (tx, ty) in targets)
        assert vals[idx] == pytest.approx(want, rel=1e-12)


def test_all_below_threshold_regrid_is_noop():
    g0 = build_quadtree(np.array([[8, 8, 2]]), 4, UNIT, pads=(1, 1))
    policy = RefinementPolicy(lambda op, u: np.zeros(op.grid.n_nodes()),
                              thresholds=(0.5,), scales=(0,),
                              initial_cells=tuple(map(tuple,
                                                      g0.leaves.tolist())))
    u = GridFunction(g0, np.arange(g0.n_nodes(), dtype=float))
    vals = evaluate_criteria(policy, all_active_op(g0), u)
    reqs = compute_refinement(policy, vals, g0)
    g2, u2 = regrid(g0, u, reqs)
    assert g2 is g0 and u2 is u


def test_regrid_transfer_exact_on_bilinear_per_cell():
    g0 = build_quadtree(np.array([[4, 4, 2]]), 3, UNIT, pads=(1, 1))
    xy0 = list(zip(g0.x.tolist(), g0.y.tolist()))
    u = GridFunction(g0, np.array([1.0 + 2 * x - y + 3 * x * y
                                   for x, y in xy0]))
    reqs = seeds_for_requests([(x, y, 1) for x, y in xy0], 3, UNIT)
    g2, u2 = regrid(g0, u, reqs)
    assert g2.n_cells() > g0.n_cells()
    for idx, (x, y) in enumerate(zip(g2.x.tolist(), g2.y.tolist())):
        want = 1.0 + 2 * x - y + 3 * x * y
        assert u2.values[idx] == pytest.approx(want, rel=1e-12)


def test_regrid_transfer_matches_per_cell_oracle():
    rng = np.random.default_rng(11)
    for _ in range(15):
        depth = int(rng.integers(2, 6))
        g0 = build_quadtree(random_requests(rng, depth, 4), depth, UNIT,
                            pads=(1, 1))
        u = GridFunction(g0, rng.normal(size=g0.n_nodes()))
        reqs = np.concatenate([random_requests(rng, depth, 4),
                               cells_as_requests(g0)])
        g2, u2 = regrid(g0, u, reqs)
        for idx, (i, j, x, y) in enumerate(zip(
                g2.i.tolist(), g2.j.tolist(), g2.x.tolist(), g2.y.tolist())):
            old = int(g0.find(i, j))
            if old >= 0:
                assert u2.values[idx] == u.values[old]   # copied exactly
                continue
            # candidate bilinear values from every old leaf containing (x, y)
            cands = []
            for a, b, k in g0.leaves.tolist():
                s = 1 << k
                if a <= i <= a + s and b <= j <= b + s:
                    x0, y0 = g0.position(a, b)
                    x1, y1 = g0.position(a + s, b + s)
                    tx = (x - x0) / (x1 - x0)
                    ty = (y - y0) / (y1 - y0)
                    c = g0.find([a, a + s, a, a + s], [b, b, b + s, b + s])
                    v = ((1 - tx) * (1 - ty) * u.values[c[0]]
                         + tx * (1 - ty) * u.values[c[1]]
                         + (1 - tx) * ty * u.values[c[2]]
                         + tx * ty * u.values[c[3]])
                    cands.append(v)
            assert any(abs(u2.values[idx] - v) < 1e-12 for v in cands)


def test_inherit_set_keeps_old_states_and_needs_every_source():
    # scale-1 cells of a depth-2 lattice (nodes at 0, 2, 4) split into
    # scale-0 cells: the nodes at odd i or j are new
    g0 = build_quadtree(uniform_requests(UNIT, 2, 1), 2, UNIT, pads=(1, 1))
    g1, _ = regrid(g0, GridFunction(g0, np.zeros(g0.n_nodes())),
                   uniform_requests(UNIT, 2, 0))
    assert g1.n_nodes() == 25
    old = {(0, 0), (2, 2), (4, 2), (2, 4), (4, 4)}
    mask = np.array([ij in old for ij in zip(g0.i.tolist(), g0.j.tolist())])
    got = inherit_set(g0, g1, mask)
    # new nodes in the set: edge midpoints between two old nodes in it and
    # centers of cells whose four corners are; (1, 0), (0, 1) and (1, 1)
    # each have a source outside it
    new = {(3, 2), (2, 3), (4, 3), (3, 4), (3, 3)}
    assert {ij for ij, c in zip(zip(g1.i.tolist(), g1.j.tolist()), got)
            if c} == old | new
    # the rule holds on any grid and set: a kept node keeps its state, a
    # new one is in the set iff every corner of its old leaf with a
    # positive bilinear weight is
    rng = np.random.default_rng(3)
    for _ in range(10):
        depth = int(rng.integers(2, 6))
        g0 = build_quadtree(random_requests(rng, depth, 4), depth, UNIT,
                            pads=(1, 1))
        mask = rng.random(g0.n_nodes()) < 0.7
        g1, _ = regrid(g0, GridFunction(g0, np.zeros(g0.n_nodes())),
                       np.concatenate([random_requests(rng, depth, 4),
                                       cells_as_requests(g0)]))
        got = inherit_set(g0, g1, mask)
        for idx, (i, j) in enumerate(zip(g1.i.tolist(), g1.j.tolist())):
            k = int(g0.find(i, j))
            if k >= 0:
                assert got[idx] == mask[k]
                continue
            a, b, lv = g0.leaves[g0.leaf_of_cell(min(i, g0.side - 1),
                                                 min(j, g0.side - 1))]
            s = 1 << int(lv)
            xs = [a] if i == a else [a + s] if i == a + s else [a, a + s]
            ys = [b] if j == b else [b + s] if j == b + s else [b, b + s]
            want = all(mask[g0.find(p, q)] for p in xs for q in ys)
            assert got[idx] == want


def test_containment_of_initial_quadtree():
    g0 = build_quadtree(np.array([[4, 10, 1]]), 4, UNIT, pads=(1, 1))
    initial = tuple(map(tuple, g0.leaves.tolist()))
    policy = RefinementPolicy(lambda op, u: np.zeros(op.grid.n_nodes()),
                              thresholds=(0.5,), scales=(0,),
                              initial_cells=initial)
    # requests that do not mention the initial cells still reproduce them
    vals = GridFunction(g0, np.zeros(g0.n_nodes()))
    reqs = compute_refinement(policy, vals, g0)
    g2, _ = regrid(g0, GridFunction(g0, np.zeros(g0.n_nodes())), reqs)
    assert (g2.find(g0.i, g0.j) >= 0).all()


def test_threshold_monotonicity():
    rng = np.random.default_rng(13)
    g0 = build_quadtree(np.array([[0, 0, 4]]), 4, UNIT, pads=(1, 1))
    u = GridFunction(g0, rng.uniform(0, 10, g0.n_nodes()))
    grids = []
    for bump in (0.0, 2.0):
        policy = RefinementPolicy(lambda op, uu: uu,
                                  thresholds=(1.0 + bump, 4.0 + bump),
                                  scales=(2, 1), initial_cells=((0, 0, 4),))
        vals = evaluate_criteria(policy, all_active_op(g0), u)
        reqs = compute_refinement(policy, vals, g0)
        g2, _ = regrid(g0, u, reqs)
        grids.append(g2)
    fine, coarse = grids
    for a, b, k in fine.leaves.tolist():
        s = 1 << k
        assert any(ca <= a and a + s <= ca + (1 << ck) and
                   cb <= b and b + s <= cb + (1 << ck)
                   for ca, cb, ck in coarse.leaves.tolist())


def test_negative_padding_or_scale_rejected():
    # a negative scale failed with an untyped ValueError from a bit shift
    from adaptfd.grid import GridError
    g0 = build_quadtree(np.array([[8, 8, 2]]), 4, UNIT, pads=(1, 1))
    vals = GridFunction(g0, np.ones(g0.n_nodes()))
    policy = RefinementPolicy(lambda op, u: u, thresholds=(0.5,),
                              scales=(0,))
    assert len(compute_refinement(policy, vals, g0)) == 32
    with pytest.raises(GridError):
        RefinementPolicy(lambda op, u: u, thresholds=(0.5,), scales=(-1,))


@pytest.mark.parametrize("line", ["refine.padding = -1", "refine.scales = -1"])
def test_negative_refinement_config_is_a_config_error(tmp_path, line):
    from adaptfd.cli import main
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("preset = custom\nproblem.f = 0\nproblem.g = 0\n"
                   "grid.depth = 3\n%s\n" % line)
    assert main(["solve", str(cfg), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 2
