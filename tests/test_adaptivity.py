import math

import numpy as np
import pytest

from adaptfd.adaptivity import (RefinementPolicy, cells_as_requests,
                                compute_refinement, distance_criteria,
                                evaluate_criteria, regrid, residual_criteria,
                                stefan_terms_criteria)
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


def test_single_hot_node_refined_with_padding_ring():
    g0 = build_quadtree(np.array([[0, 0, 4]]), 4, UNIT, pads=(1, 1))
    # depth-4 root only; flag the SW corner node far above the top threshold
    policy = RefinementPolicy(lambda op, u: u, thresholds=(0.1, 1.0),
                              scales=(2, 1), extra_padding=1,
                              initial_cells=((0, 0, 4),))
    hot = np.zeros(g0.n_nodes())
    hot[g0.find(0, 0)] = 5.0
    vals = GridFunction(g0, hot)
    reqs = compute_refinement(policy, vals, g0)
    # direct rule: value 5 > t_2=1.0 -> scale 1 at the corner, ring of 1 cell
    by_rule = [tuple(r) for r in reqs.tolist() if r[2] == 1]
    # one incident square at the corner + pad ring, each demanded once
    assert sorted(by_rule) == [(a, b, 1) for a in (0, 2) for b in (0, 2)]
    g2, _ = regrid(g0, GridFunction(g0, hot), reqs)
    assert cell_map(g2).get((0, 0)) in (1, 0)


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
    # a negative padding used to drop every request silently, and a negative
    # scale failed with an untyped ValueError from a bit shift
    from adaptfd.grid import GridError
    g0 = build_quadtree(np.array([[8, 8, 2]]), 4, UNIT, pads=(1, 1))
    vals = GridFunction(g0, np.ones(g0.n_nodes()))
    policy = RefinementPolicy(lambda op, u: u, thresholds=(0.5,),
                              scales=(0,))
    assert len(compute_refinement(policy, vals, g0)) == 32
    with pytest.raises(GridError):
        RefinementPolicy(lambda op, u: u, thresholds=(0.5,), scales=(0,),
                         extra_padding=-1)
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
