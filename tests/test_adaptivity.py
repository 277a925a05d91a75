import math

import numpy as np
import pytest

from adaptfd.adaptivity import (RefinementPolicy, cells_as_requests,
                                compute_refinement, distance_criteria,
                                evaluate_criteria, regrid, residual_criteria,
                                stefan_terms_criteria)
from adaptfd.grid import DomainBox, GridFunction, ScaleRequest, build_quadtree
from adaptfd.operators import ProblemDefinition, instantiate_builtin
from adaptfd.solvers import StoppingPolicy, newton_solve
from adaptfd.stencils import laplacian_row
from oracles import random_requests, seeds_for_requests

UNIT = DomainBox(0.0, 1.0, 0.0, 1.0)

def uniform_grid(depth):
    side = 1 << depth
    reqs = [ScaleRequest((i + 0.5) / side, (j + 0.5) / side, 0)
            for i in range(side) for j in range(side)]
    return build_quadtree(reqs, depth, UNIT, pads=(1, 1))


def test_residual_criteria_zero_at_solution():
    g = uniform_grid(3)
    prob = ProblemDefinition(f=lambda x, y: 1.0, g=lambda x, y: 0.0)
    op = instantiate_builtin("poisson_dirichlet", prob, g)
    u = newton_solve(op, g, GridFunction(g, np.zeros(g.n_nodes())),
                     StoppingPolicy([1e-12]))
    policy = RefinementPolicy(residual_criteria(), thresholds=(1.0,))
    vals = evaluate_criteria(policy, op, g, u)
    assert np.max(vals.values) < 1e-10


def test_stefan_terms_match_direct_formula():
    from adaptfd.stencils import upwind_gradient_sq
    g = uniform_grid(3)
    op = instantiate_builtin("stefan", ProblemDefinition(), g)
    rng = np.random.default_rng(5)
    u = GridFunction(g, op.apply_pins(rng.normal(size=g.n_nodes())))
    policy = RefinementPolicy(stefan_terms_criteria(), thresholds=(1.0,))
    vals = evaluate_criteria(policy, op, g, u)
    for idx, n in enumerate(g.nodes):
        if not op.active[idx]:
            continue
        lap = abs(laplacian_row(g, n).evaluate(u.values))
        want = min(lap, upwind_gradient_sq(g, n, u.values))
        assert vals.values[idx] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_distance_criteria_matches_scan():
    g = uniform_grid(4)
    targets = [(0.21, 0.7), (0.8, 0.33), (0.5, 0.51)]
    crit = distance_criteria(targets)
    vals = crit(None, g, np.zeros(g.n_nodes()))
    for idx, n in enumerate(g.nodes):
        want = min(math.hypot(n.x - tx, n.y - ty) for (tx, ty) in targets)
        assert vals[idx] == pytest.approx(want, rel=1e-12)


def test_all_below_threshold_regrid_is_noop():
    g0 = build_quadtree([ScaleRequest(0.5, 0.5, 2)], 4, UNIT, pads=(1, 1))
    policy = RefinementPolicy(lambda op, gr, u: np.zeros(gr.n_nodes()),
                              thresholds=(0.5,), scales=(0,),
                              initial_cells=tuple((a, b, k) for (a, b), k
                                                  in g0.cells.items()))
    u = GridFunction(g0, np.arange(g0.n_nodes(), dtype=float))
    vals = evaluate_criteria(policy, None, g0, u)
    reqs = compute_refinement(policy, vals, g0)
    g2, u2 = regrid(g0, u, reqs)
    assert g2 is g0 and u2 is u


def test_single_hot_node_refined_with_padding_ring():
    g0 = build_quadtree([], 4, UNIT, pads=(1, 1))
    # depth-4 root only; flag the SW corner node far above the top threshold
    policy = RefinementPolicy(lambda op, gr, u: u, thresholds=(0.1, 1.0),
                              scales=(2, 1), extra_padding=1,
                              initial_cells=((0, 0, 4),))
    hot = np.zeros(g0.n_nodes())
    hot[g0.node_id[(0, 0)]] = 5.0
    vals = GridFunction(g0, hot)
    reqs = compute_refinement(policy, vals, g0)
    # direct rule: value 5 > t_2=1.0 -> scale 1 at the corner, ring of 1 cell
    by_rule = [tuple(r) for r in reqs.tolist() if r[2] == 1]
    # one incident square at the corner + pad ring, each demanded once
    assert sorted(by_rule) == [(a, b, 1) for a in (0, 2) for b in (0, 2)]
    g2, _ = regrid(g0, GridFunction(g0, hot), reqs)
    assert g2.cells.get((0, 0)) == 1 or g2.cells.get((0, 0)) == 0


def test_regrid_transfer_exact_on_bilinear_per_cell():
    g0 = build_quadtree([ScaleRequest(0.5, 0.5, 2)], 3, UNIT, pads=(1, 1))
    u = GridFunction(g0, np.array([1.0 + 2 * n.x - n.y + 3 * n.x * n.y
                                   for n in g0.nodes]))
    reqs = [ScaleRequest(n.x, n.y, 1) for n in g0.nodes]
    g2, u2 = regrid(g0, u, reqs)
    assert g2.n_cells() > g0.n_cells()
    for idx, n in enumerate(g2.nodes):
        want = 1.0 + 2 * n.x - n.y + 3 * n.x * n.y
        assert u2.values[idx] == pytest.approx(want, rel=1e-12)


def test_regrid_transfer_matches_per_cell_oracle():
    rng = np.random.default_rng(11)
    for _ in range(15):
        depth = int(rng.integers(2, 6))
        g0 = build_quadtree(random_requests(rng, depth, 4, UNIT), depth, UNIT,
                            pads=(1, 1))
        u = GridFunction(g0, rng.normal(size=g0.n_nodes()))
        seeds = seeds_for_requests(random_requests(rng, depth, 4, UNIT),
                                   depth, UNIT)
        reqs = np.concatenate([np.array(seeds), cells_as_requests(g0)])
        g2, u2 = regrid(g0, u, reqs)
        for idx, n in enumerate(g2.nodes):
            old = g0.node_id.get((n.i, n.j))
            if old is not None:
                assert u2.values[idx] == u.values[old]   # copied exactly
                continue
            # candidate bilinear values from every old leaf containing (x, y)
            cands = []
            for (a, b), k in g0.cells.items():
                s = 1 << k
                if a <= n.i <= a + s and b <= n.j <= b + s:
                    x0, y0 = g0.position(a, b)
                    x1, y1 = g0.position(a + s, b + s)
                    tx = (n.x - x0) / (x1 - x0)
                    ty = (n.y - y0) / (y1 - y0)
                    c = [g0.node_id[(a, b)], g0.node_id[(a + s, b)],
                         g0.node_id[(a, b + s)], g0.node_id[(a + s, b + s)]]
                    v = ((1 - tx) * (1 - ty) * u.values[c[0]]
                         + tx * (1 - ty) * u.values[c[1]]
                         + (1 - tx) * ty * u.values[c[2]]
                         + tx * ty * u.values[c[3]])
                    cands.append(v)
            assert any(abs(u2.values[idx] - v) < 1e-12 for v in cands)


def test_containment_of_initial_quadtree():
    g0 = build_quadtree([ScaleRequest(0.3, 0.7, 1)], 4, UNIT, pads=(1, 1))
    initial = tuple((a, b, k) for (a, b), k in g0.cells.items())
    policy = RefinementPolicy(lambda op, gr, u: np.zeros(gr.n_nodes()),
                              thresholds=(0.5,), scales=(0,),
                              initial_cells=initial)
    # requests that do not mention the initial cells still reproduce them
    vals = GridFunction(g0, np.zeros(g0.n_nodes()))
    reqs = compute_refinement(policy, vals, g0)
    g2, _ = regrid(g0, GridFunction(g0, np.zeros(g0.n_nodes())), reqs)
    for (i, j) in g0.node_id:
        assert g2.is_node(i, j)


def test_threshold_monotonicity():
    rng = np.random.default_rng(13)
    g0 = build_quadtree([], 4, UNIT, pads=(1, 1))
    u = GridFunction(g0, rng.uniform(0, 10, g0.n_nodes()))
    grids = []
    for bump in (0.0, 2.0):
        policy = RefinementPolicy(lambda op, gr, uu: uu,
                                  thresholds=(1.0 + bump, 4.0 + bump),
                                  scales=(2, 1), initial_cells=((0, 0, 4),))
        vals = evaluate_criteria(policy, None, g0, u)
        reqs = compute_refinement(policy, vals, g0)
        g2, _ = regrid(g0, u, reqs)
        grids.append(g2)
    fine, coarse = grids
    for (a, b), k in fine.cells.items():
        s = 1 << k
        assert any(ca <= a and a + s <= ca + (1 << ck) and
                   cb <= b and b + s <= cb + (1 << ck)
                   for (ca, cb), ck in coarse.cells.items())


def test_negative_padding_or_scale_rejected():
    # a negative padding used to drop every request silently, and a negative
    # scale failed with an untyped ValueError from a bit shift
    from adaptfd.grid import GridError
    g0 = build_quadtree([ScaleRequest(0.5, 0.5, 2)], 4, UNIT, pads=(1, 1))
    vals = GridFunction(g0, np.ones(g0.n_nodes()))
    policy = RefinementPolicy(lambda op, gr, u: u, thresholds=(0.5,),
                              scales=(0,))
    assert len(compute_refinement(policy, vals, g0)) == 32
    with pytest.raises(GridError):
        RefinementPolicy(lambda op, gr, u: u, thresholds=(0.5,), scales=(0,),
                         extra_padding=-1)
    with pytest.raises(GridError):
        RefinementPolicy(lambda op, gr, u: u, thresholds=(0.5,), scales=(-1,))


@pytest.mark.parametrize("line", ["refine.padding = -1", "refine.scales = -1"])
def test_negative_refinement_config_is_a_config_error(tmp_path, line):
    from adaptfd.cli import main
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("preset = custom\nproblem.f = 0\nproblem.g = 0\n"
                   "grid.depth = 3\n%s\n" % line)
    assert main(["solve", str(cfg), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 2
