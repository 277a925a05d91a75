import math

import numpy as np
import pytest

from adaptfd.grid import (BOUNDARY, DANGLING_X, DANGLING_Y, MAX_DEPTH,
                          REGULAR, DomainBox, DomainError, GridFunction,
                          InputError, QuadtreeGrid, ScaleError, ScaleRequest,
                          build_quadtree, init_from_scattered)
from oracles import (brute_classify, cells_from_subdivided, check_legal,
                     check_padding, closure_oracle, enumerate_trees,
                     random_requests, seeds_for_requests)

UNIT = DomainBox(0.0, 1.0, 0.0, 1.0)


def uniform_requests(depth, scale, box=UNIT):
    side = 1 << depth
    s = 1 << scale
    hx, hy = box.lx / side, box.ly / side
    return [ScaleRequest(box.x_min + (i + 0.5 * s) * hx,
                         box.y_min + (j + 0.5 * s) * hy, scale)
            for i in range(0, side, s) for j in range(0, side, s)]


def test_empty_requests_gives_root_cell():
    g = build_quadtree([], 3, UNIT)
    assert g.cells == {(0, 0): 3}
    assert g.n_nodes() == 4
    assert all(n.klass == BOUNDARY for n in g.nodes)


def test_center_request_matches_frozen_minimal_grid():
    # one scale-0 request at the domain center of a depth-3 grid; expected
    # cells were computed with the exhaustive minimal-quadtree oracle
    g = build_quadtree([ScaleRequest(0.5, 0.5, 0)], 3, UNIT, pads=(1, 1))
    expected = {
        (0, 0): 2,
        (0, 4): 1, (2, 4): 1, (0, 6): 1, (2, 6): 1,
        (4, 0): 1, (6, 0): 1, (4, 2): 1, (6, 2): 1,
        (6, 4): 1, (4, 6): 1, (6, 6): 1,
        (4, 4): 0, (5, 4): 0, (4, 5): 0, (5, 5): 0,
    }
    assert g.cells == expected
    oc = closure_oracle([(4, 4, 0)], 3, (1, 1))
    assert g.cells == oc


def test_oracle_closure_agrees_with_full_enumeration():
    # meta-check of the closure oracle: at depth 2 every quadtree can be
    # enumerated; the oracle result must be legal and refine no legal tree
    depth, pads = 2, (1, 1)
    seeds = [(1, 1, 0)]
    oc = closure_oracle(seeds, depth, pads)
    legal = [cells_from_subdivided(D, depth) for D in enumerate_trees(depth)]
    legal = [c for c in legal if check_legal(c, depth, pads, seeds)]
    assert oc in legal
    n_min = len(oc)
    assert all(len(c) >= n_min for c in legal)


def test_build_matches_closure_oracle_randomized():
    rng = np.random.default_rng(11)
    for _ in range(100):
        depth = int(rng.integers(1, 4))
        pads = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        reqs = random_requests(rng, depth, int(rng.integers(1, 6)), UNIT)
        g = build_quadtree(reqs, depth, UNIT, pads=pads)
        seeds = seeds_for_requests(reqs, depth, UNIT)
        assert g.cells == closure_oracle(seeds, depth, pads)


def test_balance_and_padding_on_random_grids():
    rng = np.random.default_rng(5)
    for _ in range(60):
        depth = int(rng.integers(2, 7))
        pads = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        reqs = random_requests(rng, depth, int(rng.integers(1, 9)), UNIT)
        g = build_quadtree(reqs, depth, UNIT, pads=pads)
        seeds = seeds_for_requests(reqs, depth, UNIT)
        assert check_legal(g.cells, depth, pads, seeds)


def test_padding_rebuild_is_strict_superset():
    # a single split next to a coarse region is legal at pad_x=1 but not at
    # pad_x=2; rebuilding with the larger pad refines strictly
    reqs = [ScaleRequest(0.4, 0.4, 1)]
    g1 = build_quadtree(reqs, 4, UNIT, pads=(1, 1))
    g2 = build_quadtree(reqs, 4, UNIT, pads=(2, 1))
    assert not check_padding(g1.cells, 4, (2, 1))
    assert check_padding(g2.cells, 4, (2, 1))
    assert g2.n_cells() > g1.n_cells()
    # every cell of g2 fits inside a cell of g1 (pure refinement)
    for (a, b), k in g2.cells.items():
        s = 1 << k
        ok = any(ca <= a and a + s <= ca + (1 << ck) and
                 cb <= b and b + s <= cb + (1 << ck)
                 for (ca, cb), ck in g1.cells.items())
        assert ok


def test_idempotence_on_own_cells():
    rng = np.random.default_rng(3)
    for _ in range(25):
        depth = int(rng.integers(2, 6))
        reqs = random_requests(rng, depth, int(rng.integers(1, 7)), UNIT)
        g = build_quadtree(reqs, depth, UNIT, pads=(1, 1))
        again = [ScaleRequest(*g.position(a + (1 << k) / 2 if k else a,
                                          b + (1 << k) / 2 if k else b), k)
                 for (a, b), k in g.cells.items()]
        # scale-0 cells: the center snaps (tie toward origin) onto the cell
        # anchor, whose half-open containing square is the cell itself
        g2 = build_quadtree(again, depth, UNIT, pads=(1, 1))
        assert g2.cells == g.cells


def test_monotonicity_in_requests():
    rng = np.random.default_rng(13)
    for _ in range(25):
        depth = int(rng.integers(2, 6))
        reqs = random_requests(rng, depth, 6, UNIT)
        sub = reqs[:3]
        g_sub = build_quadtree(sub, depth, UNIT, pads=(1, 1))
        g_all = build_quadtree(reqs, depth, UNIT, pads=(1, 1))
        for (a, b), k in g_all.cells.items():
            s = 1 << k
            assert any(ca <= a and a + s <= ca + (1 << ck) and
                       cb <= b and b + s <= cb + (1 << ck)
                       for (ca, cb), ck in g_sub.cells.items())


def test_construction_work_scaling():
    # set operations grow no faster than c * depth * M * log M
    rng = np.random.default_rng(23)
    depth = 7
    counts = []
    for m in (8, 16, 32, 64, 128):
        reqs = random_requests(rng, depth, m, UNIT)
        g = build_quadtree(reqs, depth, UNIT, pads=(1, 1))
        counts.append(g.build_ops / (depth * m * math.log2(m + 1)))
    assert max(counts) <= 4 * counts[0] + 50


def test_request_validation_errors():
    with pytest.raises(DomainError):
        build_quadtree([ScaleRequest(2.0, 0.5, 0)], 3, UNIT)
    with pytest.raises(ScaleError):
        build_quadtree([ScaleRequest(0.5, 0.5, 4)], 3, UNIT)


def test_depth_bound_from_int64_keys():
    # node keys j * (side + 1) + i and packed squares (a << 32) | b fit in
    # an int64 up to depth 31: there a fine corner cell builds and every
    # node, the far corner (side, side) included, finds its own id
    assert MAX_DEPTH == 31
    g = build_quadtree(np.array([[0, 0, 0]]), MAX_DEPTH, UNIT)
    assert g.cells[(0, 0)] == 0 and g.is_node(g.side, g.side)
    assert np.array_equal(g.find(g.i, g.j), np.arange(g.n_nodes()))
    for depth in (-1, MAX_DEPTH + 1):
        with pytest.raises(ScaleError, match="grid depth"):
            build_quadtree(np.array([[0, 0, 0]]), depth, UNIT)
        with pytest.raises(ScaleError, match="grid depth"):
            build_quadtree([ScaleRequest(0.5, 0.5, 0)], depth, UNIT)
        with pytest.raises(ScaleError, match="grid depth"):
            init_from_scattered([(0.5, 0.5, 1.0)], depth, UNIT)
        with pytest.raises(ScaleError, match="grid depth"):
            QuadtreeGrid(UNIT, depth, (1, 1), [[0, 0, 0]])


def test_classify_uniform_grid():
    g = build_quadtree(uniform_requests(3, 0), 3, UNIT, pads=(1, 1))
    assert g.n_cells() == 64
    h = 1.0 / 8.0
    for n in g.nodes:
        if n.klass == BOUNDARY:
            continue
        assert n.klass == REGULAR
        for d in (n.de, n.dw, n.dn, n.ds):
            assert d == pytest.approx(h)


def test_classify_dangling_at_shared_edge_midpoints():
    # split only the SW quadrant of a depth-2 grid: dangling nodes appear
    # exactly midway along edges shared by one coarse and two fine cells
    g = build_quadtree([ScaleRequest(0.1, 0.1, 0)], 2, UNIT, pads=(1, 1))
    dang = {(n.i, n.j): n.klass for n in g.nodes
            if n.klass in (DANGLING_X, DANGLING_Y)}
    assert dang == {(2, 1): DANGLING_X, (1, 2): DANGLING_Y}
    nx = g.nodes[g.node_id[(2, 1)]]
    assert nx.coarse_side == "E" and nx.band == 2
    assert nx.de is None and nx.dw == pytest.approx(0.25)


def test_classify_matches_brute_force_on_random_grids():
    rng = np.random.default_rng(17)
    for _ in range(40):
        depth = int(rng.integers(2, 6))
        reqs = random_requests(rng, depth, int(rng.integers(1, 7)), UNIT)
        g = build_quadtree(reqs, depth, UNIT, pads=(1, 1))
        ref = brute_classify(g.cells, depth)
        for n in g.nodes:
            assert ref[(n.i, n.j)] == n.klass


def test_regular_pair_distances_exist():
    rng = np.random.default_rng(29)
    for _ in range(20):
        depth = int(rng.integers(3, 6))
        reqs = random_requests(rng, depth, 5, UNIT)
        g = build_quadtree(reqs, depth, UNIT, pads=(1, 1))
        for n in g.nodes:
            if n.klass == REGULAR:
                assert n.pair_x is not None and n.pair_y is not None
                assert n.pair_x[2] == pytest.approx(max(n.de, n.dw))
                assert n.pair_y[2] == pytest.approx(max(n.dn, n.ds))


def test_scattered_corners_give_root_grid():
    pts = [(0.0, 0.0, 1.0), (1.0, 0.0, 2.0), (0.0, 1.0, 3.0), (1.0, 1.0, 4.0)]
    g, u = init_from_scattered(pts, 3)
    assert g.cells == {(0, 0): 3}
    vals = {(n.i, n.j): u.values[idx] for idx, n in enumerate(g.nodes)}
    assert vals[(0, 0)] == 1.0 and vals[(8, 8)] == 4.0


def test_scattered_uniform_lattice_forces_full_grid():
    pts = [(i / 4.0, j / 4.0, float(i + j)) for i in range(5) for j in range(5)]
    g, u = init_from_scattered(pts, 2)
    assert g.n_cells() == 16
    assert all(k == 0 for k in g.cells.values())
    for idx, n in enumerate(g.nodes):
        assert u.values[idx] == pytest.approx(n.i / 1.0 + n.j / 1.0)


def test_scattered_irregular_points_minimal_quadtree():
    pts = [(0.13, 0.81, 1.0), (0.55, 0.52, 2.0), (0.88, 0.11, 0.5)]
    depth = 3
    g, u = init_from_scattered(pts, depth, box=UNIT)
    # recompute the node-forcing seeds from scratch and close them
    side = 1 << depth
    seeds = []
    for (x, y, _) in pts:
        i = min(max(math.ceil(x * side - 0.5), 0), side)
        j = min(max(math.ceil(y * side - 0.5), 0), side)
        k = depth
        for n in (i, j):
            if n != 0:
                k = min(k, (n & -n).bit_length() - 1)
        s = 1 << k
        for a in {max(i - s, 0), min(i, side - s)}:
            for b in {max(j - s, 0), min(j, side - s)}:
                if a % s == 0 and b % s == 0:
                    seeds.append((a, b, k))
    assert g.cells == closure_oracle(seeds, depth, g.pads)
    for (x, y, v) in pts:
        i = round(x * side)
        j = round(y * side)
        assert g.is_node(i, j)
        assert u.values[g.node_id[(i, j)]] == pytest.approx(v)


def test_scattered_conflicting_duplicates_rejected():
    with pytest.raises(InputError):
        init_from_scattered([(0.5, 0.5, 1.0), (0.5, 0.5, 2.0)],
                            3, box=UNIT)


def test_dump_is_deterministic_and_ordered():
    g = build_quadtree([ScaleRequest(0.5, 0.5, 0)], 3, UNIT, pads=(1, 1))
    d1 = g.dump()
    d2 = build_quadtree([ScaleRequest(0.5, 0.5, 0)], 3, UNIT, pads=(1, 1)).dump()
    assert d1 == d2
    node_keys = []
    cell_keys = []
    for line in d1.splitlines():
        f = line.split()
        if f[0] == "node":
            node_keys.append((int(f[2]), int(f[1])))
        else:
            cell_keys.append((int(f[2]), int(f[1])))
    assert node_keys == sorted(node_keys)
    assert cell_keys == sorted(cell_keys)


def test_grid_function_size_checked():
    g = build_quadtree([], 3, UNIT)
    with pytest.raises(Exception):
        GridFunction(g, np.zeros(3))
