import math
import time

import numpy as np
import pytest

from adaptfd.adaptivity import regrid, transfer
from adaptfd.grid import (BOUNDARY, CLASSES, CODE, DANGLING_X, DANGLING_Y,
                          DIRS, MAX_DEPTH, REGULAR, DomainBox, DomainError,
                          GenerationMismatchError, GridError, GridFunction,
                          InputError, QuadtreeGrid, ScaleError,
                          build_quadtree, init_from_scattered)
from adaptfd.harness import uniform_requests
from adaptfd.solvers import _trial_leaves
from oracles import (brute_classify, cell_map, cells_from_subdivided,
                     check_legal, check_padding, closure_oracle,
                     enumerate_trees, random_requests)

UNIT = DomainBox(0.0, 1.0, 0.0, 1.0)
NO_SQUARES = np.zeros((0, 3), dtype=np.int64)


def test_empty_requests_gives_root_cell():
    g = build_quadtree(NO_SQUARES, 3, UNIT)
    assert cell_map(g) == {(0, 0): 3}
    assert g.n_nodes() == 4
    assert (g.klass == CODE[BOUNDARY]).all()


def test_center_request_matches_frozen_minimal_grid():
    # one scale-0 request at the domain center of a depth-3 grid; expected
    # cells were computed with the exhaustive minimal-quadtree oracle
    g = build_quadtree(np.array([[4, 4, 0]]), 3, UNIT, pads=(1, 1))
    expected = {
        (0, 0): 2,
        (0, 4): 1, (2, 4): 1, (0, 6): 1, (2, 6): 1,
        (4, 0): 1, (6, 0): 1, (4, 2): 1, (6, 2): 1,
        (6, 4): 1, (4, 6): 1, (6, 6): 1,
        (4, 4): 0, (5, 4): 0, (4, 5): 0, (5, 5): 0,
    }
    assert cell_map(g) == expected
    oc = closure_oracle([(4, 4, 0)], 3, (1, 1))
    assert cell_map(g) == oc


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
        seeds = random_requests(rng, depth, int(rng.integers(1, 6)))
        g = build_quadtree(seeds, depth, UNIT, pads=pads)
        seeds = seeds.tolist()
        assert cell_map(g) == closure_oracle(seeds, depth, pads)


def test_balance_and_padding_on_random_grids():
    rng = np.random.default_rng(5)
    for _ in range(60):
        depth = int(rng.integers(2, 7))
        pads = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        seeds = random_requests(rng, depth, int(rng.integers(1, 9)))
        g = build_quadtree(seeds, depth, UNIT, pads=pads)
        seeds = seeds.tolist()
        assert check_legal(cell_map(g), depth, pads, seeds)


def test_padding_rebuild_is_strict_superset():
    # a single split next to a coarse region is legal at pad_x=1 but not at
    # pad_x=2; rebuilding with the larger pad refines strictly
    reqs = np.array([[6, 6, 1]])
    g1 = build_quadtree(reqs, 4, UNIT, pads=(1, 1))
    g2 = build_quadtree(reqs, 4, UNIT, pads=(2, 1))
    assert not check_padding(cell_map(g1), 4, (2, 1))
    assert check_padding(cell_map(g2), 4, (2, 1))
    assert g2.n_cells() > g1.n_cells()
    # every cell of g2 fits inside a cell of g1 (pure refinement)
    for a, b, k in g2.leaves.tolist():
        s = 1 << k
        ok = any(ca <= a and a + s <= ca + (1 << ck) and
                 cb <= b and b + s <= cb + (1 << ck)
                 for ca, cb, ck in g1.leaves.tolist())
        assert ok


def test_idempotence_on_own_cells():
    rng = np.random.default_rng(3)
    for _ in range(25):
        depth = int(rng.integers(2, 6))
        reqs = random_requests(rng, depth, int(rng.integers(1, 7)))
        g = build_quadtree(reqs, depth, UNIT, pads=(1, 1))
        g2 = build_quadtree(g.leaves, depth, UNIT, pads=(1, 1))
        assert cell_map(g2) == cell_map(g)


def test_monotonicity_in_requests():
    rng = np.random.default_rng(13)
    for _ in range(25):
        depth = int(rng.integers(2, 6))
        reqs = random_requests(rng, depth, 6)
        sub = reqs[:3]
        g_sub = build_quadtree(sub, depth, UNIT, pads=(1, 1))
        g_all = build_quadtree(reqs, depth, UNIT, pads=(1, 1))
        for a, b, k in g_all.leaves.tolist():
            s = 1 << k
            assert any(ca <= a and a + s <= ca + (1 << ck) and
                       cb <= b and b + s <= cb + (1 << ck)
                       for ca, cb, ck in g_sub.leaves.tolist())


def test_construction_work_scaling():
    # set operations grow no faster than c * depth * M * log M
    rng = np.random.default_rng(23)
    depth = 7
    counts = []
    for m in (8, 16, 32, 64, 128):
        reqs = random_requests(rng, depth, m)
        g = build_quadtree(reqs, depth, UNIT, pads=(1, 1))
        counts.append(g.build_ops / (depth * m * math.log2(m + 1)))
    assert max(counts) <= 4 * counts[0] + 50


def test_request_validation_errors():
    with pytest.raises(ScaleError):
        build_quadtree(np.array([[0, 0, 4]]), 3, UNIT)
    with pytest.raises(GridError, match="aligned"):
        build_quadtree(np.array([[1, 0, 1]]), 3, UNIT)


@pytest.mark.parametrize("requests", [
    np.array([[0.0, 0.0, 1.0]]), [(0, 0, 1)], np.array([0, 0]), None],
    ids=["float_array", "list", "not_squares", "none"])
def test_requests_other_than_integer_squares_raise_grid_error(requests):
    with pytest.raises(GridError, match="integer array"):
        build_quadtree(requests, 3, UNIT)


@pytest.mark.parametrize("bounds", [
    (0.0, math.inf, 0.0, 1.0), (-math.inf, 1.0, 0.0, 1.0),
    (0.0, 1.0, 0.0, math.nan), (2.0, 1.0, 0.0, 1.0), (0.0, 1.0, 1.0, 1.0)],
    ids=["x_max_inf", "x_min_inf", "y_max_nan", "x_reversed", "y_flat"])
def test_domain_box_needs_finite_positive_sides(bounds):
    with pytest.raises(DomainError):
        DomainBox(*bounds)


@pytest.mark.parametrize("bounds, depth", [
    ((0.0, 1e200, 0.0, 1.0), 3), ((-5e299, 5e299, -5e299, 5e299), 13),
    ((0.0, 1.0, 0.0, 1e-300), 3), ((0.0, 8e-160, 0.0, 1.0), 3),
    ((0.0, 1e-150, 0.0, 1e-150), 31)],
    ids=["square_overflows", "wide_square_overflows", "square_underflows",
         "reciprocal_overflows", "deep_square_underflows"])
def test_node_distances_must_square_and_invert(bounds, depth):
    # the stencils divide by the square of every node distance, from
    # min(hx, hy) to max(lx, ly): a box whose distances square or invert to
    # 0 or inf is refused before any node is built
    box = DomainBox(*bounds)
    with pytest.raises(DomainError, match="node distance"):
        build_quadtree(np.array([[0, 0, depth]]), depth, box)
    with pytest.raises(DomainError, match="node distance"):
        QuadtreeGrid(box, depth, (1, 1), [[0, 0, depth]])
    # a box 1e150 wide still builds: its squares stay in range
    build_quadtree(np.array([[0, 0, 3]]), 3, DomainBox(0.0, 1e150, 0.0, 1.0))


def test_depth_bound_from_int64_keys():
    # node keys j * (side + 1) + i and packed squares (a << 32) | b fit in
    # an int64 up to depth 31: there a fine corner cell builds and every
    # node, the far corner (side, side) included, finds its own id
    assert MAX_DEPTH == 31
    g = build_quadtree(np.array([[0, 0, 0]]), MAX_DEPTH, UNIT)
    assert cell_map(g)[(0, 0)] == 0 and g.find(g.side, g.side) >= 0
    assert np.array_equal(g.find(g.i, g.j), np.arange(g.n_nodes()))
    for depth in (-1, MAX_DEPTH + 1):
        with pytest.raises(ScaleError, match="grid depth"):
            build_quadtree(np.array([[0, 0, 0]]), depth, UNIT)
        with pytest.raises(ScaleError, match="grid depth"):
            init_from_scattered([(0.5, 0.5, 1.0)], depth, UNIT)
        with pytest.raises(ScaleError, match="grid depth"):
            QuadtreeGrid(UNIT, depth, (1, 1), [[0, 0, 0]])


def test_classify_uniform_grid():
    g = build_quadtree(uniform_requests(UNIT, 3, 0), 3, UNIT, pads=(1, 1))
    assert g.n_cells() == 64
    h = 1.0 / 8.0
    inner = g.klass != CODE[BOUNDARY]
    assert (g.klass[inner] == CODE[REGULAR]).all()
    assert g.dist[inner] == pytest.approx(h)


def test_classify_dangling_at_shared_edge_midpoints():
    # split only the SW quadrant of a depth-2 grid: dangling nodes appear
    # exactly midway along edges shared by one coarse and two fine cells
    g = build_quadtree(np.array([[0, 0, 0]]), 2, UNIT, pads=(1, 1))
    dang = {(i, j): CLASSES[c] for i, j, c in zip(
        g.i.tolist(), g.j.tolist(), g.klass.tolist())
        if CLASSES[c] in (DANGLING_X, DANGLING_Y)}
    assert dang == {(2, 1): DANGLING_X, (1, 2): DANGLING_Y}
    k = int(g.find(2, 1))
    assert DIRS[g.coarse_side[k]] == "E" and g.band[k] == 2
    de, dw = g.dist[k, DIRS.index("E")], g.dist[k, DIRS.index("W")]
    assert np.isnan(de) and dw == pytest.approx(0.25)


def test_classify_matches_brute_force_on_random_grids():
    rng = np.random.default_rng(17)
    for _ in range(40):
        depth = int(rng.integers(2, 6))
        reqs = random_requests(rng, depth, int(rng.integers(1, 7)))
        g = build_quadtree(reqs, depth, UNIT, pads=(1, 1))
        ref = brute_classify(cell_map(g), depth)
        for i, j, c in zip(g.i.tolist(), g.j.tolist(), g.klass.tolist()):
            assert ref[(i, j)] == CLASSES[c]


def test_regular_pair_distances_exist():
    rng = np.random.default_rng(29)
    for _ in range(20):
        depth = int(rng.integers(3, 6))
        reqs = random_requests(rng, depth, 5)
        g = build_quadtree(reqs, depth, UNIT, pads=(1, 1))
        reg = g.klass == CODE[REGULAR]
        assert (g.pair[reg] >= 0).all()
        dist = g.dist[reg]
        assert g.pair_dist[reg, 0] == pytest.approx(dist[:, :2].max(axis=1))
        assert g.pair_dist[reg, 1] == pytest.approx(dist[:, 2:].max(axis=1))


def test_scattered_corners_give_root_grid():
    pts = [(0.0, 0.0, 1.0), (1.0, 0.0, 2.0), (0.0, 1.0, 3.0), (1.0, 1.0, 4.0)]
    g, u = init_from_scattered(pts, 3)
    assert cell_map(g) == {(0, 0): 3}
    vals = dict(zip(zip(g.i.tolist(), g.j.tolist()), u.values.tolist()))
    assert vals[(0, 0)] == 1.0 and vals[(8, 8)] == 4.0


def test_scattered_uniform_lattice_forces_full_grid():
    pts = [(i / 4.0, j / 4.0, float(i + j)) for i in range(5) for j in range(5)]
    g, u = init_from_scattered(pts, 2)
    assert g.n_cells() == 16
    assert g.scales() == [0]
    assert u.values == pytest.approx(g.i / 1.0 + g.j / 1.0)


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
    assert cell_map(g) == closure_oracle(seeds, depth, g.pads)
    for (x, y, v) in pts:
        k = g.find(round(x * side), round(y * side))
        assert k >= 0
        assert u.values[k] == pytest.approx(v)


def test_scattered_conflicting_duplicates_rejected():
    with pytest.raises(InputError):
        init_from_scattered([(0.5, 0.5, 1.0), (0.5, 0.5, 2.0)],
                            3, box=UNIT)


def test_dump_is_deterministic_and_ordered():
    g = build_quadtree(np.array([[4, 4, 0]]), 3, UNIT, pads=(1, 1))
    d1 = g.dump()
    d2 = build_quadtree(np.array([[4, 4, 0]]), 3, UNIT, pads=(1, 1)).dump()
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
    g = build_quadtree(NO_SQUARES, 3, UNIT)
    with pytest.raises(Exception):
        GridFunction(g, np.zeros(3))


def test_huge_pad_acts_as_pad_side_and_builds_fast():
    # no padding neighbor lies farther than the lattice side, so a pad far
    # above it closes to the leaves of pad = side, without a loop per unit
    rng = np.random.default_rng(41)
    for _ in range(20):
        depth = int(rng.integers(1, 6))
        side = 1 << depth
        reqs = random_requests(rng, depth, int(rng.integers(1, 6)))
        for pads in ((10 ** 8, 1), (1, 10 ** 8), (10 ** 30, 10 ** 30)):
            t0 = time.process_time()
            huge = build_quadtree(reqs, depth, UNIT, pads=pads)
            assert time.process_time() - t0 < 1.0
            at_side = tuple(min(p, side) for p in pads)
            ref = build_quadtree(reqs, depth, UNIT, pads=at_side)
            assert np.array_equal(huge.leaves, ref.leaves)
            assert np.array_equal(huge.klass, ref.klass)
            assert huge.build_ops == ref.build_ops


def test_check_tells_sibling_grids_of_one_generation_apart():
    # a trial grid and a regrid result both descend from one grid, so both
    # are generation 1; a function on either fails the other's check
    g0 = build_quadtree(np.array([[4, 4, 1]]), 3, UNIT, pads=(1, 1))
    u0 = GridFunction(g0, np.zeros(g0.n_nodes()))
    trial, u_t = transfer(g0, u0, _trial_leaves(g0, 1))
    g1, u1 = regrid(g0, u0, np.array([[0, 0, 0]]))
    assert trial.generation == g1.generation == 1
    assert trial.n_nodes() != g1.n_nodes()
    with pytest.raises(GenerationMismatchError):
        u_t.check(g1)
    with pytest.raises(GenerationMismatchError):
        u1.check(trial)
    # the same cells on another grid object pass, as do a grid's own
    twin = QuadtreeGrid(g1.box, g1.depth, g1.pads, g1.leaves, generation=7)
    u1.check(twin)
    u1.check(g1)
    with pytest.raises(GenerationMismatchError):
        u0.check(g1)
