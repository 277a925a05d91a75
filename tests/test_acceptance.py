"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single "ACCEPTANCE <n>: PASS/FAIL" line with its measured
quantities.  Expensive preset comparisons are shared via module fixtures.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import erf

from adaptfd.contour import extract_contour, hausdorff_distance
from adaptfd.grid import (DomainBox, GridFunction, ScaleRequest,
                          build_quadtree)
from adaptfd.harness import (convergence_report, make_preset, parse_config,
                             run_experiment)
from adaptfd.operators import ProblemDefinition, instantiate_builtin
from adaptfd.solvers import (StoppingPolicy, TimeGroups, build_schedule,
                             euler_step, evolve, multiscale_solve,
                             newton_solve)
from oracles import (check_legal, closure_oracle, psor_solve, random_requests,
                     seeds_for_requests)

UNIT = DomainBox(0.0, 1.0, 0.0, 1.0)


def announce(num, ok, detail):
    print("ACCEPTANCE %d: %s - %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d: %s" % (num, detail)


def uniform_grid(depth, box=UNIT):
    side = 1 << depth
    reqs = [ScaleRequest(box.x_min + (i + 0.5) * box.lx / side,
                         box.y_min + (j + 0.5) * box.ly / side, 0)
            for i in range(side) for j in range(side)]
    return build_quadtree(reqs, depth, box, pads=(1, 1))


def test_criterion_1_quadtree_legality():
    rng = np.random.default_rng(101)
    t0 = time.time()
    oracle_checked = 0
    for _ in range(500):
        depth = int(rng.integers(2, 7))
        pads = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        reqs = random_requests(rng, depth, int(rng.integers(1, 8)), UNIT)
        g = build_quadtree(reqs, depth, UNIT, pads=pads)
        seeds = seeds_for_requests(reqs, depth, UNIT)
        assert check_legal(g.cells, depth, pads, seeds), (depth, pads, reqs)
        if depth <= 3:
            assert g.cells == closure_oracle(seeds, depth, pads), \
                (depth, pads, reqs)
            oracle_checked += 1
    elapsed = time.time() - t0
    announce(1, elapsed < 60.0,
             "500 random grids legal (balance/padding/structure/containment),"
             " %d matched the exhaustive minimal-quadtree oracle, %.1fs"
             % (oracle_checked, elapsed))


def test_criterion_2_stencil_consistency():
    from adaptfd.stencils import laplacian_row
    from adaptfd.grid import REGULAR
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(25):
        depth = int(rng.integers(3, 6))
        g = build_quadtree(random_requests(rng, depth, 5, UNIT), depth, UNIT,
                           pads=(1, 1))
        a, b, c, d, e, f0 = rng.normal(size=6)
        u = np.array([a * n.x ** 2 + b * n.y ** 2 + c * n.x * n.y
                      + d * n.x + e * n.y + f0 for n in g.nodes])
        exact = -(2 * a + 2 * b)
        scale = max(abs(exact), 1.0)
        for n in g.nodes:
            if n.klass != REGULAR:
                continue
            got = laplacian_row(g, n).evaluate(u)
            worst = max(worst, abs(got - exact) / scale)
    assert worst <= 1e-10

    uni = convergence_report("uniform", (3, 4, 5))
    dang = convergence_report("dangling", (3, 4, 5))
    rate_u = min(r for (_, _, r) in uni[1:])
    rate_d = min(r for (_, _, r) in dang[1:])
    elapsed = time.time() - t0
    announce(2, rate_u >= 1.9 and rate_d >= 0.9 and elapsed < 120.0,
             "quadratics exact to %.1e; rates uniform %.2f (>=1.9), "
             "dangling-band %.2f (>=0.9), %.1fs" %
             (worst, rate_u, rate_d, elapsed))


def test_criterion_3_monotonicity_fuzz():
    rng = np.random.default_rng(303)
    kinds = ("poisson_dirichlet", "bc_composite", "obstacle", "stefan")
    probes = 0
    violations = 0
    while probes < 10000:
        depth = int(rng.integers(2, 5))
        grid = build_quadtree(random_requests(rng, depth, 4, UNIT), depth,
                              UNIT, pads=(1, 1))
        kind = kinds[probes % 4]
        prob = ProblemDefinition(
            chi=(lambda x, y: x + 2 * y < 1.3) if kind == "bc_composite"
            else None,
            f=lambda x, y: np.sin(3 * x) - y,
            g=lambda x, y: 0.4 * np.cos(5 * x * y))
        op = instantiate_builtin(kind, prob, grid)
        act = np.flatnonzero(op.active)
        if len(act) == 0:
            continue
        J = op.L.tolil()
        for _ in range(200):
            if probes >= 10000:
                break
            u = op.apply_pins(rng.normal(size=grid.n_nodes()))
            i = int(rng.choice(act))
            r0 = op.residual(u, rows=np.array([i]))[0]
            u_up = u.copy()
            u_up[i] += 0.4
            if op.residual(u_up, rows=np.array([i]))[0] < r0 - 1e-12:
                violations += 1
            cols = [j for j in J.rows[i] if j != i]
            j = int(rng.choice(cols)) if cols else (i + 1) % grid.n_nodes()
            u_j = u.copy()
            u_j[j] += 0.4
            if op.residual(u_j, rows=np.array([i]))[0] > r0 + 1e-12:
                violations += 1
            probes += 1
    announce(3, violations == 0,
             "%d random (grid, u, builtin) probes, %d violations"
             % (probes, violations))


def test_criterion_4_comparison_principle():
    import scipy.sparse.linalg as spla
    rng = np.random.default_rng(404)

    def solve(op):
        u = op.apply_pins(np.zeros(op.grid.n_nodes()))
        act = op.active
        if act.any():
            J = op.jacobian(u)[act][:, act].tocsc()
            u[act] += spla.spsolve(J, -op.residual(u)[act])
        return u

    instances = 0
    violations = 0
    while instances < 100:
        depth = int(rng.integers(2, 5))
        grid = build_quadtree(random_requests(rng, depth, 3, UNIT), depth,
                              UNIT, pads=(1, 1))
        cx, cy, rad = rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7), \
            rng.uniform(0.2, 0.5)
        chi = lambda x, y: (x - cx) ** 2 + (y - cy) ** 2 < rad ** 2
        a1, a2 = sorted(rng.normal(size=2))
        b1, b2 = sorted(rng.normal(size=2))
        w = rng.normal(size=3)
        f1 = lambda x, y: a1 + w[0] * np.sin(3 * x + y)
        f2 = lambda x, y: a2 + w[0] * np.sin(3 * x + y)
        g1 = lambda x, y: b1 + w[1] * x + w[2] * y
        g2 = lambda x, y: b2 + w[1] * x + w[2] * y
        u1 = solve(instantiate_builtin(
            "bc_composite", ProblemDefinition(chi=chi, f=f1, g=g1), grid))
        u2 = solve(instantiate_builtin(
            "bc_composite", ProblemDefinition(chi=chi, f=f2, g=g2), grid))
        if np.any(u1 > u2 + 1e-10):
            violations += 1
        instances += 2
    announce(4, violations == 0,
             "%d ordered bc_composite instances, %d order violations"
             % (instances, violations))


def test_criterion_5_forward_euler_contraction():
    rng = np.random.default_rng(505)
    g = uniform_grid(3)
    dirichlet0 = (lambda *a: 0.0, lambda *a: 1.0, lambda *a: 0.0)
    ops = {
        "poisson_dirichlet": instantiate_builtin(
            "poisson_dirichlet",
            ProblemDefinition(f=lambda x, y: x, g=lambda x, y: 0.0), g),
        "bc_composite": instantiate_builtin(
            "bc_composite",
            ProblemDefinition(chi=lambda x, y: x < 0.6, f=lambda x, y: 1.0,
                              g=lambda x, y: 0.1), g),
        "obstacle": instantiate_builtin(
            "obstacle", ProblemDefinition(g=lambda x, y: -0.2,
                                          robin=dirichlet0), g),
        "stefan": instantiate_builtin("stefan", ProblemDefinition(), g),
    }
    act = np.flatnonzero(ops["stefan"].active)
    worst = -1.0
    for name, op in ops.items():
        for _ in range(1000):
            u = GridFunction(g, op.apply_pins(rng.normal(size=g.n_nodes())))
            v = GridFunction(g, op.apply_pins(rng.normal(size=g.n_nodes())))
            if name == "stefan":
                lip = np.maximum(op.lipschitz(u.values),
                                 op.lipschitz(v.values))
                tau = 0.999 / lip[act].max()
                sched = TimeGroups([act], [tau], [1], np.array([0]), tau)
            else:
                sched = build_schedule(g, op, u)
            d0 = np.max(np.abs(u.values - v.values))
            u2 = euler_step(op, g, u, sched)
            v2 = euler_step(op, g, v, sched)
            worst = max(worst,
                        (np.max(np.abs(u2.values - v2.values)) - d0))
    announce(5, worst <= 1e-12,
             "4000 random pairs across builtins, max expansion %.2e" % worst)


def test_criterion_6_obstacle_psor_equivalence(obstacle_setup):
    t0 = time.time()
    preset, factory = obstacle_setup
    g = uniform_grid(5, preset.box)
    op = factory(g)
    u0 = GridFunction(g, op.apply_pins(np.maximum(op.gvals, 0.0)))
    from adaptfd.adaptivity import RefinementPolicy, residual_criteria
    pol = RefinementPolicy(residual_criteria(), thresholds=(1e30,),
                           scales=(0,),
                           initial_cells=tuple((a, b, k) for (a, b), k
                                               in g.cells.items()))
    grid, u = multiscale_solve(factory, g, u0, pol, StoppingPolicy([1e-11]))
    assert grid.same_cells(g)
    ref = psor_solve(op, tol=1e-12)
    diff = float(np.max(np.abs(u.values - ref)))

    cn = extract_contour(grid, u.values,
                         predicate=lambda v: v - op.gvals - 1e-8)
    cp = extract_contour(grid, ref, predicate=lambda v: v - op.gvals - 1e-8)
    hd = hausdorff_distance(cn, cp)
    cell = preset.box.lx / (1 << 5)
    elapsed = time.time() - t0
    announce(6, diff < 1e-8 and hd <= math.sqrt(2) * cell and elapsed < 120,
             "max |newton - psor| = %.2e (<1e-8), contact contours within "
             "%.3f of one cell %.3f, %.1fs" % (diff, hd, cell, elapsed))


def test_criterion_7_artificial_bc_economy(tmp_path):
    res1 = run_experiment(parse_config("preset = artificial_bc\n"),
                          out_dir=str(tmp_path / "L200"))
    rep = res1["report"]
    share_nodes = rep.regions[0][1]
    share_area = rep.regions[0][3]

    res2 = run_experiment(parse_config(
        "preset = artificial_bc\ndomain.side = 400\ngrid.depth = 14\n"),
        out_dir=str(tmp_path / "L400"))

    # near-field solution at common physical sample points
    pts = [(r * math.cos(t), r * math.sin(t))
           for r in np.linspace(0.08, 0.92, 8)
           for t in np.linspace(0.0, 2 * math.pi, 12, endpoint=False)]
    g1, u1 = res1["grid"], res1["u"]
    g2, u2 = res2["grid"], res2["u"]
    s1 = np.array([g1.interpolate(u1.values, x, y) for (x, y) in pts])
    s2 = np.array([g2.interpolate(u2.values, x, y) for (x, y) in pts])
    scale = np.max(np.abs(s1))
    change = float(np.max(np.abs(s1 - s2)) / scale)
    announce(7, share_nodes > 0.5 and share_area < 1e-4 and change < 0.01,
             "r<1 holds %.1f%% of nodes (>50%%) at %.5f%% area (<0.01%%); "
             "near field changes %.3f%% when the domain side doubles (<1%%)"
             % (100 * share_nodes, 100 * share_area, 100 * change))


@pytest.fixture(scope="module")
def obstacle_setup():
    cfg = parse_config("preset = obstacle\n")
    preset = make_preset(cfg)
    factory = lambda gr: instantiate_builtin(preset.kind, preset.problem, gr)
    return preset, factory


@pytest.fixture(scope="module")
def obstacle_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("obstacle")
    out = {}
    for strategy in ("predetermined", "boundary", "operator"):
        cfg = parse_config("preset = obstacle\nrefine.strategy = %s\n"
                           % strategy)
        out[strategy] = run_experiment(cfg, out_dir=str(root / strategy))
    return out


def test_criterion_8_obstacle_grid_strategies(obstacle_runs):
    nodes = {k: r["grid"].n_nodes() for k, r in obstacle_runs.items()}
    contours = {k: r["contours"] for k, r in obstacle_runs.items()}
    coarse_cell = max(8.0 / 256 * (1 << k)
                      for k in obstacle_runs["boundary"]["grid"].scales())
    h_pb = hausdorff_distance(contours["predetermined"], contours["boundary"])
    h_po = hausdorff_distance(contours["predetermined"], contours["operator"])
    h_bo = hausdorff_distance(contours["boundary"], contours["operator"])
    spread = max(nodes.values()) / min(nodes.values())
    ok = (nodes["boundary"] < nodes["predetermined"]
          and nodes["operator"] < nodes["predetermined"]
          and spread <= 2.0
          and max(h_pb, h_po, h_bo) <= coarse_cell)
    announce(8, ok,
             "final nodes pre=%d bnd=%d opr=%d (adaptive < predetermined, "
             "spread %.2fx <= 2); contact contours agree to %.3f <= one "
             "coarse cell %.3f"
             % (nodes["predetermined"], nodes["boundary"], nodes["operator"],
                spread, max(h_pb, h_po, h_bo), coarse_cell))


@pytest.fixture(scope="module")
def stefan_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("stefan")
    out = {}
    for strategy in ("uniform_fine", "uniform_coarse", "term", "operator"):
        cfg = parse_config(
            "preset = stefan\nrefine.strategy = %s\ntime.T = 0.025\n"
            "time.snapshots = 0.005,0.025\nseed = 11\n" % strategy)
        out[strategy] = run_experiment(cfg, out_dir=str(root / strategy))
    return out


def test_criterion_9_stefan_grid_strategies(stefan_runs):
    h = {}
    for t in (0.005, 0.025):
        fine = stefan_runs["uniform_fine"]["contours"][t]
        h[t] = {k: hausdorff_distance(stefan_runs[k]["contours"][t], fine)
                for k in ("uniform_coarse", "term", "operator")}
    # contour vertices sample the front at the fine spacing; distances much
    # closer than that are ties
    noise = (2.0 / (1 << 7)) * 1e-3
    early, late = h[0.005], h[0.025]
    slope = _stefan_slab_exponent()
    ok = (early["operator"] < early["uniform_coarse"]
          and early["operator"] <= early["term"] + noise
          and late["operator"] <= late["term"] + noise
          and 0.45 <= slope <= 0.55)
    announce(9, ok,
             "Hausdorff to uniform-fine: t=0.005 coarse=%.4f term=%.4f "
             "op=%.4f; t=0.025 coarse=%.4f term=%.4f op=%.4f "
             "(op < coarse, op <= term); slab front exponent %.3f in "
             "[0.45, 0.55]" % (early["uniform_coarse"], early["term"],
                               early["operator"], late["uniform_coarse"],
                               late["term"], late["operator"], slope))


def _stefan_slab_exponent():
    """Front growth of the 1D slab seeded with the similarity profile."""
    A, C = 1.0, 0.5
    lam = brentq(lambda l: math.sqrt(math.pi) * l * math.exp(l * l)
                 * erf(l) - A / C, 0.05, 2.0)
    box = DomainBox(0.0, 2.0, 0.0, 2.0)
    depth = 6
    g = uniform_grid(depth, box)
    s0 = 0.15
    t0 = (s0 / (2 * lam)) ** 2

    def profile(x, t):
        s = 2 * lam * math.sqrt(t)
        if x < s:
            return A * (1 - erf(x / (2 * math.sqrt(t))) / erf(lam))
        return max(-C, -lam / math.sqrt(t) * (x - s))

    # top and bottom walls: homogeneous Neumann keeps the run exactly 1D;
    # hot Dirichlet on the west wall, cold ice value on the east
    robin = (lambda x, y, nx, ny: 1.0 if ny != 0 else 0.0,
             lambda x, y, nx, ny: 0.0 if ny != 0 else 1.0,
             lambda x, y, nx, ny: 0.0 if ny != 0 else
             (A if nx < 0 else -C))
    prob = ProblemDefinition(robin=robin)
    op = instantiate_builtin("stefan", prob, g)
    u0 = GridFunction(g, op.apply_pins(np.array(
        [profile(n.x, t0) for n in g.nodes])))
    T = 10 * t0
    times = list(np.geomspace(t0, T, 7))
    snaps = evolve(op, g, u0, T=T, snapshot_times=times, seed=7)

    side = 1 << depth
    row = sorted((n.x, idx) for idx, n in enumerate(g.nodes)
                 if n.j == side // 2)
    xs = np.array([r[0] for r in row])
    fronts = []
    for (_, u, t) in snaps:
        vals = np.array([u.values[idx] for (_, idx) in row])
        above = np.where(vals > 0)[0]
        k = above[-1]
        xf = xs[k] + vals[k] / (vals[k] - vals[k + 1]) * (xs[k + 1] - xs[k])
        fronts.append((t0 + t, xf))
    ts = np.log([f[0] for f in fronts])
    ss = np.log([f[1] for f in fronts])
    return float(np.polyfit(ts, ss, 1)[0])


def test_criterion_10_newton_economics(obstacle_runs):
    log = obstacle_runs["boundary"]["log"]
    final = obstacle_runs["boundary"]["grid"].n_nodes()
    newton = [e for e in log if e.get("event") == "newton"]
    small = sum(1 for e in newton if e["nodes"] < final / 2)

    # linear problems converge in exactly one Newton iteration
    g = uniform_grid(4)
    prob = ProblemDefinition(f=lambda x, y: np.cos(2 * x + y),
                             g=lambda x, y: 0.0)
    op = instantiate_builtin("poisson_dirichlet", prob, g)
    lin_log = []
    newton_solve(op, g, GridFunction(g, np.zeros(g.n_nodes())),
                 StoppingPolicy([1e-9]), log=lin_log)
    ok = small > len(newton) / 2 and len(lin_log) == 1
    announce(10, ok,
             "obstacle preset: %d of %d Newton solves on grids below half "
             "the final %d nodes (majority); linear problem converged in "
             "%d iteration" % (small, len(newton), final, len(lin_log)))
