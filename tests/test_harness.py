import math
import os
import subprocess
import sys

import numpy as np
import pytest

import adaptfd
import oracles
from adaptfd.harness import (ConfigError, _obstacle_fn, _top_maxima,
                             convergence_report, expression, make_preset,
                             parse_config, region_areas, region_names,
                             run_experiment, stefan_initial,
                             uniform_requests)
from adaptfd.grid import DomainBox, build_quadtree
from adaptfd.operators import ProblemDefinition


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key 'grid.depht'"):
        parse_config("grid.depht = 5\n")


def test_parse_config_rejects_bad_value_naming_field():
    cfg = parse_config("grid.depth = five\n")
    with pytest.raises(ConfigError, match="grid.depth"):
        cfg.get("grid.depth", 5, int)


def test_parse_config_rejects_bad_preset():
    with pytest.raises(ConfigError, match="preset"):
        parse_config("preset = hyperbolic\n")


def test_custom_zero_problem_gives_zero_solution(tmp_path):
    cfg = parse_config("preset = custom\nproblem.f = 0\nproblem.g = 0\n"
                       "problem.dirichlet = 0\ngrid.depth = 4\n")
    res = run_experiment(cfg, out_dir=str(tmp_path))
    assert np.max(np.abs(res["u"].values)) == 0.0
    assert res["contours"] == []
    text = (tmp_path / "contours.csv").read_text()
    assert text.strip() == "curve_id,seq,x,y"


def test_custom_expressions(tmp_path):
    cfg = parse_config(
        "preset = custom\nproblem.f = 2*pi**2*sin(pi*x)*sin(pi*y)\n"
        "problem.g = 0\nproblem.dirichlet = 0\ngrid.depth = 5\n"
        "grid.initial_scale = 0\n")
    res = run_experiment(cfg, out_dir=str(tmp_path))
    grid, u = res["grid"], res["u"]
    for idx, (x, y) in enumerate(zip(grid.x.tolist(), grid.y.tolist())):
        want = math.sin(math.pi * x) * math.sin(math.pi * y)
        assert abs(u.values[idx] - want) < 5e-3


def test_rerun_is_bitwise_identical(tmp_path):
    text = ("preset = stefan\ngrid.depth = 5\ntime.T = 0.004\n"
            "time.snapshots = 0.004\nrefine.strategy = operator\nseed = 9\n")
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        run_experiment(parse_config(text), out_dir=str(d))
        outs.append(d)
    for fname in ("solution_t0p004.csv", "contours_t0p004.csv", "grid.txt",
                  "grid.svg", "solution.svg"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_convergence_rates():
    rows = convergence_report("uniform", (3, 4, 5))
    assert all(r >= 1.9 for (_, _, r) in rows[1:])
    rows = convergence_report("dangling", (3, 4, 5))
    assert all(r >= 0.9 for (_, _, r) in rows[1:])
    rows = convergence_report("linear", (3, 4))
    assert all(e < 1e-12 for (_, e, _) in rows)


def test_convergence_needs_two_scales():
    with pytest.raises(ConfigError):
        convergence_report("uniform", (4,))


def test_region_accounting_helpers():
    box = DomainBox(-100.0, 100.0, -100.0, 100.0)
    names = region_names((1.0, 10.0, 100.0))
    assert names == ["r<1", "1<r<10", "10<r<100", "r>100"]
    areas = region_areas((1.0, 10.0, 100.0), box)
    assert sum(areas) == pytest.approx(1.0)
    assert areas[0] == pytest.approx(math.pi / 200.0 ** 2)


@pytest.mark.parametrize("side, names", [
    (10, ["r<1", "1<r<5", "r>5"]),
    (200, ["r<1", "1<r<10", "10<r<100", "r>100"])])
def test_artificial_bc_regions_stay_inside_the_box(tmp_path, side, names):
    cfg = parse_config("preset = artificial_bc\ndomain.side = %d\n"
                       "grid.depth = 6\n" % side)
    run_experiment(cfg, out_dir=str(tmp_path))
    lines = (tmp_path / "report.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == names
    shares = np.array([row[1:] for row in rows], dtype=float)
    assert ((shares >= 0) & (shares <= 1)).all()
    assert shares.sum(axis=0) == pytest.approx(np.ones(3))


def same_polylines(a, b):
    return len(a) == len(b) and all(np.array_equal(p, q)
                                    for p, q in zip(a, b))


def test_region_time_keyed_by_generation():
    # two solved grids with equal node counts but different region shares:
    # each Newton iteration is credited to the shares of its own grid
    from adaptfd.grid import GridFunction, QuadtreeGrid, build_quadtree
    from adaptfd.harness import region_shares, resource_report, solver_log_csv
    from adaptfd.operators import ProblemDefinition, instantiate_builtin
    from adaptfd.solvers import StoppingPolicy, newton_solve

    box = DomainBox(0.0, 8.0, -4.0, 4.0)
    radii = (2.0, 5.0)
    grids = [build_quadtree(np.array([[a, 9, 0]]), 4, box) for a in (3, 13)]
    grids = [QuadtreeGrid(box, 4, g.pads, g.leaves, generation=gen)
             for g, gen in zip(grids, (3, 4))]
    assert grids[0].n_nodes() == grids[1].n_nodes()
    shares = {}
    for grid in grids:
        counts = np.zeros(len(radii) + 1)
        for x, y in zip(grid.x.tolist(), grid.y.tolist()):
            r = math.hypot(x, y)
            counts[sum(r >= bound for bound in radii)] += 1
        shares[grid.generation] = region_shares(radii, grid)
        assert np.array_equal(shares[grid.generation], counts / counts.sum())
    assert not np.allclose(shares[3], shares[4])
    log = [{"event": "newton", "nodes": grids[0].n_nodes(), "generation": 3,
            "wall": 1.0},
           {"event": "newton", "nodes": grids[1].n_nodes(), "generation": 4,
            "wall": 3.0}]
    rep = resource_report(grids[1], radii, log, shares)
    want = 0.25 * shares[3] + 0.75 * shares[4]
    assert [row[2] for row in rep.regions] == pytest.approx(want)

    # Newton logs the generation of the grid it solved on; the solver log
    # keeps its columns
    prob = ProblemDefinition(f=lambda x, y: 1.0, g=lambda x, y: 0.0)
    op = instantiate_builtin("poisson_dirichlet", prob, grids[1])
    log = []
    newton_solve(op, GridFunction(grids[1], np.zeros(
        grids[1].n_nodes())), StoppingPolicy([1e-10]), log=log)
    assert log and all(e["generation"] == 4 for e in log)
    assert solver_log_csv(log).splitlines()[0] == \
        "event,nodes,iteration,residual,wall,t,tau"


def test_euler_run_assembles_one_operator(tmp_path, monkeypatch):
    # the snapshots' level contours need no operator: only the solver's
    from adaptfd.contour import extract_contour
    from adaptfd.operators import OperatorSpec
    made = []
    init = OperatorSpec.__post_init__

    def counted(self):
        made.append(self.kind)
        init(self)

    monkeypatch.setattr(OperatorSpec, "__post_init__", counted)
    cfg = parse_config("preset = stefan\ngrid.depth = 4\n"
                       "refine.strategy = uniform_fine\ntime.T = 0.002\n"
                       "time.snapshots = 0.001,0.002\n")
    res = run_experiment(cfg, out_dir=str(tmp_path))
    assert made == ["stefan"]
    for (grid, u, t) in res["snapshots"]:
        assert same_polylines(res["contours"][t],
                              extract_contour(grid, u.values, level=0.0))


def test_obstacle_contact_contour_from_sampled_obstacle(tmp_path):
    # the contact contour is taken from g sampled at the nodes, which is
    # the obstacle an operator on the final grid holds
    from adaptfd.contour import extract_contour
    from adaptfd.harness import make_preset
    from adaptfd.operators import instantiate_builtin
    cfg = parse_config("preset = obstacle\ngrid.depth = 5\n"
                       "grid.initial_scale = 3\n")
    res = run_experiment(cfg, out_dir=str(tmp_path))
    grid, u = res["grid"], res["u"]
    preset = make_preset(cfg)
    op = instantiate_builtin(preset.kind, preset.problem, grid)
    assert np.array_equal(preset.problem.sample(preset.problem.g, grid),
                          op.gvals)
    want = extract_contour(grid, u.values - op.gvals - 1e-8, level=0.0)
    assert want and same_polylines(res["contours"], want)


def test_svg_counts_match_grid_dump(tmp_path):
    cfg = parse_config("preset = custom\nproblem.f = 1\nproblem.g = 0\n"
                       "problem.dirichlet = 0\ngrid.depth = 4\n"
                       "grid.initial_scale = 2\n"
                       "refine.thresholds = 0.5\nrefine.scales = 0\n")
    res = run_experiment(cfg, out_dir=str(tmp_path))
    grid = res["grid"]
    svg = (tmp_path / "grid.svg").read_text()
    assert svg.count('class="cell"') == grid.n_cells()
    dump = (tmp_path / "grid.txt").read_text()
    klass_counts = {}
    for line in dump.splitlines():
        f = line.split()
        if f[0] == "node":
            klass_counts[f[5]] = klass_counts.get(f[5], 0) + 1
    for klass, count in klass_counts.items():
        assert svg.count('class="node %s"' % klass) == count
    assert sum(klass_counts.values()) == grid.n_nodes()


def test_obstacle_boundary_grid_vs_uniform_fine_reference(tmp_path):
    # the free-boundary-determined grid ends with far fewer nodes than the
    # all-fine uniform grid, yet its contact contour lands within one coarse
    # cell of the uniform-fine contour
    from adaptfd.contour import extract_contour, hausdorff_distance
    from adaptfd.grid import GridFunction
    from adaptfd.harness import make_preset, uniform_requests
    from adaptfd.operators import instantiate_builtin
    from adaptfd.grid import build_quadtree
    from adaptfd.solvers import StoppingPolicy, newton_solve
    import numpy as np

    cfg = parse_config("preset = obstacle\ngrid.depth = 7\n")
    res = run_experiment(cfg, out_dir=str(tmp_path))
    adaptive = res["grid"]

    preset = make_preset(cfg)
    gu = build_quadtree(uniform_requests(preset.box, 7, 0), 7, preset.box)
    op = instantiate_builtin(preset.kind, preset.problem, gu)
    u0 = GridFunction(gu, op.apply_pins(np.maximum(op.gvals, 0.0)))
    uu = newton_solve(op, u0, StoppingPolicy([1e-9]))
    ref = extract_contour(gu, uu.values - op.gvals - 1e-8, level=0.0)

    assert adaptive.n_nodes() < gu.n_nodes()
    coarse_cell = max(preset.box.lx / (1 << 7) * (1 << k)
                      for k in adaptive.scales())
    assert hausdorff_distance(res["contours"], ref) <= coarse_cell

    # and the demanded fine cells concentrate along the contact contour
    from adaptfd.contour import polyline_points
    from scipy.spatial import cKDTree
    tree = cKDTree(polyline_points(res["contours"]))
    fine = [(a, b) for a, b, k in adaptive.leaves.tolist() if k == 0]
    centers = np.array([adaptive.position(a + 0.5, b + 0.5)
                        for (a, b) in fine])
    near = tree.query(centers)[0] < 0.5
    assert np.mean(near) > 0.9


def _child_env():
    # Run the child on the same adaptfd the suite imported: its src directory
    # goes first on PYTHONPATH as an absolute path, so neither a relative
    # PYTHONPATH (resolved against cwd) nor another installed copy can win.
    src = os.path.dirname(os.path.dirname(adaptfd.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_cli(args, cwd):
    # the timeout turns a run that never ends into a failure
    return subprocess.run([sys.executable, "-m", "adaptfd.cli"] + args,
                          cwd=cwd, env=_child_env(), capture_output=True,
                          text=True, timeout=300)


def test_import_leaves_scattered_data_modules_unloaded(tmp_path):
    # only init_from_scattered needs scipy.interpolate and scipy.spatial,
    # and only newton_solve scipy.sparse.linalg; a run should not pay for
    # importing what it does not call (or scipy.special/optimize)
    heavy = ["scipy.interpolate", "scipy.spatial", "scipy.special",
             "scipy.optimize", "scipy.sparse.linalg"]
    code = ("import sys, adaptfd, adaptfd.harness, adaptfd.cli\n"
            "adaptfd.harness.parse_config('preset = obstacle\\n')\n"
            "print([m for m in %r if m in sys.modules])" % (heavy,))
    r = subprocess.run([sys.executable, "-c", code], cwd=str(tmp_path),
                       env=_child_env(), capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


SUBCLASSES = ('[c for c in ().__class__.__base__.__subclasses__() '
              'if c.__name__ == "Popen"].__len__()')


@pytest.mark.parametrize(
    "expr", ["1+", "z", SUBCLASSES, "().__class__", "(lambda: 1)()",
             "[x][0]"],
    ids=["syntax", "unknown_name", "subclasses", "attribute", "lambda",
         "subscript"])
def test_cli_rejects_expression_outside_grammar(tmp_path, expr):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("preset = custom\nproblem.f = %s\nproblem.g = 0\n"
                   "grid.depth = 3\n" % expr)
    r = _run_cli(["solve", str(cfg), "--out", str(tmp_path / "o")],
                 cwd=str(tmp_path))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("config error:"), r.stderr
    assert "problem.f" in r.stderr
    assert not (tmp_path / "o").exists()     # rejected before any run


@pytest.mark.parametrize("expr", [
    "sin(x).real", "x[0]", "f(x)", "sin(x, y)", "where(x, y)",
    "sqrt(x=1)", "sin(*x)", "x @ y", "x in y", "True", "'a'", "1j",
    "{x}", "(x := 1)", "__import__('os')", "1" + "0" * 400,
    "-" * 5000 + "x"])
def test_expression_grammar_rejects(expr):
    with pytest.raises(ConfigError, match="problem.g"):
        expression(expr, "problem.g")


EXPRESSIONS = [
    "x + y + 2.5 * x * y / (1 + r)",
    "x ** 2 - (-y) ** 3 + +x",
    "sin(x) + cos(y) + 2 + tan(0.5 * x)",
    "exp(x - y) + log(1 + r) + sqrt(r)",
    "hypot(x, y) + arctan2(y, x) + theta",
    "abs(x - y) + sign(x - y) + sign(0 * x)",
    "minimum(x, y) + maximum(x, y) + min(x, 2 * y) + max(y, pi) + e",
    "where(x < y, x, y) + where(0, 1, x)",
    "x if x > y else y - 1",
    "(x < y <= 2 * x) + (x == x) + (x != y) + (y >= x > 0.5)",
    "(x > 1 and y > 1) + (x > 1 or not y > 1) + (x < 1 and y < 1 and 2)",
]


@pytest.mark.parametrize("text", EXPRESSIONS)
def test_expression_matches_pointwise_math(text):
    # every allowed node and function appears above; comparisons and
    # logical operators give 1.0/0.0, so sums of them count
    rng = np.random.default_rng(2024)
    x, y = rng.uniform(0.05, 2.0, size=(2, 1000))
    got = expression(text, "problem.f")(x, y)
    ref = oracles.math_expression(text)
    want = np.array([ref(a, b) for a, b in zip(x.tolist(), y.tolist())])
    assert got.shape == (1000,)
    ulps = np.abs(got - want) / np.spacing(np.abs(want))
    assert ulps.max() <= 4, (text, ulps.max())


def test_expression_takes_scalars_and_constants():
    assert expression("2 * pi", "problem.f")(0.3, 0.4) == 2 * math.pi
    assert expression("r", "problem.f")(3.0, 4.0) == 5.0
    assert float(expression("1", "problem.f")(np.zeros(3), np.zeros(3))) \
        == 1.0


def test_custom_chi_expression_selects_pde_region(tmp_path):
    cfg = parse_config(
        "preset = custom\nproblem.kind = bc_composite\nproblem.f = 1\n"
        "problem.g = 0.25 * x\nproblem.dirichlet = 0.25 * x\n"
        "problem.chi = (x - 0.5) ** 2 + (y - 0.5) ** 2 < 0.1 "
        "and not x > 0.7\ngrid.depth = 4\ngrid.initial_scale = 0\n")
    res = run_experiment(cfg, out_dir=str(tmp_path))
    grid, u = res["grid"], res["u"].values
    x, y = grid.x, grid.y
    outside = ((x - 0.5) ** 2 + (y - 0.5) ** 2 >= 0.1) | (x > 0.7)
    assert np.allclose(u[outside], 0.25 * x[outside], rtol=0, atol=1e-9)
    assert np.all(u[~outside] > 0.25 * x[~outside])


def test_custom_chi_alone_selects_bc_composite(tmp_path):
    # with no problem.kind, problem.chi selects bc_composite: nodes outside
    # x < 0.5 take the datum g = 0, which the Poisson solve does not
    base = ("preset = custom\nproblem.f = 1\nproblem.g = 0\n"
            "problem.dirichlet = 0\ngrid.depth = 3\n")
    plain = run_experiment(parse_config(base), out_dir=str(tmp_path / "p"))
    res = run_experiment(parse_config(base + "problem.chi = x < 0.5\n"),
                         out_dir=str(tmp_path / "c"))
    assert res["preset"].kind == "bc_composite"
    grid, u = res["grid"], res["u"].values
    assert not np.array_equal(u, plain["u"].values)
    assert np.allclose(u[grid.x >= 0.5], 0.0, rtol=0, atol=1e-9)
    assert np.any(plain["u"].values[plain["grid"].x >= 0.5] > 0.0)
    assert np.any(u[grid.x < 0.5] > 0.0)


def test_cli_rejects_chi_with_another_kind(tmp_path):
    cfg = tmp_path / "conflict.cfg"
    cfg.write_text("preset = custom\nproblem.kind = poisson_dirichlet\n"
                   "problem.chi = x < 0.5\nproblem.f = 1\nproblem.g = 0\n"
                   "grid.depth = 3\n")
    r = _run_cli(["solve", str(cfg), "--out", str(tmp_path / "o")],
                 cwd=str(tmp_path))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("config error:"), r.stderr
    assert "problem.chi" in r.stderr and "problem.kind" in r.stderr
    assert not (tmp_path / "o").exists()


def test_top_maxima_matches_pointwise_scan():
    box = DomainBox(-4.0, 4.0, -4.0, 4.0)
    got = _top_maxima(_obstacle_fn, box, 5)
    assert len(got) == 5
    assert got == oracles.top_maxima(oracles.obstacle_fn, box, 5)
    # plateaus and ties: the same ordering and separation rule
    steps = lambda x, y: np.round(np.cos(3 * x) * np.cos(2 * y), 1)
    assert _top_maxima(steps, box, 8) == oracles.top_maxima(steps, box, 8)


def test_sampled_preset_data_match_pointwise_oracles():
    # np.exp and np.hypot may differ from math's by an ulp, and the obstacle
    # multiplies exp(-r) in, whose argument error |r| * eps scales with
    # r <= 4 sqrt(2): a bound of 16 ulp covers that
    worst = {}
    for preset, fn, ref in (("obstacle", _obstacle_fn, oracles.obstacle_fn),
                            ("stefan", stefan_initial,
                             oracles.stefan_initial)):
        box = make_preset(parse_config("preset = %s\n" % preset)).box
        grid = build_quadtree(uniform_requests(box, 8, 0), 8, box)
        got = ProblemDefinition().sample(fn, grid)
        want = np.array([ref(x, y) for x, y in zip(grid.x.tolist(),
                                                   grid.y.tolist())])
        worst[preset] = float(np.max(np.abs(got - want)
                                     / np.spacing(np.abs(want))))
    print("largest ulp difference from the pointwise oracles:", worst)
    assert max(worst.values()) <= 16


def test_cli_solve_and_exit_codes(tmp_path):
    good = tmp_path / "exp.cfg"
    good.write_text("preset = custom\nproblem.f = 0\nproblem.g = 0\n"
                    "problem.dirichlet = 0\ngrid.depth = 3\n")
    r = _run_cli(["solve", str(good), "--out", str(tmp_path / "o"),
                  "--quiet"], cwd=str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "o" / "solution.csv").exists()

    bad = tmp_path / "bad.cfg"
    bad.write_text("preset = nosuch\n")
    r = _run_cli(["solve", str(bad)], cwd=str(tmp_path))
    assert r.returncode == 2, r.stderr
    assert "preset" in r.stderr

    stuck = tmp_path / "stuck.cfg"
    stuck.write_text("preset = custom\nproblem.f = 1\nproblem.g = 0\n"
                     "problem.dirichlet = 0\ngrid.depth = 3\n"
                     "stopping.thresholds = 1e-30\nnewton.max_iter = 1\n")
    r = _run_cli(["solve", str(stuck), "--out", str(tmp_path / "s")],
                 cwd=str(tmp_path))
    assert r.returncode == 3, r.stderr
    # partial logs retained on failure
    assert (tmp_path / "s" / "solver_log.csv").exists()


def test_cli_convergence_and_render(tmp_path):
    conv = tmp_path / "conv.cfg"
    conv.write_text("preset = custom\nrefine.strategy = uniform\n"
                    "refine.scales = 3,4\n")
    r = _run_cli(["convergence", str(conv), "--out", str(tmp_path / "c"),
                  "--quiet"], cwd=str(tmp_path))
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "c" / "convergence.csv").read_text().splitlines()
    assert lines[0] == "h,error,rate"
    assert len(lines) == 3

    exp = tmp_path / "exp.cfg"
    exp.write_text("preset = custom\nproblem.f = 1\nproblem.g = 0\n"
                   "problem.dirichlet = 0\ngrid.depth = 4\n")
    r = _run_cli(["solve", str(exp), "--out", str(tmp_path / "o"),
                  "--quiet"], cwd=str(tmp_path))
    assert r.returncode == 0, r.stderr
    r = _run_cli(["render", str(tmp_path / "o" / "grid.txt"),
                  str(tmp_path / "o" / "solution.csv"),
                  "--out", str(tmp_path / "r"), "--quiet"], cwd=str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "r" / "grid.svg").exists()
    assert (tmp_path / "r" / "solution.svg").exists()


ONE_CELL_DUMP = "".join("node %d %d %d.0 %d.0 boundary\n" % (i, j, i, j)
                        for j in (0, 1) for i in (0, 1)) + "cell 0 0 0\n"


def test_cli_unreadable_input_is_a_config_error(tmp_path):
    # a missing config, dump or solution file exits 2 naming the path
    r = _run_cli(["solve", "missing.cfg"], cwd=str(tmp_path))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("config error:"), r.stderr
    assert "missing.cfg" in r.stderr
    (tmp_path / "grid.txt").write_text(ONE_CELL_DUMP)
    r = _run_cli(["render", "grid.txt", "nosuch.csv"], cwd=str(tmp_path))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("config error:") and "nosuch.csv" in r.stderr


def test_cli_convergence_rejects_unknown_family(tmp_path):
    cfg = tmp_path / "conv.cfg"
    cfg.write_text("preset = custom\nrefine.strategy = bogus\n"
                   "refine.scales = 3,4\n")
    r = _run_cli(["convergence", str(cfg), "--out", str(tmp_path / "c")],
                 cwd=str(tmp_path))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("config error:"), r.stderr
    for word in ("refine.strategy", "uniform", "dangling", "linear"):
        assert word in r.stderr
    assert not (tmp_path / "c").exists()


def test_cli_render_rejects_malformed_records(tmp_path):
    # a dump or solution line that is not a record exits 3 naming the line
    (tmp_path / "bad.txt").write_text("cell 0 0 1\nnode 0 0 x\n")
    (tmp_path / "u.csv").write_text("i,j,x,y,u\n0,0,0.0,0.0,1.0\n")
    r = _run_cli(["render", "bad.txt", "u.csv"], cwd=str(tmp_path))
    assert r.returncode == 3, r.stderr
    assert r.stderr.startswith("solver failure:"), r.stderr
    assert "line 2" in r.stderr and "node 0 0 x" in r.stderr
    (tmp_path / "good.txt").write_text(ONE_CELL_DUMP)
    (tmp_path / "u.csv").write_text("i,j,x,y,u\n0,0,0.0,0.0,oops\n")
    r = _run_cli(["render", "good.txt", "u.csv"], cwd=str(tmp_path))
    assert r.returncode == 3, r.stderr
    assert "solution line 2" in r.stderr


def test_cli_render_rejects_missing_solution_rows(tmp_path):
    # a grid node without a solution row is not taken as u = 0: a dump
    # paired with a truncated or foreign solution exits 3 naming the node
    (tmp_path / "grid.txt").write_text(ONE_CELL_DUMP)
    (tmp_path / "u.csv").write_text("i,j,x,y,u\n")
    r = _run_cli(["render", "grid.txt", "u.csv", "--out", "r"],
                 cwd=str(tmp_path))
    assert r.returncode == 3, r.stderr
    assert r.stderr.startswith("solver failure:"), r.stderr
    assert "(0, 0)" in r.stderr
    assert not (tmp_path / "r").exists()
    (tmp_path / "u.csv").write_text("i,j,x,y,u\n0,0,0.0,0.0,1.0\n"
                                    "1,0,1.0,0.0,1.0\n0,1,0.0,1.0,1.0\n")
    r = _run_cli(["render", "grid.txt", "u.csv", "--out", "r"],
                 cwd=str(tmp_path))
    assert r.returncode == 3 and "(1, 1)" in r.stderr, r.stderr


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_cli_render_rejects_non_finite_solution(tmp_path, bad):
    # a non-finite u has no fill colour: the render exits 3 naming the node
    # instead of writing fills such as "#ff-8000000000000000..."
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("preset = custom\nproblem.f = 1\nproblem.g = 0\n"
                   "problem.dirichlet = 0\ngrid.depth = 3\n")
    r = _run_cli(["solve", str(cfg), "--out", "o", "--quiet"],
                 cwd=str(tmp_path))
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "o" / "solution.csv").read_text().splitlines()
    i, j, x, y, _ = lines[5].split(",")
    lines[5] = ",".join([i, j, x, y, bad])
    (tmp_path / "u.csv").write_text("\n".join(lines) + "\n")
    r = _run_cli(["render", "o/grid.txt", "u.csv", "--out", "r"],
                 cwd=str(tmp_path))
    assert r.returncode == 3, r.stderr
    assert r.stderr.startswith("solver failure:"), r.stderr
    assert "(%s, %s)" % (i, j) in r.stderr and bad in r.stderr
    assert not (tmp_path / "r").exists()


CUSTOM = ("preset = custom\nproblem.f = 1\nproblem.dirichlet = 0\n"
          "grid.depth = 3\n")
STEFAN = ("preset = stefan\ngrid.depth = 4\n"
          "refine.strategy = uniform_coarse\n")


@pytest.mark.parametrize("verb, text, field", [
    ("solve", CUSTOM + "grid.depth = -1\n", "grid.depth"),
    ("solve", CUSTOM + "grid.initial_scale = -1\n", "grid.initial_scale"),
    ("solve", CUSTOM + "grid.depth = 70\n", "grid.depth"),
    ("solve", CUSTOM + "grid.initial_scale = 4\n", "grid.initial_scale"),
    ("solve", CUSTOM + "stopping.thresholds = 1e-6,nan\n",
     "stopping.thresholds"),
    ("evolve", STEFAN + "time.regrid_every = 0\n", "time.regrid_every"),
    ("evolve", STEFAN + "time.T = nan\n", "time.T"),
    ("evolve", STEFAN + "time.T = inf\n", "time.T"),
    ("evolve", STEFAN + "time.T = 0\n", "time.T"),
    ("evolve", STEFAN + "time.T = 0.001\ntime.snapshots = 1.0\n",
     "time.snapshots"),
    ("evolve", STEFAN + "time.snapshots = -1\n", "time.snapshots"),
    ("evolve", STEFAN + "time.snapshots = 0.001,nan\n", "time.snapshots"),
    ("evolve", STEFAN + "seed = -1\n", "seed"),
    ("solve", "preset = artificial_bc\ndomain.side = -5\n", "domain.side"),
    ("solve", CUSTOM + "domain.x_max = inf\n", "domain.x_max"),
    ("solve", CUSTOM + "domain.x_min = 2\n", "domain.x_min"),
    ("solve", CUSTOM + "grid.pad_x = 0\n", "grid.pad_x"),
    ("solve", CUSTOM + "newton.max_iter = 0\n", "newton.max_iter"),
    *[("solve", "preset = artificial_bc\ndomain.side = %s\n" % side,
       "domain.side") for side in ("1e300", "1e200", "1e-300", "5e-324")],
    ("solve", CUSTOM + "domain.x_max = 1e200\n", "domain.x_max"),
    ("solve", CUSTOM + "domain.x_max = 1e-300\n", "domain.x_max"),
    ("solve", CUSTOM + "contour.level = nan\n", "contour.level"),
    ("solve", CUSTOM + "refine.thresholds = nan\n", "refine.thresholds"),
    ("solve", CUSTOM + "stopping.thresholds = 1e-6,1e-3\n",
     "stopping.thresholds"),
    ("solve", CUSTOM + "stopping.thresholds = -1\n", "stopping.thresholds"),
    ("solve", "preset = obstacle\nsolver = bogus\n", "solver")],
    ids=["depth_negative", "initial_scale_negative", "depth_70",
         "initial_scale_above_depth", "thresholds_nan", "regrid_every_0",
         "T_nan", "T_inf", "T_0", "snapshot_after_T", "snapshot_negative",
         "snapshot_nan", "seed_negative", "side_negative", "x_max_inf",
         "x_min_above_x_max", "pad_x_0", "max_iter_0", "side_1e300",
         "side_1e200", "side_1e-300", "side_5e-324", "x_max_1e200",
         "x_max_1e-300", "contour_level_nan", "refine_thresholds_nan",
         "thresholds_increasing", "thresholds_negative", "solver_bogus"])
def test_cli_rejects_out_of_range_run_parameters(tmp_path, verb, text,
                                                 field):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    r = _run_cli([verb, str(cfg), "--out", str(tmp_path / "o")],
                 cwd=str(tmp_path))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("config error:"), r.stderr
    assert "'%s'" % field in r.stderr
    assert not (tmp_path / "o").exists()     # rejected before any run


PRESET_STRATEGIES = [
    "preset = artificial_bc\n", "preset = irregular_dirichlet\n",
    "preset = punctured_neumann\n",
    *["preset = obstacle\nrefine.strategy = %s\n" % s
      for s in ("predetermined", "boundary", "operator")],
    *["preset = stefan\nrefine.strategy = %s\n" % s
      for s in ("uniform_fine", "uniform_coarse", "term", "operator")],
    "preset = custom\n",
    "preset = custom\ngrid.initial_scale = 1\ngrid.pad_x = 3\n"]


@pytest.mark.parametrize("text", PRESET_STRATEGIES, ids=[
    "artificial_bc", "irregular_dirichlet", "punctured_neumann",
    "obstacle_predetermined", "obstacle_boundary", "obstacle_operator",
    "stefan_uniform_fine", "stefan_uniform_coarse", "stefan_term",
    "stefan_operator", "custom", "custom_padded"])
def test_preset_builds_no_grid_and_seeds_policy_with_initial_cells(
        tmp_path, monkeypatch, text):
    # make_preset takes the initial cells from uniform_requests, builds no
    # quadtree, and builds only the chosen strategy; those cells are, as a
    # set, the leaves of the initial grid the run builds
    from adaptfd import harness

    class Stop(Exception):
        pass

    def refuse(*args, **kwargs):
        raise AssertionError("make_preset built a quadtree")

    scans = []
    maxima = harness._top_maxima
    monkeypatch.setattr(harness, "_top_maxima",
                        lambda *a: scans.append(a) or maxima(*a))
    monkeypatch.setattr(harness, "build_quadtree", refuse)
    cfg = parse_config(text + "grid.depth = 5\n")
    preset = make_preset(cfg)
    assert len(scans) == ("predetermined" in text)

    built = []

    def first_build(*args, **kwargs):
        built.append(build_quadtree(*args, **kwargs))
        raise Stop

    monkeypatch.setattr(harness, "build_quadtree", first_build)
    with pytest.raises(Stop):
        run_experiment(cfg, out_dir=str(tmp_path))
    leaves = set(map(tuple, built[0].leaves.tolist()))
    if preset.policy is None:
        assert "uniform_" in text
        assert {k for (_, _, k) in leaves} == {preset.initial_scale}
    else:
        cells = preset.policy.initial_cells
        assert len(cells) == len(leaves)
        assert set(map(tuple, cells.tolist())) == leaves


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs")


@pytest.mark.parametrize("name", ["farfield", "obstacle", "stefan"])
def test_shipped_configs_load(name):
    from adaptfd.harness import load_config
    cfg = load_config(os.path.join(CONFIGS, name + ".cfg"))
    bundle = make_preset(cfg)
    assert bundle.depth > 0 and bundle.kind


def test_shipped_convergence_config_rates(tmp_path):
    from adaptfd.cli import main
    assert main(["convergence", os.path.join(CONFIGS, "poisson_mms.cfg"),
                 "--out", str(tmp_path), "--quiet"]) == 0
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert lines[0] == "h,error,rate" and len(lines) == 5   # depths 3..6
    rates = [float(line.split(",")[2]) for line in lines[2:]]
    assert all(abs(rate - 2.0) < 0.2 for rate in rates), rates
