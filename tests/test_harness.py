import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adaptfd
import oracles
from adaptfd import harness
from adaptfd.cli import main as cli_main
from adaptfd.harness import (_KNOWN_KEYS, ConfigError, _obstacle_fn,
                             _top_maxima, convergence_report, expression,
                             make_preset,
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


def test_failed_atomic_write_keeps_the_old_artifact_and_no_temp_file(
        tmp_path):
    path = tmp_path / "a.csv"
    harness.atomic_write(str(path), "old\n")
    # the text cannot be encoded: nothing of it reaches a.csv
    with pytest.raises(UnicodeEncodeError):
        harness.atomic_write(str(path), "bad\ud800")
    assert path.read_text() == "old\n"
    assert sorted(os.listdir(tmp_path)) == ["a.csv"]
    # the write itself fails, as on a full disk
    real_open = open

    def full_disk(*args, **kwargs):
        fh = real_open(*args, **kwargs)
        fh.write = mock.Mock(side_effect=OSError(28, "No space left"))
        return fh

    with mock.patch("builtins.open", full_disk):
        with pytest.raises(OSError, match="No space"):
            harness.atomic_write(str(path), "new\n")
    assert path.read_text() == "old\n"
    assert sorted(os.listdir(tmp_path)) == ["a.csv"]
    # the rename fails: a directory stands where the artifact goes
    (tmp_path / "d.csv").mkdir()
    with pytest.raises(OSError):
        harness.atomic_write(str(tmp_path / "d.csv"), "text\n")
    assert sorted(os.listdir(tmp_path)) == ["a.csv", "d.csv"]


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


def test_region_time_keyed_by_log_position():
    # two solved grids with equal node counts but different region shares:
    # each Newton iteration is credited to the shares of the last grid
    # announced before its log row
    from adaptfd.grid import GridFunction
    from adaptfd.harness import region_shares, resource_report, solver_log_csv
    from adaptfd.operators import ProblemDefinition, instantiate_builtin
    from adaptfd.solvers import StoppingPolicy, newton_solve

    box = DomainBox(0.0, 8.0, -4.0, 4.0)
    radii = (2.0, 5.0)
    grids = [build_quadtree(np.array([[a, 9, 0]]), 4, box) for a in (3, 13)]
    assert grids[0].n_nodes() == grids[1].n_nodes()
    shares = []
    for grid in grids:
        counts = np.zeros(len(radii) + 1)
        for x, y in zip(grid.x.tolist(), grid.y.tolist()):
            r = math.hypot(x, y)
            counts[sum(r >= bound for bound in radii)] += 1
        shares.append(region_shares(radii, grid))
        assert np.array_equal(shares[-1], counts / counts.sum())
    assert not np.allclose(shares[0], shares[1])
    log = [{"event": "newton", "nodes": grids[0].n_nodes(), "wall": 1.0},
           {"event": "newton", "nodes": grids[1].n_nodes(), "wall": 3.0}]
    rep = resource_report(grids[1], radii, log,
                          [(0, shares[0]), (1, shares[1])])
    want = 0.25 * shares[0] + 0.75 * shares[1]
    assert [row[2] for row in rep.regions] == pytest.approx(want)

    # a Newton row names no grid beyond its node count; the solver log
    # keeps its columns
    prob = ProblemDefinition(f=lambda x, y: 1.0, g=lambda x, y: 0.0)
    op = instantiate_builtin("poisson_dirichlet", prob, grids[1])
    log = []
    newton_solve(op, GridFunction(grids[1], np.zeros(
        grids[1].n_nodes())), StoppingPolicy([1e-10]), log=log)
    assert log and all(set(e) == {"event", "nodes", "iteration", "residual",
                                  "wall"} for e in log)
    assert solver_log_csv(log).splitlines()[0] == \
        "event,nodes,iteration,residual,wall,t,tau"


@pytest.mark.parametrize("text", [
    "preset = artificial_bc\ndomain.side = 10\ngrid.depth = 6\n",
    "preset = obstacle\ngrid.depth = 6\n"],
    ids=["artificial_bc", "obstacle"])
def test_solver_rows_follow_their_announced_grid(text):
    # resource_report credits a newton or policy row to the last grid
    # announced before it: each such row has that grid's node count
    from adaptfd.grid import GridFunction
    from adaptfd.operators import instantiate_builtin
    from adaptfd.solvers import multiscale_solve

    preset = make_preset(parse_config(text))
    g0 = build_quadtree(uniform_requests(preset.box, preset.depth,
                                         preset.initial_scale),
                        preset.depth, preset.box)
    log, announced = [], []
    multiscale_solve(
        instantiate_builtin(preset.kind, preset.problem, g0),
        GridFunction(g0, preset.problem.sample(preset.u0, g0)),
        preset.policy, preset.stopping, max_iter=preset.max_iter, log=log,
        grid_watch=lambda grid: announced.append((len(log), grid.n_nodes())))
    assert len(announced) > 2
    rows = [(pos, e) for pos, e in enumerate(log)
            if e["event"] in ("newton", "policy")]
    assert rows and rows[0][0] >= announced[0][0]
    for pos, entry in rows:
        nodes = [n for start, n in announced if start <= pos][-1]
        assert entry["nodes"] == nodes


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


def test_solution_csv_joins_the_fields_of_the_formatted_rows():
    # joined node text and repr of each value: byte for byte the rows the
    # "%s,%s,%s,%s,%r" form makes, for zeros of both signs, subnormals, the
    # largest magnitudes, infinities and NaN
    from adaptfd.grid import GridFunction
    box = DomainBox(-0.3, 0.7, -1.0, 0.0)
    grid = build_quadtree(np.array([[0, 0, 0]]), 2, box, pads=(1, 1))
    pool = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
            -1.7976931348623157e308, 1e-300, -2.5e300, math.inf, -math.inf,
            math.nan, 1.0 / 3.0, -7.0, 123456789.0]
    u = np.resize(np.array(pool), grid.n_nodes())
    rows = zip(*grid.node_text, u.tolist())
    want = "\n".join(["i,j,x,y,u"] + ["%s,%s,%s,%s,%r" % row
                                      for row in rows]) + "\n"
    got = harness.solution_csv(grid, GridFunction(grid, u))
    assert got == want
    assert "-0.0" in got and "5e-324" in got and "nan" in got


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
    # nothing in the package needs scipy.interpolate; only
    # hausdorff_distance needs scipy.spatial and only newton_solve
    # scipy.sparse.linalg, each imported on first call; a run should not
    # pay for importing what it does not call (or scipy.special/optimize)
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


def test_cli_rejects_an_unknown_kind(tmp_path):
    cfg = tmp_path / "bogus.cfg"
    cfg.write_text("preset = custom\nproblem.kind = bogus\ngrid.depth = 2\n")
    r = _run_cli(["solve", str(cfg), "--out", str(tmp_path / "o")],
                 cwd=str(tmp_path))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("config error:"), r.stderr
    assert "problem.kind" in r.stderr and "bogus" in r.stderr
    assert not (tmp_path / "o").exists()


def test_cli_rejects_bc_composite_without_chi(tmp_path):
    cfg = tmp_path / "nochi.cfg"
    cfg.write_text("preset = custom\nproblem.kind = bc_composite\n"
                   "problem.f = 1\nproblem.g = 0\ngrid.depth = 2\n")
    r = _run_cli(["solve", str(cfg), "--out", str(tmp_path / "o")],
                 cwd=str(tmp_path))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("config error:"), r.stderr
    assert "problem.kind" in r.stderr and "problem.chi" in r.stderr
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


@pytest.mark.parametrize("family, scales", [
    ("uniform", "3,-1"), ("uniform", "3,40"), ("dangling", "0,2"),
    ("uniform", "4")])
def test_cli_convergence_rejects_depths_it_cannot_take(tmp_path, capsys,
                                                       family, scales):
    # a negative depth, one past grid.MAX_DEPTH, a dangling band at depth 0
    # and a single depth are config errors naming refine.scales
    cfg = tmp_path / "conv.cfg"
    cfg.write_text("refine.strategy = %s\nrefine.scales = %s\n"
                   % (family, scales))
    out = tmp_path / "c"
    assert cli_main(["convergence", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "refine.scales" in err, err
    assert not out.exists()


@pytest.mark.parametrize("family, scales", [("uniform", "1,0"),
                                            ("linear", "2,1")])
def test_cli_convergence_writes_no_rate_against_a_zero_error(tmp_path,
                                                             family, scales):
    # depth 0 pins its four nodes to the exact solution, and the linear
    # family is exact on depth 1: an error of 0 has no observed order
    cfg = tmp_path / "conv.cfg"
    cfg.write_text("refine.strategy = %s\nrefine.scales = %s\n"
                   % (family, scales))
    out = tmp_path / "c"
    assert cli_main(["convergence", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "h,error,rate" and len(lines) == 3
    rows = [line.split(",") for line in lines[1:]]
    assert float(rows[1][1]) == 0.0
    assert [r[2] for r in rows] == ["", ""]


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
    # cells that do not tile the lattice: one overlapping, one missing,
    # one misaligned and one of negative scale
    unit = DomainBox(0.0, 1.0, 0.0, 1.0)
    g = build_quadtree(uniform_requests(unit, 2, 0), 2, unit)
    dump = g.dump()
    assert "cell 0 0 0\n" in dump
    (tmp_path / "u.csv").write_text("i,j,u\n" + "".join(
        "%d,%d,0.0\n" % ij for ij in zip(g.i.tolist(), g.j.tolist())))
    for bad in (dump + "cell 0 0 1\n", dump.replace("cell 0 0 0\n", ""),
                dump.replace("cell 0 0 0\n", "cell 1 0 1\n"),
                dump.replace("cell 0 0 0\n", "cell 0 0 -1\n")):
        (tmp_path / "bad.txt").write_text(bad)
        r = _run_cli(["render", "bad.txt", "u.csv", "--out", "r"],
                     cwd=str(tmp_path))
        assert r.returncode == 3, r.stderr
        assert r.stderr.startswith("solver failure:"), r.stderr
        assert not (tmp_path / "r").exists()


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
    # nor is a row that is no node of the dump, or a second row for a node
    # that would overwrite the first: each exits 3 naming its (i, j)
    run_experiment(parse_config("preset = custom\nproblem.f = 1\n"
                                "problem.g = 0\nproblem.dirichlet = 0\n"
                                "grid.depth = 3\n"),
                   out_dir=str(tmp_path / "o"))
    lines = (tmp_path / "o" / "solution.csv").read_text().splitlines()
    i, j, x, y, _ = lines[5].split(",")
    for extra, ij in (("999,999,9.0,9.0,5.0", "(999, 999)"),
                      (",".join([i, j, x, y, "5.0"]), "(%s, %s)" % (i, j))):
        (tmp_path / "u.csv").write_text("\n".join(lines + [extra]) + "\n")
        r = _run_cli(["render", "o/grid.txt", "u.csv", "--out", "r"],
                     cwd=str(tmp_path))
        assert r.returncode == 3, r.stderr
        assert r.stderr.startswith("solver failure:"), r.stderr
        assert ij in r.stderr, r.stderr
        assert not (tmp_path / "r").exists()


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
         "x_min_above_x_max", "max_iter_0", "side_1e300",
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
    "preset = custom\n"]


@pytest.mark.parametrize("text", PRESET_STRATEGIES, ids=[
    "artificial_bc", "irregular_dirichlet", "punctured_neumann",
    "obstacle_predetermined", "obstacle_boundary", "obstacle_operator",
    "stefan_uniform_fine", "stefan_uniform_coarse", "stefan_term",
    "stefan_operator", "custom"])
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


@pytest.mark.parametrize("verb, text, needs", [
    ("solve", "preset = stefan\n", "stopping thresholds"),
    ("evolve", "preset = obstacle\n", "final time")],
    ids=["stefan_solve", "obstacle_evolve"])
def test_solver_the_preset_cannot_run_is_a_config_error(
        tmp_path, monkeypatch, capsys, verb, text, needs):
    # stefan has no stopping thresholds and obstacle no final time: the
    # preset rejects the solver before any grid is built or file written
    from adaptfd import harness
    from adaptfd.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(harness, "build_quadtree", refuse)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([verb, str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'solver'" in err
    assert needs in err
    assert not out.exists()
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


@pytest.mark.parametrize("key, value", [
    ("time.regrid_every", "1"), ("refine.padding", "0"),
    ("solver", "euler_evolve"), ("grid.pad_x", "1"), ("grid.pad_y", "1")])
def test_removed_keys_are_unknown(tmp_path, monkeypatch, capsys, key, value):
    # the verb picks the solver, a policy regrids after every coarse step and
    # refines no padding ring, and the box alone sets the scale padding:
    # these keys, even at those values, are refused before any grid is built
    from adaptfd.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(harness, "build_quadtree", refuse)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = stefan\ngrid.depth = 3\n%s = %s\n" % (key, value))
    out = tmp_path / "out"
    assert main(["evolve", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert "unknown config key %r" % key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
@pytest.mark.parametrize("preset", sorted(harness._PRESETS))
def test_every_preset_runs_from_its_depth_alone(tmp_path, capsys, preset,
                                                depth):
    # a preset's default initial scale lies within any depth set, and
    # stefan's default snapshots end at the final time set: no run is
    # refused over a key its config never set
    text = "preset = %s\ngrid.depth = %d\n" % (preset, depth)
    if preset == "stefan":
        text += "time.T = 0.002\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    verb = "evolve" if preset == "stefan" else "solve"
    code = cli_main([verb, str(cfg), "--out", str(out), "--quiet"])
    assert code == 0, capsys.readouterr().err
    assert (out / "grid.txt").exists()


@pytest.mark.parametrize("text, snapshots", [
    ("preset = stefan\n", (0.005, 0.025)),
    ("preset = stefan\ntime.T = 0.01\n", (0.005, 0.01)),
    ("preset = stefan\ntime.T = 0.002\n", (0.002,)),
    ("preset = stefan\ntime.T = 0.03\n", (0.005, 0.025, 0.03)),
    ("preset = stefan\ntime.T = 0.01\ntime.snapshots = 0.003\n", (0.003,)),
    ("preset = custom\n", (0.01,)),
    ("preset = custom\ntime.T = 0.3\n", (0.3,))],
    ids=["stefan", "stefan_T_0.01", "stefan_T_0.002", "stefan_T_0.03",
         "stefan_set", "custom", "custom_T_0.3"])
def test_default_snapshots_end_at_the_final_time(text, snapshots):
    # the preset's default snapshot times below time.T, then time.T; a set
    # time.snapshots replaces them
    assert make_preset(parse_config(text)).snapshots == snapshots


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


EXTREMES = ("0", "-1", "1e300", "5e-324", "nan", "inf", "-inf", "")
# time.T and time.snapshots values above T_CAP are cut to it: with at most
# depth 3, every evolve a draw starts then ends after a few steps
T_CAP = 0.01


def _capped(text):
    return ",".join(repr(T_CAP) if float(t or 0) > T_CAP else t
                    for t in text.split(","))


def _entries(keys):
    # one to four distinct keys, each with an extreme value or a list of them
    return st.lists(st.tuples(
        st.sampled_from(sorted(keys)),
        st.one_of(st.sampled_from(EXTREMES),
                  st.lists(st.sampled_from(EXTREMES), min_size=2,
                           max_size=3).map(",".join))),
        min_size=1, max_size=4, unique_by=lambda e: e[0])


def _assert_typed_exit(verb, lines):
    # any value a key can take ends in success (0), a config error (2) or a
    # solver failure (3), and a run whose solve started leaves its log
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stderr(io.StringIO()), \
            mock.patch.object(harness, "evolve", wraps=harness.evolve) as ev, \
            mock.patch.object(harness, "multiscale_solve",
                              wraps=harness.multiscale_solve) as ms:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        out = os.path.join(tmp, "out")
        code = cli_main([verb, path, "--out", out, "--quiet"])
        assert code in (0, 2, 3), lines
        if ev.called or ms.called:
            assert os.path.exists(os.path.join(out, "solver_log.csv")), lines


def _entry_lines(entries):
    return ["%s = %s" % (key, _capped(value) if key in (
        "time.T", "time.snapshots") else value) for key, value in entries]


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(verb=st.sampled_from(["solve", "evolve"]),
       entries=_entries(_KNOWN_KEYS), depth=st.integers(0, 3))
def test_extreme_config_values_exit_with_a_typed_code(verb, entries, depth):
    _assert_typed_exit(verb, _entry_lines(entries)
                       + ["grid.depth = %d" % depth])


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(preset=st.sampled_from(sorted(harness._PRESETS)),
       entries=_entries(_KNOWN_KEYS - {"preset"}), depth=st.integers(0, 3),
       scale=st.one_of(st.none(), st.integers(0, 3)))
def test_extreme_preset_config_values_exit_with_a_typed_code(
        preset, entries, depth, scale):
    # the same guard on each preset, run by the verb it needs; a drawn
    # initial scale, which the entries may override, starts runs from
    # scales other than the preset's default
    lines = ["preset = %s" % preset]
    if scale is not None:
        lines.append("grid.initial_scale = %d" % min(scale, depth))
    _assert_typed_exit("evolve" if preset == "stefan" else "solve",
                       lines + _entry_lines(entries)
                       + ["grid.depth = %d" % depth])


# no depth drawn is past 3 unless the range check rejects it: a depth in
# [4, MAX_DEPTH] may need more memory than the machine has
DEPTHS = (-2, -1, 0, 1, 2, 3, 32, 40)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(family=st.one_of(st.sampled_from(["uniform", "dangling", "linear"]),
                        st.sampled_from(EXTREMES)),
       depths=st.lists(st.sampled_from(DEPTHS), min_size=1, max_size=3))
def test_extreme_convergence_configs_exit_with_a_typed_code(family, depths):
    # every family and depth list the convergence verb can be given ends in
    # a study (0) or a config error (2)
    lines = ["refine.strategy = %s" % family,
             "refine.scales = %s" % ",".join(map(str, depths))]
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stderr(io.StringIO()):
        path = os.path.join(tmp, "conv.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        code = cli_main(["convergence", path, "--out",
                         os.path.join(tmp, "out"), "--quiet"])
        assert code in (0, 2), lines
