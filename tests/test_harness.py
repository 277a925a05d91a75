import math
import os
import subprocess
import sys

import numpy as np
import pytest

import adaptfd
from adaptfd.harness import (ConfigError, convergence_report, parse_config,
                             run_experiment, region_areas, region_names)
from adaptfd.grid import DomainBox


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
    for idx, n in enumerate(grid.nodes):
        want = math.sin(math.pi * n.x) * math.sin(math.pi * n.y)
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


def same_polylines(a, b):
    return len(a) == len(b) and all(np.array_equal(p, q)
                                    for p, q in zip(a, b))


def test_region_time_keyed_by_generation():
    # two solved grids with equal node counts but different region shares:
    # each Newton iteration is credited to the shares of its own grid
    from adaptfd.grid import GridFunction, ScaleRequest, build_quadtree
    from adaptfd.harness import region_shares, resource_report, solver_log_csv
    from adaptfd.operators import ProblemDefinition, instantiate_builtin
    from adaptfd.solvers import StoppingPolicy, newton_solve

    box = DomainBox(0.0, 8.0, -4.0, 4.0)
    radii = (2.0, 5.0)
    grids = [build_quadtree([ScaleRequest(x, 0.5, 0)], 4, box, generation=gen)
             for x, gen in ((1.5, 3), (6.5, 4))]
    assert grids[0].n_nodes() == grids[1].n_nodes()
    shares = {}
    for grid in grids:
        counts = np.zeros(len(radii) + 1)
        for n in grid.nodes:
            r = math.hypot(n.x, n.y)
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
    newton_solve(op, grids[1], GridFunction(grids[1], np.zeros(
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
    want = extract_contour(grid, u.values,
                           predicate=lambda v: v - op.gvals - 1e-8)
    assert want and same_polylines(res["contours"], want)


@pytest.mark.parametrize("text", [
    "preset = obstacle\ngrid.depth = 5\n",
    "preset = stefan\ngrid.depth = 5\nrefine.strategy = uniform_fine\n"
    "time.T = 0.002\ntime.snapshots = 0.001,0.002\n"],
    ids=["obstacle", "stefan_uniform_fine"])
def test_run_path_reads_only_node_arrays(tmp_path, monkeypatch, text):
    # the per-node views are for callers outside the run: building them
    # would cost each grid a record per node
    from adaptfd.grid import QuadtreeGrid

    def refuse(self):
        raise AssertionError("a per-node view was built on the run path")

    for view in ("nodes", "node_id", "cells"):
        monkeypatch.setattr(QuadtreeGrid, view, property(refuse))
    res = run_experiment(parse_config(text), out_dir=str(tmp_path))
    assert res["grid"].n_nodes() == len(res["u"].values)


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
    uu = newton_solve(op, gu, u0, StoppingPolicy([1e-9]))
    ref = extract_contour(gu, uu.values,
                          predicate=lambda v: v - op.gvals - 1e-8)

    assert adaptive.n_nodes() < gu.n_nodes()
    coarse_cell = max(preset.box.lx / (1 << 7) * (1 << k)
                      for k in adaptive.scales())
    assert hausdorff_distance(res["contours"], ref) <= coarse_cell

    # and the demanded fine cells concentrate along the contact contour
    from adaptfd.contour import polyline_points
    from scipy.spatial import cKDTree
    tree = cKDTree(polyline_points(res["contours"]))
    fine = [(a, b) for (a, b), k in adaptive.cells.items() if k == 0]
    centers = np.array([adaptive.position(a + 0.5, b + 0.5)
                        for (a, b) in fine])
    near = tree.query(centers)[0] < 0.5
    assert np.mean(near) > 0.9


def _run_cli(args, cwd):
    # Run the child on the same adaptfd the suite imported: its src directory
    # goes first on PYTHONPATH as an absolute path, so neither a relative
    # PYTHONPATH (resolved against cwd) nor another installed copy can win.
    src = os.path.dirname(os.path.dirname(adaptfd.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "adaptfd.cli"] + args,
                          cwd=cwd, env=env, capture_output=True, text=True)


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
