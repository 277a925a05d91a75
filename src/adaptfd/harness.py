"""Configuration-driven experiment harness.

Experiments are described by a flat key = value text file (dotted section
keys, '#' comments; every key is listed in the README).  Presets bundle a
problem, its grid strategies and thresholds; any key can be overridden.
Artifacts (solution CSV, grid dump, contour CSV, resource report, SVG plots,
solver log) are written atomically into the output directory.
"""

from __future__ import annotations

import ast
import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .adaptivity import (RefinementPolicy, free_boundary_criteria,
                         proximity_criteria, residual_criteria,
                         slope_criteria, stefan_terms_criteria)
from .contour import extract_contour
from .grid import (DomainBox, GridError, GridFunction, QuadtreeGrid,
                   build_quadtree)
from .operators import (ProblemDefinition, UpwindDirectional,
                        instantiate_builtin)
from .solvers import (StoppingPolicy, evolve, multiscale_solve, newton_solve)
from . import svgplot

PRESETS = ("artificial_bc", "irregular_dirichlet", "punctured_neumann",
           "obstacle", "stefan", "custom")


class ConfigError(Exception):
    """Bad experiment configuration; the message names the offending field."""


_KNOWN_KEYS = {
    "preset", "seed", "solver",
    "output.dir",
    "domain.side", "domain.x_min", "domain.x_max", "domain.y_min",
    "domain.y_max",
    "grid.depth", "grid.pad_x", "grid.pad_y", "grid.initial_scale",
    "refine.strategy", "refine.thresholds", "refine.scales", "refine.padding",
    "stopping.thresholds", "newton.max_iter",
    "time.T", "time.snapshots", "time.regrid_every",
    "contour.level",
    "problem.kind", "problem.f", "problem.g", "problem.chi",
    "problem.dirichlet",
}


@dataclass
class ExperimentConfig:
    preset: str = "custom"
    seed: int = 0
    solver: str | None = None
    out_dir: str = "out"
    raw: dict = field(default_factory=dict)

    def get(self, key, default=None, cast=str):
        if key not in self.raw:
            return default
        try:
            return cast(self.raw[key])
        except (TypeError, ValueError):
            raise ConfigError("config field %r has a bad value %r"
                              % (key, self.raw[key]))

    def floats(self, key, default=None):
        if key not in self.raw:
            return default
        try:
            return tuple(float(tok) for tok in self.raw[key].split(","))
        except ValueError:
            raise ConfigError("config field %r is not a float list" % key)

    def ints(self, key, default=None):
        if key not in self.raw:
            return default
        try:
            return tuple(int(tok) for tok in self.raw[key].split(","))
        except ValueError:
            raise ConfigError("config field %r is not an int list" % key)


def parse_config(text: str) -> ExperimentConfig:
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("config line %d is not 'key = value'" % lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError("unknown config key %r" % key)
        raw[key] = value
    cfg = ExperimentConfig(raw=raw)
    cfg.preset = raw.get("preset", "custom")
    if cfg.preset not in PRESETS:
        raise ConfigError("config field 'preset' must be one of %s"
                          % (PRESETS,))
    cfg.seed = cfg.get("seed", 0, int)
    cfg.solver = raw.get("solver")
    cfg.out_dir = raw.get("output.dir", "out")
    return cfg


def load_config(path: str) -> ExperimentConfig:
    """The config in a file; ConfigError naming the path when the file
    cannot be read."""
    return parse_config(read_text(path))


def read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read %r: %s" % (path, exc)) from None


# ---------------------------------------------------------------------------
# config expressions: an ast whitelist compiled to one numpy function

_NAMES = ("x", "y", "r", "theta", "pi", "e")
_FUNCS = {name: getattr(np, name) for name in
          ("sin", "cos", "tan", "exp", "log", "sqrt", "hypot", "arctan2",
           "abs", "minimum", "maximum", "sign", "where")}
_FUNCS.update(min=np.minimum, max=np.maximum)
_OPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
        ast.Div: np.divide, ast.Pow: np.power, ast.UAdd: np.positive,
        ast.USub: np.negative, ast.Not: np.logical_not,
        ast.And: np.logical_and, ast.Or: np.logical_or,
        ast.Lt: np.less, ast.LtE: np.less_equal, ast.Gt: np.greater,
        ast.GtE: np.greater_equal, ast.Eq: np.equal, ast.NotEq: np.not_equal}


def expression(text: str, field: str):
    """Compile a config expression to fn(x, y) of node arrays or scalars.
    Each ast node must be in the grammar README lists; nothing reaches
    eval, and anything else raises ConfigError naming the field."""

    def reject(node):
        what = ast.get_source_segment(text, node) or type(node).__name__
        raise ConfigError("config field %r: %r is not allowed in an "
                          "expression" % (field, what))

    def op(node):
        return _OPS.get(type(node)) or reject(node)

    def build(node):
        # a function of the bindings env; comparisons and logical operators
        # give 1.0 or 0.0, as bools count in Python arithmetic
        kind = type(node)
        if kind is ast.Constant and type(node.value) in (int, float):
            value = float(node.value)
            return lambda env: value
        if kind is ast.Name and node.id in _NAMES:
            return lambda env: env[node.id]
        if kind is ast.BinOp:
            f, parts = op(node.op), [node.left, node.right]
        elif kind is ast.UnaryOp:
            f, parts = op(node.op), [node.operand]
        elif kind is ast.BoolOp:
            g, parts = op(node.op), node.values
            f = lambda *v: functools.reduce(g, v)
        elif kind is ast.Compare:
            gs, parts = [op(o) for o in node.ops], [node.left,
                                                    *node.comparators]
            f = lambda *v: functools.reduce(np.logical_and, [
                g(a, b) for g, a, b in zip(gs, v, v[1:])])
        elif kind is ast.IfExp:
            f, parts = np.where, [node.test, node.body, node.orelse]
        elif kind is ast.Call and type(node.func) is ast.Name:
            f, parts = _FUNCS.get(node.func.id), node.args
            if f is None or node.keywords \
                    or len(parts) != getattr(f, "nin", 3):  # where takes 3
                reject(node)
        else:
            reject(node)
        args = [build(p) for p in parts]
        return lambda env: 1.0 * f(*[a(env) for a in args])

    try:
        body = build(ast.parse(text, mode="eval").body)
    except (SyntaxError, ValueError, OverflowError, RecursionError) as exc:
        raise ConfigError("config field %r is not an expression: %s"
                          % (field, exc)) from None
    return lambda x, y: body({"x": x, "y": y, "r": np.hypot(x, y),
                              "theta": np.arctan2(y, x), "pi": np.pi,
                              "e": np.e})


def dirichlet_walls(gfun):
    return (lambda x, y, nx, ny: 0.0,
            lambda x, y, nx, ny: 1.0,
            lambda x, y, nx, ny: gfun(x, y))


def uniform_requests(box: DomainBox, depth: int, scale: int) -> np.ndarray:
    """Every scale-k lattice square (a, b, k), as an (m, 3) int array."""
    a, b = np.meshgrid(*[np.arange(0, 1 << depth, 1 << scale)] * 2,
                       indexing="ij")
    return np.stack([a.ravel(), b.ravel(), np.full(a.size, scale)], axis=1)


def _top_maxima(fn, box: DomainBox, count: int, samples: int = 200):
    """Interior local maxima of fn on a scan lattice, highest first, each
    more than 0.2 from every higher one kept."""
    xs = np.linspace(box.x_min, box.x_max, samples + 1)
    ys = np.linspace(box.y_min, box.y_max, samples + 1)
    G = np.broadcast_to(fn(xs[None, :], ys[:, None]), (samples + 1,) * 2)
    # the 3 x 3 neighbourhood of every interior lattice point
    patch = np.stack([G[dj:dj + samples - 1, di:di + samples - 1]
                      for dj in range(3) for di in range(3)])
    v = G[1:samples, 1:samples]
    j, i = np.nonzero((v > 0) & (v >= patch.max(0)) & (v > patch.min(0)))
    x, y, v = xs[i + 1], ys[j + 1], v[j, i]
    out = []
    for k in np.lexsort((y, x, v))[::-1].tolist():
        if all(math.hypot(x[k] - a, y[k] - b) > 0.2 for (a, b) in out):
            out.append((float(x[k]), float(y[k])))
        if len(out) == count:
            break
    return out


# ---------------------------------------------------------------------------
# presets

def _obstacle_fn(x, y):
    v = x * x * np.where(x < 0, 2.0 * np.sin(np.pi * y) ** 2, 1.0)
    r = np.hypot(x, y)
    return v * np.where(r > 0.25, np.exp(-r), 1.0)


OBSTACLE_WALL_LIFT = 0.20          # wall data sit this far above the obstacle

STEFAN_BACKGROUND = 0.5            # ice depth below zero = latent-heat budget
STEFAN_BUMPS = (((-0.30, -0.25), 0.35, 2.0),
                ((0.35, -0.10), 0.30, 1.6),
                ((0.00, 0.40), 0.32, 1.8))


def stefan_initial(x, y):
    v = -STEFAN_BACKGROUND
    for ((cx, cy), r, a) in STEFAN_BUMPS:
        d2 = ((x - cx) ** 2 + (y - cy) ** 2) / (r * r)
        v = v + np.where(d2 < 1.0, a * (1.0 - d2) ** 2, 0.0)
    return v


@dataclass
class PresetBundle:
    kind: str
    problem: ProblemDefinition
    box: DomainBox
    depth: int
    initial_scale: int
    solver: str
    policy: RefinementPolicy | None = None
    stopping: StoppingPolicy | None = None
    T: float = 0.0
    snapshots: tuple = ()
    contour: tuple | None = None     # ("level", v) or ("contact", eps)
    regions: tuple = ()              # radii splitting the resource report
    u0: object = None                # initial values fn for evolution


def _build_initial(box, depth, scale, pads=None):
    return build_quadtree(uniform_requests(box, depth, scale), depth, box,
                          pads=pads)


def obstacle_strategies(box, depth, initial_cells):
    """The three grid strategies compared on the obstacle problem."""
    targets = _top_maxima(_obstacle_fn, box, 5)
    reach = max(box.lx, box.ly)
    pre = RefinementPolicy(
        proximity_criteria(targets, reach=reach),
        thresholds=(reach - 3.6, reach - 2.2, reach - 1.3, reach - 0.7),
        scales=(3, 2, 1, 0), initial_cells=initial_cells)
    tau = 0.25
    bnd = RefinementPolicy(
        free_boundary_criteria(closeness=tau),
        thresholds=(1e-9, 0.5 * tau, 0.75 * tau, 0.9 * tau),
        scales=(3, 2, 1, 0), initial_cells=initial_cells)
    opr = RefinementPolicy(
        residual_criteria(),
        thresholds=(0.02, 0.08, 0.3, 1.2),
        scales=(3, 2, 1, 0), initial_cells=initial_cells)
    return {"predetermined": pre, "boundary": bnd, "operator": opr}


def stefan_strategies(initial_cells):
    term = RefinementPolicy(stefan_terms_criteria(), thresholds=(2.0, 8.0),
                            scales=(1, 0), initial_cells=initial_cells)
    oper = RefinementPolicy(residual_criteria(), thresholds=(2.0, 8.0),
                            scales=(1, 0), initial_cells=initial_cells)
    return {"term": term, "operator": oper}


def make_preset(cfg: ExperimentConfig) -> PresetBundle:
    name = cfg.preset
    if name == "artificial_bc":
        side = cfg.get("domain.side", 200.0, float)
        depth = cfg.get("grid.depth", 13, int)
        box = DomainBox(-side / 2, side / 2, -side / 2, side / 2)

        def source(x, y):
            r = np.hypot(x, y)
            return r * np.maximum(1.0 - r, 0.0) * np.sin(5 * np.pi * r) \
                * np.cos(3 * np.arctan2(y, x))

        robin = (lambda x, y, nx, ny: (x * nx + y * ny) / np.hypot(x, y),
                 lambda x, y, nx, ny: 1.0 / np.hypot(x, y),
                 lambda x, y, nx, ny: 0.0)
        problem = ProblemDefinition(f=source, robin=robin)
        initial_scale = cfg.get("grid.initial_scale", depth - 1, int)
        g0_cells = _grid_cells(box, depth, initial_scale)
        # near-field rings: radius below 2^m demands a cell of physical size
        # side/2^13 * 2^(2m); the ladder matches across doubled domains
        radii = [1.0 * (1 << m) for m in range(7)]
        scales = [2 * m - _depth_shift(side, depth) for m in range(7)]
        scales = [max(0, min(depth - 1, s)) for s in scales]
        policy = RefinementPolicy(
            proximity_criteria([(0.0, 0.0)], reach=side),
            thresholds=tuple(side - r for r in reversed(radii)),
            scales=tuple(reversed(scales)),
            initial_cells=g0_cells)
        return PresetBundle(
            kind="poisson_dirichlet", problem=problem, box=box, depth=depth,
            initial_scale=initial_scale, solver="newton_multiscale",
            policy=policy, stopping=StoppingPolicy(
                cfg.floats("stopping.thresholds", (1e-8,))),
            contour=("level", 0.0), regions=(1.0, 10.0, side / 2))

    if name == "irregular_dirichlet":
        depth = cfg.get("grid.depth", 8, int)
        box = DomainBox(0.0, 1.0, 0.0, 1.0)
        chi = lambda x, y: (x - 0.5) ** 2 + (y - 0.5) ** 2 < 0.35 ** 2
        problem = ProblemDefinition(chi=chi, f=lambda x, y: 4.0,
                                    g=lambda x, y: 0.0)
        initial_scale = cfg.get("grid.initial_scale", 4, int)
        cells = _grid_cells(box, depth, initial_scale)
        policy = RefinementPolicy(residual_criteria(),
                                  thresholds=(0.5, 2.0, 8.0, 32.0),
                                  scales=(3, 2, 1, 0), initial_cells=cells)
        return PresetBundle(
            kind="bc_composite", problem=problem, box=box, depth=depth,
            initial_scale=initial_scale, solver="newton_multiscale",
            policy=policy, stopping=StoppingPolicy(
                cfg.floats("stopping.thresholds", (1e-6, 1e-8, 1e-9, 1e-10))),
            contour=("level", 0.05))

    if name == "punctured_neumann":
        depth = cfg.get("grid.depth", 8, int)
        box = DomainBox(0.0, 1.0, 0.0, 1.0)
        cx, cy, rho = 0.5, 0.5, 0.25
        band = 0.08

        def dist(x, y):
            return np.hypot(x - cx, y - cy)

        hop = UpwindDirectional(
            region=lambda x, y: ((rho - band <= dist(x, y))
                                 & (dist(x, y) < rho)),
            direction=lambda x, y: ((cx - x) / np.maximum(dist(x, y), 1e-12),
                                    (cy - y) / np.maximum(dist(x, y), 1e-12)),
            rhs=lambda x, y: 1.0)
        problem = ProblemDefinition(
            chi=lambda x, y: dist(x, y) >= rho,
            f=lambda x, y: 0.0, g=lambda x, y: 0.0, first_order=hop)
        initial_scale = cfg.get("grid.initial_scale", 4, int)
        cells = _grid_cells(box, depth, initial_scale)
        weight = lambda x, y: np.where(abs(dist(x, y) - rho) < 0.12,
                                       1.0, 0.1)
        policy = RefinementPolicy(slope_criteria(weight),
                                  thresholds=(0.2, 0.8, 1.6, 3.2),
                                  scales=(3, 2, 1, 0), initial_cells=cells)
        return PresetBundle(
            kind="bc_composite", problem=problem, box=box, depth=depth,
            initial_scale=initial_scale, solver="newton_multiscale",
            policy=policy, stopping=StoppingPolicy(
                cfg.floats("stopping.thresholds", (1e-7, 1e-8, 1e-9, 1e-10))),
            contour=("level", -0.01))

    if name == "obstacle":
        depth = cfg.get("grid.depth", 8, int)
        box = DomainBox(-4.0, 4.0, -4.0, 4.0)
        lift = OBSTACLE_WALL_LIFT
        problem = ProblemDefinition(
            g=_obstacle_fn,
            robin=dirichlet_walls(lambda x, y: _obstacle_fn(x, y) + lift))
        initial_scale = cfg.get("grid.initial_scale", 5, int)
        cells = _grid_cells(box, depth, initial_scale)
        strategies = obstacle_strategies(box, depth, cells)
        strategy = cfg.get("refine.strategy", "boundary")
        if strategy not in strategies:
            raise ConfigError("config field 'refine.strategy' must be one of "
                              "%s" % sorted(strategies))
        return PresetBundle(
            kind="obstacle", problem=problem, box=box, depth=depth,
            initial_scale=initial_scale, solver="newton_multiscale",
            policy=strategies[strategy], stopping=StoppingPolicy(
                cfg.floats("stopping.thresholds",
                           (1e-6, 1e-7, 1e-8, 1e-9, 1e-9))),
            contour=("contact", 1e-8))

    if name == "stefan":
        depth = cfg.get("grid.depth", 7, int)
        box = DomainBox(-1.0, 1.0, -1.0, 1.0)
        problem = ProblemDefinition(g=lambda x, y: -STEFAN_BACKGROUND)
        coarse_scale = cfg.get("grid.initial_scale", 2, int)
        cells = _grid_cells(box, depth, coarse_scale)
        strategy = cfg.get("refine.strategy", "operator")
        policy = None
        initial_scale = coarse_scale
        if strategy == "uniform_fine":
            initial_scale = 0
        elif strategy == "uniform_coarse":
            pass
        else:
            strategies = stefan_strategies(cells)
            if strategy not in strategies:
                raise ConfigError(
                    "config field 'refine.strategy' must be one of %s"
                    % sorted(list(strategies) +
                             ["uniform_fine", "uniform_coarse"]))
            policy = strategies[strategy]
        return PresetBundle(
            kind="stefan", problem=problem, box=box, depth=depth,
            initial_scale=initial_scale, solver="euler_evolve", policy=policy,
            T=cfg.get("time.T", 0.025, float),
            snapshots=cfg.floats("time.snapshots", (0.005, 0.025)),
            contour=("level", 0.0), u0=stefan_initial)

    # custom: everything from config expressions
    depth = cfg.get("grid.depth", 6, int)
    box = DomainBox(cfg.get("domain.x_min", 0.0, float),
                    cfg.get("domain.x_max", 1.0, float),
                    cfg.get("domain.y_min", 0.0, float),
                    cfg.get("domain.y_max", 1.0, float))
    kind = cfg.get("problem.kind", "poisson_dirichlet")
    f = expression(cfg.get("problem.f", "0"), "problem.f")
    gexpr = expression(cfg.get("problem.g", "0"), "problem.g")
    chi = robin = None
    if "problem.chi" in cfg.raw:
        kind = cfg.get("problem.kind", "bc_composite")
        if kind != "bc_composite":
            raise ConfigError("config fields 'problem.chi' and 'problem.kind' "
                              "conflict: chi selects bc_composite, not %r"
                              % kind)
        chi = expression(cfg.raw["problem.chi"], "problem.chi")
    if "problem.dirichlet" in cfg.raw:
        robin = dirichlet_walls(expression(cfg.raw["problem.dirichlet"],
                                           "problem.dirichlet"))
    problem = ProblemDefinition(chi=chi, f=f, g=gexpr, robin=robin)
    initial_scale = cfg.get("grid.initial_scale", max(depth - 2, 0), int)
    cells = _grid_cells(box, depth, initial_scale)
    thresholds = cfg.floats("refine.thresholds", (1e9,))
    scales = cfg.ints("refine.scales", None)
    if scales is not None and len(scales) != len(thresholds):
        raise ConfigError("config fields 'refine.thresholds' and "
                          "'refine.scales' must have equal lengths")
    try:
        policy = RefinementPolicy(
            residual_criteria(), thresholds=thresholds, scales=scales,
            extra_padding=cfg.get("refine.padding", 0, int),
            initial_cells=cells)
    except GridError as exc:
        raise ConfigError("config fields 'refine.thresholds', "
                          "'refine.scales' and 'refine.padding': %s" % exc)
    return PresetBundle(
        kind=kind, problem=problem, box=box, depth=depth,
        initial_scale=initial_scale,
        solver=cfg.solver or "newton_multiscale", policy=policy,
        stopping=StoppingPolicy(cfg.floats("stopping.thresholds", (1e-9,))),
        T=cfg.get("time.T", 0.01, float),
        snapshots=cfg.floats("time.snapshots", ()),
        contour=("level", cfg.get("contour.level", 0.0, float)),
        u0=gexpr)


def _depth_shift(side, depth):
    # ring scales assume physical cell size side/2^depth * 2^scale equal to
    # the reference layout (side 200, depth 13); shift keeps sizes aligned
    return round(math.log2((side / (1 << depth)) / (200.0 / (1 << 13))))


def _grid_cells(box, depth, scale):
    return _build_initial(box, depth, scale).leaves


# ---------------------------------------------------------------------------
# resource accounting

@dataclass
class ResourceReport:
    regions: list                  # (name, node_share, time_share, area_share)
    newton_by_size: dict           # node-count bucket -> linear solves
    total_solves: int = 0

    def check(self):
        for col in (1, 2, 3):
            total = sum(row[col] for row in self.regions)
            if abs(total - 1.0) > 1e-6:
                raise GridError("resource shares sum to %.8f" % total)


def region_shares(radii, grid: QuadtreeGrid) -> np.ndarray:
    """Share of the grid's nodes in each region: the disc r < radii[0], the
    rings between consecutive radii and the rest."""
    region = np.searchsorted(radii, np.hypot(grid.x, grid.y), side="right")
    counts = np.bincount(region, minlength=len(radii) + 1)
    return counts / counts.sum()


def region_names(radii):
    names = []
    prev = None
    for bound in radii:
        names.append("r<%g" % bound if prev is None
                     else "%g<r<%g" % (prev, bound))
        prev = bound
    names.append("r>%g" % prev)
    return names


def region_areas(radii, box: DomainBox):
    # radii never exceed the half-width, so disc areas are exact
    areas = []
    prev = 0.0
    for bound in radii:
        areas.append(math.pi * (bound ** 2 - prev ** 2))
        prev = bound
    total = box.lx * box.ly
    areas.append(total - math.pi * prev ** 2)
    return [a / total for a in areas]


def resource_report(grid: QuadtreeGrid, radii, log, region_counts) -> ResourceReport:
    """Node, Newton-time and area shares per region; region_counts maps the
    generation of each solved grid to its node shares per region."""
    nr = len(radii) + 1
    node_share = region_shares(radii, grid)

    time_by_region = np.zeros(nr)
    total_time = 0.0
    buckets = {}
    for entry in log:
        if entry.get("event") != "newton":
            continue
        wall = entry.get("wall", 0.0)
        total_time += wall
        frac = region_counts.get(entry.get("generation"))
        if frac is not None:
            time_by_region += wall * frac
        bucket = "<5000" if entry["nodes"] < 5000 else ">=5000"
        buckets[bucket] = buckets.get(bucket, 0) + 1
    if total_time > 0:
        time_share = time_by_region / total_time
        missing = 1.0 - time_share.sum()
        time_share = time_share + missing * node_share
    else:
        time_share = node_share.copy()

    rows = list(zip(region_names(radii), node_share, time_share,
                    region_areas(radii, grid.box)))
    rep = ResourceReport(rows, buckets, sum(buckets.values()))
    rep.check()
    return rep


# ---------------------------------------------------------------------------
# experiment driver

def atomic_write(path: str, text: str):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def solution_csv(grid: QuadtreeGrid, u: GridFunction) -> str:
    lines = ["i,j,x,y,u"]
    for row in zip(grid.i.tolist(), grid.j.tolist(), grid.x.tolist(),
                   grid.y.tolist(), u.values.tolist()):
        lines.append("%d,%d,%r,%r,%r" % row)
    return "\n".join(lines) + "\n"


def contour_csv(polylines) -> str:
    lines = ["curve_id,seq,x,y"]
    for cid, poly in enumerate(polylines):
        for seq, (x, y) in enumerate(poly):
            lines.append("%d,%d,%r,%r" % (cid, seq, float(x), float(y)))
    return "\n".join(lines) + "\n"


def report_csv(rep: ResourceReport) -> str:
    lines = ["region,node_share,time_share,area_share"]
    for (name, ns, ts, ar) in rep.regions:
        lines.append("%s,%r,%r,%r" % (name, float(ns), float(ts), float(ar)))
    return "\n".join(lines) + "\n"


def solver_log_csv(log) -> str:
    lines = ["event,nodes,iteration,residual,wall,t,tau"]
    for e in log:
        lines.append("%s,%s,%s,%s,%s,%s,%s" % (
            e.get("event", ""), e.get("nodes", ""), e.get("iteration", ""),
            e.get("residual", ""), e.get("wall", ""), e.get("t", ""),
            e.get("tau", "")))
    return "\n".join(lines) + "\n"


def _extract(preset: PresetBundle, grid, u):
    mode, val = preset.contour
    if mode == "contact":
        g = preset.problem.sample(preset.problem.g, grid, name="g")
        return extract_contour(grid, u.values,
                               predicate=lambda v: v - g - val)
    return extract_contour(grid, u.values, level=val)


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Run one experiment; returns a dict of results and writes artifacts."""
    preset = make_preset(cfg)
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    pads = None
    if "grid.pad_x" in cfg.raw or "grid.pad_y" in cfg.raw:
        pads = (cfg.get("grid.pad_x", 1, int), cfg.get("grid.pad_y", 1, int))
    g0 = build_quadtree(uniform_requests(preset.box, preset.depth,
                                         preset.initial_scale),
                        preset.depth, preset.box, pads=pads)
    factory = lambda gr: instantiate_builtin(preset.kind, preset.problem, gr)
    log = []
    results = {"log": log, "preset": preset}
    solver = cfg.solver or preset.solver

    try:
        if solver == "euler_evolve":
            op = factory(g0)
            u0 = GridFunction(g0, preset.problem.sample(preset.u0, g0,
                                                         name="u0"))
            snapshots = preset.snapshots or (preset.T,)
            snaps = evolve(op, g0, u0, T=preset.T, policy=preset.policy,
                           snapshot_times=snapshots, seed=cfg.seed,
                           regrid_every=cfg.get("time.regrid_every", 1, int),
                           log=log)
            results["snapshots"] = snaps
            for (gr, u, t) in snaps:
                tag = ("%g" % t).replace(".", "p")
                polys = _extract(preset, gr, u)
                atomic_write(os.path.join(out, "solution_t%s.csv" % tag),
                             solution_csv(gr, u))
                atomic_write(os.path.join(out, "contours_t%s.csv" % tag),
                             contour_csv(polys))
                results.setdefault("contours", {})[t] = polys
            gr, u, _ = snaps[-1]
        elif solver == "newton_multiscale":
            region_counts = {}
            radii = preset.regions

            def watch(grid):
                region_counts[grid.generation] = region_shares(radii, grid)

            u0 = GridFunction(g0, np.zeros(g0.n_nodes()))
            if preset.kind == "obstacle":
                g = preset.problem.sample(preset.problem.g, g0, name="g")
                u0 = GridFunction(g0, np.maximum(g, 0.0))
            gr, u = multiscale_solve(
                factory, g0, u0, preset.policy, preset.stopping,
                max_iter=cfg.get("newton.max_iter", 100, int), log=log,
                grid_watch=watch if radii else None)
            polys = _extract(preset, gr, u)
            atomic_write(os.path.join(out, "solution.csv"),
                         solution_csv(gr, u))
            atomic_write(os.path.join(out, "contours.csv"),
                         contour_csv(polys))
            results["contours"] = polys
            if radii:
                rep = resource_report(gr, radii, log, region_counts)
                atomic_write(os.path.join(out, "report.csv"), report_csv(rep))
                results["report"] = rep
        else:
            raise ConfigError("config field 'solver' must be "
                              "newton_multiscale or euler_evolve")
    finally:
        atomic_write(os.path.join(out, "solver_log.csv"), solver_log_csv(log))

    atomic_write(os.path.join(out, "grid.txt"), gr.dump())
    atomic_write(os.path.join(out, "grid.svg"),
                 svgplot.grid_svg(gr))
    atomic_write(os.path.join(out, "solution.svg"),
                 svgplot.solution_svg(gr, u, results.get("contours")))
    results["grid"] = gr
    results["u"] = u
    return results


# ---------------------------------------------------------------------------
# convergence studies

def manufactured_poisson(grid: QuadtreeGrid, exact, lap_exact):
    problem = ProblemDefinition(f=lambda x, y: -lap_exact(x, y), g=exact)
    op = instantiate_builtin("poisson_dirichlet", problem, grid)
    u = newton_solve(op, grid, GridFunction(grid, np.zeros(grid.n_nodes())),
                     StoppingPolicy([1e-11]))
    ex = problem.sample(exact, grid, name="exact")
    return float(np.max(np.abs(u.values - ex)))


def convergence_report(family: str, depths, box=None) -> list:
    """Max-norm errors and observed orders for a manufactured solution.

    family: 'uniform' (all-fine grids), 'dangling' (a fixed band of fine
    cells, so hanging nodes persist at every resolution), or 'linear'
    (exact on the stencils; errors at round-off).
    """
    if family not in ("uniform", "dangling", "linear"):
        raise ConfigError("config field 'refine.strategy' must be uniform, "
                          "dangling or linear, not %r" % (family,))
    depths = list(depths)
    if len(depths) < 2:
        raise ConfigError("config field 'scales' needs at least 2 entries")
    if box is None:
        box = DomainBox(0.0, 1.0, 0.0, 1.0)
    if family == "linear":
        exact = lambda x, y: 0.75 * x - 0.5 * y + 0.25
        lap = lambda x, y: 0.0
    else:
        exact = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        lap = lambda x, y: -2 * np.pi ** 2 * exact(x, y)

    rows = []
    prev_err = None
    for depth in depths:
        if family == "dangling":
            fine = uniform_requests(box, depth, 0)
            reqs = np.concatenate([uniform_requests(box, depth, 1),
                                   fine[fine[:, 0] < 1 << depth - 1]])
            grid = build_quadtree(reqs, depth, box, pads=(1, 1))
        else:
            grid = _build_initial(box, depth, 0)
        err = manufactured_poisson(grid, exact, lap)
        h = box.lx / (1 << depth)
        rate = math.log2(prev_err / err) if prev_err else float("nan")
        rows.append((h, err, rate))
        prev_err = err
    return rows


def convergence_csv(rows) -> str:
    lines = ["h,error,rate"]
    for (h, e, r) in rows:
        lines.append("%r,%r,%s" % (h, e, "" if math.isnan(r) else repr(r)))
    return "\n".join(lines) + "\n"
