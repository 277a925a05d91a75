"""Configuration-driven experiment harness.

Experiments are described by a flat key = value text file (dotted section
keys, '#' comments; every key is listed in the README).  Presets bundle a
problem, its grid strategies and thresholds; any key can be overridden.
Artifacts (solution CSV, grid dump, contour CSV, resource report, SVG plots,
solver log) are written atomically into the output directory.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .adaptivity import (RefinementPolicy, free_boundary_criteria,
                         proximity_criteria, residual_criteria,
                         slope_criteria, stefan_terms_criteria)
from .contour import extract_contour
from .grid import (MAX_DEPTH, DomainBox, GridError, GridFunction,
                   QuadtreeGrid, _spacings, build_quadtree)
from .operators import (BUILTIN_KINDS, ProblemDefinition,
                        UpwindDirectional, instantiate_builtin)
from .solvers import (StoppingPolicy, evolve, multiscale_solve, newton_solve)
from . import svgplot

class ConfigError(Exception):
    """Bad experiment configuration; the message names the offending field."""


_KNOWN_KEYS = {
    "preset", "seed",
    "output.dir",
    "domain.side", "domain.x_min", "domain.x_max", "domain.y_min",
    "domain.y_max",
    "grid.depth", "grid.initial_scale",
    "refine.strategy", "refine.thresholds", "refine.scales",
    "stopping.thresholds", "newton.max_iter",
    "time.T", "time.snapshots",
    "contour.level",
    "problem.kind", "problem.f", "problem.g", "problem.chi",
    "problem.dirichlet",
}


@dataclass
class ExperimentConfig:
    preset: str = "custom"
    seed: int = 0
    solver: str | None = None     # set by the verb; None: the preset's
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


def listed(kind):
    """A cast for ExperimentConfig.get: comma-separated values of kind."""
    return lambda text: tuple(map(kind, text.split(",")))


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
    if cfg.preset not in _PRESETS:
        raise ConfigError("config field 'preset' must be one of %s"
                          % (tuple(_PRESETS),))
    cfg.seed = cfg.get("seed", 0, int)
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
    u0: object = None                # initial values fn; None: zero
    max_iter: int = 100              # Newton iterations per solve


def _ladder(criteria, thresholds, scales=(3, 2, 1, 0)):
    """A grid strategy: fn(initial cells) -> the policy that refines along
    this threshold ladder.  criteria() runs only for the chosen strategy."""
    return lambda cells: RefinementPolicy(criteria(), thresholds, scales,
                                          initial_cells=cells)


def _box(keys, depth, *bounds):
    """The DomainBox of bounds, on which a depth-level grid has node
    distances the stencils can use; ConfigError naming keys otherwise."""
    box = _checked(keys, DomainBox, *bounds)
    _checked(keys + ("grid.depth",), _spacings, box, depth)
    return box


def _artificial_bc(cfg, depth):
    side = cfg.get("domain.side", 200.0, float)
    box = _box(("domain.side",), depth, -side / 2, side / 2, -side / 2,
               side / 2)

    def source(x, y):
        r = np.hypot(x, y)
        return r * np.maximum(1.0 - r, 0.0) * np.sin(5 * np.pi * r) \
            * np.cos(3 * np.arctan2(y, x))

    robin = (lambda x, y, nx, ny: (x * nx + y * ny) / np.hypot(x, y),
             lambda x, y, nx, ny: 1.0 / np.hypot(x, y),
             lambda x, y, nx, ny: 0.0)
    # near-field rings: radius below 2^m demands a cell of physical size
    # side/2^13 * 2^(2m); the ladder matches across doubled domains.  The
    # shift keeps the physical cell size side/2^depth * 2^scale equal to the
    # reference layout's (side 200, depth 13)
    shift = round(math.log2((side / (1 << depth)) / (200.0 / (1 << 13))))
    radii = [1.0 * (1 << m) for m in range(7)]
    scales = [max(0, min(depth - 1, 2 * m - shift)) for m in range(7)]
    return dict(
        kind="poisson_dirichlet", problem=ProblemDefinition(f=source,
                                                            robin=robin),
        box=box, contour=("level", 0.0),
        # the rings stay inside the box: region_areas needs increasing radii
        regions=tuple(r for r in (1.0, 10.0) if r < side / 2) + (side / 2,),
        strategies={None: _ladder(
            lambda: proximity_criteria([(0.0, 0.0)], reach=side),
            tuple(side - r for r in reversed(radii)),
            tuple(reversed(scales)))})


def _irregular_dirichlet(cfg, depth):
    chi = lambda x, y: (x - 0.5) ** 2 + (y - 0.5) ** 2 < 0.35 ** 2
    return dict(
        kind="bc_composite", box=DomainBox(0.0, 1.0, 0.0, 1.0),
        problem=ProblemDefinition(chi=chi, f=lambda x, y: 4.0,
                                  g=lambda x, y: 0.0),
        contour=("level", 0.05),
        strategies={None: _ladder(residual_criteria, (0.5, 2.0, 8.0, 32.0))})


def _punctured_neumann(cfg, depth):
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
    weight = lambda x, y: np.where(abs(dist(x, y) - rho) < 0.12, 1.0, 0.1)
    return dict(
        kind="bc_composite", box=DomainBox(0.0, 1.0, 0.0, 1.0),
        problem=ProblemDefinition(
            chi=lambda x, y: dist(x, y) >= rho,
            f=lambda x, y: 0.0, g=lambda x, y: 0.0, first_order=hop),
        contour=("level", -0.01),
        strategies={None: _ladder(lambda: slope_criteria(weight),
                                  (0.2, 0.8, 1.6, 3.2))})


def _obstacle(cfg, depth):
    box = DomainBox(-4.0, 4.0, -4.0, 4.0)
    reach = max(box.lx, box.ly)
    tau = 0.25
    return dict(
        kind="obstacle", box=box, problem=ProblemDefinition(
            g=_obstacle_fn,
            robin=dirichlet_walls(lambda x, y: _obstacle_fn(x, y)
                                  + OBSTACLE_WALL_LIFT)),
        contour=("contact", 1e-8),
        u0=lambda x, y: np.maximum(_obstacle_fn(x, y), 0.0),
        # the three grid strategies compared on the obstacle problem
        strategies={
            "predetermined": _ladder(
                lambda: proximity_criteria(_top_maxima(_obstacle_fn, box, 5),
                                           reach=reach),
                (reach - 3.6, reach - 2.2, reach - 1.3, reach - 0.7)),
            "boundary": _ladder(
                lambda: free_boundary_criteria(closeness=tau),
                (1e-9, 0.5 * tau, 0.75 * tau, 0.9 * tau)),
            "operator": _ladder(residual_criteria, (0.02, 0.08, 0.3, 1.2))})


def _stefan(cfg, depth):
    return dict(
        kind="stefan", box=DomainBox(-1.0, 1.0, -1.0, 1.0),
        problem=ProblemDefinition(g=lambda x, y: -STEFAN_BACKGROUND),
        solver="euler_evolve", contour=("level", 0.0), u0=stefan_initial,
        strategies={
            "term": _ladder(stefan_terms_criteria, (2.0, 8.0), (1, 0)),
            "operator": _ladder(residual_criteria, (2.0, 8.0), (1, 0)),
            "uniform_coarse": None, "uniform_fine": None})


def _custom(cfg, depth):
    """Everything from config expressions."""
    keys = ("domain.x_min", "domain.x_max", "domain.y_min", "domain.y_max")
    box = _box(keys, depth, *(cfg.get(key, default, float) for key, default
                              in zip(keys, (0.0, 1.0, 0.0, 1.0))))
    f = expression(cfg.get("problem.f", "0"), "problem.f")
    gexpr = expression(cfg.get("problem.g", "0"), "problem.g")
    chi = robin = None
    if "problem.chi" in cfg.raw:
        chi = expression(cfg.raw["problem.chi"], "problem.chi")
    kind = cfg.get("problem.kind",
                   "poisson_dirichlet" if chi is None else "bc_composite")
    _check("problem.kind", kind, kind in BUILTIN_KINDS,
           "one of %s" % ", ".join(BUILTIN_KINDS))
    if chi is not None and kind != "bc_composite":
        raise ConfigError("config fields 'problem.chi' and 'problem.kind' "
                          "conflict: chi selects bc_composite, not %r" % kind)
    if chi is None and kind == "bc_composite":
        raise ConfigError("config field 'problem.kind' bc_composite needs "
                          "'problem.chi', the PDE region")
    if "problem.dirichlet" in cfg.raw:
        robin = dirichlet_walls(expression(cfg.raw["problem.dirichlet"],
                                           "problem.dirichlet"))
    level = cfg.get("contour.level", 0.0, float)
    _check("contour.level", level, math.isfinite(level), "finite")
    return dict(
        kind=kind, box=box,
        problem=ProblemDefinition(chi=chi, f=f, g=gexpr, robin=robin),
        contour=("level", level),
        # an evolution starts from g, a static solve from zero
        u0=gexpr if cfg.solver == "euler_evolve" else None,
        strategies={None: _ladder(
            residual_criteria, cfg.get("refine.thresholds", (1e9,),
                                       listed(float)),
            cfg.get("refine.scales", None, listed(int)))})


# Per preset: fn(cfg, depth) -> what sets it apart, the PresetBundle fields
# kind, problem, box, contour and any of solver, regions, u0, and
# "strategies": refine.strategy (None if not read) -> fn(initial cells) ->
# policy, or None; then the defaults of grid.depth, grid.initial_scale (fn
# of the depth, within it), stopping.thresholds, (time.T, times: the default
# snapshots are those below time.T, then time.T) and refine.strategy, None
# where the preset does not read the key.
_PRESETS = {
    "artificial_bc": (_artificial_bc, 13, lambda d: max(d - 1, 0), (1e-8,),
                      None, None),
    "irregular_dirichlet": (_irregular_dirichlet, 8, lambda d: min(4, d),
                            (1e-6, 1e-8, 1e-9, 1e-10), None, None),
    "punctured_neumann": (_punctured_neumann, 8, lambda d: min(4, d),
                          (1e-7, 1e-8, 1e-9, 1e-10), None, None),
    "obstacle": (_obstacle, 8, lambda d: min(5, d),
                 (1e-6, 1e-7, 1e-8, 1e-9, 1e-9), None, "boundary"),
    "stefan": (_stefan, 7, lambda d: min(2, d), None,
               (0.025, (0.005, 0.025)), "operator"),
    "custom": (_custom, 6, lambda d: max(d - 2, 0), (1e-9,), (0.01, ()),
               None),
}


def _check(key, value, ok: bool, rule: str):
    if not ok:
        raise ConfigError("config field %r must be %s, not %r"
                          % (key, rule, value))


def _checked(keys, build, *args):
    """build(*args), the library object that checks the values of the config
    keys; its GridError becomes a ConfigError naming them."""
    try:
        return build(*args)
    except GridError as exc:
        *rest, last = map(repr, keys)
        names = "s %s and %s" % (", ".join(rest), last) if rest else " " + last
        raise ConfigError("config field%s: %s" % (names, exc)) from None


def make_preset(cfg: ExperimentConfig) -> PresetBundle:
    """The run cfg describes: its preset's defaults, overridden by each key
    cfg sets.  Every run parameter is read and range-checked here, once."""
    spec, depth, scale_of, stopping, times, strategy = _PRESETS[cfg.preset]
    _check("seed", cfg.seed, cfg.seed >= 0, ">= 0")
    depth = cfg.get("grid.depth", depth, int)
    _check("grid.depth", depth, 0 <= depth <= MAX_DEPTH,
           "in [0, %d]" % MAX_DEPTH)
    scale = cfg.get("grid.initial_scale", scale_of(depth), int)
    _check("grid.initial_scale", scale, 0 <= scale <= depth,
           "in [0, grid.depth]")
    max_iter = cfg.get("newton.max_iter", 100, int)
    _check("newton.max_iter", max_iter, max_iter >= 1, ">= 1")
    fields = spec(cfg, depth)
    solver = fields["solver"] = cfg.solver or fields.get(
        "solver", "newton_multiscale")
    _check("solver", solver, solver in ("newton_multiscale", "euler_evolve"),
           "newton_multiscale or euler_evolve")
    # what each solver reads that only some presets define
    need, what = {"newton_multiscale": (stopping, "stopping thresholds"),
                  "euler_evolve": (times, "final time")}[solver]
    if need is None:
        raise ConfigError("'solver' %s cannot run preset %r, which has no %s"
                          % (solver, cfg.preset, what))
    strategies = fields.pop("strategies")
    if strategy is not None:
        strategy = cfg.get("refine.strategy", strategy)
        if strategy not in strategies:
            raise ConfigError("config field 'refine.strategy' must be one of "
                              "%s" % sorted(strategies))
    if strategies[strategy] is not None:
        cells = uniform_requests(fields["box"], depth, scale)
        fields["policy"] = _checked(
            ("refine.thresholds", "refine.scales"), strategies[strategy],
            cells)
    if strategy == "uniform_fine":     # stefan's all-fine reference grid
        scale = 0
    if stopping is not None:
        fields["stopping"] = _checked(
            ("stopping.thresholds",), StoppingPolicy,
            cfg.get("stopping.thresholds", stopping, listed(float)))
    if times is not None:
        T = cfg.get("time.T", times[0], float)
        _check("time.T", T, 0 < T < math.inf, "finite and > 0")
        snapshots = cfg.get("time.snapshots", tuple(
            t for t in times[1] if t < T) + (T,), listed(float))
        _check("time.snapshots", snapshots,
               all(0 <= t <= T for t in snapshots), "in [0, time.T]")
        fields.update(T=T, snapshots=snapshots)
    return PresetBundle(depth=depth, initial_scale=scale, max_iter=max_iter,
                        **fields)


# ---------------------------------------------------------------------------
# resource accounting

@dataclass
class ResourceReport:
    regions: list                  # (name, node_share, time_share, area_share)

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
    """Node, Newton-time and area shares per region; region_counts lists
    (len(log), node shares per region) of each solved grid as it was
    announced, so a log row belongs to the last grid announced before it."""
    nr = len(radii) + 1
    node_share = region_shares(radii, grid)
    shares = dict(region_counts)

    time_by_region = np.zeros(nr)
    total_time = 0.0
    frac = None
    for pos, entry in enumerate(log):
        frac = shares.get(pos, frac)
        if entry.get("event") not in ("newton", "policy"):
            continue
        wall = entry.get("wall", 0.0)
        total_time += wall
        if frac is not None:
            time_by_region += wall * frac
    if total_time > 0:
        time_share = time_by_region / total_time
        missing = 1.0 - time_share.sum()
        time_share = time_share + missing * node_share
    else:
        time_share = node_share.copy()

    rows = list(zip(region_names(radii), node_share, time_share,
                    region_areas(radii, grid.box)))
    rep = ResourceReport(rows)
    rep.check()
    return rep


# ---------------------------------------------------------------------------
# experiment driver

def atomic_write(path: str, text: str):
    """Write text to path through path + ".tmp", so that path holds either
    its old content or all of text; a failed write removes the temporary
    file and re-raises."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _csv(header: str, fmt: str, rows) -> str:
    return "\n".join([header] + [fmt % row for row in rows]) + "\n"


def solution_csv(grid: QuadtreeGrid, u: GridFunction) -> str:
    return _csv("i,j,x,y,u", "%s,%s,%s,%s,%r", zip(
        *grid.node_text, u.values.tolist()))


def contour_csv(polylines) -> str:
    return _csv("curve_id,seq,x,y", "%d,%d,%r,%r", [
        (cid, seq, float(x), float(y)) for cid, poly in enumerate(polylines)
        for seq, (x, y) in enumerate(poly)])


def report_csv(rep: ResourceReport) -> str:
    return _csv("region,node_share,time_share,area_share", "%s,%r,%r,%r", [
        (name, float(ns), float(ts), float(ar))
        for (name, ns, ts, ar) in rep.regions])


def solver_log_csv(log) -> str:
    cols = ("event", "nodes", "iteration", "residual", "wall", "t", "tau")
    return _csv(",".join(cols), ",".join(["%s"] * len(cols)),
                [tuple(e.get(c, "") for c in cols) for e in log])


def _extract(preset: PresetBundle, grid, u):
    mode, val = preset.contour
    if mode == "contact":
        g = preset.problem.sample(preset.problem.g, grid, name="g")
        return extract_contour(grid, u.values - g - val, 0.0)
    return extract_contour(grid, u.values, val)


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Run one experiment; returns a dict of results and writes artifacts."""
    preset = make_preset(cfg)
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    g0 = build_quadtree(uniform_requests(preset.box, preset.depth,
                                         preset.initial_scale),
                        preset.depth, preset.box)
    log = []
    results = {"log": log, "preset": preset}

    try:
        u0 = GridFunction(g0, preset.problem.sample(preset.u0, g0, name="u0"))
        # the operator is built in the call: no reference to it outlives the
        # solve, so its rows are freed before the artifacts are written
        if preset.solver == "euler_evolve":
            snaps = evolve(
                instantiate_builtin(preset.kind, preset.problem, g0), u0,
                T=preset.T, policy=preset.policy,
                snapshot_times=preset.snapshots, seed=cfg.seed, log=log)
            results["snapshots"] = snaps
        else:
            region_counts = []
            radii = preset.regions

            def watch(grid):
                region_counts.append((len(log), region_shares(radii, grid)))

            gr, u = multiscale_solve(
                instantiate_builtin(preset.kind, preset.problem, g0), u0,
                preset.policy, preset.stopping, max_iter=preset.max_iter,
                log=log, grid_watch=watch if radii else None)
            if radii:
                rep = resource_report(gr, radii, log, region_counts)
                atomic_write(os.path.join(out, "report.csv"), report_csv(rep))
                results["report"] = rep
            snaps = [(gr, u, None)]
        # one solution/contour pair per snapshot, named by its time; a
        # static solve has the one pair, untimed
        contours = {}
        for (gr, u, t) in snaps:
            tag = "" if t is None else "_t" + ("%g" % t).replace(".", "p")
            contours[t] = _extract(preset, gr, u)
            atomic_write(os.path.join(out, "solution%s.csv" % tag),
                         solution_csv(gr, u))
            atomic_write(os.path.join(out, "contours%s.csv" % tag),
                         contour_csv(contours[t]))
        polylines = [p for group in contours.values() for p in group]
        results["contours"] = contours.pop(None, contours)
    finally:
        atomic_write(os.path.join(out, "solver_log.csv"), solver_log_csv(log))

    atomic_write(os.path.join(out, "grid.txt"), gr.dump())
    atomic_write(os.path.join(out, "grid.svg"),
                 svgplot.grid_svg(gr))
    atomic_write(os.path.join(out, "solution.svg"),
                 svgplot.solution_svg(gr, u.values, polylines))
    results["grid"] = gr
    results["u"] = u
    return results


# ---------------------------------------------------------------------------
# convergence studies

def manufactured_poisson(grid: QuadtreeGrid, exact, lap_exact):
    problem = ProblemDefinition(f=lambda x, y: -lap_exact(x, y), g=exact)
    op = instantiate_builtin("poisson_dirichlet", problem, grid)
    u = newton_solve(op, GridFunction(grid, np.zeros(grid.n_nodes())),
                     StoppingPolicy([1e-11]))
    ex = problem.sample(exact, grid, name="exact")
    return float(np.max(np.abs(u.values - ex)))


def convergence_report(family: str, depths) -> list:
    """Max-norm errors and observed orders for a manufactured solution.

    family: 'uniform' (all-fine grids), 'dangling' (a fixed band of fine
    cells, so hanging nodes persist at every resolution), or 'linear'
    (exact on the stencils; errors at round-off).  Each depth lies in
    [0, MAX_DEPTH], or [1, MAX_DEPTH] for 'dangling'; the order is NaN
    where either error is 0.
    """
    if family not in ("uniform", "dangling", "linear"):
        raise ConfigError("config field 'refine.strategy' must be uniform, "
                          "dangling or linear, not %r" % (family,))
    depths = list(depths)
    if len(depths) < 2:
        raise ConfigError("config field 'refine.scales' needs at least 2 "
                          "entries")
    # a dangling band is half the lattice, so it needs a depth of 1
    low = int(family == "dangling")
    for depth in depths:
        _check("refine.scales", depth, low <= depth <= MAX_DEPTH,
               "depths in [%d, %d]" % (low, MAX_DEPTH))
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
        else:
            reqs = uniform_requests(box, depth, 0)
        grid = build_quadtree(reqs, depth, box)
        err = manufactured_poisson(grid, exact, lap)
        h = box.lx / (1 << depth)
        rate = math.log2(prev_err / err) if prev_err and err else math.nan
        rows.append((h, err, rate))
        prev_err = err
    return rows


def convergence_csv(rows) -> str:
    return _csv("h,error,rate", "%r,%r,%s", [
        (h, e, "" if math.isnan(r) else repr(r)) for (h, e, r) in rows])
