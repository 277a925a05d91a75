"""Command-line interface: solve / evolve / convergence / render.

Exit codes: 0 success, 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

import numpy as np

from . import svgplot
from .grid import GridError, QuadtreeGrid, default_pads, parse_dump
from .harness import (ConfigError, convergence_csv, convergence_report,
                      listed, load_config, read_text, run_experiment,
                      atomic_write)


def _add_common(p):
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", help="override the output directory")
    p.add_argument("--quiet", action="store_true")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="adaptfd",
        description="Monotone finite differences on adaptive quadtree grids")
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb in ("solve", "evolve"):
        p = sub.add_parser(verb, help="%s an experiment config" % verb)
        p.add_argument("config")
        _add_common(p)

    p = sub.add_parser("convergence", help="manufactured-solution study")
    p.add_argument("config")
    _add_common(p)

    p = sub.add_parser("render", help="re-render SVGs from dumped artifacts")
    p.add_argument("grid_dump")
    p.add_argument("solution_csv")
    _add_common(p)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except GridError as exc:
        print("solver failure: %s" % exc, file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    if args.verb in ("solve", "evolve"):
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        cfg.solver = {"solve": "newton_multiscale",
                      "evolve": "euler_evolve"}[args.verb]
        out = args.out or cfg.out_dir
        results = run_experiment(cfg, out_dir=out)
        if not args.quiet:
            grid = results["grid"]
            print("%s: %d cells, %d nodes -> %s"
                  % (cfg.preset, grid.n_cells(), grid.n_nodes(), out))
        return 0

    if args.verb == "convergence":
        cfg = load_config(args.config)
        family = cfg.get("refine.strategy", "uniform")
        depths = cfg.get("refine.scales", None, listed(int))
        if depths is None:
            raise ConfigError("config field 'refine.scales' (grid depths) "
                              "is required for convergence runs")
        rows = convergence_report(family, depths)
        text = convergence_csv(rows)
        out = args.out or cfg.out_dir
        os.makedirs(out, exist_ok=True)
        atomic_write(os.path.join(out, "convergence.csv"), text)
        if not args.quiet:
            print(text, end="")
        return 0

    # render
    cells, box, depth = parse_dump(read_text(args.grid_dump))
    values = {}
    rows = csv.DictReader(read_text(args.solution_csv).splitlines())
    for row in rows:
        try:
            ij, v = (int(row["i"]), int(row["j"])), float(row["u"])
        except (KeyError, TypeError, ValueError):
            raise GridError("solution line %d is not an i,j,u record"
                            % rows.line_num) from None
        if values.setdefault(ij, v) is not v:
            raise GridError("solution has two rows for (%d, %d)" % ij)
    grid = QuadtreeGrid(box, depth, default_pads(box), cells)
    u = []
    for ij in zip(grid.i.tolist(), grid.j.tolist()):
        if ij not in values:
            raise GridError("solution has no row for grid node (%d, %d)" % ij)
        if not math.isfinite(values[ij]):
            raise GridError("solution value %r at grid node (%d, %d) is not "
                            "finite" % ((values[ij],) + ij))
        u.append(values.pop(ij))
    if values:
        raise GridError("solution row (%d, %d) is no grid node" % min(values))
    u = np.array(u)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    atomic_write(os.path.join(out, "grid.svg"), svgplot.grid_svg(grid))
    atomic_write(os.path.join(out, "solution.svg"),
                 svgplot.solution_svg(grid, u))
    if not args.quiet:
        print("rendered %d cells -> %s" % (grid.n_cells(), out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
