"""Monotone finite differences for degenerate elliptic and parabolic PDEs on
adaptive, 2:1-balanced quadtree grids.

The pieces: quadtree construction and node classification (grid), degenerate
elliptic stencil rows (stencils), built-in problem operators with exact
generalized Jacobians and local CFL bounds (operators), asynchronous forward
Euler and semismooth Newton with coarse-to-fine continuation (solvers),
refinement criteria and regridding (adaptivity), level-set extraction
(contour), and a configuration-driven experiment harness (harness, cli).
"""

from .grid import (DomainBox, GridFunction, QuadtreeGrid, build_quadtree,
                   classify_nodes, init_from_scattered)
from .operators import OperatorSpec, ProblemDefinition, instantiate_builtin
from .solvers import (StoppingPolicy, TimeGroups, build_schedule, euler_step,
                      evolve, multiscale_solve, newton_solve)
from .adaptivity import (RefinementPolicy, compute_refinement,
                         evaluate_criteria, regrid)
from .contour import extract_contour, hausdorff_distance

__all__ = [
    "DomainBox", "GridFunction", "QuadtreeGrid", "build_quadtree",
    "classify_nodes", "init_from_scattered",
    "OperatorSpec", "ProblemDefinition", "instantiate_builtin",
    "StoppingPolicy", "TimeGroups", "build_schedule", "euler_step", "evolve",
    "multiscale_solve", "newton_solve",
    "RefinementPolicy", "compute_refinement", "evaluate_criteria", "regrid",
    "extract_contour", "hausdorff_distance",
]

__version__ = "0.1.0"
