import numpy as np
import pytest

from adaptfd.adaptivity import RefinementPolicy
from adaptfd.grid import (DomainBox, DomainError, GridError, GridFunction,
                          build_quadtree, init_from_scattered)
from adaptfd.harness import uniform_requests
from adaptfd.operators import ProblemDefinition, instantiate_builtin
from adaptfd.solvers import (LinearSolveError, StoppingPolicy,
                             build_schedule, newton_solve)
from adaptfd.stencils import laplacian_system
from oracles import dump_rows, dump_triplets

UNIT = DomainBox(0.0, 1.0, 0.0, 1.0)


def uniform_grid(depth):
    return build_quadtree(uniform_requests(UNIT, depth, 0), depth, UNIT,
                          pads=(1, 1))


def test_row_dump_lists_weights():
    g = uniform_grid(2)
    L, const, active, _ = laplacian_system(g)
    rows = np.flatnonzero(active)
    text = dump_rows(g, L, const, rows)
    lines = text.strip().splitlines()
    assert len(lines) == len(rows)
    first = lines[0].split()
    assert first[0] == "row"
    count = int(first[5])
    assert len(first) == 6 + 3 * count


def test_triplet_dump_roundtrips_matrix():
    g = uniform_grid(2)
    prob = ProblemDefinition(f=lambda x, y: 0.0, g=lambda x, y: 0.0)
    op = instantiate_builtin("poisson_dirichlet", prob, g)
    J = op.jacobian(np.zeros(g.n_nodes()))
    text = dump_triplets(J)
    total = 0.0
    for line in text.strip().splitlines():
        r, c, v = line.split()
        total += float(v)
        int(r), int(c)
    assert total == pytest.approx(J.sum())


def test_empty_schedule_when_all_nodes_pinned():
    # the root cell alone: 4 boundary nodes
    g = build_quadtree(np.array([[0, 0, 2]]), 2, UNIT)
    prob = ProblemDefinition(f=lambda x, y: 0.0, g=lambda x, y: 0.0)
    op = instantiate_builtin("poisson_dirichlet", prob, g)
    sched = build_schedule(op, GridFunction(g, np.zeros(4)))
    assert len(sched.schedule) == 0 and sched.groups == []


def test_singular_linear_system_raises():
    # all-Neumann Laplace has a constant null space
    g = uniform_grid(3)
    neumann = (lambda *a: 1.0, lambda *a: 0.0, lambda *a: 0.0)
    prob = ProblemDefinition(f=lambda x, y: 1.0, robin=neumann)
    op = instantiate_builtin("poisson_dirichlet", prob, g)
    with pytest.raises(LinearSolveError):
        newton_solve(op, GridFunction(g, np.zeros(g.n_nodes())),
                     StoppingPolicy([1e-10]))


def test_empty_jacobian_row_raises_linear_solve_error():
    # c = d = 0 on the right half leaves those rows without weight: their
    # Jacobian rows are empty, and the factorization finds the block
    # exactly singular
    g = uniform_grid(3)
    prob = ProblemDefinition(c=lambda x, y: 1.0 * (x < 0.5),
                             d=lambda x, y: 0.0, f=lambda x, y: 1.0,
                             g=lambda x, y: 0.0)
    op = instantiate_builtin("bc_composite", prob, g)
    with pytest.raises(LinearSolveError, match="singular"):
        newton_solve(op, GridFunction(g, np.zeros(g.n_nodes())),
                     StoppingPolicy([1e-10]))


def test_policy_and_stopping_validation():
    with pytest.raises(GridError):
        StoppingPolicy([])
    with pytest.raises(GridError):
        StoppingPolicy([1e-6, 1e-3])       # must not increase
    with pytest.raises(GridError):
        StoppingPolicy([1e-6, -1.0])       # must not be negative
    with pytest.raises(GridError):
        RefinementPolicy(lambda *a: 0, thresholds=())
    with pytest.raises(GridError):
        RefinementPolicy(lambda *a: 0, thresholds=(2.0, 1.0))
    with pytest.raises(GridError):
        RefinementPolicy(lambda *a: 0, thresholds=(float("nan"),))


def test_scattered_point_outside_box_rejected():
    with pytest.raises(DomainError):
        init_from_scattered([(2.0, 0.5, 1.0)], 3, box=UNIT)
