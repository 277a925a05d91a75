"""Time stepping and static solvers on adaptive quadtree grids.

Parabolic problems march by asynchronous forward Euler: nodes are grouped by
nearest-neighbor distance, each group gets a stable time step from the local
CFL bound (steps differ by powers of two), and one coarse step visits every
group according to a freshly permuted schedule: Jacobi within a group,
Gauss-Seidel across groups.

Static problems use semismooth Newton with the exact generalized Jacobian
and a sparse direct solve, wrapped in coarse-to-fine continuation: solve on
the initial quadtree, admit one finer scale per stage as the refinement
criteria demand, and re-solve until the finest scale converges.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .adaptivity import (cells_as_requests, compute_refinement,
                         evaluate_criteria, regrid, transfer)
from .grid import GridError, GridFunction, QuadtreeGrid
from .operators import OperatorSpec, instantiate_builtin


class InstabilityError(GridError):
    """An explicit update exceeded its contraction bound."""


class NonconvergenceError(GridError):
    def __init__(self, residual_norm, iterations):
        super().__init__("Newton stalled at residual %.3e after %d iterations"
                         % (residual_norm, iterations))
        self.residual_norm = residual_norm
        self.iterations = iterations


class LinearSolveError(GridError):
    """The sparse linear solve failed or missed its residual tolerance."""


class ScheduleError(GridError):
    """One coarse step would take more than MAX_GROUP_VISITS group visits."""


# every group visit evaluates the operator on the whole grid
MAX_GROUP_VISITS = 1 << 12
# regrids at most: before evolve's first step, and per continuation stage
INITIAL_REGRIDS = 20
STAGE_REGRIDS = 6
# the largest linear residual of a Newton step, relative to the residual
LIN_RTOL = 1e-10


@dataclass
class StoppingPolicy:
    """Per-stage bounds (nonincreasing) on the max-norm of the residual."""
    thresholds: tuple

    def __post_init__(self):
        self.thresholds = tuple(self.thresholds)
        if not self.thresholds:
            raise GridError("stopping policy needs at least one threshold")
        if not all(0 <= t < math.inf for t in self.thresholds):
            raise GridError("stopping thresholds must be finite and >= 0")
        if any(a < b for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise GridError("stopping thresholds must be nonincreasing")

    def threshold(self, stage=None) -> float:
        if stage is None:
            return self.thresholds[-1]
        return self.thresholds[min(stage, len(self.thresholds) - 1)]


@dataclass
class TimeGroups:
    """Nodes partitioned by nearest-neighbor distance class, with one
    characteristic step per group (powers of two apart) and the visitation
    schedule for one coarse step.  start holds (state, Lipschitz bound,
    residual) at the state the schedule was built from; a step from that
    same state takes its first visit from them."""
    groups: list          # node-index arrays
    taus: list            # tau_g, descending from the coarsest group
    mults: list           # m_g = tau_coarse / tau_g
    schedule: np.ndarray  # group ids, each g appearing m_g times
    coarse_tau: float
    start: tuple | None = None

    def scaled(self, factor: float) -> "TimeGroups":
        return TimeGroups(self.groups, [t * factor for t in self.taus],
                          self.mults, self.schedule,
                          self.coarse_tau * factor, self.start)


def build_schedule(op: OperatorSpec, u: GridFunction, rng=None) -> TimeGroups:
    """Group the active nodes with a Lipschitz bound by the operator's spacing
    classes and give each group the largest stable step tau_coarse / 2^p."""
    u.check(op.grid)
    if rng is None:
        rng = np.random.default_rng(0)
    lip, res = op._step_terms(u.values)
    start = (u.values.copy(), lip, res)
    groups, dts, spacings = [], [], []
    for s, nodes in zip(*op.time_groups):
        bound = lip[nodes]
        live = bound > 0
        if live.any():
            groups.append(nodes[live])
            # fmax skips the NaN that `live` drops, so this is the largest
            # live bound; its reciprocal is the least 1 / lip
            dts.append(1.0 / float(np.fmax.reduce(bound)))
            spacings.append(s)
    if not groups:
        return TimeGroups([], [], [], np.empty(0, dtype=int), 0.0, start)

    coarse_tau = dts[0]
    taus, mults = [], []
    for dtg in dts:
        p = 0 if dtg >= coarse_tau else max(0, math.ceil(
            math.log2(coarse_tau / dtg) - 1e-12))
        taus.append(coarse_tau / (1 << p))
        mults.append(1 << p)
    if sum(mults) > MAX_GROUP_VISITS:
        raise ScheduleError(
            "one coarse step needs %d group visits (limit %d): groups of "
            "spacing %s have Lipschitz bounds up to %s"
            % (sum(mults), MAX_GROUP_VISITS, spacings,
               ["%.3g" % (1.0 / t) for t in dts]))
    order = np.concatenate([np.full(m, gi) for gi, m in enumerate(mults)])
    schedule = rng.permutation(order)
    return TimeGroups(groups, taus, mults, schedule, coarse_tau, start)


def euler_step(op: OperatorSpec, u: GridFunction,
               schedule: TimeGroups) -> GridFunction:
    """One coarse step: u_i <- u_i - tau_g F_i[u] simultaneously within each
    scheduled group, sequentially across groups.  Each group visit takes its
    CFL check and its update from one whole-grid evaluation of F; the first
    visit reuses the schedule's evaluation when u is its starting state."""
    u.check(op.grid)
    v = u.values.copy()
    start = schedule.start
    # bitwise: a state that differs from the start only in the sign of a
    # zero or in a NaN payload gets terms of its own
    terms = start[1:] if start is not None and np.array_equal(
        start[0].view(np.int64), v.view(np.int64)) else None
    # each group as a boolean mask, built once per step: a visit then
    # updates in one masked pass, with no gather at the group's rows and
    # no scatter back
    masks = [np.zeros(len(v), dtype=bool) for _ in schedule.groups]
    for mask, rows in zip(masks, schedule.groups):
        mask[rows] = True
    for gid in schedule.schedule:
        rows = schedule.groups[gid]
        tau = schedule.taus[gid]
        lip, res = terms if terms is not None else op._step_terms(v)
        terms = None
        # tau > 0, so tau * max(lip) is the largest tau * lip; fmax skips
        # NaN as the elementwise comparison did
        if tau * np.fmax.reduce(lip[rows]) > 1.0 + 1e-9:
            raise InstabilityError("group step %.3e exceeds 1/L = %.3e"
                                   % (tau, 1.0 / lip[rows].max()))
        np.subtract(v, tau * res, out=v, where=masks[gid])
    return GridFunction(op.grid, v)


def evolve(op: OperatorSpec, u0: GridFunction, T: float, policy=None,
           snapshot_times=(), seed: int = 0, regrid_every: int = 1, log=None):
    """March u_t + F[u] = 0 to time T, regridding as the policy demands.

    Returns [(grid, u, t)] at the requested snapshot times (linearly
    interpolated inside the coarse step that crosses each).  Before stepping,
    the refinement loop runs on the interpolated initial data until no new
    cells are demanded.
    """
    if T <= 0:
        raise GridError("final time must be positive")
    if not math.isfinite(T):
        raise GridError("final time must be finite")
    if regrid_every < 1:
        raise GridError("regrid_every must be >= 1")
    if not all(0 <= t <= T for t in snapshot_times):
        raise GridError("snapshot times must lie in [0, T]")
    u0.check(op.grid)
    rng = np.random.default_rng(seed)
    u = GridFunction(op.grid, op.apply_pins(u0.values))
    if policy is not None:
        for _ in range(INITIAL_REGRIDS):
            # the grid, not the operator: a replaced operator's rows are freed
            prev = op.grid
            op, u = _adapt(policy, op, u)
            if op.grid is prev:
                break

    times = sorted(snapshot_times)
    out = []
    t = 0.0
    nsnap = 0
    steps = 0
    while t < T - 1e-14:
        sched = build_schedule(op, u, rng)
        if sched.coarse_tau == 0.0:
            tau = T - t
            u2 = u
        else:
            tau = min(sched.coarse_tau, T - t)
            if tau < sched.coarse_tau:
                sched = sched.scaled(tau / sched.coarse_tau)
            # by keyword: bench/layer_trace.py finds the schedule by name
            u2 = euler_step(op, u, schedule=sched)
        while nsnap < len(times) and times[nsnap] <= t + tau + 1e-14:
            w = min(max((times[nsnap] - t) / tau, 0.0), 1.0)
            vals = (1 - w) * u.values + w * u2.values
            out.append((op.grid, GridFunction(op.grid, vals), times[nsnap]))
            nsnap += 1
        u = u2
        t += tau
        steps += 1
        if log is not None:
            log.append({"event": "euler", "t": t, "nodes": op.grid.n_nodes(),
                        "tau": tau})
        if policy is not None and steps % regrid_every == 0 and t < T - 1e-14:
            op, u = _adapt(policy, op, u)
    # a T within the 1e-14 tolerance of 0 takes no step
    return out + [(op.grid, u, s) for s in times[nsnap:]]


def _adapt(policy, op: OperatorSpec, u: GridFunction):
    """One adapt step: criteria, refinement and regrid, then on a new grid
    a new operator and the pinned values.  Returns (op, u)."""
    vals = evaluate_criteria(policy, op, u)
    g2, u2 = regrid(op.grid, u, compute_refinement(policy, vals, op.grid))
    if g2 is op.grid:
        return op, u
    op = instantiate_builtin(op.kind, op.problem, g2)
    return op, GridFunction(g2, op.apply_pins(u2.values))


def newton_solve(op: OperatorSpec, u0: GridFunction, stopping: StoppingPolicy,
                 stage=None, max_iter: int = 100, log=None) -> GridFunction:
    """Semismooth Newton with full steps and a sparse direct linear solve,
    from u0 on op.grid.

    Stops when the max-norm of the residual over active nodes drops below
    the stopping threshold for this stage; the residual is checked before
    iterating, so a converged start returns immediately.

    The Jacobian of a monotone scheme on its active unknowns is an M-matrix
    (positive diagonal, nonpositive off-diagonals, nonnegative row sums), so
    its LU takes the diagonal pivots in a fill-reducing symmetric order,
    minimum degree on J + J^T, with no row interchanges.
    """
    # loaded on the first solve: runs that never solve do not pay for it
    import scipy.sparse.linalg as spla

    u0.check(op.grid)
    tol = stopping.threshold(stage)
    u = op.apply_pins(u0.values)
    act = op.active
    if not act.any():
        return GridFunction(op.grid, u)
    iters = 0
    while True:
        r = op.residual(u)
        rnorm = float(np.max(np.abs(r[act])))
        if rnorm <= tol:
            return GridFunction(op.grid, u)
        if iters >= max_iter:
            raise NonconvergenceError(rnorm, iters)
        t0 = time.perf_counter()
        J = op.jacobian(u, act)
        # a monotone row without its diagonal is empty: SuperLU may crash
        if not J.diagonal().all():
            raise LinearSolveError("singular Jacobian: an empty row")
        ra = r[act]
        # the factors are dropped as soon as they have solved: two alive at
        # once would hold twice their memory
        try:
            delta = spla.splu(J, permc_spec="MMD_AT_PLUS_A",
                              diag_pivot_thresh=0.0,
                              options=dict(SymmetricMode=True)).solve(-ra)
        except RuntimeError as exc:     # SuperLU: factor exactly singular
            raise LinearSolveError("singular Jacobian: %s" % exc) from None
        if not np.all(np.isfinite(delta)):
            raise LinearSolveError("singular Jacobian")
        lin_res = np.linalg.norm(J @ delta + ra)
        if lin_res > LIN_RTOL * max(np.linalg.norm(ra), 1e-300):
            raise LinearSolveError("linear solve residual %.3e too large"
                                   % lin_res)
        u[act] += delta
        iters += 1
        if log is not None:
            log.append({"event": "newton", "nodes": op.grid.n_nodes(),
                        "generation": op.grid.generation, "iteration": iters,
                        "residual": rnorm, "wall": time.perf_counter() - t0})


def _trial_leaves(grid: QuadtreeGrid, target_scale: int) -> np.ndarray:
    """Every cell coarser than the target split one level: the leaves of the
    probe grid on which refinement criteria see the current solution at
    finer resolution, one per cell kept and four per cell split, in the
    order of grid.leaves when no cell is coarser.  The split keeps the grid
    balanced and padded, so these leaves are their own closure (a property
    test checks them against build_quadtree) and the trial grid is built
    from them directly."""
    leaves = grid.leaves
    split = leaves[:, 2] > target_scale
    a, b, k = leaves[split].T
    h = 1 << (k - 1)
    kids = [np.stack([a + da * h, b + db * h, k - 1], axis=1)
            for (da, db) in ((0, 0), (1, 0), (0, 1), (1, 1))]
    return np.concatenate([leaves[~split]] + kids)


def multiscale_solve(op: OperatorSpec, u0: GridFunction, policy,
                     stopping: StoppingPolicy, max_iter: int = 100, log=None,
                     grid_watch=None):
    """Coarse-to-fine continuation: solve op from u0 on op.grid, then admit
    refinement one scale per stage, rebuilding op on each new grid.

    Per stage, the criteria are probed on a one-level-finer trial grid (the
    interpolated solution exposes its truncation error there), the demanded
    cells are clamped to the stage scale, and Newton re-solves after every
    regrid.  Stage k stops Newton at the k-th stopping threshold.  The
    last stage admits the policy's finest scale.
    """
    u0.check(op.grid)
    grid = op.grid
    if grid_watch is not None:
        grid_watch(grid)
    u = newton_solve(op, u0, stopping, stage=0, max_iter=max_iter, log=log)
    present = grid.scales()[::-1]
    start = present[1] if len(present) > 1 else present[0] - 1
    stage = 0
    for target in range(start, min(policy.scales) - 1, -1):
        stage += 1
        for _ in range(STAGE_REGRIDS):
            trial, u_t = transfer(grid, u, _trial_leaves(grid, target))
            op_t = instantiate_builtin(op.kind, op.problem, trial)
            u_t = GridFunction(trial, op_t.apply_pins(u_t.values))
            vals = evaluate_criteria(policy, op_t, u_t)
            reqs = compute_refinement(policy, vals, trial,
                                      coarsest_allowed=target)
            # refinement accumulates down the ladder: solved regions must not
            # coarsen away just because their residual signal went quiet
            reqs = np.concatenate([reqs, cells_as_requests(grid)])
            g2, u2 = regrid(grid, u, reqs)
            if g2 is grid:
                break
            grid, u = g2, u2
            op = instantiate_builtin(op.kind, op.problem, grid)
            if grid_watch is not None:
                grid_watch(grid)
            u = newton_solve(op, u, stopping, stage=stage,
                             max_iter=max_iter, log=log)
        u = newton_solve(op, u, stopping, stage=stage,
                         max_iter=max_iter, log=log)
    return grid, u
