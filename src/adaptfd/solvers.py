"""Time stepping and static solvers on adaptive quadtree grids.

Parabolic problems march by asynchronous forward Euler: nodes are grouped by
nearest-neighbor distance, each group gets a stable time step from the local
CFL bound (steps differ by powers of two), and one coarse step visits every
group according to a freshly permuted schedule: Jacobi within a group,
Gauss-Seidel across groups.

Static problems use semismooth Newton with the exact generalized Jacobian
and a sparse direct solve, wrapped in coarse-to-fine continuation: solve on
the initial quadtree, admit one finer scale per stage as the refinement
criteria demand, and re-solve until the finest scale converges.  On a min
kind, Newton is policy iteration over the nodes that take the second
branch (for obstacle, the contact set), so each new grid starts from the
policy Newton converged on in the previous grid.  Both drivers reach a new
grid through one step, _adapt.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .adaptivity import (cells_as_requests, compute_refinement,
                         evaluate_criteria, inherit_set, regrid, transfer)
from .grid import GridError, GridFunction, QuadtreeGrid
from .operators import OperatorSpec, _node_masks, instantiate_builtin


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


# every group visit evaluates the operator on the whole grid and takes its
# CFL maximum and its update in passes over the whole grid: under the
# group's boolean mask, or unmasked where the group is every active node
# of a one-class grid
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
    same state takes its first visit from them.  masks holds each group as
    a boolean node mask, or as True where the group is every active node of
    an operator with one spacing class; without them, a step builds its
    own."""
    groups: list          # node-index arrays
    taus: list            # tau_g, descending from the coarsest group
    mults: list           # m_g = tau_coarse / tau_g
    schedule: np.ndarray  # group ids, each g appearing m_g times
    coarse_tau: float
    start: tuple | None = None
    masks: list | None = None

    def scaled(self, factor: float) -> "TimeGroups":
        return TimeGroups(self.groups, [t * factor for t in self.taus],
                          self.mults, self.schedule,
                          self.coarse_tau * factor, self.start, self.masks)


def build_schedule(op: OperatorSpec, u: GridFunction, rng=None) -> TimeGroups:
    """Group the active nodes with a Lipschitz bound by the operator's spacing
    classes and give each group the largest stable step tau_coarse / 2^p."""
    u.check(op.grid)
    if rng is None:
        rng = np.random.default_rng(0)
    lip, res = op._step_terms(u.values)
    start = (u.values.copy(), lip, res)
    # a group keeps the nodes of its class whose bound is positive; where
    # that is every active node, each group is its class as the operator
    # holds it
    live = lip > 0
    classes, class_masks, class_nodes = op.time_groups
    whole = np.count_nonzero(live) == sum(map(len, class_nodes))
    groups, masks, dts, spacings = [], [], [], []
    for s, mask, nodes in zip(classes, class_masks, class_nodes):
        # fmax skips NaN, which `live` drops, and a mask of True adds only
        # the pinned rows' +0.0, so a positive top is the largest live
        # bound; its reciprocal is the least 1 / lip
        top = float(np.fmax.reduce(lip, where=mask, initial=-np.inf))
        if top > 0:
            if not whole:
                mask = mask & live
                nodes = np.flatnonzero(mask)
            groups.append(nodes)
            masks.append(mask)
            dts.append(1.0 / top)
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
    return TimeGroups(groups, taus, mults, schedule, coarse_tau, start, masks)


def euler_step(op: OperatorSpec, u: GridFunction,
               schedule: TimeGroups) -> GridFunction:
    """One coarse step: u_i <- u_i - tau_g F_i[u] simultaneously within each
    scheduled group, sequentially across groups.  Each group visit takes its
    CFL check and its update from one whole-grid evaluation of F, both
    under the group's mask: the schedule's, or for a schedule without masks
    one built per step.  A mask of True covers the pinned rows too, whose
    bound and residual are exactly +0.0: they change no maximum of positive
    bounds, and the check raises before an unstable step can update them.
    The first visit reuses the schedule's evaluation when u is its starting
    state."""
    u.check(op.grid)
    v = u.values.copy()
    start = schedule.start
    # bitwise: a state that differs from the start only in the sign of a
    # zero or in a NaN payload gets terms of its own
    terms = start[1:] if start is not None and np.array_equal(
        start[0].view(np.int64), v.view(np.int64)) else None
    masks = schedule.masks
    if masks is None:
        masks = _node_masks(len(v), schedule.groups)
    for gid in schedule.schedule:
        mask = masks[gid]
        tau = schedule.taus[gid]
        if terms is None:
            lip, res = op._step_terms(v)
            res *= tau
        else:
            # the schedule's terms stay as it holds them
            lip, res = terms[0], tau * terms[1]
            terms = None
        # tau > 0, so tau * max(lip) is the largest tau * lip; fmax skips
        # NaN as the elementwise comparison did
        top = np.fmax.reduce(lip, where=mask, initial=-np.inf)
        if tau * top > 1.0 + 1e-9:
            raise InstabilityError("group step %.3e exceeds 1/L = %.3e"
                                   % (tau, 1.0 / top))
        np.subtract(v, res, out=v, where=mask)
    return GridFunction(op.grid, v)


def evolve(op: OperatorSpec, u0: GridFunction, T: float, policy=None,
           snapshot_times=(), seed: int = 0, log=None):
    """March u_t + F[u] = 0 to time T, regridding after every coarse step
    as the policy demands.

    Returns [(grid, u, t)] at the requested snapshot times (linearly
    interpolated inside the coarse step that crosses each).  Before stepping,
    the refinement loop runs on the interpolated initial data until no new
    cells are demanded.
    """
    if T <= 0:
        raise GridError("final time must be positive")
    if not math.isfinite(T):
        raise GridError("final time must be finite")
    if not all(0 <= t <= T for t in snapshot_times):
        raise GridError("snapshot times must lie in [0, T]")
    u0.check(op.grid)
    rng = np.random.default_rng(seed)
    u = GridFunction(op.grid, op.apply_pins(u0.values))
    if policy is not None:
        for _ in range(INITIAL_REGRIDS):
            # the grid, not the operator: a replaced operator's rows are freed
            prev = op.grid
            op, u = _adapt(op, u, compute_refinement(
                policy, evaluate_criteria(policy, op, u), op.grid))
            if op.grid is prev:
                break

    times = sorted(snapshot_times)
    out = []
    t = 0.0
    nsnap = 0
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
        if log is not None:
            log.append({"event": "euler", "t": t, "nodes": op.grid.n_nodes(),
                        "tau": tau})
        if policy is not None and t < T - 1e-14:
            op, u = _adapt(op, u, compute_refinement(
                policy, evaluate_criteria(policy, op, u), op.grid))
    # a T within the 1e-14 tolerance of 0 takes no step
    return out + [(op.grid, u, s) for s in times[nsnap:]]


def _adapt(op: OperatorSpec, u: GridFunction, requests):
    """Regrid op.grid to the demanded squares; on a new grid, a new
    operator and the pinned values.  Returns (op, u)."""
    g2, u2 = regrid(op.grid, u, requests)
    if g2 is op.grid:
        return op, u
    op = instantiate_builtin(op.kind, op.problem, g2)
    return op, GridFunction(g2, op.apply_pins(u2.values))


def newton_solve(op: OperatorSpec, u0: GridFunction, stopping: StoppingPolicy,
                 stage=None, max_iter: int = 100, log=None,
                 take=None) -> GridFunction:
    """Semismooth Newton with full steps and a sparse direct linear solve,
    from u0 on op.grid: one loop, each pass of which solves the system of
    one policy, with residual and Jacobian from one evaluation of op.

    A min kind's policy is the mask of nodes on their second branch (for
    obstacle, the contact set; u = g there).  A given take is the first
    pass's policy; that pass is logged as "policy", not as an iteration
    toward max_iter.  Each later pass takes the branch choice at the
    current state and first stops the loop when the max-norm of the
    residual over active nodes is at most the stage's threshold.  Nothing
    is written on op: the returned values are the array the last pass
    evaluated, so op._evaluate on them reads the policy the loop stopped at.

    The Jacobian of a monotone scheme on its active unknowns is an M-matrix
    (positive diagonal, nonpositive off-diagonals, nonnegative row sums), so
    its LU takes the diagonal pivots in a fill-reducing symmetric order,
    minimum degree on J + J^T, with no row interchanges.
    """
    # loaded on the first solve, before any step is timed: runs that never
    # solve do not pay for it
    import scipy.sparse.linalg as spla

    u0.check(op.grid)
    if take is not None and op.second is None:
        raise GridError("a branch policy needs a min kind, not %r" % op.kind)
    tol = stopping.threshold(stage)
    u = op.apply_pins(u0.values)
    act = op.active
    # with no unknown there is no system to solve
    take = take & act if take is not None and act.any() else None
    given = take is not None
    iters = 0
    while True:
        vals, grad, _, take = op._evaluate(u, take)
        r = op._combined(vals, take)
        rnorm = float(np.max(np.abs(r[act]), initial=0.0))
        if not given and rnorm <= tol:
            return GridFunction(op.grid, u)
        if not given and iters >= max_iter:
            raise NonconvergenceError(rnorm, iters)
        t0 = time.perf_counter()
        u[act] += _newton_step(spla, op._jacobian(take, grad, act), r[act])
        iters += not given
        if log is not None:
            event = ({"event": "policy"} if given else
                     {"event": "newton", "iteration": iters})
            log.append(dict(event, nodes=op.grid.n_nodes(), residual=rnorm,
                            wall=time.perf_counter() - t0))
        given, take = False, None


def _newton_step(spla, J, ra):
    """The step delta with J delta = -ra, J a Jacobian's active block and
    ra the residual on its rows, checked: no empty row, a finite step and a
    linear residual within LIN_RTOL of ra.  spla is scipy.sparse.linalg."""
    # a monotone row without its diagonal is empty: SuperLU may crash
    if not J.diagonal().all():
        raise LinearSolveError("singular Jacobian: an empty row")
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
    return delta


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


def _probe(op: OperatorSpec, u: GridFunction, policy,
           target: int) -> np.ndarray:
    """The squares a continuation stage demands of op.grid at scale target
    and coarser: the criteria read u interpolated onto the one-level-finer
    trial grid, and every current cell is kept; a split that changes no
    cell reads them on op itself.  The trial grid, its operator and the
    criteria values die on return, so none of them is alive while the
    caller regrids and solves."""
    grid = op.grid
    trial, u_t = transfer(grid, u, _trial_leaves(grid, target))
    if trial is not grid:
        op = instantiate_builtin(op.kind, op.problem, trial)
        u_t = GridFunction(trial, op.apply_pins(u_t.values))
    vals = evaluate_criteria(policy, op, u_t)
    reqs = compute_refinement(policy, vals, trial, coarsest_allowed=target)
    # refinement accumulates down the ladder: solved regions must not
    # coarsen away just because their residual signal went quiet
    return np.concatenate([reqs, cells_as_requests(grid)])


def multiscale_solve(op: OperatorSpec, u0: GridFunction, policy,
                     stopping: StoppingPolicy, max_iter: int = 100, log=None,
                     grid_watch=None):
    """Coarse-to-fine continuation: solve op from u0 on op.grid, then admit
    refinement one scale per stage, rebuilding op on each new grid.

    Per stage, the criteria are probed on a one-level-finer trial grid (the
    interpolated solution exposes its truncation error there; _probe returns
    only the demanded squares, so no trial grid outlives its criteria), the
    demanded cells are clamped to the stage scale, and after every regrid
    (_adapt, as in evolve) Newton re-solves.  Stage k stops Newton at the
    k-th stopping threshold.  The last stage admits the policy's finest
    scale.  For a min kind, Newton on each new grid starts from the policy
    it converged on in the last grid: after a regrid that changes the grid,
    one evaluation of the operator and state just solved reads that policy
    (newton_solve returns the array it evaluated last), and inherit_set
    carries it over.
    """
    u0.check(op.grid)
    grid = op.grid
    if grid_watch is not None:
        grid_watch(grid)
    u = newton_solve(op, u0, stopping, stage=0, max_iter=max_iter, log=log)
    present = grid.scales()[::-1]
    start = present[1] if len(present) > 1 else present[0] - 1
    targets = range(start, min(policy.scales) - 1, -1)
    for stage, target in enumerate(targets, 1):
        for _ in range(STAGE_REGRIDS):
            new, moved = _adapt(op, u, _probe(op, u, policy, target))
            if new.grid is grid:
                break
            take = None if op.second is None else inherit_set(
                grid, new.grid, op._evaluate(u.values)[3])
            # the old operator, state and grid die here, before Newton
            op, u, grid = new, moved, new.grid
            if grid_watch is not None:
                grid_watch(grid)
            u = newton_solve(op, u, stopping, stage=stage, max_iter=max_iter,
                             log=log, take=take)
        u = newton_solve(op, u, stopping, stage=stage, max_iter=max_iter,
                         log=log)
    return grid, u
