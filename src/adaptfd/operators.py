"""Per-node degenerate-elliptic residual operators on quadtree grids.

An operator evaluates F_i(u_i, grad u at x_i) at every active node, exposes
the generalized Jacobian of the active branch, and a per-node Lipschitz bound
whose reciprocal is the stable explicit time step.  Built-in kinds:

  poisson_dirichlet   F = (-Lap_h u) - f with boundary pins / Robin rows
  bc_composite        F = -Lap_h u - f where chi, u - g elsewhere, plus an
                      optional first-order region (e.g. upwind Neumann
                      bands)
  obstacle            F = min(-Lap_h u - f, u - g)
  stefan              F = -Lap_h u where u > 0, min(-Lap_h u, -|grad u|^2)
                      where u <= 0

Each node's residual is one branch, the one it takes (see OperatorSpec).
All residuals are nondecreasing in u_i and in each difference u_i - u_j, so
ordered data give ordered solutions and CFL-bounded explicit steps contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .grid import BOUNDARY, CODE, QuadtreeGrid
from .stencils import (OperatorError, laplacian_system, one_sided_entries,
                       one_sided_matrices, sample_nodes)

# every kind; a min kind's residual is min(PDE row, second branch), and its
# entry gives that branch's id and the states u in which it is open
BUILTIN_KINDS = {"poisson_dirichlet": (None, None),
                 "bc_composite": (None, None),
                 "obstacle": (1, lambda u: True),
                 "stefan": (3, lambda u: u <= 0)}


@dataclass
class ProblemDefinition:
    """Data defining one PDE problem; callables take physical (x, y) as node
    arrays and return an array of the same length or a scalar.

    chi marks the PDE region for bc_composite, which needs it (sampled at
    node coordinates: the grid, not the stencil, resolves the boundary);
    the data row u - g holds where chi is 0.  robin supplies the
    wall data (A, B, C) of A u' + B u = C, callables (x, y, nx, ny) called
    once per wall with the arrays x, y of its nodes and its outward normal
    nx, ny as floats (see stencils.laplacian_system); when absent, walls are
    Dirichlet-pinned at g.  first_order optionally replaces the branch of an
    affine kind on a node subset with a first-order degenerate-elliptic
    operator.
    """
    chi: object = None
    f: object = None
    g: object = None
    robin: tuple | None = None
    first_order: object = None

    def sample(self, fn, grid, default=0.0, name="fn"):
        if fn is None:
            return np.full(grid.n_nodes(), default)
        return sample_nodes(fn, grid.x, grid.y, name)


class UpwindDirectional:
    """First-order operator d_n u - rhs on a node region, discretized with
    the upwind difference per axis so the rows stay degenerate elliptic.
    region, direction and rhs take node arrays (x, y), like problem data."""

    def __init__(self, region, direction, rhs):
        self.region = region          # (x, y) -> bool
        self.direction = direction    # (x, y) -> (nx, ny), need not be unit
        self.rhs = rhs                # (x, y) -> float

    def build(self, grid: QuadtreeGrid):
        nn = grid.n_nodes()
        mask, const = np.zeros(nn, dtype=bool), np.zeros(nn)
        inner = np.flatnonzero(grid.klass != CODE[BOUNDARY])
        at = inner[sample_nodes(self.region, grid.x[inner], grid.y[inner],
                                "region") != 0]
        x, y = grid.x[at], grid.y[at]
        try:
            nx, ny = self.direction(x, y)
        except (TypeError, ValueError) as exc:
            raise OperatorError("problem datum direction must take node "
                                "arrays x, y and give (nx, ny): %s"
                                % exc) from None
        nx, ny = (sample_nodes(lambda *_: c, x, y, "direction")
                  for c in (nx, ny))
        mask[at] = True
        const[at] = -sample_nodes(self.rhs, x, y, "rhs")
        # comp * (u_i - u_side) / dist toward each upwind side W, E, S, N
        # (DIRS indices 1, 0, 3, 2)
        entries = []
        for comp, d in ((nx, 1), (-nx, 0), (ny, 3), (-ny, 2)):
            up = comp > 0.0
            part, missing = one_sided_entries(grid, d, at[up], -comp[up])
            if len(missing):
                k = missing[0]
                raise OperatorError("no upwind neighbor for first-order row "
                                    "at (%d, %d)" % (grid.i[k], grid.j[k]))
            entries.append(part)
        rows, cols, vals = (np.concatenate(p) for p in zip(*entries))
        M = sp.csr_matrix((vals, (rows, cols)), shape=(nn, nn))
        return mask, M, const, M.diagonal()


@dataclass
class OperatorSpec:
    """A problem bound to one grid: residuals, Jacobians and CFL bounds.

    Every residual is F_i = branch_b[u]_i for the one branch b node i
    takes, of 0 = PDE row -Lap_h u - f, 1 = data row u - g, 2 = first-order
    row and 3 = -|grad u|^2.  Assembly sets branch: 0 or 1 from chi, 2 on
    first-order rows, 0 on every active node of a min kind, and -1 on
    pinned nodes, whose residual is 0.  A min kind switches a node to its
    second branch wherever that branch is open and smaller; ties stay with
    the PDE.
    """
    kind: str
    problem: ProblemDefinition
    grid: QuadtreeGrid

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in BUILTIN_KINDS:
            raise OperatorError("unknown operator kind %r" % (self.kind,))
        self.second, self.is_open = BUILTIN_KINDS[self.kind]
        grid = self.grid
        problem = self.problem
        self.fvals = problem.sample(problem.f, grid, name="f")
        self.gvals = problem.sample(problem.g, grid, name="g")

        self.L, self.Lconst, self.active, self.pins = \
            laplacian_system(grid, robin=problem.robin)
        if problem.robin is None:
            # Dirichlet walls pinned at g
            wall = grid.klass == CODE[BOUNDARY]
            if problem.g is None and self.kind != "stefan" and wall.any():
                raise OperatorError("Dirichlet walls need a boundary datum g")
            self.pins[wall] = self.gvals[wall]
        self.wbar = self.L.diagonal()
        if self.kind == "obstacle" and problem.g is None:
            raise OperatorError("obstacle needs an obstacle datum g")

        self.branch = np.zeros(grid.n_nodes(), dtype=np.int8)
        self.first = None
        if self.second is None:
            self._fix_branch()
        self.branch[~self.active] = -1
        # the nodes off the PDE row at assembly, by branch, built once: a
        # selection then copies only the branches some node takes
        self._off = {b: at for b in (1, 2, -1)
                     if (at := self.branch == b).any()}
        # branches evaluated: the PDE row, a min kind's second, any taken
        self.live = [b for b in range(4) if b in (0, self.second)
                     or b in self._off]
        self.T = None
        if self.kind == "stefan":
            self.T = one_sided_matrices(grid)
            # largest axis difference weight per node, for the CFL bound
            inv = {d: -t.diagonal() for d, t in self.T.items()}
            self.wx_max = np.maximum(inv["E"], inv["W"])
            self.wy_max = np.maximum(inv["N"], inv["S"])
        # every linear row the residual reads, stacked so that one product
        # evaluates them all: L, then any first-order rows, then T[E, W, N,
        # S]; L, first[0] and T[d] become views of it, so no row is stored
        # twice
        blocks = [self.L]
        if self.first is not None:
            blocks.append(self.first[0])
        if self.T is not None:
            blocks += [self.T[d] for d in "EWNS"]
        self.stack = _stacked(blocks)

    def _fix_branch(self):
        """Branches of the affine kinds: the PDE row inside chi and the data
        row outside, with first-order rows overriding both on their
        region."""
        grid, problem = self.grid, self.problem
        if self.kind == "bc_composite":
            if problem.chi is None:
                raise OperatorError("bc_composite needs a domain indicator "
                                    "chi")
            self.branch[problem.sample(problem.chi, grid, name="chi") == 0] = 1
        if problem.first_order is not None:
            mask, M, const, lip = problem.first_order.build(grid)
            self.branch[mask] = 2
            self.first = (M, const, lip)

    # -- helpers ----------------------------------------------------------

    def apply_pins(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float).copy()
        u[~self.active] = self.pins[~self.active]
        return u

    @cached_property
    def time_groups(self):
        """(spacings, node arrays) of the active nodes, coarsest first."""
        idx = np.flatnonzero(self.active)
        spacing = self.grid.min_spacing[idx]
        classes = np.unique(spacing)[::-1].tolist()
        return classes, [idx[spacing == s] for s in classes]

    def _evaluate(self, u, take=None):
        """The one read of the branches: values of the live ones, the
        one-sided gradient (rx, ry, slopes) or None, where the second branch
        is open and where a min kind takes it (None if absent), all from one
        product with the stack, finished in place in the order of arithmetic
        of (L u + Lconst) - f.  A given take, a boolean node mask that is
        false off the active nodes, replaces a min kind's branch choice."""
        n = len(u)
        part = self.stack @ u
        part = [part[k:k + n] for k in range(0, len(part), n)]
        vals = {0: part[0]}
        vals[0] += self.Lconst
        vals[0] -= self.fvals
        if 1 in self.live:
            vals[1] = u - self.gvals
        if 2 in self.live:
            vals[2] = part[1]
            vals[2] += self.first[1]
        grad = None
        if self.T is not None:
            # a row of T[d] is empty where no difference toward d exists;
            # its zero slope never beats the clamp at 0, so it is never
            # selected
            cE, cW, cN, cS = slopes = tuple(part[-4:])
            rx = np.maximum(cE, cW)
            np.maximum(rx, 0.0, out=rx)
            ry = np.maximum(cN, cS)
            np.maximum(ry, 0.0, out=ry)
            grad = (rx, ry, slopes)
            vals[3] = rx * rx
            vals[3] += ry * ry
            np.negative(vals[3], out=vals[3])
        opened = None
        if self.second is not None:
            opened = self.is_open(u)
            if take is None:
                take = vals[self.second] < vals[0]
                take &= opened
                take &= self.active
        return vals, grad, opened, take

    def _bound(self, grad, opened):
        bound = {0: self.wbar, 1: 1.0}
        if self.first is not None:
            bound[2] = self.first[2]
        if grad is not None:
            bound[3] = grad[0] * self.wx_max
            bound[3] += grad[1] * self.wy_max
            bound[3] *= 2.0
        if self.second is None:
            bound[0] = bound[0].copy()
        else:
            # a min kind's PDE row bounds both of its branches
            top = np.maximum(bound[0], bound[self.second])
            np.copyto(top, bound[0], where=np.logical_not(opened))
            bound[0] = top
        return self._combined(bound)

    def _combined(self, terms, take=None):
        """Each node's term of the branch it takes, 0 on pinned nodes, built
        in terms[0]'s array: the branch of assembly, or a min kind's second
        where take is set.  terms holds the PDE row's term and those of the
        branches taken at assembly, as arrays or scalars.  The closing
        += 0.0 turns -0.0 into 0.0, as a sum started from 0 does."""
        out = terms[0]
        for b, at in self._off.items():
            np.copyto(out, terms.get(b, 0.0), where=at)
        if take is not None:
            np.copyto(out, terms[self.second], where=take)
        out += 0.0
        return out

    def _step_terms(self, u):
        """(Lipschitz bound, residual) at every node, from one gradient."""
        vals, grad, opened, take = self._evaluate(u)
        return self._bound(grad, opened), self._combined(vals, take)

    # -- operator surface ---------------------------------------------------

    def residual(self, u: np.ndarray) -> np.ndarray:
        """F per node."""
        return self._step_terms(np.asarray(u, dtype=float))[1]

    def jacobian(self, u: np.ndarray, rows=None):
        """Exact generalized Jacobian: a CSR matrix over all nodes (inactive
        rows are zero), or at rows (a boolean mask, or ids in ascending
        order) the square block on those rows and columns, in CSC, the
        layout Newton's LU takes.

        Each stack row is weighted by 1 where its node takes the row's
        branch and 0 elsewhere, and each entry summed as the sparse products
        sum it, to the bit: ((B0 L + B1 I) + B2 first) + B3 (-2 rx Sx - 2 ry
        Sy), Bb the mask of branch b and Sx and Sy the one-sided differences
        each row selects; entries that come to zero are not stored."""
        _, grad, _, take = self._evaluate(np.asarray(u, dtype=float))
        return self._jacobian(take, grad, rows)

    def _jacobian(self, take, grad, rows=None):
        """The Jacobian of jacobian() from a min kind's branch choice take
        (None for the affine kinds) and the one-sided gradient grad, as
        _evaluate gives them: where take is set, a node leaves its PDE row
        for the second branch."""
        n = self.grid.n_nodes()
        on = [self.branch == b for b in range(4)]
        if take is not None:
            on[0] &= ~take
            on[self.second] = take
        srow, spos, dpos, prow, colptr = self._jacobian_pattern
        coef = [on[0]]
        if self.first is not None:
            coef.append(on[2])
        if self.T is not None:
            # -2 rx on the x difference a row selects, -2 ry on its y
            # difference; none off the gradient branch
            rx, ry, (cE, cW, cN, cS) = grad
            m2x, m2y = -2.0 * rx, -2.0 * ry
            coef += [np.where(sel & on[3], m2, 0.0) for sel, m2 in (
                ((cE >= cW) & (rx > 0), m2x), ((cW > cE) & (rx > 0), m2x),
                ((cN >= cS) & (ry > 0), m2y), ((cS > cN) & (ry > 0), m2y))]
        part = np.concatenate(coef, dtype=float)[srow]
        part *= self.stack.data
        ends = self.stack.indptr[n::n]      # where each block's entries end
        npos = len(prow)
        vals = np.bincount(spos[:ends[0]], part[:ends[0]], npos)
        vals[dpos] += on[1]
        if self.first is not None:
            vals += np.bincount(spos[ends[0]:ends[1]],
                                part[ends[0]:ends[1]], npos)
        if self.T is not None:
            lo = ends[-5]       # T[E, W, N, S] are the last four blocks
            vals += np.bincount(spos[lo:], part[lo:], npos)
        if rows is None:
            at = np.ones(n, dtype=bool)
        else:
            at = np.zeros(n, dtype=bool)
            at[rows] = True
        keep = vals != 0
        keep &= at[prow]
        keep &= np.repeat(at, np.diff(colptr))
        new = np.cumsum(at, dtype=np.intp) - 1
        m = int(new[-1]) + 1
        # every column holds its diagonal position, so none is empty
        indptr = np.concatenate([[0], np.cumsum(keep)[colptr[1:] - 1][at]])
        J = sp.csc_matrix((vals[keep], new[prow[keep]], indptr), shape=(m, m))
        return J.tocsr() if rows is None else J

    @cached_property
    def _jacobian_pattern(self):
        """Where the entries of the stack and of the identity land in the
        Jacobian, found once per operator: the stack row of each stack
        entry, the position of each stack entry and of each diagonal entry,
        the row of each position and where each column's positions start.
        Positions are the distinct (row, col) pairs in column-major order.
        The blocks come from COO triplets with their duplicates summed, so
        no pair repeats within a block."""
        n = self.grid.n_nodes()
        S = self.stack
        srow = np.repeat(np.arange(S.shape[0]), np.diff(S.indptr))
        diag = np.arange(n)
        ukey, pos = np.unique(np.concatenate([
            S.indices.astype(np.int64) * n + srow % n, diag * (n + 1)]),
            return_inverse=True)
        return (srow, pos[:S.nnz], pos[S.nnz:], ukey % n,
                np.searchsorted(ukey, np.arange(n + 1) * n))

    def lipschitz(self, u: np.ndarray) -> np.ndarray:
        """Per-node bound on dF_i/du_i over every branch the node can take:
        the bound of its branch of assembly (0 on pinned nodes), where a min
        kind bounds its PDE row by the larger of the PDE row's bound and its
        second branch's wherever that is open."""
        return self._step_terms(np.asarray(u, dtype=float))[0]


def _stacked(blocks):
    """The CSR blocks stacked by rows, as sp.vstack stacks them, from their
    data, indices and offset indptr; each block's data and indices then
    become views of the stack's."""
    nnz = [b.nnz for b in blocks]
    ends = np.cumsum(nnz)
    starts = ends - nnz
    stack = sp.csr_matrix((
        np.concatenate([b.data for b in blocks]),
        np.concatenate([b.indices for b in blocks]),
        np.concatenate([b.indptr[:-1] + lo for b, lo in zip(blocks, starts)]
                       + [ends[-1:]])),
        shape=(sum(b.shape[0] for b in blocks), blocks[0].shape[1]))
    for b, lo, hi in zip(blocks, starts, ends):
        b.data, b.indices = stack.data[lo:hi], stack.indices[lo:hi]
        b.indptr = b.indptr.astype(stack.indptr.dtype, copy=False)
    return stack


def instantiate_builtin(kind: str, problem: ProblemDefinition,
                        grid: QuadtreeGrid) -> OperatorSpec:
    return OperatorSpec(kind, problem, grid)
