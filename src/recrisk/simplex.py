"""Two-phase tableau simplex with a deterministic anti-cycling pivot rule.

The solver accepts a general-form linear program (minimize c @ x subject to
A_ub @ x <= b_ub, A_eq @ x = b_eq, elementwise bounds with infinities
allowed), converts it to standard form, and runs a tableau simplex.  The
entering rule is Dantzig's most-negative reduced cost with lowest-index tie
breaking; after a run of degenerate pivots it switches permanently to Bland's
rule, which guarantees termination.  Scales to desk-size problems (a few
thousand columns); the tableau is dense.

Storage and update rule: the tableaux are column-major (``order="F"``).  A
pivot divides the pivot row by its pivot element, then subtracts ``row[j] *
factors`` from column j only where the divided row is nonzero, plus the
right-hand-side column always: one slice per run of ``RUN_COLUMNS`` or more
adjacent columns, by index for the rest, ``CHUNK_COLUMNS`` at a time.  Each
updated element gets the same product and subtraction as the dense rank-1
update ``tableau -= np.outer(factors, row)``; a skipped one would only have
had a zero subtracted, which can change nothing but the sign of a zero.  The
right-hand-side column, the only one read back into x, therefore matches the
dense update bit for bit (it never holds -0.0).  Invariant: the update and
every reduction (the cost rows of both phases, the bound shift) keep the
dense code's per-element arithmetic and summation order (phase 1 scales each
row by its unit cost, and ``1.0 * v`` is ``v``); no BLAS call (``@``,
``np.dot``) touches the tableau: blocking or fused multiply-add would change
last digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverStalled
from .samples import freeze

__all__ = ["LinearProgram", "LPSolution", "solve_lp"]

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
_DEGENERATE_STREAK = 12
RUN_COLUMNS = 16    # a run of this many nonzero pivot-row columns is updated as one slice
CHUNK_COLUMNS = 64  # columns per update step, so its temporary stays in cache


def _constraint_matrix(name: str, a, n: int) -> np.ndarray:
    """``a`` as a (rows, n) matrix; a size-0 input means no rows."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return a.reshape(0, n)
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"{name} must be a 2-d matrix with {n} columns, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class LinearProgram:
    """minimize objective @ x  s.t.  a_ub @ x <= b_ub, a_eq @ x = b_eq, lower <= x <= upper.

    Every coefficient and right-hand side must be finite; a lower bound may
    be -inf and an upper bound +inf, never the other side's infinity or NaN.
    Each field holds a private read-only copy of the caller's array.
    """

    objective: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.asarray(self.objective, dtype=float))
        n = c.size
        a_ub = _constraint_matrix("a_ub", self.a_ub, n)
        b_ub = np.atleast_1d(np.asarray(self.b_ub, dtype=float))
        a_eq = _constraint_matrix("a_eq", self.a_eq, n)
        b_eq = np.atleast_1d(np.asarray(self.b_eq, dtype=float))
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if a_ub.shape[0] != b_ub.size or a_eq.shape[0] != b_eq.size:
            raise ValueError("constraint matrix and right-hand side sizes disagree")
        if lower.size != n or upper.size != n:
            raise ValueError("bounds must match the number of variables")
        for name, arr in (("objective", c), ("a_ub", a_ub), ("b_ub", b_ub),
                          ("a_eq", a_eq), ("b_eq", b_eq)):
            freeze(self, name, **{name: arr})
        if np.any(np.isnan(lower) | (lower == np.inf)):
            raise ValueError("lower must be finite or -inf")
        if np.any(np.isnan(upper) | (upper == -np.inf)):
            raise ValueError("upper must be finite or +inf")
        if np.any(lower > upper):
            raise ValueError("lower bounds exceed upper bounds")
        freeze(self, None, lower=lower, upper=upper)

    @property
    def n_variables(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class LPSolution:
    status: str          # Optimal | Infeasible | Unbounded
    x: np.ndarray | None
    objective: float
    iterations: int
    residual: float      # max primal feasibility violation at the solution


def _column_runs(row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends of the maximal runs of nonzero entries of a pivot row,
    its last entry (the right-hand side) excluded."""
    nonzero = np.zeros(row.size + 1, dtype=bool)
    np.not_equal(row[:-1], 0.0, out=nonzero[1:-1])
    edges = np.flatnonzero(nonzero[1:] != nonzero[:-1])
    return edges[0::2], edges[1::2]


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    r = tableau[row] / tableau[row, col]
    tableau[row] = r
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    gathered = r != 0.0
    gathered[-1] = True  # the right-hand side
    starts, ends = _column_runs(r)
    long = ends - starts >= RUN_COLUMNS
    for a, b in zip(starts[long].tolist(), ends[long].tolist()):
        gathered[a:b] = False
        for c in range(a, b, CHUNK_COLUMNS):
            block = slice(c, min(c + CHUNK_COLUMNS, b))
            tableau.T[block] -= np.multiply.outer(r[block], factors)  # contiguous
    cols = np.flatnonzero(gathered)
    for c in range(0, cols.size, CHUNK_COLUMNS):
        chunk = cols[c:c + CHUNK_COLUMNS]
        tableau.T[chunk] -= np.multiply.outer(r[chunk], factors)


def _reduce_costs(tableau: np.ndarray, basis: list[int], n_cols: int) -> None:
    """Price out the basis: subtract from the cost row, in row order, each
    row whose basic column is below ``n_cols`` times the cost at that column."""
    rows = np.ascontiguousarray(tableau[:-1])
    cost = tableau[-1].copy()
    for i, j in enumerate(basis):
        if j < n_cols:
            cost -= cost[j] * rows[i]
    tableau[-1] = cost


def _run_simplex(tableau: np.ndarray, basis: list[int], n_cols: int,
                 max_iter: int, iteration_offset: int = 0) -> tuple[str, int]:
    """Drive the reduced-cost row (last) of the tableau to optimality."""
    it = 0
    degenerate_streak = 0
    use_bland = False
    m = tableau.shape[0] - 1
    while True:
        cost = tableau[-1, :n_cols]
        if use_bland:
            negatives = np.flatnonzero(cost < -OPT_TOL)
            if negatives.size == 0:
                return "Optimal", it
            col = int(negatives[0])
        else:
            col = int(np.argmin(cost))
            if cost[col] >= -OPT_TOL:
                return "Optimal", it
        column = tableau[:m, col]
        positive = np.flatnonzero(column > FEAS_TOL)
        ratios = tableau[positive, -1] / column[positive]
        if not np.isfinite(ratios).any():
            return "Unbounded", it
        best = ratios.min()
        candidates = positive[ratios <= best + 1e-12]
        # Ties broken by the smallest basis index: deterministic and
        # Bland-compatible, so the Bland phase cannot cycle.
        row = int(min(candidates, key=lambda i: basis[i]))
        if best <= FEAS_TOL:
            degenerate_streak += 1
            if degenerate_streak >= _DEGENERATE_STREAK:
                use_bland = True
        else:
            degenerate_streak = 0
        _pivot(tableau, row, col)
        basis[row] = col
        it += 1
        if it + iteration_offset > max_iter:
            raise SolverStalled(
                f"simplex exceeded {max_iter} iterations "
                f"(size {tableau.shape[0] - 1} x {n_cols})"
            )


def solve_lp(lp: LinearProgram, max_iter: int | None = None) -> LPSolution:
    """Two-phase simplex over the general-form program."""
    n = lp.n_variables
    lower, upper = lp.lower, lp.upper

    # Standard-form variable mapping: each original variable becomes either a
    # shifted nonnegative variable (finite lower bound), a flipped one (only
    # an upper bound), or a split pair (free), numbered in variable order.
    # Finite upper bounds on shifted variables become rows.
    shifted = np.isfinite(lower)
    flipped = ~shifted & np.isfinite(upper)
    free = ~shifted & ~flipped
    # first standard column of variable j: j plus one per free variable before it
    col = np.arange(n) + np.searchsorted(np.flatnonzero(free), np.arange(n))
    n_std = n + int(np.count_nonzero(free))
    offset = np.where(shifted, lower, np.where(flipped, upper, 0.0))
    boxed = np.flatnonzero(shifted & np.isfinite(upper))

    def expand(coeffs: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Each entry is ``0.0 + c`` or ``0.0 - c`` (a zero coefficient stays
        # +0.0); the bound shift adds the terms in ascending variable order,
        # and the skipped zero-offset terms would only have added a zero.
        rows = np.zeros((coeffs.shape[0], n_std))
        rows[:, col[~flipped]] = coeffs[:, ~flipped] + 0.0
        rows[:, col[flipped]] = 0.0 - coeffs[:, flipped]
        rows[:, col[free] + 1] = 0.0 - coeffs[:, free]
        shift = np.zeros(coeffs.shape[0])
        for j in np.flatnonzero(offset):
            shift += coeffs[:, j] * offset[j]
        return rows, rhs - shift

    n_ub, n_eq, n_box = lp.b_ub.size, lp.b_eq.size, boxed.size
    unit = np.zeros((n_box, n))
    unit[np.arange(n_box), boxed] = 1.0
    width = upper[boxed] - lower[boxed]
    a, b = expand(np.vstack([lp.a_ub, lp.a_eq, unit]),
                  np.concatenate([lp.b_ub, lp.b_eq, lower[boxed] + width]))
    # The affine shift of the objective is dropped here; the reported
    # objective is recomputed from the recovered x at the end.
    obj_std = expand(lp.objective[None, :], np.zeros(1))[0][0]

    m = n_ub + n_eq + n_box
    n_slack = n_ub + n_box  # one slack per <= row, in row order
    art_base = n_std + n_slack
    total = art_base + m  # slacks then one artificial per row
    basis = list(range(art_base, total))
    max_iter = max_iter if max_iter is not None else max(2000, 60 * (m + total))

    # Phase 1: minimize the sum of artificials.
    tableau = np.zeros((m + 1, total + 1), order="F")
    tableau[:m, :n_std] = a
    slack_rows = np.concatenate([np.arange(n_ub), n_ub + n_eq + np.arange(n_box)])
    tableau[slack_rows, n_std + np.arange(n_slack)] = 1.0
    tableau[np.flatnonzero(b < 0.0), :total] *= -1.0
    tableau[:m, -1] = np.abs(b)
    tableau[np.arange(m), art_base + np.arange(m)] = 1.0
    tableau[-1, art_base:total] = 1.0
    _reduce_costs(tableau, basis, total)  # unit cost on each basic artificial
    status, it1 = _run_simplex(tableau, basis, total, max_iter)
    if status == "Unbounded":  # cannot happen for a sum of nonnegatives
        raise SolverStalled("phase-1 objective reported unbounded")
    phase1_obj = -tableau[-1, -1]
    if phase1_obj > 1e-7:
        return LPSolution("Infeasible", None, math.nan, it1, math.inf)

    # Drive any residual artificials out of the basis, dropping redundant rows.
    keep_rows = list(range(m))
    for i in range(m):
        if basis[i] >= art_base:
            candidates = np.flatnonzero(np.abs(tableau[i, :art_base]) > FEAS_TOL)
            if candidates.size:
                _pivot(tableau, i, int(candidates[0]))
                basis[i] = int(candidates[0])
            else:
                keep_rows.remove(i)
    basis = [basis[i] for i in keep_rows]
    m = len(keep_rows)

    # Phase 2 with the real objective over structural + slack columns.
    n_cols2 = art_base
    t2 = np.zeros((m + 1, n_cols2 + 1), order="F")
    t2[:m, :n_cols2] = tableau[keep_rows, :n_cols2]
    t2[:m, -1] = tableau[keep_rows, -1]
    t2[-1, :n_std] = obj_std
    _reduce_costs(t2, basis, n_cols2)
    status, it2 = _run_simplex(t2, basis, n_cols2, max_iter, iteration_offset=it1)
    iterations = it1 + it2
    if status == "Unbounded":
        return LPSolution("Unbounded", None, -math.inf, iterations, math.nan)

    z = np.zeros(n_cols2)
    for i in range(m):
        if basis[i] < n_cols2:
            z[basis[i]] = t2[i, -1]
    x = np.empty(n)
    x[shifted] = lower[shifted] + z[col[shifted]]
    x[flipped] = upper[flipped] - z[col[flipped]]
    x[free] = z[col[free]] - z[col[free] + 1]

    residual = max(float(np.max(v, initial=0.0)) for v in (
        lp.a_ub @ x - lp.b_ub, np.abs(lp.a_eq @ x - lp.b_eq), lower - x, x - upper))
    return LPSolution("Optimal", x, float(lp.objective @ x), iterations, residual)
