"""Reference simplex: the dense rank-1 tableau update, kept as the oracle for
``recrisk.simplex``.

``solve_lp``, ``_pivot`` and ``_run_simplex`` are the row-major
implementations that ``recrisk.simplex`` replaced, copied without change.
Only the program and solution types are shared, so a difference in the
tableau arithmetic shows up as a difference in the result.
"""

from __future__ import annotations

import math

import numpy as np

from recrisk.errors import SolverStalled
from recrisk.simplex import LinearProgram, LPSolution

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
_DEGENERATE_STREAK = 12


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])


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
        ratios = np.full(m, np.inf)
        positive = tableau[:m, col] > FEAS_TOL
        ratios[positive] = tableau[:m, -1][positive] / tableau[:m, col][positive]
        if not np.any(np.isfinite(ratios)):
            return "Unbounded", it
        best = np.min(ratios)
        candidates = np.flatnonzero(ratios <= best + 1e-12)
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
    # shifted nonnegative variable, a flipped one (only an upper bound), or a
    # split pair (free).  Finite upper bounds on shifted variables become rows.
    col_of: list[tuple] = []   # per original var: ("shift", col, lo) | ("flip", col, up) | ("free", col_pos, col_neg)
    n_std = 0
    extra_ub_rows: list[tuple[int, float]] = []  # (original var index, width)
    for j in range(n):
        lo, up = lower[j], upper[j]
        if math.isfinite(lo):
            col_of.append(("shift", n_std, lo))
            n_std += 1
            if math.isfinite(up):
                extra_ub_rows.append((j, up - lo))
        elif math.isfinite(up):
            col_of.append(("flip", n_std, up))
            n_std += 1
        else:
            col_of.append(("free", n_std, n_std + 1))
            n_std += 2

    def expand(coeffs: np.ndarray, rhs: float) -> tuple[np.ndarray, float]:
        row = np.zeros(n_std)
        shift = 0.0
        for j in range(n):
            cj = coeffs[j]
            if cj == 0.0:
                continue
            kind = col_of[j]
            if kind[0] == "shift":
                row[kind[1]] += cj
                shift += cj * kind[2]
            elif kind[0] == "flip":
                row[kind[1]] -= cj
                shift += cj * kind[2]
            else:
                row[kind[1]] += cj
                row[kind[2]] -= cj
        return row, rhs - shift

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    senses: list[str] = []
    for i in range(lp.b_ub.size):
        row, b = expand(lp.a_ub[i], float(lp.b_ub[i]))
        rows.append(row)
        rhs.append(b)
        senses.append("<=")
    for i in range(lp.b_eq.size):
        row, b = expand(lp.a_eq[i], float(lp.b_eq[i]))
        rows.append(row)
        rhs.append(b)
        senses.append("=")
    for j, width in extra_ub_rows:
        coeffs = np.zeros(n)
        coeffs[j] = 1.0
        row, b = expand(coeffs, lower[j] + width)
        rows.append(row)
        rhs.append(b)
        senses.append("<=")

    # The affine shift of the objective is dropped here; the reported
    # objective is recomputed from the recovered x at the end.
    obj_std, _ = expand(lp.objective, 0.0)

    m = len(rows)
    a = np.vstack(rows) if m else np.zeros((0, n_std))
    b = np.asarray(rhs)

    n_slack = sum(1 for s in senses if s == "<=")
    total = n_std + n_slack + m  # slacks then one artificial per row
    A = np.zeros((m, total))
    A[:, :n_std] = a
    si = 0
    for i, s in enumerate(senses):
        if s == "<=":
            A[i, n_std + si] = 1.0
            si += 1
    neg = b < 0.0
    A[neg] *= -1.0
    b = np.abs(b)
    art_base = n_std + n_slack
    basis: list[int] = []
    for i in range(m):
        A[i, art_base + i] = 1.0
        basis.append(art_base + i)

    max_iter = max_iter if max_iter is not None else max(2000, 60 * (m + total))

    # Phase 1: minimize the sum of artificials.
    tableau = np.zeros((m + 1, total + 1))
    tableau[:m, :total] = A
    tableau[:m, -1] = b
    tableau[-1, art_base:art_base + m] = 1.0
    for i in range(m):
        tableau[-1] -= tableau[i]
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
    if len(keep_rows) != m:
        rows_idx = keep_rows + [m]
        tableau = tableau[rows_idx]
        basis = [basis[i] for i in keep_rows]
        m = len(keep_rows)

    # Phase 2 with the real objective over structural + slack columns.
    n_cols2 = art_base
    t2 = np.zeros((m + 1, n_cols2 + 1))
    t2[:m, :n_cols2] = tableau[:m, :n_cols2]
    t2[:m, -1] = tableau[:m, -1]
    t2[-1, :n_std] = obj_std
    for i in range(m):
        if basis[i] < n_cols2:
            t2[-1] -= t2[-1, basis[i]] * t2[i]
    status, it2 = _run_simplex(t2, basis, n_cols2, max_iter, iteration_offset=it1)
    iterations = it1 + it2
    if status == "Unbounded":
        return LPSolution("Unbounded", None, -math.inf, iterations, math.nan)

    z = np.zeros(n_cols2)
    for i in range(m):
        if basis[i] < n_cols2:
            z[basis[i]] = t2[i, -1]
    x = np.empty(n)
    for j in range(n):
        kind = col_of[j]
        if kind[0] == "shift":
            x[j] = kind[2] + z[kind[1]]
        elif kind[0] == "flip":
            x[j] = kind[2] - z[kind[1]]
        else:
            x[j] = z[kind[1]] - z[kind[2]]

    residual = 0.0
    if lp.b_ub.size:
        residual = max(residual, float(np.max(lp.a_ub @ x - lp.b_ub)))
    if lp.b_eq.size:
        residual = max(residual, float(np.max(np.abs(lp.a_eq @ x - lp.b_eq))))
    finite_lo = np.isfinite(lower)
    finite_up = np.isfinite(upper)
    if np.any(finite_lo):
        residual = max(residual, float(np.max(lower[finite_lo] - x[finite_lo], initial=0.0)))
    if np.any(finite_up):
        residual = max(residual, float(np.max(x[finite_up] - upper[finite_up], initial=0.0)))
    return LPSolution("Optimal", x, float(lp.objective @ x), iterations, max(residual, 0.0))
