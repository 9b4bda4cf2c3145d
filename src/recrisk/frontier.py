"""Portfolio optimization under a Recovery AVaR objective.

For a piecewise-constant level function the portfolio's Recovery AVaR is a
finite maximum of tail averages of R @ x - r_i * Z.  Each tail average has
the variational form

    min_v  (1/alpha_i) E[(v - (R @ x - r_i Z))^+] - v,

so minimizing the worst piece is a linear program once the expectation is
written over scenarios.  Each piece carries its own threshold variable: the
piece minimizers need not align, so a single threshold shared across pieces
can strictly overshoot the finite maximum (the worst-case tail averages sit
at different quantiles); with separate thresholds the epigraph formulation
is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError, TargetReturnInfeasible
from .measures import avar_and_lower_quantile
from .recovery import RecoveryFunction
from .samples import (WeightedSample, checked_weights, freeze, numbered_columns, read_table,
                      write_table)
from .simplex import LinearProgram, LPSolution, solve_lp

__all__ = [
    "PortfolioProblem", "position_sample", "psi", "MinimaxResult",
    "minimax_check", "build_lp", "PortfolioSolution", "solve_portfolio",
    "FrontierPoint", "FrontierResult", "efficient_frontier",
    "read_problem_csv", "write_frontier_csv",
]

MINIMAX_TOL = 1e-6


@dataclass(frozen=True)
class PortfolioProblem:
    """Scenario data for the risk-return tradeoff.

    ``returns`` holds one-period asset returns per scenario (M x K);
    ``liability_fraction`` the liabilities as a fraction of the budget.
    ``target_return`` of None drops the expected-return constraint.
    """

    returns: np.ndarray
    liability_fraction: np.ndarray
    gamma: RecoveryFunction
    budget: float = 1.0
    weights: np.ndarray = None  # type: ignore[assignment]
    target_return: float | None = None

    def __post_init__(self) -> None:
        r = np.atleast_2d(np.asarray(self.returns, dtype=float))
        z = np.atleast_1d(np.asarray(self.liability_fraction, dtype=float))
        if r.shape[0] != z.size or r.size == 0:
            raise ValueError("returns must be (M, K) with liability fractions of length M")
        freeze(self, "scenario data", returns=r, liability_fraction=z)
        if not (0.0 < self.budget < math.inf):
            raise ValueError(f"budget must be positive and finite, got {self.budget!r}")
        freeze(self, "weights", weights=checked_weights(self.weights, r.shape[0]))

    @property
    def n_assets(self) -> int:
        return self.returns.shape[1]

    @property
    def n_scenarios(self) -> int:
        return self.returns.shape[0]

    def mean_returns(self) -> np.ndarray:
        return self.weights @ self.returns

    def with_target(self, c: float | None) -> "PortfolioProblem":
        return replace(self, target_return=c)


def position_sample(problem: PortfolioProblem, x) -> WeightedSample:
    """The (R @ x - Z, Z) sample whose Recovery AVaR the program minimizes."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    pos = problem.returns @ x - problem.liability_fraction
    return WeightedSample(pos, problem.liability_fraction, problem.weights)


def psi(problem: PortfolioProblem, i: int, x, v: float) -> float:
    """Auxiliary function for piece i: (1/alpha_i) E[(v - (R@x - r_i Z))^+] - v."""
    pieces = problem.gamma.pieces()
    if not (0 <= i < len(pieces)):
        raise ValueError(f"piece index {i} out of range")
    r_i, alpha_i = pieces[i]
    x = np.atleast_1d(np.asarray(x, dtype=float))
    shortfall = v - (problem.returns @ x - r_i * problem.liability_fraction)
    expect = float(np.dot(problem.weights, np.maximum(shortfall, 0.0)))
    return expect / alpha_i - float(v)


@dataclass(frozen=True)
class MinimaxResult:
    lhs: float   # variational route: max over pieces of the inner minimum
    rhs: float   # direct route: max over pieces of the sorted tail average
    gap: float
    v_star: float  # binding piece's lower quantile, where its psi is least


def minimax_check(problem: PortfolioProblem, x) -> MinimaxResult:
    """Cross-check the two evaluations of the piecewise risk at allocation x.

    Every piece's tail average is computed twice: by its variational form
    psi evaluated at the piece's lower quantile, an exact minimizer
    (Rockafellar & Uryasev 2000, Thm 1), and by the direct sorted tail
    average.  The check confirms the max-min exchange over the per-piece
    thresholds: minimizing each piece over its own threshold and then taking
    the worst piece reproduces the finite-max risk measure.  Raises
    :class:`NumericalError` if the two routes disagree beyond 1e-6.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    pieces = problem.gamma.pieces()
    lhs = -math.inf
    rhs = -math.inf
    v_star = math.nan
    for i, (r_i, alpha_i) in enumerate(pieces):
        w_vals = problem.returns @ x - r_i * problem.liability_fraction
        tail_average, v_i = avar_and_lower_quantile(w_vals, problem.weights, alpha_i)
        inner = psi(problem, i, x, v_i)
        if inner > lhs:
            lhs, v_star = inner, v_i
        rhs = max(rhs, tail_average)
    gap = abs(rhs - lhs)
    if gap > MINIMAX_TOL:
        raise NumericalError(f"minimax gap {gap:.3e} exceeds {MINIMAX_TOL:.1e}")
    return MinimaxResult(lhs, rhs, gap, v_star)


def build_lp(problem: PortfolioProblem) -> LinearProgram:
    """Scenario linear program: variables (x, v_1..v_p, Upsilon, u_{i,m}),
    minimize Upsilon over the per-piece epigraph rows.

    Scenario weights generalize the uniform 1/M coefficients: the tail row
    for piece i reads (1/alpha_i) sum_m w_m u_{i,m} - v_i <= Upsilon, and the
    hinge rows read u_{i,m} >= v_i - sum_k x_k R_{m,k} + r_i Z_m.  One
    threshold per piece keeps the optimal Upsilon equal to the piecewise-max
    risk of the optimal allocation; a shared threshold would only bound it
    from above.
    """
    m_sc = problem.n_scenarios
    k = problem.n_assets
    r, alpha = np.array(problem.gamma.pieces()).T
    p = r.size
    n_var = k + p + 1 + p * m_sc
    idx_ups = k + p
    # u_{i,m} is column idx_ups + 1 + j and its hinge row is p + j, j = i * M + m
    j = np.arange(p * m_sc)
    piece = j // m_sc

    a_ub = np.zeros((p + p * m_sc, n_var))
    b_ub = np.zeros(p + p * m_sc)
    a_ub[np.arange(p), k + np.arange(p)] = -1.0
    a_ub[:p, idx_ups] = -1.0
    a_ub[piece, idx_ups + 1 + j] = (problem.weights / alpha[:, None]).ravel()
    a_ub[p + j, k + piece] = 1.0
    a_ub[p:, :k] = np.tile(-problem.returns, (p, 1))
    a_ub[p + j, idx_ups + 1 + j] = -1.0
    b_ub[p:] = (-r[:, None] * problem.liability_fraction).ravel()

    means = problem.mean_returns()
    if problem.target_return is None:
        a_eq = np.zeros((1, n_var))
        a_eq[0, :k] = 1.0
        b_eq = np.array([1.0])
    else:
        c = float(problem.target_return)
        if not (float(np.min(means)) - 1e-12 <= c <= float(np.max(means)) + 1e-12):
            raise TargetReturnInfeasible(
                f"target return {c!r} outside the attainable hull "
                f"[{float(np.min(means))!r}, {float(np.max(means))!r}]"
            )
        a_eq = np.zeros((2, n_var))
        a_eq[0, :k] = 1.0
        a_eq[1, :k] = means
        b_eq = np.array([1.0, c])

    lower = np.concatenate([np.zeros(k), np.full(p + 1, -np.inf), np.zeros(p * m_sc)])
    upper = np.concatenate([np.ones(k), np.full(p + 1, np.inf), np.full(p * m_sc, np.inf)])
    objective = np.zeros(n_var)
    objective[idx_ups] = 1.0
    return LinearProgram(objective, a_ub, b_ub, a_eq, b_eq, lower, upper)


@dataclass(frozen=True)
class PortfolioSolution:
    status: str
    x: np.ndarray | None
    v: np.ndarray | None      # per-piece thresholds
    upsilon: float
    objective: float
    lp_solution: LPSolution


def solve_portfolio(problem: PortfolioProblem) -> PortfolioSolution:
    """Build and solve the scenario LP; cross-checks the reported optimum
    against the piece functions at the solution."""
    lp = build_lp(problem)
    sol = solve_lp(lp)
    if sol.status != "Optimal":
        return PortfolioSolution(sol.status, None, None, math.nan, math.nan, sol)
    k = problem.n_assets
    p = problem.gamma.n_pieces
    x = sol.x[:k]
    v = sol.x[k:k + p]
    upsilon = float(sol.x[k + p])
    if sol.residual > 1e-7:
        raise NumericalError(f"LP feasibility residual {sol.residual:.3e} exceeds 1e-7")
    recomputed = max(psi(problem, i, x, float(v[i])) for i in range(p))
    if abs(recomputed - upsilon) > 1e-7:
        raise NumericalError(
            f"LP objective {upsilon!r} disagrees with the piece recomputation {recomputed!r}"
        )
    return PortfolioSolution("Optimal", x, v, upsilon, sol.objective, sol)


@dataclass(frozen=True)
class FrontierPoint:
    c: float
    status: str
    upsilon: float       # Recovery AVaR of the unit-budget position
    risk: float          # money scale: -budget + budget * upsilon
    x: tuple[float, ...]


@dataclass(frozen=True)
class FrontierResult:
    points: tuple[FrontierPoint, ...]
    convex_in_c: bool

    def optimal_points(self) -> list[FrontierPoint]:
        return [p for p in self.points if p.status == "Optimal"]


def efficient_frontier(problem: PortfolioProblem, c_grid) -> FrontierResult:
    """Minimize downside risk for each target return on the grid.

    Reports both the raw unit-budget optimum and the money-scaled risk
    -budget + budget * optimum.  Infeasible targets are recorded and the
    sweep continues.  Convexity of the optimum in the target is checked with
    a 1e-6 slack and flagged on the result.
    """
    points: list[FrontierPoint] = []
    for c in np.atleast_1d(np.asarray(c_grid, dtype=float)):
        try:
            sol = solve_portfolio(problem.with_target(float(c)))
        except TargetReturnInfeasible:
            points.append(FrontierPoint(float(c), "Infeasible", math.nan, math.nan, ()))
            continue
        if sol.status != "Optimal":
            points.append(FrontierPoint(float(c), sol.status, math.nan, math.nan, ()))
            continue
        risk = -problem.budget + problem.budget * sol.upsilon
        points.append(FrontierPoint(float(c), "Optimal", sol.upsilon, risk,
                                    tuple(float(v) for v in sol.x)))
    solved = [p for p in points if p.status == "Optimal"]
    convex = True
    for left, mid, right in zip(solved, solved[1:], solved[2:]):
        span = right.c - left.c
        if span <= 0.0:
            continue
        interp = (right.c - mid.c) / span * left.upsilon + (mid.c - left.c) / span * right.upsilon
        if mid.upsilon > interp + MINIMAX_TOL:
            convex = False
    return FrontierResult(tuple(points), convex)


def read_problem_csv(path_or_buffer, gamma: RecoveryFunction,
                     budget: float = 1.0) -> PortfolioProblem:
    """Problem CSV: header ``weight,R_1..R_K,Z`` (weight optional, columns in
    any order)."""
    cols, data, weights = read_table(path_or_buffer, "problem CSV")
    r_cols = numbered_columns(cols, "R_")
    if not r_cols or "Z" not in cols:
        raise ValueError("problem CSV needs R_1..R_K and Z columns")
    return PortfolioProblem(data[:, r_cols], data[:, cols.index("Z")], gamma,
                            budget=budget, weights=weights)


def write_frontier_csv(result: FrontierResult, n_assets: int, path_or_buffer) -> None:
    """Columns: c, risk (money scale), upsilon (raw optimum), x_1..x_K, status;
    the x columns of a point without an allocation read nan."""
    pts = result.points
    cols = ["c", "risk", "upsilon"] + [f"x_{k+1}" for k in range(n_assets)] + ["status"]
    xs = [[p.x[k] if p.x else math.nan for p in pts] for k in range(n_assets)]
    write_table(path_or_buffer, cols, [[p.c for p in pts], [p.risk for p in pts],
                                       [p.upsilon for p in pts], *xs, [p.status for p in pts]])
