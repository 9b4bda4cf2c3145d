"""Differential test: ``recrisk.simplex`` against the dense reference solver.

The column-major sparse pivot update claims the dense update's per-element
arithmetic, so every observable result must be ``==``: the status, the bytes
of x (the sign of a zero counts), the repr of the objective and residual,
and the iteration count, or the same ``SolverStalled`` message.
"""

from collections import Counter

import numpy as np
import pytest

import simplex_reference
from recrisk.errors import SolverStalled
from recrisk.frontier import PortfolioProblem, build_lp
from recrisk.recovery import RecoveryFunction
from recrisk.simplex import LinearProgram, solve_lp


def outcome(solver, lp, max_iter=None):
    try:
        sol = solver(lp, max_iter=max_iter)
    except SolverStalled as exc:
        return ("SolverStalled", str(exc))
    x = None if sol.x is None else sol.x.tobytes()
    return (sol.status, x, repr(sol.objective), sol.iterations, repr(sol.residual))


def assert_same(lp, max_iter=None):
    new = outcome(solve_lp, lp, max_iter)
    assert new == outcome(simplex_reference.solve_lp, lp, max_iter)
    return new[0]


def random_bounds(rng, n):
    """One bound kind per variable: shifted (a non-dyadic lower bound),
    boxed, flipped (upper bound only) or free."""
    lower = np.empty(n)
    upper = np.empty(n)
    for j, kind in enumerate(rng.integers(0, 4, size=n)):
        lo = float(rng.choice([0.0, 0.1, -1.0 / 3.0, 0.7]))
        if kind == 0:
            lower[j], upper[j] = lo, np.inf
        elif kind == 1:
            lower[j], upper[j] = lo, lo + float(rng.choice([0.3, 1.0, 2.5]))
        elif kind == 2:
            lower[j], upper[j] = -np.inf, float(rng.choice([0.0, 0.9, -0.2]))
        else:
            lower[j], upper[j] = -np.inf, np.inf
    return lower, upper


def random_lp(rng, half_integer):
    n = int(rng.integers(2, 7))
    m_ub = int(rng.integers(0, 6))
    m_eq = int(rng.integers(0, 3))

    def draw(*shape):
        if half_integer:  # coarse data: ratio ties and degenerate vertices
            return rng.integers(-4, 5, size=shape) / 2.0
        return rng.normal(0.0, 1.0, size=shape)

    a_eq = draw(m_eq, n)
    b_eq = draw(m_eq)
    if m_eq and rng.random() < 0.3:  # a redundant equality row
        a_eq = np.vstack([a_eq, a_eq[:1]])
        b_eq = np.append(b_eq, b_eq[0])
    lower, upper = random_bounds(rng, n)
    return LinearProgram(draw(n), draw(m_ub, n), draw(m_ub), a_eq, b_eq, lower, upper)


@pytest.mark.parametrize("half_integer", [False, True])
def test_random_general_lps_match_reference(half_integer):
    rng = np.random.default_rng(811 + half_integer)
    statuses = Counter(assert_same(random_lp(rng, half_integer)) for _ in range(300))
    # every outcome the solver can report is exercised
    assert statuses["Optimal"] >= 30
    assert statuses["Infeasible"] >= 10
    assert statuses["Unbounded"] >= 10


def test_degenerate_drive_out_matches_reference():
    # Redundant equality rows through the origin leave artificials basic at
    # zero after phase 1; they are driven out, sometimes on a negative
    # pivot element, or their rows are dropped.
    rng = np.random.default_rng(812)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        base = rng.integers(-2, 3, size=(2, n)) / 2.0
        a_eq = np.vstack([base, base[0] - base[1], -base[0]])
        lower, upper = random_bounds(rng, n)
        lp = LinearProgram(rng.integers(-3, 4, size=n) / 2.0, np.zeros((0, n)), np.zeros(0),
                           a_eq, np.zeros(4), lower, upper)
        assert_same(lp)


def test_infeasible_and_unbounded_match_reference():
    infeasible = LinearProgram([1.0, 1.0], [[1.0, 1.0]], [-1.0], np.zeros((0, 2)),
                               np.zeros(0), [0.0, 0.1], [np.inf, np.inf])
    unbounded = LinearProgram([-1.0, -0.5], [[1.0, -1.0]], [1.0], np.zeros((0, 2)),
                              np.zeros(0), [0.1, -np.inf], [np.inf, np.inf])
    assert assert_same(infeasible) == "Infeasible"
    assert assert_same(unbounded) == "Unbounded"


def frontier_problem(rng, m, target):
    returns = rng.normal(0.04, 0.15, size=(m, 3))
    returns[m // 2:] = returns[: m - m // 2]  # duplicated scenario rows
    z = np.full(m, 0.05)
    gamma = RecoveryFunction((0.6,), (0.05, 0.2))
    problem = PortfolioProblem(returns, z, gamma)
    if target:
        means = problem.mean_returns()
        problem = problem.with_target(float(0.3 * means.min() + 0.7 * means.max()))
    return problem


@pytest.mark.parametrize("target", [False, True])
def test_frontier_lps_match_reference(target):
    rng = np.random.default_rng(813 + target)
    for m in (8, 20, 40):
        assert assert_same(build_lp(frontier_problem(rng, m, target))) == "Optimal"


def test_iteration_cap_raises_on_both():
    rng = np.random.default_rng(814)
    lp = build_lp(frontier_problem(rng, 20, target=True))
    new = outcome(solve_lp, lp, max_iter=5)
    assert new[0] == "SolverStalled"
    assert new == outcome(simplex_reference.solve_lp, lp, max_iter=5)
