"""Differential test: ``recrisk.simplex`` against the dense reference solver.

The column-major pivot update (slices over long runs of the pivot row's
nonzero columns, a gather over the rest) claims the dense update's per-element
arithmetic, so every observable result must be ``==``: the status, the bytes
of x (the sign of a zero counts), the repr of the objective and residual,
and the iteration count, or the same ``SolverStalled`` message.
"""

import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import simplex_reference
from recrisk import simplex
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


def frontier_lp_shapes(seed, m=200):
    """The benchmark's frontier LPs: K=3 assets with fixed volatilities,
    pieces (0.6; 2%, 10%), and five targets at 10-90% of the mean-return
    hull."""
    rng = np.random.default_rng(seed)
    vol = np.array([0.08, 0.15, 0.22])
    returns = rng.normal(0.01 + 0.25 * vol, vol, size=(m, vol.size))
    problem = PortfolioProblem(returns, rng.uniform(0.0, 0.3, size=m),
                               RecoveryFunction((0.6,), (0.02, 0.10)))
    means = problem.mean_returns()
    lo, hi = float(means.min()), float(means.max())
    return [build_lp(problem.with_target(lo + f * (hi - lo))) for f in (0.1, 0.3, 0.5, 0.7, 0.9)]


@pytest.mark.parametrize("seed, hard", [(4, False), (12, True)])
def test_frontier_workload_lps_match_reference(seed, hard, monkeypatch):
    runs = []
    column_runs = simplex._column_runs

    def recording(row):
        starts, ends = column_runs(row)
        runs.append(ends - starts)
        return starts, ends

    monkeypatch.setattr(simplex, "_column_runs", recording)
    iterations = []
    for lp in frontier_lp_shapes(seed):
        new = outcome(solve_lp, lp)
        assert new == outcome(simplex_reference.solve_lp, lp)
        assert new[0] == "Optimal"
        iterations.append(new[3])
    assert (max(iterations) >= 900) == hard  # seed 12's last target is the hard case
    lengths = np.concatenate(runs)
    assert np.any(lengths >= simplex.RUN_COLUMNS)  # slice updates ran
    assert np.any(lengths < simplex.RUN_COLUMNS)   # gathered columns ran


@pytest.mark.parametrize("row, starts, ends", [
    ([0.0, 0.0, 0.0, 0.0], [], []),
    ([0.0, 0.0, 0.0, 5.0], [], []),                      # right-hand side alone
    ([0.0, 2.0, 0.0, 0.0, 1.0], [1], [2]),               # one column
    ([1.0, -1.0, 3.0, 1.0, 1.0], [0], [4]),              # every column
    ([1.0, 0.0, 1.0, -0.0, 1.0, 0.0, 7.0], [0, 2, 4], [1, 3, 5]),  # alternating
    ([0.0, 1.0, 1.0, 1.0, 9.0], [1], [4]),               # a run up to the right-hand side
    ([1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0], [0, 3], [2, 6]),
])
def test_column_runs_split_the_pivot_row_without_its_right_hand_side(row, starts, ends):
    got_starts, got_ends = simplex._column_runs(np.asarray(row))
    assert got_starts.tolist() == starts
    assert got_ends.tolist() == ends


def test_pivot_updates_every_element_as_the_dense_update():
    """Runs longer than a chunk, runs at the threshold and single columns, in
    one pivot row: the values equal the dense rank-1 update, zero signs
    aside, and the right-hand-side column is bit for bit the same."""
    rng = np.random.default_rng(815)
    n = 3 * simplex.CHUNK_COLUMNS + 40
    lengths = [simplex.CHUNK_COLUMNS + 5, simplex.RUN_COLUMNS, simplex.RUN_COLUMNS - 1, 1, 2]
    for _ in range(20):
        tableau = np.asfortranarray(rng.normal(size=(30, n + 1)))
        tableau[rng.random(tableau.shape) < 0.2] = 0.0
        row = int(rng.integers(29))
        pattern = np.zeros(n, dtype=bool)
        at = int(rng.integers(3))
        for length in rng.permutation(lengths):
            pattern[at:at + length] = True
            at += int(length) + int(rng.integers(1, 4))
        tableau[row, :n] = np.where(pattern, rng.normal(size=n), 0.0)
        col = int(rng.choice(np.flatnonzero(pattern)))
        dense = np.ascontiguousarray(tableau)
        simplex_reference._pivot(dense, row, col)
        simplex._pivot(tableau, row, col)
        assert np.array_equal(tableau, dense)
        assert tableau[:, -1].tobytes() == dense[:, -1].tobytes()


def test_tableau_arithmetic_calls_no_blas():
    """Byte identity with the dense oracle rests on elementwise numpy
    arithmetic: a BLAS product (``@``, ``dot``, ``matmul``, ``einsum``) may
    block its sums or fuse multiply-adds and change last digits."""
    tree = ast.parse(Path(simplex.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    offenders = []
    for name in ("_pivot", "_run_simplex", "_reduce_costs", "_column_runs"):
        for node in ast.walk(functions[name]):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                offenders.append(f"{name}:{node.lineno}: @")
            label = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if label in ("dot", "vdot", "matmul", "einsum", "inner", "tensordot"):
                offenders.append(f"{name}:{node.lineno}: {label}")
    assert offenders == []
