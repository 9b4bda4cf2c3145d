import io
import math

import numpy as np
import pytest

from recrisk.errors import TargetReturnInfeasible
from recrisk.frontier import (FrontierPoint, FrontierResult, PortfolioProblem, build_lp,
                              efficient_frontier, minimax_check,
                              position_sample, psi, read_problem_csv,
                              solve_portfolio, write_frontier_csv)
from recrisk.measures import avar_empirical, reavar
from recrisk.recovery import RecoveryFunction
from recrisk.simplex import solve_lp


def small_problem():
    return PortfolioProblem(np.array([[0.1], [-0.2]]), np.array([0.05, 0.05]),
                            RecoveryFunction.constant(0.5))


def random_problem(rng, m=50, k=2, pieces=3):
    returns = rng.normal(0.03, 0.12, size=(m, k)) * rng.uniform(0.5, 1.5, size=k)
    z = rng.uniform(0.0, 0.25, size=m)
    levels = np.sort(rng.uniform(0.02, 0.5, pieces))
    while np.min(np.diff(levels)) < 1e-3:
        levels = np.sort(rng.uniform(0.02, 0.5, pieces))
    bps = np.sort(rng.uniform(0.1, 0.9, pieces - 1))
    while pieces > 2 and np.min(np.diff(bps)) < 1e-3:
        bps = np.sort(rng.uniform(0.1, 0.9, pieces - 1))
    gamma = RecoveryFunction(tuple(bps), tuple(levels))
    return PortfolioProblem(returns, z, gamma)


def test_psi_hand_value():
    # K=1, M=2 equal weights, R = [0.1, -0.2], Z = 0.05, full-recovery piece
    # at level 0.5, v = 0: positive parts (0 - 0.1 + 0.05)^+ = 0 and
    # (0 + 0.2 + 0.05)^+ = 0.25, so psi = 0.125 / 0.5 = 0.25
    assert psi(small_problem(), 0, [1.0], 0.0) == pytest.approx(0.25, abs=1e-15)


def test_psi_grows_linearly_for_deep_thresholds():
    prob = small_problem()
    lo = psi(prob, 0, [1.0], -50.0)
    assert lo == pytest.approx(50.0, abs=1e-9)  # positive part vanishes
    hi = psi(prob, 0, [1.0], 60.0)
    assert hi > 0.0


def test_psi_convex_in_threshold():
    rng = np.random.default_rng(71)
    prob = random_problem(rng)
    x = np.full(prob.n_assets, 1.0 / prob.n_assets)
    for _ in range(50):
        v1, v2 = rng.normal(0, 1, 2)
        mid = 0.5 * (v1 + v2)
        for i in range(prob.gamma.n_pieces):
            lhs = psi(prob, i, x, mid)
            rhs = 0.5 * psi(prob, i, x, v1) + 0.5 * psi(prob, i, x, v2)
            assert lhs <= rhs + 1e-12


def test_psi_jointly_convex_in_allocation_and_threshold():
    rng = np.random.default_rng(72)
    prob = random_problem(rng, k=3)
    for _ in range(50):
        x1 = rng.dirichlet(np.ones(3))
        x2 = rng.dirichlet(np.ones(3))
        v1, v2 = rng.normal(0, 1, 2)
        for i in range(prob.gamma.n_pieces):
            lhs = psi(prob, i, 0.5 * (x1 + x2), 0.5 * (v1 + v2))
            rhs = 0.5 * psi(prob, i, x1, v1) + 0.5 * psi(prob, i, x2, v2)
            assert lhs <= rhs + 1e-12


def test_inner_minimum_is_tail_average():
    # variational identity: min over v of psi_i equals the piece tail average
    rng = np.random.default_rng(73)
    for _ in range(20):
        prob = random_problem(rng, m=40)
        x = rng.dirichlet(np.ones(prob.n_assets))
        res = minimax_check(prob, x)
        pieces = prob.gamma.pieces()
        inner = []
        for r_i, alpha_i in pieces:
            w_vals = prob.returns @ x - r_i * prob.liability_fraction
            inner.append(avar_empirical(w_vals, prob.weights, alpha_i))
        assert res.lhs == pytest.approx(max(inner), abs=1e-9)


def test_minimax_equality_random():
    rng = np.random.default_rng(74)
    for _ in range(40):
        prob = random_problem(rng, m=int(rng.integers(10, 60)),
                              k=int(rng.integers(1, 4)),
                              pieces=int(rng.integers(1, 4)) + 1)
        x = rng.dirichlet(np.ones(prob.n_assets))
        res = minimax_check(prob, x)  # raises if the gap exceeds 1e-6
        assert res.gap <= 1e-6
        # both routes equal the recovery tail-average of the induced position
        assert res.lhs == pytest.approx(reavar(position_sample(prob, x), prob.gamma),
                                        abs=1e-9)
        assert res.rhs == pytest.approx(res.lhs, abs=1e-6)


def test_single_piece_minimax_trivial():
    prob = small_problem()
    res = minimax_check(prob, [1.0])
    assert res.lhs == pytest.approx(res.rhs, abs=1e-12)


def test_build_lp_dimensions():
    rng = np.random.default_rng(75)
    prob = random_problem(rng, m=17, k=3, pieces=3)
    lp = build_lp(prob.with_target(float(prob.mean_returns()[0])))
    p = prob.gamma.n_pieces
    # one threshold per piece plus the epigraph variable
    assert lp.n_variables == 3 + p + 1 + p * 17
    assert lp.b_ub.size == p + p * 17
    assert lp.b_eq.size == 2
    lp_free = build_lp(prob)
    assert lp_free.b_eq.size == 1


def test_uniform_weights_reduce_to_plain_coefficients():
    # explicit 1/M weights and the uniform default build identical programs
    rng = np.random.default_rng(85)
    m = 13
    returns = rng.normal(0.02, 0.1, size=(m, 2))
    z = rng.uniform(0, 0.2, size=m)
    gamma = RecoveryFunction.two_piece(0.1, 0.5, 0.3)
    default = build_lp(PortfolioProblem(returns, z, gamma))
    explicit = build_lp(PortfolioProblem(returns, z, gamma,
                                         weights=np.full(m, 1.0 / m)))
    assert np.array_equal(default.a_ub, explicit.a_ub)
    assert np.array_equal(default.b_ub, explicit.b_ub)
    assert np.array_equal(default.a_eq, explicit.a_eq)
    # tail rows carry exactly w_m / alpha_i with w_m = 1/M
    p = gamma.n_pieces
    for i, (_, alpha_i) in enumerate(gamma.pieces()):
        u_block = default.a_ub[i, 2 + p + 1 + i * m: 2 + p + 1 + (i + 1) * m]
        assert np.array_equal(u_block, np.full(m, 1.0 / m) / alpha_i)


def test_build_lp_rows_follow_the_docstring_formulas():
    # variables (x_1, x_2, v_1, v_2, Upsilon, u_{1,1..3}, u_{2,1..3});
    # tail row i:  (1/alpha_i) sum_m w_m u_{i,m} - v_i - Upsilon <= 0
    # hinge (i,m): v_i - sum_k x_k R_{m,k} - u_{i,m} <= -r_i Z_m
    returns = np.array([[0.1, -0.2], [0.0, 0.3], [-0.4, 0.05]])
    z = np.array([0.2, 0.0, 0.1])
    w = np.array([0.5, 0.25, 0.25])
    gamma = RecoveryFunction.two_piece(0.1, 0.5, 0.25)
    lp = build_lp(PortfolioProblem(returns, z, gamma, weights=w))
    (r1, a1), (r2, a2) = gamma.pieces()
    x1, x2, v1, v2, ups = range(5)

    def u(i, m):
        return 5 + 3 * i + m

    expected = np.zeros((8, 11))
    for i, (v_i, alpha_i) in enumerate(((v1, a1), (v2, a2))):
        expected[i, v_i] = expected[i, ups] = -1.0
        for m in range(3):
            expected[i, u(i, m)] = w[m] / alpha_i
    expected_b = np.zeros(8)
    for i, (v_i, r_i) in enumerate(((v1, r1), (v2, r2))):
        for m in range(3):
            row = 2 + 3 * i + m
            expected[row, v_i] = 1.0
            expected[row, [x1, x2]] = -returns[m]
            expected[row, u(i, m)] = -1.0
            expected_b[row] = -r_i * z[m]
    assert lp.a_ub.tobytes() == expected.tobytes()
    assert lp.b_ub.tobytes() == expected_b.tobytes()


def test_target_return_hull_validation():
    rng = np.random.default_rng(76)
    prob = random_problem(rng)
    means = prob.mean_returns()
    with pytest.raises(TargetReturnInfeasible):
        build_lp(prob.with_target(float(np.max(means)) + 0.1))


def test_identical_assets_make_target_irrelevant():
    rng = np.random.default_rng(77)
    col = rng.normal(0.02, 0.1, size=40)
    returns = np.column_stack([col, col])
    z = rng.uniform(0.0, 0.2, size=40)
    gamma = RecoveryFunction.two_piece(0.05, 0.6, 0.2)
    prob = PortfolioProblem(returns, z, gamma)
    sol = solve_portfolio(prob.with_target(float(col.mean())))
    single = reavar(position_sample(prob, [1.0, 0.0]), gamma)
    assert sol.upsilon == pytest.approx(single, abs=1e-8)


def test_k1_forced_allocation_matches_scalar_oracle():
    rng = np.random.default_rng(78)
    prob = random_problem(rng, m=30, k=1)
    sol = solve_portfolio(prob)
    assert sol.x == pytest.approx([1.0], abs=1e-9)
    res = minimax_check(prob, [1.0])
    assert sol.upsilon == pytest.approx(res.rhs, abs=1e-7)


def test_lp_optimum_matches_brute_force_grid():
    rng = np.random.default_rng(79)
    prob = random_problem(rng, m=100, k=2)
    sol = solve_portfolio(prob)
    grid = []
    for x1 in np.linspace(0.0, 1.0, 101):
        grid.append(reavar(position_sample(prob, [x1, 1.0 - x1]), prob.gamma))
    grid_min = min(grid)
    assert sol.upsilon <= grid_min + 1e-7
    lipschitz = float(np.max(np.abs(prob.returns[:, 0] - prob.returns[:, 1])))
    assert grid_min - sol.upsilon <= 0.01 * lipschitz + 1e-7


def test_lp_optimum_equals_reavar_at_solution():
    rng = np.random.default_rng(80)
    for _ in range(5):
        prob = random_problem(rng, m=60, k=3)
        means = prob.mean_returns()
        c = float(0.5 * (means.min() + means.max()))
        sol = solve_portfolio(prob.with_target(c))
        assert sol.status == "Optimal"
        check = reavar(position_sample(prob, sol.x), prob.gamma)
        assert sol.upsilon == pytest.approx(check, abs=1e-6)


def test_frontier_single_asset_single_point():
    rng = np.random.default_rng(81)
    prob = random_problem(rng, m=25, k=1)
    c = float(prob.mean_returns()[0])
    result = efficient_frontier(prob, [c])
    assert len(result.points) == 1
    assert result.points[0].status == "Optimal"
    assert result.convex_in_c


def test_frontier_shape_and_budget_scaling():
    rng = np.random.default_rng(82)
    prob = PortfolioProblem(rng.normal(0.04, 0.1, size=(80, 2)),
                            rng.uniform(0, 0.2, 80),
                            RecoveryFunction.two_piece(0.05, 0.5, 0.2),
                            budget=100.0)
    means = prob.mean_returns()
    grid = np.linspace(means.min(), means.max(), 7)
    result = efficient_frontier(prob, grid)
    assert result.convex_in_c
    solved = result.optimal_points()
    assert len(solved) == 7
    for p in solved:
        assert p.risk == pytest.approx(-100.0 + 100.0 * p.upsilon, abs=1e-9)
    # risk is non-decreasing beyond the risk-minimizing target
    ups = [p.upsilon for p in solved]
    j = int(np.argmin(ups))
    assert all(b >= a - 1e-9 for a, b in zip(ups[j:], ups[j + 1:]))


def test_unconstrained_solution_is_frontier_floor():
    rng = np.random.default_rng(83)
    prob = random_problem(rng, m=60, k=2)
    free = solve_portfolio(prob)
    means = prob.mean_returns()
    grid = np.linspace(means.min(), means.max(), 9)
    result = efficient_frontier(prob, grid)
    floor = min(p.upsilon for p in result.optimal_points())
    assert free.upsilon <= floor + 1e-9
    # pinning the target at the unconstrained optimum's return reproduces it
    c_star = float(means @ free.x)
    pinned = solve_portfolio(prob.with_target(c_star))
    assert pinned.upsilon == pytest.approx(free.upsilon, abs=1e-8)


def test_infeasible_targets_are_recorded_not_fatal():
    rng = np.random.default_rng(84)
    prob = random_problem(rng, m=30, k=2)
    means = prob.mean_returns()
    grid = [float(means.min()) - 1.0, float(means.mean()), float(means.max()) + 1.0]
    result = efficient_frontier(prob, grid)
    statuses = [p.status for p in result.points]
    assert statuses[0] == "Infeasible" and statuses[2] == "Infeasible"
    assert statuses[1] == "Optimal"


def test_problem_csv_round_trip():
    text = "weight,R_1,R_2,Z\n0.5,0.1,0.0,0.05\n0.5,-0.2,0.01,0.1\n"
    gamma = RecoveryFunction.constant(0.5)
    prob = read_problem_csv(io.StringIO(text), gamma, budget=10.0)
    assert prob.n_assets == 2
    assert prob.budget == 10.0
    assert np.array_equal(prob.liability_fraction, [0.05, 0.1])
    result = efficient_frontier(prob, [float(prob.mean_returns().mean())])
    buf = io.StringIO()
    write_frontier_csv(result, prob.n_assets, buf)
    header = buf.getvalue().splitlines()[0]
    assert header == "c,risk,upsilon,x_1,x_2,status"


def test_frontier_csv_literal_text_with_an_infeasible_row():
    result = FrontierResult((FrontierPoint(0.01, "Optimal", 0.5, -0.5, (0.25, 0.75)),
                             FrontierPoint(0.5, "Infeasible", math.nan, math.nan, ())), True)
    buf = io.StringIO()
    write_frontier_csv(result, 2, buf)
    assert buf.getvalue() == ("c,risk,upsilon,x_1,x_2,status\n"
                              "0.01,-0.5,0.5,0.25,0.75,Optimal\n"
                              "0.5,nan,nan,nan,nan,Infeasible\n")


@pytest.mark.parametrize("budget", [math.nan, math.inf, 0.0])
def test_budget_must_be_positive_and_finite(budget):
    with pytest.raises(ValueError, match="budget"):
        PortfolioProblem(np.zeros((2, 1)), np.zeros(2), RecoveryFunction.constant(0.5),
                         budget=budget)
