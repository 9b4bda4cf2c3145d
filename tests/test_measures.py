import math

import numpy as np
import pytest

from recrisk import measures
from recrisk.measures import (PiecewiseEvaluation, avar_empirical, l_reavar, l_revar,
                              min_recovery_pair, reavar, reavar_dual_bound,
                              reavar_grid, reavar_pieces,
                              recovery_probability_curve, revar, revar_grid,
                              revar_pieces, solvency_test, var_empirical)
from recrisk.recovery import RecoveryFunction
from recrisk.samples import WeightedSample


def two_state(k, alpha):
    """Good state weight 1 - alpha/2, bad state weight alpha/2."""
    return WeightedSample([100.0 - k, k - 100.0], [1.0, 100.0],
                          [1.0 - alpha / 2.0, alpha / 2.0])


# --- VaR ---------------------------------------------------------------------

def test_var_two_state_closed_form():
    for k in (0.0, 25.0, 70.0, 100.0):
        for alpha in (0.005, 0.01, 0.1):
            s = two_state(k, alpha)
            assert var_empirical(s.x, s.weights, alpha) == pytest.approx(k - 100.0, abs=1e-12)


def test_var_constant_sample():
    assert var_empirical([7.5], None, 0.3) == -7.5
    assert var_empirical([-2.0] * 4, None, 0.9) == 2.0


def test_var_small_sample_enumeration():
    # sorted sample -3,-1,2,5 with cumulative weights .25,.5,.75,1:
    # the first cumulative weight above 0.25 sits at -1, so VaR = 1.
    assert var_empirical([-3.0, -1.0, 2.0, 5.0], None, 0.25) == 1.0


def test_var_brute_force_infimum_definition():
    rng = np.random.default_rng(42)
    for _ in range(50):
        m = int(rng.integers(1, 12))
        values = rng.normal(0, 10, m)
        w = rng.uniform(0.1, 1.0, m)
        w /= w.sum()
        alpha = float(rng.uniform(0.02, 0.95))
        got = var_empirical(values, w, alpha)
        # brute force: smallest cash addition on the candidate grid {-x_m}
        feasible = [c for c in -values
                    if float(np.sum(w[values + c < 0.0])) <= alpha]
        assert got == pytest.approx(min(feasible), abs=1e-12)


def test_var_validation():
    with pytest.raises(ValueError):
        var_empirical([], None, 0.5)
    with pytest.raises(ValueError):
        var_empirical([1.0], None, 0.0)
    with pytest.raises(ValueError):
        var_empirical([1.0, 2.0], [0.9, 0.2], 0.5)


# --- AVaR --------------------------------------------------------------------

def test_avar_two_state_is_zero():
    for k in (0.0, 30.0, 100.0):
        for alpha in (0.005, 0.025, 0.2):
            s = two_state(k, alpha)
            assert avar_empirical(s.x, s.weights, alpha) == pytest.approx(0.0, abs=1e-12)


def test_avar_constant_sample():
    assert avar_empirical([3.25], None, 0.7) == -3.25


def test_avar_worst_half_average():
    # worst half of -3,-1,2,5 is {-3,-1}: mean loss (3+1)/2 = 2
    assert avar_empirical([-3.0, -1.0, 2.0, 5.0], None, 0.5) == pytest.approx(2.0, abs=1e-15)


def test_avar_is_level_average_of_var():
    # Riemann-sum oracle over the level argument
    rng = np.random.default_rng(7)
    values = rng.normal(0, 5, 9)
    w = rng.uniform(0.2, 1.0, 9)
    w /= w.sum()
    for alpha in (0.13, 0.5, 0.84):
        n = 40001
        betas = (np.arange(n) + 0.5) * alpha / n
        riemann = np.mean([var_empirical(values, w, b) for b in betas])
        assert avar_empirical(values, w, alpha) == pytest.approx(riemann, abs=5e-3)


def test_avar_dominates_var():
    rng = np.random.default_rng(8)
    for _ in range(25):
        values = rng.normal(0, 3, 8)
        alpha = float(rng.uniform(0.05, 0.9))
        assert avar_empirical(values, None, alpha) >= var_empirical(values, None, alpha) - 1e-12


# --- recovery measures under piecewise gamma -----------------------------------

def test_revar_two_state_example():
    # level beta below fraction r, level alpha above; beta < alpha/2 and
    # k <= 50 (r + 1) puts the shifted-position piece in charge: 100 r - k.
    alpha, beta, r = 0.01, 0.004, 0.8
    g = RecoveryFunction.two_piece(beta, r, alpha)
    for k in (10.0, 50.0, 80.0):
        assert k <= 50.0 * (r + 1.0)
        s = two_state(k, alpha)
        assert revar(s, g) == pytest.approx(100.0 * r - k, abs=1e-9)


def test_revar_zero_liabilities_binds_at_lowest_level():
    g = RecoveryFunction((0.4, 0.7), (0.05, 0.1, 0.3))
    x = np.array([-4.0, 1.0, 3.0, 9.0])
    s = WeightedSample(x, np.zeros(4), None)
    assert revar(s, g) == var_empirical(x, s.weights, 0.05)


def test_revar_small_sample():
    g = RecoveryFunction((0.5,), (0.25, 0.5))
    s = WeightedSample([-3.0, -1.0, 2.0, 5.0], [1.0, 2.0, 0.0, 4.0], None)
    # max{VaR_.25(x + .5 y) = 0, VaR_.5(x) = -2} = 0
    assert revar(s, g) == pytest.approx(0.0, abs=1e-15)
    ev = revar_pieces(s, g)
    assert ev.binding_fraction == 0.5
    assert ev.binding_level == 0.25


def test_reavar_two_state_example():
    alpha, beta, r = 0.01, 0.004, 0.8
    g = RecoveryFunction.two_piece(beta, r, alpha)
    for k in (10.0, 79.0):
        assert k <= 100.0 * r
        s = two_state(k, alpha)
        assert reavar(s, g) == pytest.approx(100.0 * r - k, abs=1e-9)


def test_reavar_zero_liabilities():
    g = RecoveryFunction((0.4,), (0.05, 0.3))
    x = np.array([-4.0, 1.0, 3.0, 9.0])
    s = WeightedSample(x, np.zeros(4), None)
    assert reavar(s, g) == avar_empirical(x, s.weights, 0.05)


def test_reavar_small_sample():
    g = RecoveryFunction((0.5,), (0.25, 0.5))
    s = WeightedSample([-3.0, -1.0, 2.0, 5.0], [1.0, 2.0, 0.0, 4.0], None)
    # max{AVaR_.5(x) = 2, AVaR_.25(x + .5 y) = 2.5}
    assert reavar(s, g) == pytest.approx(2.5, abs=1e-15)
    assert reavar_pieces(s, g).binding_fraction == 0.5


def test_negative_liabilities_rejected():
    g = RecoveryFunction.constant(0.1)
    s = WeightedSample([1.0], [-1.0], None)
    with pytest.raises(ValueError):
        revar(s, g)
    with pytest.raises(ValueError):
        reavar(s, g)


def test_tie_breaks_toward_smaller_fraction():
    # zero liabilities and positions make every piece evaluate to zero
    g = RecoveryFunction((0.5,), (0.1, 0.2))
    s = WeightedSample([0.0, 0.0], [0.0, 0.0], None)
    ev = revar_pieces(s, g)
    assert ev.binding_index == 0
    assert ev.binding_fraction == 0.5


def test_gap_is_the_relative_distance_to_the_runner_up():
    def gap(terms):
        j = int(np.argmax(terms))
        return PiecewiseEvaluation(terms[j], j, 1.0, 0.1, tuple(terms)).gap
    assert gap([3.0]) == math.inf
    assert gap([1.0, 4.0, 2.0]) == (4.0 - 2.0) / 4.0
    assert gap([0.5, 0.25]) == 0.25  # scaled by at least 1
    assert gap([-6.0, -8.0]) == 2.0 / 8.0
    assert gap([2.0, 5.0, 5.0]) == 0.0


# --- the evaluator's nodes -----------------------------------------------------

TEN_PIECES = RecoveryFunction(tuple(np.arange(1, 10) / 10.0), tuple(np.arange(1, 11) / 100.0))


def record_estimator(monkeypatch, name):
    """Replace ``measures.<name>`` by a recorder of (level, value, sample
    size) per call."""
    calls = []
    original = getattr(measures, name)

    def recorder(values, weights, level):
        value = original(values, weights, level)
        calls.append((level, value, np.size(values)))
        return value
    monkeypatch.setattr(measures, name, recorder)
    return calls


def assert_nodes(calls, nodes, estimator, s, position):
    """One call per node, in node order and at the node's level.  The
    evaluator runs the nodes on one censored sample (``measures.screen``),
    smaller than ``s``; each node's value must still be the estimator's on
    the node's full-sample position, bit for bit."""
    assert len(calls) == len(nodes)
    assert len({size for _, _, size in calls}) == 1 and calls[0][2] < s.size
    for (level, value, _), (lam, want) in zip(calls, nodes):
        assert level == want
        full = estimator(position(lam), s.weights, level)
        assert np.float64(value).tobytes() == np.float64(full).tobytes()


def node_sample():
    rng = np.random.default_rng(60)
    return WeightedSample(rng.normal(8.0, 3.0, 300), rng.gamma(2.0, 2.0, 300), None)


@pytest.mark.parametrize("fn, name, estimator", [(l_revar, "var_empirical", var_empirical),
                                                 (l_reavar, "avar_empirical", avar_empirical)])
def test_liability_side_nodes_are_grid_then_left_limits_then_one(monkeypatch, fn, name,
                                                                   estimator):
    s = node_sample()
    calls = record_estimator(monkeypatch, name)
    value = fn(s, TEN_PIECES, 51)
    grid = [(lam, TEN_PIECES(lam)) for lam in np.linspace(0.0, 1.0, 51)[1:]]
    left = [(r, TEN_PIECES.left_limit(r)) for r in TEN_PIECES.breakpoints]
    nodes = grid + left + [(1.0, 0.1)]
    assert_nodes(calls, nodes, estimator, s, lambda lam: s.x - lam * s.y)
    assert len(calls) == 60  # 50 grid nodes, 9 left limits, lam = 1 again
    assert value == max(estimator(s.x - lam * s.y, s.weights, a) / lam for lam, a in nodes)


def test_piece_nodes_follow_gamma_pieces(monkeypatch):
    s = node_sample()
    calls = record_estimator(monkeypatch, "var_empirical")
    ev = revar_pieces(s, TEN_PIECES)
    pieces = list(TEN_PIECES.pieces())
    assert_nodes(calls, pieces, var_empirical, s, lambda lam: s.x + (1.0 - lam) * s.y)
    assert ev.terms == tuple(var_empirical(s.x + (1.0 - lam) * s.y, s.weights, a)
                             for lam, a in pieces)


@pytest.mark.parametrize("n_grid", [2, 11, 51])
def test_asset_side_grid_nodes_add_both_levels_at_each_breakpoint(monkeypatch, n_grid):
    s = node_sample()
    calls = record_estimator(monkeypatch, "var_empirical")
    revar_grid(s, TEN_PIECES, n_grid)
    grid = [(lam, TEN_PIECES(lam)) for lam in np.linspace(0.0, 1.0, n_grid)]
    sides = [node for r in TEN_PIECES.breakpoints
             for node in ((r, TEN_PIECES(r)), (r, TEN_PIECES.left_limit(r)))]
    assert_nodes(calls, grid + sides, var_empirical, s, lambda lam: s.x + (1.0 - lam) * s.y)
    assert len(calls) == n_grid + 2 * len(TEN_PIECES.breakpoints)


# --- grid approximations -------------------------------------------------------

def test_revar_grid_matches_piecewise_exactly():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = int(rng.integers(2, 30))
        s = WeightedSample(rng.normal(0, 5, m), rng.uniform(0, 4, m), None)
        bps = np.sort(rng.uniform(0.05, 0.95, 2))
        levels = np.sort(rng.uniform(0.02, 0.6, 3))
        if bps[1] - bps[0] < 1e-3 or np.min(np.diff(levels)) < 1e-3:
            continue
        g = RecoveryFunction(tuple(bps), tuple(levels))
        assert revar_grid(s, g, n_grid=41) == revar(s, g)
        assert reavar_grid(s, g, n_grid=41) == reavar(s, g)


def test_grid_without_breakpoints_is_lower_bound():
    rng = np.random.default_rng(10)
    g = RecoveryFunction((0.37,), (0.08, 0.31))
    for _ in range(20):
        m = int(rng.integers(2, 25))
        s = WeightedSample(rng.normal(0, 5, m), rng.uniform(0, 4, m), None)
        plain = revar_grid(s, lambda lam: g(lam), n_grid=37)
        assert plain <= revar(s, g) + 1e-15


def test_constant_gamma_reproduces_plain_var():
    # constant level: the position shrinks as the fraction grows (y >= 0), so
    # the full-recovery term VaR_alpha(x) dominates and the classical test is
    # reproduced exactly
    rng = np.random.default_rng(11)
    s = WeightedSample(rng.normal(0, 2, 12), rng.uniform(0, 3, 12), None)
    alpha = 0.2
    got = revar_grid(s, RecoveryFunction.constant(alpha), n_grid=201)
    assert got == var_empirical(s.x, s.weights, alpha)
    assert revar(s, RecoveryFunction.constant(alpha)) == got


def test_grid_rejects_non_monotone_callable():
    s = WeightedSample([1.0, -1.0], [0.0, 0.0], None)
    with pytest.raises(ValueError):
        revar_grid(s, lambda lam: 0.3 - 0.2 * lam, n_grid=11)


# --- liability-side variants ----------------------------------------------------

def test_l_measures_constant_assets():
    g = RecoveryFunction.constant(0.1)
    s = WeightedSample([5.0, 5.0], [0.0, 0.0], None)
    assert l_revar(s, g) == pytest.approx(-5.0, abs=1e-12)
    assert l_reavar(s, g) == pytest.approx(-5.0, abs=1e-12)


def test_l_revar_sign_matches_asset_side_test_at_boundary():
    alpha, beta, r = 0.01, 0.004, 0.8
    k = 100.0 * r
    g = RecoveryFunction.two_piece(beta, r, alpha)
    e = two_state(k, alpha)
    assets = WeightedSample(e.x + e.y, e.y, e.weights)
    assert revar(e, g) == pytest.approx(0.0, abs=1e-12)
    assert l_revar(assets, g) == pytest.approx(0.0, abs=1e-12)
    assert l_reavar(assets, g) <= 1e-12


def test_l_revar_sign_agreement_random():
    rng = np.random.default_rng(12)
    g = RecoveryFunction.two_piece(0.05, 0.6, 0.2)
    for _ in range(40):
        m = int(rng.integers(2, 30))
        assets = rng.uniform(0.0, 10.0, m)
        liab = rng.uniform(0.0, 10.0, m)
        s = WeightedSample(assets, liab, None)
        equity = WeightedSample(assets - liab, liab, None)
        lhs = l_revar(s, g, n_grid=101)
        rhs = revar(equity, g)
        assert (lhs <= 0.0) == (rhs <= 0.0)
        lhs_a = l_reavar(s, g, n_grid=101)
        rhs_a = reavar(equity, g)
        assert (lhs_a <= 0.0) == (rhs_a <= 0.0)


def test_l_revar_grid_refinement_agrees():
    # with nonnegative assets the piece suprema sit at the breakpoints, which
    # every grid carries, so refining the grid does not move the value
    g = RecoveryFunction((0.35, 0.75), (0.05, 0.15, 0.4))
    s = WeightedSample([4.0, 1.0], [3.0, 5.0], [0.7, 0.3])
    coarse = l_revar(s, g, n_grid=101)
    fine = l_revar(s, g, n_grid=1001)
    assert coarse == pytest.approx(fine, abs=1e-9)
    assert l_reavar(s, g, n_grid=101) == pytest.approx(l_reavar(s, g, n_grid=1001), abs=1e-9)


# --- solvency test and recovery curve -------------------------------------------

def test_solvency_boundary_case():
    # r = 0.75 keeps the boundary arithmetic exact in floats (k = 100 r = 75)
    alpha, beta, r = 0.01, 0.004, 0.75
    k = 100.0 * r
    g = RecoveryFunction.two_piece(beta, r, alpha)
    verdict = solvency_test(two_state(k, alpha), g, 0.0, "revar")
    assert verdict.passed
    assert verdict.measure_value == pytest.approx(0.0, abs=1e-12)
    assert verdict.binding_fraction == r
    assert verdict.binding_level == beta


def test_solvency_large_capital_passes():
    g = RecoveryFunction.constant(0.05)
    s = WeightedSample([-50.0, 10.0], [5.0, 5.0], None)
    assert solvency_test(s, g, 1e9, "reavar").passed
    with pytest.raises(ValueError):
        solvency_test(s, g, math.inf, "revar")


def test_solvency_matches_breakpoint_probabilities():
    # pass under ReVaR(E1, L1) <= 0 iff P(A < r_i L) <= alpha_i at every piece
    rng = np.random.default_rng(13)
    g = RecoveryFunction((0.4, 0.8), (0.04, 0.1, 0.3))
    for _ in range(40):
        m = 50
        assets = rng.uniform(0.0, 10.0, m)
        liab = rng.uniform(0.0, 10.0, m)
        equity = WeightedSample(assets - liab, liab, None)
        verdict = solvency_test(equity, g, 0.0, "revar")
        probs_ok = all(
            float(np.sum(equity.weights[assets < r_i * liab])) <= a_i
            for r_i, a_i in g.pieces()
        )
        assert verdict.passed == probs_ok


def test_recovery_curve_two_state():
    alpha, k = 0.01, 40.0
    e = two_state(k, alpha)
    assets = WeightedSample(e.x + e.y, e.y, e.weights)
    curve = recovery_probability_curve(assets, [0.0, k / 100.0, k / 100.0 + 1e-9, 0.9],
                                       conditional=True)
    assert curve[0][1] == 1.0
    assert curve[1][1] == 1.0   # bad state recovers exactly k/100
    assert curve[2][1] == pytest.approx(1.0 - alpha / 2.0, abs=1e-15)
    assert curve[1][2] == 1.0   # conditional on default
    assert curve[2][2] == pytest.approx(0.0, abs=1e-15)


def test_recovery_curve_counting_oracle():
    rng = np.random.default_rng(14)
    assets = rng.uniform(0, 5, 30)
    liab = rng.uniform(0, 5, 30)
    w = rng.uniform(0.5, 1.5, 30)
    w /= w.sum()
    s = WeightedSample(assets, liab, w)
    lam = 0.63
    (_, p, p_cond), = recovery_probability_curve(s, [lam], conditional=True)
    hit = assets >= lam * liab
    default = assets < liab
    assert p == pytest.approx(float(np.sum(w[hit])), abs=1e-15)
    assert p_cond == pytest.approx(float(np.sum(w[hit & default]) / np.sum(w[default])), abs=1e-12)
    assert np.sum(w[default]) > 0


def test_recovery_curve_monotone_and_errors():
    s = WeightedSample([10.0, 10.0], [1.0, 1.0], None)  # no default scenario
    with pytest.raises(ValueError):
        recovery_probability_curve(s, [0.5], conditional=True)
    curve = recovery_probability_curve(s, np.linspace(0, 1, 21), conditional=False)
    probs = [p for _, p, _ in curve]
    assert all(b <= a + 1e-15 for a, b in zip(probs, probs[1:]))


# --- extremal pair ---------------------------------------------------------------

def test_min_recovery_pair_example():
    pair = min_recovery_pair(0.1, 0.05)
    assert set(np.round(pair.x, 12)) == {0.0, 1.0}
    assert set(pair.y) == {0.0, 1.0}
    assert avar_empirical(pair.x - pair.y, pair.weights, 0.1) == 0.0
    for lam in (0.1, 0.5, 0.9):
        (_, p, _), = recovery_probability_curve(pair, [lam], conditional=False)
        assert p == pytest.approx(0.95, abs=1e-15)


def test_min_recovery_pair_cap():
    with pytest.raises(ValueError):
        min_recovery_pair(0.1, 0.1 - 1e-15)
    with pytest.raises(ValueError):
        min_recovery_pair(0.1, 0.2)


def test_min_recovery_pair_sweep_approaches_bound():
    alpha = 0.025
    worst = 1.0
    for j in range(1, 200):
        p = alpha * j / 200.0
        pair = min_recovery_pair(alpha, p)
        assert abs(avar_empirical(pair.x - pair.y, pair.weights, alpha)) <= 1e-14
        worst = min(worst, 1.0 - p)
    assert worst == pytest.approx(1.0 - alpha, abs=alpha / 100.0)


# --- duality ---------------------------------------------------------------------

def test_dual_bound_reference_measure():
    g = RecoveryFunction((0.5,), (0.05, 0.2))
    rng = np.random.default_rng(15)
    s = WeightedSample(rng.normal(0, 3, 12), rng.uniform(0, 2, 12), None)
    res = reavar_dual_bound(s, g, s.weights)
    assert res.feasible
    assert res.recovery_fraction == 1.0
    assert res.bound == pytest.approx(-s.mean_x(), abs=1e-12)
    assert res.holds


def test_dual_bound_tail_optimizer_attains_piece_value():
    g = RecoveryFunction((0.5,), (0.25, 0.5))
    s = WeightedSample([-3.0, -1.0, 2.0, 5.0], [1.0, 2.0, 0.0, 4.0], None)
    # tail optimizer of the first piece: density 1/alpha on the worst quarter
    # of x + 0.5 y (scenario 0), zero elsewhere
    q = np.array([1.0, 0.0, 0.0, 0.0])
    res = reavar_dual_bound(s, g, q)
    assert res.feasible
    assert res.recovery_fraction == 0.5
    piece_value = avar_empirical(s.x + 0.5 * s.y, s.weights, 0.25)
    assert res.bound == pytest.approx(piece_value, abs=1e-12)
    assert res.holds


def test_dual_bound_random_feasible_measures_hold():
    rng = np.random.default_rng(16)
    g = RecoveryFunction((0.4, 0.8), (0.05, 0.15, 0.4))
    m = 20
    s = WeightedSample(rng.normal(0, 4, m), rng.uniform(0, 3, m), None)
    for _ in range(300):
        raw = rng.uniform(0.0, 1.0, m) ** 3
        q = raw / raw.sum()
        res = reavar_dual_bound(s, g, q)
        assert res.holds


def test_dual_bound_infeasible_is_inactive():
    g = RecoveryFunction.constant(0.5)
    s = WeightedSample([1.0, -1.0, 2.0, 0.0], [0.0, 1.0, 0.5, 0.2], None)
    q = np.array([1.0, 0.0, 0.0, 0.0])  # density 4 > 1/0.5
    res = reavar_dual_bound(s, g, q)
    assert not res.feasible
    assert res.recovery_fraction == 0.0
    assert res.holds
