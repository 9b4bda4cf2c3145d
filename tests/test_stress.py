import math
from dataclasses import replace

import numpy as np
import pytest

from recrisk.errors import ConstructionInfeasible
from recrisk.measures import avar_empirical, revar, reavar, var_empirical
from recrisk.recovery import RecoveryFunction
from recrisk.samples import WeightedSample
from recrisk.stress import (ExtremalSearchConfig, PeakedLiabilityModel,
                            TwoStateCase, avar_feasible_r_interval,
                            extremal_construction, peaked_cdf, peaked_density,
                            peaked_q_beta, peaked_quantile, peaked_regulatory,
                            peaked_revar, peaked_xi, two_state_measures,
                            two_state_sample)


# --- two-state closed forms -----------------------------------------------------

def test_two_state_validation():
    with pytest.raises(ValueError):
        TwoStateCase(k=120.0, alpha=0.01, beta=0.005, r=0.5)
    with pytest.raises(ValueError):
        TwoStateCase(k=50.0, alpha=0.01, beta=0.02, r=0.5)  # beta >= alpha
    with pytest.raises(ValueError):
        TwoStateCase(k=50.0, alpha=0.6, beta=0.01, r=0.5)   # alpha too large


def test_revar_branch_below_crossover():
    case = TwoStateCase(k=60.0, alpha=0.01, beta=0.004, r=0.8)
    assert case.k <= 50.0 * (case.r + 1.0)
    assert two_state_measures(case).revar == pytest.approx(100.0 * 0.8 - 60.0, abs=1e-12)


def test_revar_branch_above_crossover():
    case = TwoStateCase(k=95.0, alpha=0.01, beta=0.004, r=0.8)
    assert case.k > 50.0 * (case.r + 1.0)
    assert two_state_measures(case).revar == pytest.approx(95.0 - 100.0, abs=1e-12)


def test_reavar_middle_branch_threshold_at_half_alpha():
    # at beta = alpha/2 the admissibility threshold collapses to 100 r, the
    # same recovery guarantee as the low-beta branch
    alpha = 0.01
    case = TwoStateCase(k=50.0, alpha=alpha, beta=alpha / 2.0, r=0.8)
    tm = two_state_measures(case)
    assert tm.reavar_min_admissible_k == pytest.approx(100.0 * 0.8, abs=1e-9)
    # continuity: the middle branch at beta = alpha/2 equals 100 r - k
    assert tm.reavar == pytest.approx(100.0 * 0.8 - 50.0, abs=1e-9)


def test_two_state_measures_match_engine():
    rng = np.random.default_rng(21)
    for _ in range(300):
        alpha = float(rng.uniform(0.002, 0.2))
        case = TwoStateCase(
            k=float(rng.uniform(0.0, 100.0)),
            alpha=alpha,
            beta=float(rng.uniform(0.05, 0.999)) * alpha,
            r=float(rng.uniform(0.02, 0.98)),
        )
        tm = two_state_measures(case)
        sample = two_state_sample(case)
        gamma = RecoveryFunction.two_piece(case.beta, case.r, case.alpha)
        shifted = sample.x + (1.0 - case.r) * sample.y
        assert var_empirical(sample.x, sample.weights, alpha) == pytest.approx(tm.var_alpha, abs=1e-9)
        assert avar_empirical(sample.x, sample.weights, alpha) == pytest.approx(0.0, abs=1e-9)
        assert var_empirical(shifted, sample.weights, case.beta) == pytest.approx(tm.var_beta_shifted, abs=1e-9)
        assert avar_empirical(shifted, sample.weights, case.beta) == pytest.approx(tm.avar_beta_shifted, abs=1e-9)
        assert revar(sample, gamma) == pytest.approx(tm.revar, abs=1e-9)
        assert reavar(sample, gamma) == pytest.approx(tm.reavar, abs=1e-9)


def test_admissibility_thresholds_zero_the_measures():
    rng = np.random.default_rng(22)
    for _ in range(100):
        alpha = float(rng.uniform(0.002, 0.2))
        beta = float(rng.uniform(0.05, 0.999)) * alpha
        r = float(rng.uniform(0.05, 0.95))
        probe = TwoStateCase(k=50.0, alpha=alpha, beta=beta, r=r)
        tm = two_state_measures(probe)
        for threshold, which in ((tm.revar_min_admissible_k, "revar"),
                                 (tm.reavar_min_admissible_k, "reavar")):
            k_star = min(max(threshold, 0.0), 100.0)
            at = two_state_measures(TwoStateCase(k=k_star, alpha=alpha, beta=beta, r=r))
            value = at.revar if which == "revar" else at.reavar
            assert value <= 1e-9
            if threshold > 1e-6:  # interior threshold: binding equality
                assert abs(value) <= 1e-9


# --- peaked density --------------------------------------------------------------

@pytest.fixture
def peaked():
    return PeakedLiabilityModel(10.0, 40.0, 60.0, 12.0, 4.0, 0.005)


def test_peaked_masses(peaked):
    assert peaked_cdf(peaked.a, peaked) == pytest.approx(1.0 - peaked.tail_mass, abs=1e-15)
    assert peaked_cdf(peaked.c, peaked) == 1.0
    assert peaked_cdf(25.0, peaked) == pytest.approx(0.995, abs=1e-15)  # flat between peaks
    # density integrates to the right masses (trapezoid over each peak)
    xs = np.linspace(0.0, peaked.a, 20001)
    left = np.trapezoid(peaked_density(xs, peaked), xs)
    assert left == pytest.approx(0.995, abs=1e-9)
    xs = np.linspace(peaked.b, peaked.c, 20001)
    right = np.trapezoid(peaked_density(xs, peaked), xs)
    assert right == pytest.approx(0.005, abs=1e-9)


def test_peaked_quantile_round_trip(peaked):
    us = np.linspace(1e-9, 1.0 - 1e-9, 4001)
    qs = peaked_quantile(us, peaked)
    assert np.max(np.abs(peaked_cdf(qs, peaked) - us)) < 1e-10
    assert np.all(np.diff(qs) >= 0.0)


def test_peaked_regulatory_var_branch(peaked):
    var_req, _ = peaked_regulatory(peaked)
    assert var_req == pytest.approx(10.0 - 12.0 + 4.0, abs=1e-12)


def test_peaked_regulatory_boundary():
    model = PeakedLiabilityModel(10.0, 40.0, 60.0, 14.0, 4.0, 0.005)  # k = E0 + a
    var_req, _ = peaked_regulatory(model)
    assert var_req == pytest.approx(0.0, abs=1e-12)


def test_peaked_regulatory_avar_branch(peaked):
    # substitution: xi * 10 + (40 + 60)/4 - 12 + 4
    xi = 0.5 - math.sqrt(0.005 / (2.0 * 0.995)) / 3.0
    _, avar_req = peaked_regulatory(peaked)
    assert peaked_xi(peaked) == pytest.approx(xi, abs=1e-15)
    assert avar_req == pytest.approx(xi * 10.0 + 25.0 - 12.0 + 4.0, abs=1e-12)


def test_peaked_avar_dominates_var_at_equal_level(peaked):
    # tail average at 1% against the 1% quantile requirement (closed forms)
    a, k, e0 = peaked.a, peaked.asset_value, peaked.initial_capital
    al = peaked.tail_mass
    var_two_alpha = a * (1.0 - math.sqrt(al / (2.0 * (1.0 - al)))) - k + e0
    _, avar_req = peaked_regulatory(peaked)
    assert avar_req >= var_two_alpha


def test_peaked_regulatory_monte_carlo(peaked):
    # quantile-inversion oracle on a stratified grid: the 0.5% quantile of
    # delta E sits on the probability gap between the peaks, where a random
    # stream's tail-mass noise would flip the branch
    m = 2_000_000
    u = (np.arange(m) + 0.5) / m
    liab = peaked_quantile(u, peaked)
    de = peaked.asset_value - liab - peaked.initial_capital
    var_req, avar_req = peaked_regulatory(peaked)
    assert var_empirical(de, None, peaked.tail_mass) == pytest.approx(var_req, rel=5e-3)
    assert avar_empirical(de, None, 2.0 * peaked.tail_mass) == pytest.approx(avar_req, rel=5e-3)


def test_peaked_q_beta_branches(peaked):
    # midpoint at beta = tail/2
    assert peaked_q_beta(peaked, 0.0025) == pytest.approx(50.0, abs=1e-12)
    # below the branch point the weight follows sqrt(beta / (2 tail))
    beta = 0.001
    w = math.sqrt(beta / 0.01)
    assert peaked_q_beta(peaked, beta) == pytest.approx(w * 40.0 + (1.0 - w) * 60.0, abs=1e-12)
    # above: weight sqrt((tail - beta) / (2 tail)) on c
    beta = 0.004
    lam = math.sqrt((0.005 - beta) / 0.01)
    assert peaked_q_beta(peaked, beta) == pytest.approx((1.0 - lam) * 40.0 + lam * 60.0, abs=1e-12)
    with pytest.raises(ValueError):
        peaked_q_beta(peaked, 0.005)


def test_peaked_revar_value_and_monte_carlo(peaked):
    assert peaked_revar(peaked, 0.0025, 0.8) == pytest.approx(40.0 - 12.0 + 4.0, abs=1e-12)
    m = 2_000_000
    u = (np.arange(m) + 0.5) / m
    liab = peaked_quantile(u, peaked)
    de = peaked.asset_value - liab - peaked.initial_capital
    sample = WeightedSample(de, liab, None)
    gamma = RecoveryFunction.two_piece(0.0025, 0.8, 0.005)
    assert revar(sample, gamma) == pytest.approx(peaked_revar(peaked, 0.0025, 0.8), rel=5e-3)


def test_peaked_engine_equivalence_exact_discretization(peaked):
    # stratified scenarios against the closed forms at matching tolerances
    m = 400_000
    u = (np.arange(m) + 0.5) / m
    liab = peaked_quantile(u, peaked)
    de = peaked.asset_value - liab - peaked.initial_capital
    sample = WeightedSample(de, liab, None)
    for beta, r in ((0.001, 0.5), (0.0025, 0.8), (0.004, 0.9)):
        gamma = RecoveryFunction.two_piece(beta, r, peaked.tail_mass)
        assert revar(sample, gamma) == pytest.approx(peaked_revar(peaked, beta, r), rel=2e-3)


# --- extremal construction --------------------------------------------------------

def test_extremal_var_regime_spec_instance():
    cfg = ExtremalSearchConfig(s_min=1.2, s_max=3.0, regime="var", beta=0.0025, r=0.8)
    witness = extremal_construction(cfg, 6.0, anchor_a=10.0)
    assert witness.model.asset_value == pytest.approx(14.0, abs=1e-12)
    assert witness.achieved_adjustment == pytest.approx(3.0, abs=1e-12)
    assert witness.all_constraints_hold


def test_extremal_var_regime_any_gamma():
    rng = np.random.default_rng(23)
    for _ in range(25):
        alpha = 0.005
        cfg = ExtremalSearchConfig(
            s_min=float(rng.uniform(1.05, 1.5)),
            s_max=float(rng.uniform(2.0, 4.0)),
            regime="var",
            beta=float(rng.uniform(0.05, 0.99)) * alpha,
            r=float(rng.uniform(0.1, 0.95)),
            alpha=alpha,
        )
        witness = extremal_construction(cfg, float(rng.uniform(1.0, 20.0)))
        assert witness.achieved_adjustment == pytest.approx(cfg.s_max, abs=1e-9)
        assert witness.all_constraints_hold


def test_extremal_avar_feasible_interval_contains_paper_range():
    lo, hi = avar_feasible_r_interval(0.0025, 0.005)
    assert lo == pytest.approx(0.5, abs=1e-12)
    assert hi >= 0.95


def test_extremal_avar_regime_across_r():
    for r in (0.55, 0.7, 0.8, 0.95):
        cfg = ExtremalSearchConfig(s_min=1.2, s_max=3.0, regime="avar",
                                   beta=0.0025, r=r)
        witness = extremal_construction(cfg, 6.0)
        assert witness.achieved_adjustment == pytest.approx(3.0, abs=1e-10)
        assert witness.all_constraints_hold
        assert 0.0 < witness.model.a < witness.model.b < witness.model.c


def test_extremal_avar_infeasible_cases():
    with pytest.raises(ConstructionInfeasible):
        extremal_construction(ExtremalSearchConfig(1.2, 3.0, "avar", 0.001, 0.8), 6.0)
    with pytest.raises(ConstructionInfeasible):
        extremal_construction(ExtremalSearchConfig(1.2, 3.0, "avar", 0.0025, 0.4), 6.0)
    with pytest.raises(ConstructionInfeasible):
        extremal_construction(ExtremalSearchConfig(1.2, 3.0, "avar", 0.0025, 0.99), 6.0)


def test_extremal_achieved_never_exceeds_smax():
    rng = np.random.default_rng(24)
    for _ in range(30):
        s_max = float(rng.uniform(1.5, 5.0))
        cfg = ExtremalSearchConfig(1.1, s_max, "var",
                                   beta=0.003, r=float(rng.uniform(0.2, 0.9)))
        witness = extremal_construction(cfg, 8.0)
        assert witness.achieved_adjustment <= s_max * (1.0 + 1e-12)


def test_extremal_loss_probability_diagnostic():
    cfg = ExtremalSearchConfig(1.2, 3.0, "var", 0.0025, 0.8)
    # anchoring a at 2 E0 / s_max puts the survival threshold near a/2, the
    # realistic mid-body loss probability
    e0 = 6.0
    a = 2.0 * e0 / cfg.s_max
    witness = extremal_construction(cfg, e0, anchor_a=a)
    assert witness.loss_probability == pytest.approx(0.5, abs=0.02)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["asset_value", "initial_capital"])
def test_peaked_model_rejects_non_finite_money(name, value):
    fields = dict(a=10.0, b=40.0, c=60.0, asset_value=12.0, initial_capital=5.0)
    with pytest.raises(ValueError, match=name):
        PeakedLiabilityModel(**{**fields, name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_extremal_construction_rejects_non_finite_inputs(value):
    cfg = ExtremalSearchConfig(s_min=1.2, s_max=3.0, regime="var", beta=0.0025, r=0.8)
    with pytest.raises(ValueError, match="e0"):
        extremal_construction(cfg, value, anchor_a=10.0)
    for regime in ("var", "avar"):
        with pytest.raises(ValueError, match="anchor_a"):
            extremal_construction(replace(cfg, regime=regime), 6.0, anchor_a=value)
