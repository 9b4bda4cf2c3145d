import io

import numpy as np
import pytest

from recrisk.adjustments import (AggRecAdjConfig, RegulatoryRegime, agg_rec_adj,
                                 case_study_sweep, parse_regime, rec_adj,
                                 regulatory_capital, revar_two_piece_grid, write_sweep_csv)
from recrisk.balancesheet import BalanceSheetModel, sample_scenarios
from recrisk.errors import DenominatorNotPositive
from recrisk.measures import avar_empirical, revar, var_empirical
from recrisk.recovery import RecoveryFunction
from recrisk.samples import WeightedSample
from recrisk.stress import PeakedLiabilityModel, peaked_quantile


def two_state(k, alpha):
    return WeightedSample([100.0 - k, k - 100.0], [1.0, 100.0],
                          [1.0 - alpha / 2.0, alpha / 2.0])


def test_regime_presets():
    sii = RegulatoryRegime.solvency_ii()
    sst = RegulatoryRegime.swiss_solvency_test()
    assert (sii.level, sii.measure) == (0.005, "var")
    assert (sst.level, sst.measure) == (0.01, "avar")
    assert parse_regime("SII").kind == "SolvencyII"
    with pytest.raises(ValueError):
        parse_regime("basel")


def test_regulatory_capital_dispatch():
    alpha, k = 0.01, 30.0
    s = two_state(k, alpha)
    sii = RegulatoryRegime("Custom", alpha, "var")
    sst = RegulatoryRegime("Custom", alpha, "avar")
    assert regulatory_capital(s, sii) == pytest.approx(k - 100.0, abs=1e-12)
    assert regulatory_capital(s, sst) == pytest.approx(0.0, abs=1e-12)
    const = WeightedSample([5.0, 5.0], [0.0, 0.0], None)
    assert regulatory_capital(const, sii) == -5.0
    rng = np.random.default_rng(1)
    x = rng.normal(0, 2, 30)
    hand = var_empirical(x, None, 0.1)
    assert regulatory_capital(WeightedSample(x, np.zeros(30), None),
                              RegulatoryRegime("Custom", 0.1, "var")) == hand


def test_rec_adj_peaked_density_value():
    # sampled version of the peaked balance sheet whose closed forms give
    # q_beta = 50, ReVaR + E0 = 32, regulatory capital 2, ratio 16
    model = PeakedLiabilityModel(10.0, 40.0, 60.0, 12.0, 4.0, 0.005)
    m = 1_000_000
    u = (np.arange(m) + 0.5) / m  # stratified grid removes sampling noise
    liab = peaked_quantile(u, model)
    de = model.asset_value - liab - model.initial_capital
    sample = WeightedSample(de, liab, None)
    gamma2 = RecoveryFunction.two_piece(0.0025, 0.8, 0.005)
    regime = RegulatoryRegime.solvency_ii()
    value = rec_adj(sample, gamma2, regime)
    # the stratified grid approximates each quantile to O(1/sqrt(M))
    assert value == pytest.approx(16.0, rel=5e-3)


def test_rec_adj_degenerate_gamma_is_one():
    # beta just below alpha and r near 1 select the same tail scenario, so the
    # recovery measure collapses to the plain VaR and the adjustment floors at 1
    rng = np.random.default_rng(2)
    x = rng.normal(-1, 3, 100)
    y = rng.uniform(0, 2, 100)
    sample = WeightedSample(x, y, None)
    alpha, beta, r = 0.105, 0.101, 1.0 - 1e-12
    regime = RegulatoryRegime("Custom", alpha, "var")
    assert regulatory_capital(sample, regime) > 0
    value = rec_adj(sample, RecoveryFunction.two_piece(beta, r, alpha), regime)
    assert value == pytest.approx(1.0, abs=1e-9)


def test_rec_adj_requires_positive_denominator():
    sample = WeightedSample([5.0, 6.0], [1.0, 1.0], None)  # profits only
    gamma2 = RecoveryFunction.two_piece(0.001, 0.8, 0.005)
    with pytest.raises(DenominatorNotPositive):
        rec_adj(sample, gamma2, RegulatoryRegime.solvency_ii())


def test_rec_adj_monotone_in_beta_and_r():
    rng = np.random.default_rng(3)
    x = rng.normal(-2, 4, 500)
    y = rng.uniform(0, 5, 500)
    sample = WeightedSample(x, y, None)
    regime = RegulatoryRegime("Custom", 0.05, "var")
    alpha = 0.05
    values = {}
    for beta in (0.005, 0.01, 0.02):
        for r in (0.5, 0.7, 0.9):
            values[(beta, r)] = rec_adj(sample, RecoveryFunction.two_piece(beta, r, alpha),
                                        regime)
    for r in (0.5, 0.7, 0.9):
        assert values[(0.005, r)] >= values[(0.01, r)] >= values[(0.02, r)]
    for beta in (0.005, 0.01, 0.02):
        assert values[(beta, 0.5)] <= values[(beta, 0.7)] <= values[(beta, 0.9)]


def test_agg_rec_adj_constant_grid():
    # M = 10 uniform scenarios put every level below the first cumulative
    # weight, so each node reproduces the plain VaR and RecAdj is exactly 1
    rng = np.random.default_rng(4)
    x = np.sort(rng.normal(-3, 2, 10))
    sample = WeightedSample(x, np.zeros(10), None)
    config = AggRecAdjConfig()
    regime = RegulatoryRegime.solvency_ii()
    assert regulatory_capital(sample, regime) > 0
    integral, mean = agg_rec_adj(sample, config, regime)
    area = (config.beta_max - config.beta_min) * (config.r_max - config.r_min)
    assert mean == 1.0
    assert integral == pytest.approx(area, abs=1e-15)


def test_agg_rec_adj_quadrature_refinement():
    model = BalanceSheetModel()
    sim = sample_scenarios(model, 10_000, 11)
    regime = RegulatoryRegime.solvency_ii()
    coarse = agg_rec_adj(sim.sample, AggRecAdjConfig(n_beta=4, n_r=4), regime)
    fine = agg_rec_adj(sim.sample, AggRecAdjConfig(n_beta=64, n_r=64), regime)
    assert coarse[1] == pytest.approx(fine[1], rel=0.01)
    assert coarse[0] == pytest.approx(fine[0], rel=0.01)


def test_agg_rec_adj_mean_bounded_by_node_extremes():
    model = BalanceSheetModel()
    sim = sample_scenarios(model, 20_000, 12)
    config = AggRecAdjConfig()
    regime = RegulatoryRegime.swiss_solvency_test()
    cap = regulatory_capital(sim.sample, regime)
    grid = np.maximum(revar_two_piece_grid(sim.sample, config) / cap, 1.0)
    _, mean = agg_rec_adj(sim.sample, config, regime)
    assert grid.min() - 1e-12 <= mean <= grid.max() + 1e-12


def test_grid_values_match_direct_revar():
    rng = np.random.default_rng(5)
    x = rng.normal(-1, 3, 400)
    y = rng.uniform(0, 4, 400)
    sample = WeightedSample(x, y, None)
    config = AggRecAdjConfig(n_beta=3, n_r=3)
    grid = revar_two_piece_grid(sample, config)
    for i, beta in enumerate(config.beta_nodes()):
        for j, r in enumerate(config.r_nodes()):
            direct = revar(sample, RecoveryFunction.two_piece(beta, r, config.alpha))
            assert grid[i, j] == pytest.approx(direct, abs=1e-12)


def test_sweep_single_cell_matches_direct_composition():
    model = BalanceSheetModel()
    regime = RegulatoryRegime.solvency_ii()
    config = AggRecAdjConfig(n_beta=4, n_r=4)
    rows = case_study_sweep(model, [0.4], [2.0], [regime], 5_000, 123, config)
    assert len(rows) == 1
    row = rows[0]
    cell = model.with_params(copula_correlation=0.4, tail_shape=2.0)
    sim = sample_scenarios(cell, 5_000, 123)
    assert row.reg_capital == regulatory_capital(sim.sample, regime)
    assert row.solvency_ratio == model.initial_net_asset_value / row.reg_capital
    integral, mean = agg_rec_adj(sim.sample, config, regime)
    assert row.agg_rec_adj_integral == integral
    assert row.agg_rec_adj_mean == mean
    assert row.reg_measure_e1 == pytest.approx(row.reg_capital - 6.5, abs=1e-12)


def test_sweep_determinism():
    model = BalanceSheetModel()
    regimes = [RegulatoryRegime.solvency_ii()]
    a = case_study_sweep(model, [0.2, 0.6], [1.0, 3.0], regimes, 2_000, 9)
    b = case_study_sweep(model, [0.2, 0.6], [1.0, 3.0], regimes, 2_000, 9)
    assert a == b


def test_sweep_independent_of_worker_count():
    model = BalanceSheetModel()
    regimes = [RegulatoryRegime.solvency_ii(), RegulatoryRegime.swiss_solvency_test()]
    serial = case_study_sweep(model, [0.2, 0.6], [1.0, 3.0], regimes, 2_000, 9, workers=1)
    threaded = case_study_sweep(model, [0.2, 0.6], [1.0, 3.0], regimes, 2_000, 9, workers=4)
    assert serial == threaded


def test_empty_sweep_csv_is_the_header_alone():
    buf = io.StringIO()
    write_sweep_csv([], buf)
    assert buf.getvalue() == ("rho,tau,regime,loss_prob,reg_capital,reg_measure_E1,"
                              "solvency_ratio,agg_rec_adj_integral,agg_rec_adj_mean\n")
