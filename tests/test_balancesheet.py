import io
import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from recrisk.balancesheet import (BalanceSheetModel, gamma_cdf, gamma_quantile,
                                  loss_probability, mixture_gamma_cdf,
                                  mixture_gamma_quantile, normal_cdf,
                                  normal_quantile, sample_scenarios,
                                  uniform_stream)
from recrisk.samples import WeightedSample, read_scenario_csv


def test_normal_quantile_symmetry_and_table():
    assert normal_quantile(0.5) == 0.0
    # reference values from the usual high-precision tables
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)
    assert normal_quantile(0.01) == pytest.approx(-2.3263479, abs=1e-6)


def test_normal_round_trip():
    for u in [1e-4, 1e-3, 0.02, 0.31, 0.5, 0.77, 0.999, 1 - 1e-4]:
        assert normal_cdf(normal_quantile(u)) == pytest.approx(u, abs=1e-8)


def test_normal_quantile_domain():
    with pytest.raises(ValueError):
        normal_quantile(0.0)
    with pytest.raises(ValueError):
        normal_quantile(1.0)


def test_gamma_cdf_exponential_and_erlang():
    assert gamma_cdf(math.log(2.0), 1.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    # integer shape 2: P(X <= 2) = 1 - 3 e^{-2}
    assert gamma_cdf(2.0, 2.0, 1.0) == pytest.approx(1.0 - 3.0 * math.exp(-2.0), abs=1e-12)


def test_gamma_quantile_round_trip():
    for shape in (0.7, 1.0, 3.0):
        for rate in (0.5, 1.0, 2.0):
            for x in (0.05, 0.8, 2.5, 9.0):
                u = gamma_cdf(x, shape, rate)
                assert gamma_quantile(u, shape, rate) == pytest.approx(x, abs=1e-8)


def test_gamma_domain_checks():
    with pytest.raises(ValueError):
        gamma_cdf(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        gamma_quantile(0.5, -1.0, 1.0)


def test_mixture_identical_components_is_plain_gamma():
    model = BalanceSheetModel(tail_shape=1.0, tail_rate=1.0)
    assert mixture_gamma_quantile(0.5, model) == pytest.approx(math.log(2.0), abs=1e-10)
    for u in (0.1, 0.95, 0.99):
        assert mixture_gamma_quantile(u, model) == pytest.approx(
            gamma_quantile(u, 1.0, 1.0), abs=1e-10)


def test_mixture_cdf_continuous_at_splice():
    model = BalanceSheetModel()
    q0 = model.splice_point()
    assert mixture_gamma_cdf(q0, model) == pytest.approx(model.splice_level, abs=1e-12)
    eps = 1e-9
    assert mixture_gamma_cdf(q0 - eps, model) == pytest.approx(model.splice_level, abs=1e-7)


def test_mixture_quantile_against_root_finding():
    model = BalanceSheetModel(tail_shape=3.0)
    for u in (0.2, 0.9, 0.975, 0.99, 0.999):
        direct = mixture_gamma_quantile(u, model)
        bracketed = brentq(lambda x: mixture_gamma_cdf(x, model) - u, 1e-12, 200.0,
                           xtol=1e-12)
        assert direct == pytest.approx(bracketed, abs=1e-8)


def test_mixture_cdf_monotone_and_inverse_consistent():
    model = BalanceSheetModel(tail_shape=4.0)
    xs = np.linspace(1e-6, 30.0, 400)
    cdf = mixture_gamma_cdf(xs, model)
    assert np.all(np.diff(cdf) >= -1e-15)
    us = np.linspace(0.001, 0.9995, 200)
    qs = mixture_gamma_quantile(us, model)
    assert np.all(np.diff(qs) >= 0.0)
    assert np.allclose(mixture_gamma_cdf(qs, model), us, atol=1e-9)


def test_uniform_stream_blocks_are_position_independent():
    whole = uniform_stream(1234, 0, 64)
    parts = np.concatenate([uniform_stream(1234, 0, 10), uniform_stream(1234, 10, 30),
                            uniform_stream(1234, 40, 24)])
    assert np.array_equal(whole, parts)
    assert np.all(whole > 0.0) and np.all(whole < 1.0)


def test_sampler_is_deterministic_and_csv_stable():
    model = BalanceSheetModel()
    a = io.StringIO()
    b = io.StringIO()
    sample_scenarios(model, 500, 99).write_csv(a)
    sample_scenarios(model, 500, 99).write_csv(b)
    assert a.getvalue() == b.getvalue()
    loaded, assets = read_scenario_csv(io.StringIO(a.getvalue()))
    sim = sample_scenarios(model, 500, 99)
    assert np.array_equal(loaded.x, sim.sample.x)
    assert np.array_equal(assets, sim.assets)


def test_comonotone_at_full_correlation():
    model = BalanceSheetModel(copula_correlation=1.0)
    sim = sample_scenarios(model, 3000, 5)
    ra = np.argsort(np.argsort(sim.assets))
    rl = np.argsort(np.argsort(sim.sample.y))
    assert np.array_equal(ra, rl)


def test_loss_probability_cases():
    assert loss_probability(WeightedSample([1.0, 2.0], [0.0, 0.0], None)) == 0.0
    alpha, k = 0.01, 30.0
    two_state = WeightedSample([100.0 - k, k - 100.0], [1.0, 100.0],
                               [1.0 - alpha / 2.0, alpha / 2.0])
    assert loss_probability(two_state) == pytest.approx(alpha / 2.0, abs=1e-15)
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, 50)
    s = WeightedSample(x, np.zeros(50), None)
    assert loss_probability(s) == pytest.approx(np.sum(x < 0) / 50.0, abs=1e-15)


def test_default_parameters_hit_the_loss_probability_target():
    sim = sample_scenarios(BalanceSheetModel(), 100_000, 2024)
    assert abs(loss_probability(sim.sample) - 0.5) <= 0.05


def test_marginals_pass_kolmogorov_smirnov():
    model = BalanceSheetModel()
    m = 100_000
    sim = sample_scenarios(model, m, 77)
    crit = 1.628 / math.sqrt(m)  # 1% asymptotic critical value

    a_sorted = np.sort(sim.assets)
    cdf_a = normal_cdf((np.log(a_sorted) - model.asset_log_mean) / model.asset_log_sd)
    grid = np.arange(1, m + 1) / m
    d_a = max(np.max(np.abs(grid - cdf_a)), np.max(np.abs(grid - 1.0 / m - cdf_a)))
    assert d_a < crit

    l_sorted = np.sort(sim.sample.y)
    cdf_l = mixture_gamma_cdf(l_sorted, model)
    d_l = max(np.max(np.abs(grid - cdf_l)), np.max(np.abs(grid - 1.0 / m - cdf_l)))
    assert d_l < crit


def test_spearman_formula_against_quadrature():
    # rank correlation of the Gaussian copula: 12 E[Phi(Z1) Phi(Z2)] - 3,
    # evaluated by Gauss-Hermite quadrature, against (6/pi) asin(rho/2)
    nodes, weights = np.polynomial.hermite_e.hermegauss(80)
    w2 = weights / math.sqrt(2.0 * math.pi)
    for rho in (0.2, 0.5, 0.8):
        z2 = rho * nodes[:, None] + math.sqrt(1 - rho**2) * nodes[None, :]
        inner = normal_cdf(z2) @ w2          # E[Phi(Z2') | Z1 = node]
        moment = float((normal_cdf(nodes) * inner) @ w2)
        quadrature = 12.0 * moment - 3.0
        assert quadrature == pytest.approx(6.0 / math.pi * math.asin(rho / 2.0), abs=1e-9)


def test_rank_correlation_matches_copula_formula():
    m = 100_000
    for rho in (0.2, 0.5, 0.8):
        model = BalanceSheetModel(copula_correlation=rho)
        sim = sample_scenarios(model, m, 31)
        ra = np.argsort(np.argsort(sim.assets)).astype(float)
        rl = np.argsort(np.argsort(sim.sample.y)).astype(float)
        spearman = float(np.corrcoef(ra, rl)[0, 1])
        expected = 6.0 / math.pi * math.asin(rho / 2.0)
        assert spearman == pytest.approx(expected, abs=0.02)


def test_model_json_round_trip_and_validation():
    m = BalanceSheetModel(copula_correlation=0.3, tail_shape=2.5)
    again = BalanceSheetModel.from_json(m.to_json())
    assert again == m
    with pytest.raises(ValueError):
        BalanceSheetModel(asset_log_sd=0.0)
    with pytest.raises(ValueError):
        BalanceSheetModel(splice_level=1.0)
    with pytest.raises(ValueError):
        BalanceSheetModel(copula_correlation=1.5)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", list(BalanceSheetModel.__dataclass_fields__))
def test_model_rejects_non_finite_fields(name, value):
    with pytest.raises(ValueError, match=f"'{name}' must be finite"):
        BalanceSheetModel(**{name: value})
    with pytest.raises(ValueError, match=f"'{name}' must be finite"):
        BalanceSheetModel.from_json(json.dumps({name: value}))
