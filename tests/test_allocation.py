import io

import numpy as np
import pytest

from recrisk.allocation import (DivisionalSample, allocation_property_check,
                                euler_allocation, read_divisional_csv, rorac,
                                rorac_from_sample, write_divisional_csv)
from recrisk.errors import AmbiguousBindingIndex, DenominatorNotPositive
from recrisk.measures import avar_empirical, reavar, reavar_pieces
from recrisk.recovery import RecoveryFunction
from recrisk.samples import WeightedSample

GAMMA = RecoveryFunction.two_piece(0.05, 0.6, 0.25)


def random_divisions(rng, m, n):
    de = rng.normal(0.2, 1.0, size=(m, n))
    liab = rng.uniform(0.0, 2.0, size=(m, n))
    return DivisionalSample(de, liab)


def test_divisional_validation():
    with pytest.raises(ValueError):
        DivisionalSample(np.zeros((3, 2)), -np.ones((3, 2)))
    with pytest.raises(ValueError):
        DivisionalSample(np.zeros((3, 2)), np.zeros((2, 2)))
    ds = DivisionalSample([[1.0, 2.0]], [[0.5, 0.5]])
    agg = ds.aggregate()
    assert agg.x[0] == 3.0 and agg.y[0] == 1.0


def test_single_division_equals_aggregate_measure():
    rng = np.random.default_rng(41)
    ds = random_divisions(rng, 40, 1)
    res = euler_allocation(ds, GAMMA)
    assert res.kappa[0] == pytest.approx(reavar(ds.aggregate(), GAMMA), abs=1e-12)
    assert res.full_allocation_gap == pytest.approx(0.0, abs=1e-12)


def test_two_division_hand_computation():
    # four scenarios, uniform weights; binding piece fixed by hand.
    de = np.array([[-4.0, -2.0], [1.0, 0.5], [2.0, 1.0], [3.0, 2.0]])
    liab = np.array([[2.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    ds = DivisionalSample(de, liab)
    gamma = RecoveryFunction.two_piece(0.25, 0.5, 0.5)
    agg = ds.aggregate()
    ev = reavar_pieces(agg, gamma)
    # piece terms: AVaR_.25(x + .5 y) and AVaR_.5(x)
    # x = [-6, 1.5, 3, 5], y = [3, 1, 1, 2]
    # x + .5 y = [-4.5, 2, 3.5, 6]; AVaR_.25 = 4.5 (worst quarter)
    # AVaR_.5 = mean of worst half of -x = (6 - 1.5)/2 = 2.25
    assert ev.terms == pytest.approx((4.5, 2.25), abs=1e-12)
    assert ev.binding_fraction == 0.5
    res = euler_allocation(ds, gamma)
    # tail = scenario 0 alone at weight .25 = alpha; kappa_i = -(dE_i + .5 L_i)
    assert res.kappa[0] == pytest.approx(-(-4.0 + 0.5 * 2.0), abs=1e-12)
    assert res.kappa[1] == pytest.approx(-(-2.0 + 0.5 * 1.0), abs=1e-12)
    assert sum(res.kappa) == pytest.approx(4.5, abs=1e-12)


def test_full_allocation_random_instances():
    rng = np.random.default_rng(42)
    done = 0
    while done < 60:
        ds = random_divisions(rng, int(rng.integers(10, 120)), int(rng.integers(2, 5)))
        try:
            res = euler_allocation(ds, GAMMA)
        except AmbiguousBindingIndex:
            continue
        assert abs(res.full_allocation_gap) <= 1e-9
        done += 1


def test_homogeneity_of_allocation():
    rng = np.random.default_rng(43)
    ds = random_divisions(rng, 60, 3)
    res = euler_allocation(ds, GAMMA)
    scale = 2.5
    scaled = DivisionalSample(scale * ds.de, scale * ds.liabilities, ds.weights)
    res_scaled = euler_allocation(scaled, GAMMA)
    for a, b in zip(res.kappa, res_scaled.kappa):
        assert b == pytest.approx(scale * a, rel=1e-12)


def test_ambiguous_binding_index_raises():
    ds = DivisionalSample(np.zeros((4, 2)), np.zeros((4, 2)))
    with pytest.raises(AmbiguousBindingIndex):
        euler_allocation(ds, GAMMA)


def test_rorac_basics():
    with pytest.raises(DenominatorNotPositive):
        rorac(1.0, 0.0)
    assert rorac(2.0, 4.0) == 0.5
    s = WeightedSample([0.5, -0.5], [1.0, 1.0], None)  # zero mean gain
    assert rorac_from_sample(s, GAMMA) == pytest.approx(0.0, abs=1e-12)


def test_rorac_two_state_denominator():
    # under the two-piece function with beta < alpha/2 and k < 100 r the
    # aggregate capital is 100 r - k
    alpha, beta, r, k = 0.01, 0.004, 0.8, 50.0
    gamma = RecoveryFunction.two_piece(beta, r, alpha)
    s = WeightedSample([100.0 - k, k - 100.0], [1.0, 100.0],
                       [1.0 - alpha / 2.0, alpha / 2.0])
    denom = reavar(s, gamma)
    assert denom == pytest.approx(100.0 * r - k, abs=1e-9)
    assert rorac_from_sample(s, gamma) == pytest.approx(s.mean_x() / denom, abs=1e-12)


def test_property_check_identical_divisions():
    rng = np.random.default_rng(44)
    base_de = rng.normal(0.3, 1.0, 50)
    base_l = rng.uniform(0.0, 2.0, 50)
    ds = DivisionalSample(np.column_stack([base_de, base_de]),
                          np.column_stack([base_l, base_l]))
    report = allocation_property_check(ds, GAMMA)
    assert report.full_allocation_error <= 1e-9
    assert all(report.diversification_ok)
    # symmetric divisions match the aggregate RoRaC: nothing to check
    assert all(s == "not_applicable" for s in report.rorac_compatibility)


def test_property_check_directional_consistency():
    rng = np.random.default_rng(45)
    checked = 0
    while checked < 10:
        ds = random_divisions(rng, 80, 3)
        try:
            report = allocation_property_check(ds, GAMMA)
        except AmbiguousBindingIndex:
            continue
        assert all(report.diversification_ok)
        assert "inconsistent" not in report.rorac_compatibility
        checked += 1


def tail_set_is_stable(ds, gamma, h):
    """Smoothness proxy: the scenarios adjacent to the quantile boundary of
    the binding aggregate position are separated by more than the step can
    move them, so the tail set cannot swap within the step."""
    agg = ds.aggregate()
    ev = reavar_pieces(agg, gamma)
    r_j, alpha_j = ev.binding_fraction, ev.binding_level
    s = np.sort(agg.x + (1.0 - r_j) * agg.y)
    c = np.cumsum(np.full(s.size, 1.0 / s.size))
    m = int(np.searchsorted(c, alpha_j, side="right"))
    margin = 2.0 * h * float(np.max(np.abs(ds.de) + np.abs(ds.liabilities)))
    lo = max(m - 2, 0)
    hi = min(m + 3, s.size)
    gaps = np.diff(s[lo:hi])
    return bool(np.all(gaps > margin))


def test_directional_derivative_matches_kappa():
    # the derivative theory needs a locally stable tail set; instances with
    # atoms packed against the quantile boundary are excluded as non-smooth
    rng = np.random.default_rng(46)
    h = 1e-3
    done = 0
    while done < 15:
        ds = random_divisions(rng, 61, 2)
        try:
            res = euler_allocation(ds, GAMMA)
        except AmbiguousBindingIndex:
            continue
        if not tail_set_is_stable(ds, GAMMA, h):
            continue
        agg = ds.aggregate()
        base = res.reavar_value
        for i in range(2):
            grown = WeightedSample(agg.x + h * ds.de[:, i],
                                   agg.y + h * ds.liabilities[:, i], ds.weights)
            fd = (reavar(grown, GAMMA) - base) / h
            assert fd == pytest.approx(res.kappa[i], rel=0.05, abs=0.05)
        done += 1


def test_divisional_csv_round_trip(tmp_path):
    rng = np.random.default_rng(47)
    ds = random_divisions(rng, 12, 3)
    path = tmp_path / "div.csv"
    write_divisional_csv(ds, str(path))
    loaded = read_divisional_csv(str(path))
    assert np.array_equal(loaded.de, ds.de)
    assert np.array_equal(loaded.liabilities, ds.liabilities)
    assert np.array_equal(loaded.weights, ds.weights)


def test_divisional_csv_accepts_plain_scenarios():
    text = "weight,deltaE,L,A\n0.5,1.0,2.0,9.0\n0.5,-1.0,1.0,6.0\n"
    ds = read_divisional_csv(io.StringIO(text))
    assert ds.n_divisions == 1
    assert np.array_equal(ds.de[:, 0], [1.0, -1.0])
