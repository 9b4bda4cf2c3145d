"""The tail kernel in ``recrisk.measures`` against the argsort reference in
``tail_reference``: every result must be bit-identical (``==``).

Samples carry heavy ties (half-integer values from a small range) and one of
three kinds of weights: dyadic, so that cumulative weights are exact and
levels k / 2**p hit them exactly (the knife edge c_m == alpha); uniform 1/m,
where levels k / m hit them up to summation noise; or arbitrary normalised
weights.
"""

import math
import re
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import tail_reference as ref
from recrisk import measures
from recrisk.adjustments import AggRecAdjConfig, revar_two_piece_grid
from recrisk.allocation import DivisionalSample, euler_allocation
from recrisk.recovery import RecoveryFunction
from recrisk.samples import WeightedSample

SRC = Path(__file__).resolve().parent.parent / "src" / "recrisk"

TIED = st.integers(min_value=-6, max_value=6).map(lambda k: k / 2.0)
TIED_NONNEG = st.integers(min_value=0, max_value=4).map(float)


@st.composite
def weights(draw, m):
    """(weights, grid): weights whose cumulative sums lie on, or within
    summation noise of, the multiples of 1 / grid, or arbitrary positive
    weights with grid None.  Dyadic weights count / 2**p sum exactly; uniform
    weights 1 / m carry the noise that the knife-edge guard absorbs."""
    kind = draw(st.sampled_from(["dyadic", "uniform", "arbitrary"]))
    if kind == "dyadic":
        counts = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=m, max_size=m))
        denom = max(4, 1 << (sum(counts) - 1).bit_length())
        counts[-1] += denom - sum(counts)
        return np.asarray(counts, dtype=float) / denom, denom
    if kind == "uniform" and m >= 4:
        return np.full(m, 1.0 / m), m
    raw = np.asarray(draw(st.lists(st.floats(min_value=0.05, max_value=1.0),
                                   min_size=m, max_size=m)))
    return raw / raw.sum(), None


@st.composite
def levels(draw, w, grid):
    """A level in (0, 1): on the weights' grid when there is one, otherwise a
    cumulative weight of the sample or an arbitrary float."""
    if grid is not None:
        return draw(st.integers(min_value=1, max_value=grid - 1)) / grid
    partial = [c for c in np.cumsum(w)[:-1].tolist() if 0.0 < c < 1.0]
    if partial and draw(st.booleans()):
        return draw(st.sampled_from(partial))
    return draw(st.floats(min_value=1e-3, max_value=0.999))


@st.composite
def tied_values(draw, max_m=24):
    m = draw(st.integers(min_value=1, max_value=max_m))
    x = np.asarray(draw(st.lists(TIED, min_size=m, max_size=m)))
    w, grid = draw(weights(m))
    return x, w, draw(levels(w, grid))


@st.composite
def gammas(draw, grid):
    """Piecewise level functions with dyadic breakpoints and levels on the
    weights' grid."""
    grid = grid or 64
    n = draw(st.integers(min_value=1, max_value=3))
    lv = draw(st.lists(st.integers(min_value=1, max_value=grid - 1), min_size=n, max_size=n,
                       unique=True))
    bp = draw(st.lists(st.integers(min_value=1, max_value=63), min_size=n - 1, max_size=n - 1,
                       unique=True))
    return RecoveryFunction(tuple(b / 64 for b in sorted(bp)), tuple(a / grid for a in sorted(lv)))


@settings(max_examples=300, deadline=None)
@given(tied_values())
def test_var_and_avar_match_reference(case):
    x, w, alpha = case
    assert measures.var_empirical(x, w, alpha) == ref.var_empirical(x, w, alpha)
    assert measures.avar_empirical(x, w, alpha) == ref.avar_empirical(x, w, alpha)


@settings(max_examples=300, deadline=None)
@given(tied_values())
def test_avar_and_lower_quantile_match_reference(case):
    x, w, alpha = case
    assert measures.avar_and_lower_quantile(x, w, alpha) == (
        ref.avar_empirical(x, w, alpha), ref.weighted_quantile_interval(x, w, alpha)[0])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_two_piece_grid_matches_reference(data):
    m = data.draw(st.integers(min_value=1, max_value=24))
    x = np.asarray(data.draw(st.lists(TIED, min_size=m, max_size=m)))
    y = np.asarray(data.draw(st.lists(TIED_NONNEG, min_size=m, max_size=m)))
    w, grid = data.draw(weights(m))
    if grid is not None:
        # On the half grid u = 1/(2 grid), odd b0 and odd s put the midpoint
        # nodes (b0 + (2k + 1) s) u on multiples of 1/grid: knife edges.
        unit = 0.5 / grid
        n_beta = data.draw(st.sampled_from([n for n in (1, 2, 4, 8) if n < grid - 1]))
        s = 2 * data.draw(st.integers(0, ((2 * grid - 3) // (2 * n_beta) - 1) // 2)) + 1
        b0 = 2 * data.draw(st.integers(0, (2 * grid - 3 - 2 * s * n_beta) // 2)) + 1
        top = b0 + 2 * s * n_beta
        a = data.draw(st.integers(min_value=top + 1, max_value=2 * grid - 1))
        beta_min, beta_max, alpha = b0 * unit, top * unit, a * unit
    else:
        n_beta = data.draw(st.sampled_from([1, 2, 4, 8]))
        beta_min, beta_max, alpha = sorted(data.draw(st.lists(
            st.floats(min_value=1e-3, max_value=0.999), min_size=3, max_size=3, unique=True)))
    r_min, r_max = sorted(data.draw(st.lists(st.integers(min_value=1, max_value=15),
                                             min_size=2, max_size=2, unique=True)))
    config = AggRecAdjConfig(beta_min=beta_min, beta_max=beta_max, r_min=r_min / 16,
                             r_max=r_max / 16, n_beta=n_beta,
                             n_r=data.draw(st.integers(min_value=1, max_value=4)), alpha=alpha)
    sample = WeightedSample(x, y, w)
    assert np.array_equal(revar_two_piece_grid(sample, config),
                          ref.revar_two_piece_grid(sample, config))


@st.composite
def large_cases(draw):
    """(x, y, weights, level) with 200 to 5,000 scenarios, enough for the
    kernel to select a prefix rather than sort them all, and a level in the
    lower tail.  Kinds: heavy ties (13 half-integer values, so ties span the
    k-th value); a light head, where the smallest scenarios carry tiny weights
    and k must grow; one scenario holding 90% of the weight; dyadic weights.
    Half the levels are knife edges: a cumulative weight of the stable sort."""
    m = draw(st.integers(min_value=200, max_value=5000))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["ties", "light-head", "heavy-scenario", "dyadic"]))
    x = rng.integers(-6, 7, m) / 2.0 if kind == "ties" else np.round(rng.normal(size=m), 2)
    y = rng.integers(0, 5, m).astype(float)
    raw = rng.uniform(0.05, 1.0, m) if draw(st.booleans()) else np.ones(m)
    if kind == "light-head":
        head = draw(st.integers(min_value=16, max_value=m // 2))
        raw[np.argsort(x, kind="stable")[:head]] *= 1e-6
    elif kind == "heavy-scenario":
        j = draw(st.integers(min_value=0, max_value=m - 1))
        raw[j] = 9.0 * (raw.sum() - raw[j])
    elif kind == "dyadic":
        raw = rng.integers(1, 7, m).astype(float)
        denom = 1 << (int(raw.sum()) - 1).bit_length()
        raw[-1] += denom - raw.sum()
    w = raw / raw.sum()
    if draw(st.booleans()):
        c = np.cumsum(w[np.argsort(x, kind="stable")])
        level = float(c[draw(st.integers(min_value=0, max_value=m // 20))])
    else:
        level = draw(st.floats(min_value=1e-3, max_value=0.05))
    return x, y, w, level


@settings(max_examples=150, deadline=None)
@given(large_cases())
def test_selected_tail_matches_reference(case):
    x, y, w, alpha = case
    assume(alpha < 1.0)
    assert measures.var_empirical(x, w, alpha) == ref.var_empirical(x, w, alpha)
    assert measures.avar_and_lower_quantile(x, w, alpha) == (
        ref.avar_empirical(x, w, alpha), ref.weighted_quantile_interval(x, w, alpha)[0])
    assert np.array_equal(measures.tail_weights(x, w, alpha),
                          ref._tail_weights(np.argsort(x, kind="stable"), w, alpha))
    config = AggRecAdjConfig(beta_min=alpha / 4, beta_max=alpha / 2, r_min=0.5, r_max=0.9,
                             n_beta=4, n_r=2, alpha=alpha)
    sample = WeightedSample(x, y, w)
    assert np.array_equal(revar_two_piece_grid(sample, config),
                          ref.revar_two_piece_grid(sample, config))


@settings(max_examples=100, deadline=None)
@given(large_cases())
def test_kernel_returns_the_head_of_the_full_stable_sort(case):
    x, _, w, level = case
    order, vs, ws, c = measures._ascending(x, w, level)
    full = np.argsort(x, kind="stable")
    n = order.size
    assert np.array_equal(order, full[:n])
    assert np.array_equal(vs, x[full][:n])
    assert np.array_equal(ws, w[full][:n])
    # Cumulative weights are the full sort's: np.cumsum's over the first
    # block, blocked sums past it (test_cumulative_weights_*).
    assert np.array_equal(c, measures._cumulative(w[full])[:n])
    head = min(n, measures.CUM_BLOCK)
    assert np.array_equal(c[:head], np.cumsum(w[full])[:head])
    assert n == x.size or c[-1] > level + measures.LEVEL_EPS


def test_kernel_selects_and_grows_a_prefix_below_the_full_sort():
    x = np.random.default_rng(5).normal(size=10_000)
    uniform = np.full(x.size, 1.0 / x.size)
    assert measures._ascending(x, uniform, 0.01)[0].size == 201
    raw = np.ones(x.size)
    raw[np.argsort(x, kind="stable")[:1000]] = 1e-6  # the first two rounds of k fall short
    order = measures._ascending(x, raw / raw.sum(), 0.01)[0]
    assert 1000 < order.size < x.size


def test_kernel_prefix_clears_the_knife_edge_guard():
    # The first 16 scenarios sum to 0.112 in exact arithmetic but to
    # 0.11200000000000004 in floats: the prefix must grow past them, since the
    # guard counts that sum as "<= 0.112" and the marginal scenario is the 17th.
    x = np.arange(60.0)
    w = np.concatenate([np.full(16, 0.007), np.full(44, 0.888 / 44)])
    assert measures._ascending(x, w, 0.112)[3][-1] > 0.112 + measures.LEVEL_EPS
    assert measures.var_empirical(x, w, 0.112) == ref.var_empirical(x, w, 0.112) == -16.0
    assert measures.avar_empirical(x, w, 0.112) == ref.avar_empirical(x, w, 0.112)


def test_cumulative_weights_honour_the_level_guard_on_a_long_prefix():
    # 2.5e6 weights of 1e-8 reach 2.5% exactly (up to 5e-19), so the marginal
    # scenario at 2.5% is the next one; a sequential cumsum drifts by +1.5e-12
    # over them, past LEVEL_EPS, and picks the scenario before.  The last
    # scenario carries the rest of the weight and is the marginal one at 5%.
    # The exact tail averages are summed in rationals.
    n = 2_500_010
    x = np.arange(n, dtype=float)
    w = np.full(n, 1e-8)
    w[-1] = 1.0 - math.fsum(w[:-1])
    unit = Fraction(1e-8)
    for alpha, m in ((0.025, 2_500_000), (0.05, n - 1)):
        head = -unit * m * (m - 1) / 2
        tail = max(Fraction(alpha) - m * unit, 0) * -m
        assert measures.var_empirical(x, w, alpha) == -m
        assert math.isclose(measures.avar_empirical(x, w, alpha),
                            float((head + tail) / Fraction(alpha)), rel_tol=1e-13, abs_tol=0.0)


def test_cumulative_weights_keep_the_first_block_and_bound_the_rest():
    rng = np.random.default_rng(17)
    for ws in (np.full(3 * measures.CUM_BLOCK + 5, 1e-8), rng.dirichlet(np.ones(10_000))):
        c = measures._cumulative(ws)
        head = measures.CUM_BLOCK
        assert c[:head].tobytes() == np.cumsum(ws[:head]).tobytes()
        exact = np.array([float(f) for f in accumulate(map(Fraction, ws.tolist()))])
        assert np.max(np.abs(c - exact)) < measures.LEVEL_EPS / 2
    assert measures._cumulative(np.array([0.25])).tobytes() == np.array([0.25]).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_euler_allocation_matches_reference(data):
    m = data.draw(st.integers(min_value=1, max_value=20))
    n = data.draw(st.integers(min_value=1, max_value=3))
    de = np.asarray(data.draw(st.lists(TIED, min_size=m * n, max_size=m * n))).reshape(m, n)
    liab = np.asarray(data.draw(st.lists(TIED_NONNEG, min_size=m * n,
                                         max_size=m * n))).reshape(m, n)
    w, grid = data.draw(weights(m))
    gamma = data.draw(gammas(grid))
    sample = DivisionalSample(de, liab, w)
    result = euler_allocation(sample, gamma, gap_tol=0.0)
    binding, kappa = ref.euler_allocation(sample, gamma)
    assert result.binding_index == binding
    assert list(result.kappa) == kappa.tolist()


def test_only_measures_sorts_scenarios():
    """The tail decision (selection, sort order, tie order, knife-edge guard)
    lives in ``measures`` alone; every other module reads it through the
    kernel."""
    offenders = [f"{path.name}:{n}: {line.strip()}"
                 for path in sorted(SRC.glob("*.py")) if path.name != "measures.py"
                 for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                 if re.search(r"\b(argsort|cumsum|LEVEL_EPS)\b|\b(arg)?partition\(", line)]
    assert offenders == []


def test_only_samples_formats_csv():
    """The CSV output format lives in ``samples.write_table`` alone; the
    other writers map their columns onto it."""
    offenders = [f"{path.name}:{n}: {line.strip()}"
                 for path in sorted(SRC.glob("*.py")) if path.name != "samples.py"
                 for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                 if re.search(r"StringIO|repr\(float\(|^import io\b", line)]
    assert offenders == []
