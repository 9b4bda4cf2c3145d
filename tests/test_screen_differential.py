"""The screened recovery maxima of ``recrisk.measures`` against the per-node
loops of ``node_reference``: every term and every grid value must be
bit-identical.

Samples carry heavy ties (half-integer values from a small range, so ties
span the screen's threshold t), rows with y = 0, and uniform, Dirichlet or
dyadic weights.  With dyadic weights cumulative sums are exact, so a top
level drawn from the cumulative weights of the highest position is a knife
edge (cumulative weight == level).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import node_reference as ref
from recrisk import measures
from recrisk.adjustments import AggRecAdjConfig, revar_two_piece_grid
from recrisk.samples import WeightedSample

ESTIMATORS = [measures.var_empirical, measures.avar_empirical]


def draw_sample(draw, m):
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        x = rng.integers(-8, 9, m) / 2.0
        y = rng.integers(0, 5, m).astype(float)
    else:
        x = np.round(rng.normal(0.0, 3.0, m), 2)
        y = np.round(rng.gamma(2.0, 1.0, m), 2)
    y[rng.random(m) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    kind = draw(st.sampled_from(["uniform", "dirichlet", "dyadic"]))
    if kind == "uniform":
        w = np.full(m, 1.0 / m)
    elif kind == "dirichlet":
        w = rng.dirichlet(np.full(m, draw(st.sampled_from([0.5, 1.0, 5.0]))))
        w = np.maximum(w, 1e-300)
        w /= w.sum()
    else:
        counts = rng.integers(1, 7, m).astype(float)
        denom = 1 << (int(counts.sum()) - 1).bit_length()
        counts[-1] += denom - counts.sum()
        w = counts / denom
    return WeightedSample(x, y, w)


def knife_edges(sample, a):
    """Cumulative weights of the stable sort of x + a y below 0.3."""
    c = np.cumsum(sample.weights[np.argsort(sample.x + a * sample.y, kind="stable")])
    return [float(v) for v in c if 0.0 < v < 0.3] or [0.1]


@st.composite
def node_cases(draw):
    """(sample, nodes, liability side): up to 8 (lam, level) nodes whose top
    level is a knife edge of the highest position half of the time."""
    side = draw(st.booleans())
    sample = draw_sample(draw, draw(st.integers(min_value=20, max_value=2000)))
    n = draw(st.integers(min_value=1, max_value=8))
    lams = [k / 64 for k in draw(st.lists(st.integers(min_value=1 if side else 0, max_value=64),
                                          min_size=n, max_size=n))]
    lam_min = min(lams)
    highest = -lam_min if side else 1.0 - lam_min
    if draw(st.booleans()):
        top = draw(st.sampled_from(knife_edges(sample, highest)))
    else:
        top = draw(st.floats(min_value=1e-3, max_value=0.3))
    levels = [top] + [top * draw(st.sampled_from([1.0, 0.75, 0.5, 0.125])) for _ in lams[1:]]
    order = draw(st.permutations(range(n)))
    return sample, [(lams[i], levels[j]) for i, j in enumerate(order)], side


@settings(max_examples=150, deadline=None)
@given(node_cases(), st.sampled_from(ESTIMATORS))
def test_screened_nodes_match_the_unscreened_loop(case, estimator):
    sample, nodes, side = case
    ev = measures._node_max(sample, nodes, estimator, side)
    want = ref.node_max(sample, nodes, estimator, side)
    assert np.array(ev.terms).tobytes() == np.array(want.terms).tobytes()
    assert ev == want


@st.composite
def grid_cases(draw):
    """(sample, config): the largest beta node is a knife edge of the
    highest position (the smallest r node) half of the time, placed
    exactly by a single beta node at the middle of a dyadic interval."""
    sample = draw_sample(draw, draw(st.integers(min_value=20, max_value=2000)))
    r_min, r_max = sorted(draw(st.lists(st.integers(min_value=1, max_value=15), min_size=2,
                                        max_size=2, unique=True)))
    n_r = draw(st.integers(min_value=1, max_value=6))
    r_first = r_min / 16 + 0.5 * (r_max / 16 - r_min / 16) / n_r
    edges = [c for c in knife_edges(sample, 1.0 - r_first) if c > 2.0**-20]
    if draw(st.booleans()) and edges:
        top = draw(st.sampled_from(edges))
        half = 2.0 ** (math.floor(math.log2(top)) - 2)
        n_beta, beta_min, beta_max = 1, top - half, top + half
    else:
        n_beta = draw(st.sampled_from([1, 2, 4, 16]))
        beta_min, beta_max = sorted(draw(st.lists(st.floats(min_value=1e-3, max_value=0.3),
                                                  min_size=2, max_size=2, unique=True)))
    config = AggRecAdjConfig(beta_min=beta_min, beta_max=beta_max, r_min=r_min / 16,
                             r_max=r_max / 16, n_beta=n_beta, n_r=n_r,
                             alpha=min(2.0 * beta_max, 0.9))
    return sample, config


@settings(max_examples=100, deadline=None)
@given(grid_cases())
def test_screened_grid_matches_the_unscreened_loop(case):
    sample, config = case
    assert (revar_two_piece_grid(sample, config).tobytes()
            == ref.revar_two_piece_grid(sample, config).tobytes())


def test_knife_edge_grid_case_places_its_top_beta_exactly():
    w = np.full(64, 1.0 / 64)
    sample = WeightedSample(np.arange(64.0), np.zeros(64), w)
    top = 3 / 64
    half = 2.0 ** (math.floor(math.log2(top)) - 2)
    config = AggRecAdjConfig(beta_min=top - half, beta_max=top + half, n_beta=1, alpha=0.5)
    assert config.beta_nodes().tolist() == [top]
    assert revar_two_piece_grid(sample, config).tolist() == [[-3.0] * 16]


def test_screen_threshold_absorbs_the_order_of_the_cumulative_sums():
    # The three lowest scenarios come in the order 0.1, 0.2, 0.3 at lam = 0
    # and 0.3, 0.2, 0.1 at lam = 1, whose cumulative sums end at
    # 0.6000000000000001 and 0.6.  At the level 0.6 - LEVEL_EPS only the
    # first counts as past it, so at lam = 1 the marginal scenario is the
    # fourth; a threshold taken at the level itself would drop it.
    sample = WeightedSample(np.array([1.0, 0.5, 0.0, 10.0]), np.array([0.0, 1.5, 3.0, 0.0]),
                            np.array([0.1, 0.2, 0.3, 0.4]))
    nodes = [(0.0, 0.6 - measures.LEVEL_EPS), (1.0, 0.6 - measures.LEVEL_EPS)]
    for estimator in ESTIMATORS:
        assert measures._node_max(sample, nodes, estimator) == ref.node_max(sample, nodes,
                                                                             estimator)
    assert measures._node_max(sample, nodes, measures.var_empirical).terms == (-3.0, -10.0)


def screen_of(sample, coefficients, level):
    return measures.screen(sample.x, sample.y, sample.weights, coefficients, level)


def test_screen_keeps_candidates_in_index_order_and_one_atom():
    rng = np.random.default_rng(8)
    sample = WeightedSample(np.round(rng.normal(size=5000), 1), rng.integers(0, 3, 5000) * 1.0,
                            rng.dirichlet(np.ones(5000)))
    coefficients = [0.1, 0.15, 0.2]
    x, y, w = screen_of(sample, coefficients, 0.01)
    u = sample.x + 0.2 * sample.y
    c = np.cumsum(sample.weights[np.argsort(u, kind="stable")])
    t = np.sort(u, kind="stable")[np.searchsorted(c, 0.01 + 2 * measures.LEVEL_EPS, "right")]
    keep = np.flatnonzero(sample.x + 0.1 * sample.y <= t)
    assert 0 < keep.size < 5000 and np.sum(u == t) > 1  # ties at t
    assert x.tobytes() == np.append(sample.x[keep], t).tobytes()
    assert y.tobytes() == np.append(sample.y[keep], 0.0).tobytes()
    assert w[:-1].tobytes() == sample.weights[keep].tobytes()
    assert w[-1] == 1.0 - math.fsum(sample.weights[keep])
    for a in coefficients:
        for level in (0.002, 0.01):
            for est in ESTIMATORS:
                assert est(x + a * y, w, level) == est(sample.x + a * sample.y, sample.weights,
                                                       level)


def fallback_cases():
    m = 50
    # A negative y: positions are not monotone in the coefficient.
    y = np.arange(m, dtype=float)
    y[7] = -1.0
    negative = WeightedSample(np.zeros(m), y, None)
    # Every scenario is a candidate: one value, no y.
    everything = WeightedSample(np.full(m, 2.0), np.zeros(m), None)
    # The dropped scenario weighs 1e-18 while the others carry 1 + 5e-13, so
    # the weight left for the atom rounds to <= 0.
    w = np.full(m, (1.0 + 5e-13) / (m - 1))
    w[-1] = 1e-18
    x = np.zeros(m)
    x[-1] = 100.0
    y = np.arange(m, dtype=float)
    y[-1] = 0.0
    massless = WeightedSample(x, y, w)
    return {"negative y": negative, "candidate set equal to M": everything,
            "censored mass <= 0": massless}


@pytest.mark.parametrize("name", list(fallback_cases()))
@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_screen_falls_back_to_the_full_sample(name, estimator):
    sample = fallback_cases()[name]
    nodes = [(0.0, 0.1), (0.5, 0.05), (1.0, 0.1)]
    x, y, w = screen_of(sample, [1.0, 0.5, 0.0], 0.1)
    assert x is sample.x and y is sample.y and w is sample.weights
    assert measures._node_max(sample, nodes, estimator) == ref.node_max(sample, nodes, estimator)


def test_liability_nodes_and_sweep_grids_screen_most_scenarios(monkeypatch):
    rng = np.random.default_rng(3)
    m = 20_000
    sample = WeightedSample(rng.normal(5.0, 2.0, m), rng.gamma(2.0, 1.0, m), None)
    lams = np.linspace(0.0, 1.0, 51)[1:]
    x, y, w = screen_of(sample, -lams, 0.01)
    assert x.size < m // 4
    # The kernel sizes its first selection by the weight outside the atom,
    # so no censored node grows its prefix.
    partition, sizes = np.partition, []
    monkeypatch.setattr(np, "partition", lambda a, k: sizes.append(a.size) or partition(a, k))
    for lam in lams:
        measures._ascending(x - lam * y, w, 0.01)
    assert len(sizes) <= lams.size
    config = AggRecAdjConfig()
    x, _, _ = screen_of(sample, 1.0 - config.r_nodes(), config.beta_nodes().max())
    assert x.size < m // 20
