"""Empirical risk measures over weighted finite samples.

Value at Risk follows the infimum convention

    VaR_alpha(X) = inf { m : P(X + m < 0) <= alpha },

which on a discrete distribution equals minus the m*-th ascending order
statistic, m* = min { m : c_m > alpha } with c_m the cumulative weight.
Average Value at Risk is the exact level-average (1/alpha) * int_0^alpha
VaR_beta dbeta, realised with a fractional weight on the marginal scenario.

The recovery-based measures take the supremum over recovery fractions of
VaR/AVaR at level gamma(lam) applied to x + (1 - lam) * y.  For
piecewise-constant level functions the supremum collapses to a finite
maximum over the (fraction, level) pieces; for general level functions a
grid approximation bounds the supremum from below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .recovery import RecoveryFunction
from .samples import WeightedSample, checked_weights

MONEY_TOL = 1e-9
MAX_PAIR_ASSET = 1e12  # largest asset value min_recovery_pair builds

# Relative slack when comparing levels against an inverse density bound;
# absorbs roundoff at exact-equality dual optimizers.
_DUAL_LEVEL_SLACK = 1e-12

# Cumulative weights carry summation noise of this order on large samples;
# treating c in (alpha, alpha + eps] as "<= alpha" keeps the quantile index
# faithful to the exact-arithmetic convention at knife edges where the tail
# mass equals the level exactly.
LEVEL_EPS = 1e-12


def _ascending(values: np.ndarray, weights: np.ndarray, level: float):
    """The tail kernel: the ascending prefix of ``values`` whose cumulative
    weight exceeds ``level + LEVEL_EPS``, the largest level the caller reads,
    as its stable order (ties resolve by scenario index), the sorted values,
    the sorted weights and their cumulative sum.  Every quantile, tail average
    and tail weight reads it.

    The prefix is found by selection (Floyd & Rivest 1975): the k-th smallest
    value ``t``, every scenario ``<= t`` (all ties of ``t`` included, in index
    order) stable-sorted, and k grown fourfold until the prefix carries enough
    weight.  That set is exactly the head of the full stable sort, and
    ``cumsum`` adds in the same order, so every entry equals the full sort's
    bit for bit.  The full sort remains the last step once k reaches M."""
    n = values.size
    k = max(16, int(2.0 * level * n) + 1)
    while k < n:
        t = np.partition(values, k - 1)[k - 1]
        idx = np.flatnonzero(values <= t)
        order = idx[np.argsort(values[idx], kind="stable")]
        ws = weights[order]
        c = np.cumsum(ws)
        if c[-1] > level + LEVEL_EPS:
            return order, values[order], ws, c
        k *= 4
    order = np.argsort(values, kind="stable")
    ws = weights[order]
    return order, values[order], ws, np.cumsum(ws)


def tail_index(cumweights: np.ndarray, alpha):
    """Index of the marginal scenario: min { m : c_m > alpha } with a
    summation-noise guard, clamped into range; one index per level when
    ``alpha`` is an array of levels."""
    m = np.searchsorted(cumweights, np.asarray(alpha) + LEVEL_EPS, side="right")
    return np.minimum(m, cumweights.size - 1)


def tail_weights(values: np.ndarray, weights: np.ndarray, alpha: float) -> np.ndarray:
    """Scenario weights of the exact ``alpha``-tail of ``values``, with a
    fractional weight on the marginal scenario; they sum to ``alpha``."""
    order, _, ws, c = _ascending(values, weights, alpha)
    m = tail_index(c, alpha)
    tail = np.zeros_like(weights)
    tail[order[:m]] = ws[:m]
    c_prev = float(c[m - 1]) if m > 0 else 0.0
    tail[order[m]] += max(alpha - c_prev, 0.0)
    return tail


def _prepare(values, weights) -> tuple[np.ndarray, np.ndarray]:
    v = np.atleast_1d(np.asarray(values, dtype=float))
    if v.size == 0:
        raise ValueError("empty sample")
    if not np.all(np.isfinite(v)):
        raise ValueError("sample values must be finite")
    return v, checked_weights(weights, v.size)


def _check_level(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"level must lie in (0, 1), got {alpha!r}")
    return alpha


def var_empirical(values, weights, alpha: float) -> float:
    """VaR at level ``alpha`` of a weighted discrete distribution."""
    alpha = _check_level(alpha)
    _, vs, _, c = _ascending(*_prepare(values, weights), alpha)
    return float(-vs[tail_index(c, alpha)])


def avar_and_lower_quantile(values, weights, alpha: float) -> tuple[float, float]:
    """AVaR at level ``alpha`` and the lower ``alpha``-quantile (the first
    sorted value whose cumulative weight reaches ``alpha``, where the tail
    average's variational form attains its minimum), from one kernel call."""
    alpha = _check_level(alpha)
    _, vs, ws, c = _ascending(*_prepare(values, weights), alpha)
    m = tail_index(c, alpha)
    head = float(np.dot(ws[:m], -vs[:m])) if m > 0 else 0.0
    c_prev = float(c[m - 1]) if m > 0 else 0.0
    tail = max(alpha - c_prev, 0.0) * float(-vs[m])
    lower = min(int(np.searchsorted(c, alpha - LEVEL_EPS, side="left")), vs.size - 1)
    return (head + tail) / alpha, float(vs[lower])


def avar_empirical(values, weights, alpha: float) -> float:
    """AVaR (expected shortfall) at level ``alpha``: exact tail average with a
    fractional weight on the marginal scenario."""
    return avar_and_lower_quantile(values, weights, alpha)[0]


@dataclass(frozen=True)
class PiecewiseEvaluation:
    """Finite-max evaluation of a recovery measure over (fraction, level) nodes."""

    value: float
    binding_index: int      # 0-based index of the first largest term
    binding_fraction: float  # recovery fraction of the binding node (1.0 for gamma's last piece)
    binding_level: float
    terms: tuple[float, ...]

    @property
    def gap(self) -> float:
        """Relative distance from the binding term to the runner-up,
        (first - second) / max(1, |first|, |second|); inf for a single term."""
        if len(self.terms) < 2:
            return math.inf
        second = max(t for i, t in enumerate(self.terms) if i != self.binding_index)
        return (self.value - second) / max(1.0, abs(self.value), abs(second))


def _node_max(sample: WeightedSample, nodes, estimator: Callable[..., float],
              liability_side: bool = False) -> PiecewiseEvaluation:
    """The largest recovery term over the (lam, level) ``nodes``, in order:
    estimator(x + (1 - lam) y, level), or (1/lam) estimator(x - lam y, level)
    on the liability side.  Ties resolve toward the first node."""
    x, y, w = sample.x, sample.y, sample.weights
    if liability_side:
        terms = [estimator(x - lam * y, w, level) / lam for lam, level in nodes]
    else:
        terms = [estimator(x + (1.0 - lam) * y, w, level) for lam, level in nodes]
    j = int(np.argmax(terms))
    return PiecewiseEvaluation(float(terms[j]), j, *nodes[j], tuple(terms))


def revar_pieces(sample: WeightedSample, gamma: RecoveryFunction) -> PiecewiseEvaluation:
    sample.require_nonnegative_y("the finite-max recovery measure")
    return _node_max(sample, gamma.pieces(), var_empirical)


def reavar_pieces(sample: WeightedSample, gamma: RecoveryFunction) -> PiecewiseEvaluation:
    sample.require_nonnegative_y("the finite-max recovery measure")
    return _node_max(sample, gamma.pieces(), avar_empirical)


def revar(sample: WeightedSample, gamma: RecoveryFunction) -> float:
    """Recovery VaR of (x, y) = max_i VaR_{alpha_i}(x + (1 - r_i) y)."""
    return revar_pieces(sample, gamma).value


def reavar(sample: WeightedSample, gamma: RecoveryFunction) -> float:
    """Recovery AVaR of (x, y) = max_i AVaR_{alpha_i}(x + (1 - r_i) y)."""
    return reavar_pieces(sample, gamma).value


def _grid_sup(sample: WeightedSample, gamma, n_grid: int,
              estimator: Callable[..., float], liability_side: bool) -> float:
    """Grid supremum of the :func:`_node_max` terms over recovery fractions
    (liability side: x = assets, lam in (0, 1]).  The nodes are a uniform grid
    plus, for a piecewise gamma, both one-sided levels at each breakpoint
    (asset side) or gamma's pieces (liability side: each breakpoint at its
    left-limit level, then lam = 1).  The grid sup bounds the supremum from
    below; the breakpoint nodes make it exact for piecewise-constant gamma."""
    if liability_side:
        sample.require_nonnegative_y("the liability-side recovery measure")
    if n_grid < 2:
        raise ValueError("n_grid must be at least 2")
    is_piecewise = isinstance(gamma, RecoveryFunction)
    lams = np.linspace(0.0, 1.0, n_grid)[1 if liability_side else 0:]
    if is_piecewise:
        levels = np.atleast_1d(gamma(lams))
    else:
        levels = np.asarray([float(gamma(l)) for l in lams])
        if np.any(np.diff(levels) < -1e-15):
            raise ValueError("level function samples are not non-decreasing")
        if not np.all((levels > 0.0) & (levels < 1.0)):
            raise ValueError("level function must map into (0, 1)")
    nodes = list(zip(lams.tolist(), levels.tolist()))
    if is_piecewise and liability_side:
        # gamma's pieces repeat the grid's last node, lam = 1; the benchmark's
        # measures.l_revar.nodes counter pins that node count.
        nodes.extend(gamma.pieces())
    elif is_piecewise:
        for (r, left), right in zip(gamma.pieces(), gamma.levels[1:]):
            nodes.extend([(r, right), (r, left)])
    return _node_max(sample, nodes, estimator, liability_side).value


def revar_grid(sample: WeightedSample, gamma, n_grid: int = 1001) -> float:
    """Grid approximation (from below) of the recovery-fraction supremum of
    VaR_{gamma(lam)}(x + (1 - lam) y).

    ``gamma`` may be a :class:`RecoveryFunction` (its breakpoints are added to
    the grid automatically, making the result exact) or any non-decreasing
    callable on [0, 1] with values in (0, 1).
    """
    return _grid_sup(sample, gamma, n_grid, var_empirical, liability_side=False)


def reavar_grid(sample: WeightedSample, gamma, n_grid: int = 1001) -> float:
    """AVaR counterpart of :func:`revar_grid`."""
    return _grid_sup(sample, gamma, n_grid, avar_empirical, liability_side=False)


def l_revar(sample: WeightedSample, gamma, n_grid: int = 1001) -> float:
    """Liability-side Recovery VaR on a sample with x = assets, y = liabilities:
    sup over (0, 1] of (1/lam) VaR_{gamma(lam)}(x - lam y), whose sign agrees
    with the asset-side solvency test when ``gamma`` is piecewise constant."""
    return _grid_sup(sample, gamma, n_grid, var_empirical, liability_side=True)


def l_reavar(sample: WeightedSample, gamma, n_grid: int = 1001) -> float:
    """Liability-side Recovery AVaR on a sample with x = assets, y = liabilities."""
    return _grid_sup(sample, gamma, n_grid, avar_empirical, liability_side=True)


@dataclass(frozen=True)
class SolvencyVerdict:
    passed: bool
    binding_fraction: float
    binding_level: float
    measure_value: float


def solvency_test(sample: WeightedSample, gamma: RecoveryFunction, e0: float,
                  measure: str = "revar") -> SolvencyVerdict:
    """Recovery-based solvency test on a sample of (delta E, L).

    Passes iff the chosen recovery measure does not exceed the available
    capital ``e0``.
    """
    e0 = float(e0)
    if not math.isfinite(e0):
        raise ValueError("available capital must be finite")
    if measure == "revar":
        ev = revar_pieces(sample, gamma)
    elif measure == "reavar":
        ev = reavar_pieces(sample, gamma)
    else:
        raise ValueError("measure must be 'revar' or 'reavar'")
    return SolvencyVerdict(ev.value <= e0, ev.binding_fraction, ev.binding_level, ev.value)


def recovery_probability_curve(sample: WeightedSample, lam_grid,
                               conditional: bool = True):
    """Recovery probabilities P(A >= lam L) on a sample with x = assets.

    Returns a list of (lam, P(A >= lam L), P(A >= lam L | A < L)) tuples; the
    conditional entry is None when ``conditional`` is False.
    """
    sample.require_nonnegative_y("the recovery probability curve")
    a, l, w = sample.x, sample.y, sample.weights
    default = a < l
    p_default = float(np.sum(w[default]))
    if conditional and p_default <= 0.0:
        raise ValueError("conditional recovery curve requested but the default probability is zero")
    out = []
    for lam in np.atleast_1d(np.asarray(lam_grid, dtype=float)):
        if not (0.0 <= lam <= 1.0):
            raise ValueError("recovery fractions must lie in [0, 1]")
        hit = a >= lam * l
        p = float(np.sum(w[hit]))
        if conditional:
            p_cond = float(np.sum(w[hit & default])) / p_default
        else:
            p_cond = None
        out.append((float(lam), p, p_cond))
    return out


def min_recovery_pair(alpha: float, p: float) -> WeightedSample:
    """Two-state (assets, liabilities) pair that passes the AVaR_alpha test
    with zero margin while every recovery probability equals 1 - p.

    State 1 (weight p): assets 0, liabilities 1.  State 2 (weight 1 - p):
    assets p / (alpha - p), liabilities 0.  The asset value is nudged by a few
    ulps so that the tail-average estimator cancels bit-exactly to zero
    whenever the float grid permits.
    """
    alpha = _check_level(alpha)
    p = float(p)
    if not (0.0 < p < alpha):
        raise ValueError("event probability must satisfy 0 < p < alpha")
    d = alpha - p
    t = p / d
    if not math.isfinite(t) or t > MAX_PAIR_ASSET:
        raise ValueError(
            f"asset value p/(alpha-p) = {t!r} exceeds the magnitude cap {MAX_PAIR_ASSET!r}"
        )
    # Prefer an asset value whose product with (alpha - p) reproduces p exactly.
    best = t
    for k in range(-8, 9):
        cand = t
        for _ in range(abs(k)):
            cand = math.nextafter(cand, math.inf if k > 0 else -math.inf)
        if d * cand == p:
            best = cand
            break
        if abs(d * cand - p) < abs(d * best - p):
            best = cand
    return WeightedSample(np.array([0.0, best]), np.array([1.0, 0.0]),
                          np.array([p, 1.0 - p]))


@dataclass(frozen=True)
class DualBound:
    bound: float
    holds: bool
    feasible: bool
    recovery_fraction: float


def reavar_dual_bound(sample: WeightedSample, gamma: RecoveryFunction, q) -> DualBound:
    """Weak-duality check for Recovery AVaR against a test probability vector.

    For a test measure with density ratio q/w, the largest fraction whose
    level the density supports is lam(q) = sup { lam : gamma(lam) <= 1 /
    max(q/w) } and the candidate bound is E_q(-x) - (1 - lam(q)) E_q(y).  If
    even the lowest level exceeds the inverse density bound the test measure
    is infeasible and the bound is reported as inactive (holds vacuously).
    """
    qv = np.atleast_1d(np.asarray(q, dtype=float))
    if qv.size != sample.size:
        raise ValueError("test measure length must match the sample")
    if np.any(qv < 0.0) or not np.all(np.isfinite(qv)):
        raise ValueError("test measure must be a nonnegative finite vector")
    if abs(float(np.sum(qv)) - 1.0) > 1e-9:
        raise ValueError("test measure must sum to 1")
    ratio = qv / sample.weights
    t = 1.0 / float(np.max(ratio))
    threshold = t * (1.0 + _DUAL_LEVEL_SLACK)
    levels = np.asarray(gamma.levels)
    n_ok = int(np.searchsorted(levels, threshold, side="right"))
    if n_ok == 0:
        feasible = False
        lam = 0.0
    elif n_ok == levels.size:
        feasible = True
        lam = 1.0
    else:
        feasible = True
        lam = gamma.breakpoints[n_ok - 1]
    bound = float(np.dot(qv, -sample.x) - (1.0 - lam) * np.dot(qv, sample.y))
    if feasible:
        holds = bound <= reavar(sample, gamma) + MONEY_TOL
    else:
        holds = True
    return DualBound(bound, holds, feasible, float(lam))
