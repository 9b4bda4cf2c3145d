"""Reference tail code: one full stable ``argsort`` per call, kept as the
oracle for ``recrisk.measures``' tail kernel.

The bodies are the pre-kernel implementations of ``var_empirical``,
``avar_empirical``, ``revar_two_piece_grid``, the Euler tail weights and the
frontier's quantile bracket, copied without change.  Only the Euler binding
piece is recomputed here, from the reference AVaR, so that no result of this
module passes through the kernel under test.
"""

import numpy as np

from recrisk.samples import checked_weights

LEVEL_EPS = 1e-12


def tail_index(cumweights: np.ndarray, alpha: float) -> int:
    m = int(np.searchsorted(cumweights, alpha + LEVEL_EPS, side="right"))
    return min(m, cumweights.size - 1)


def _prepare(values, weights) -> tuple[np.ndarray, np.ndarray]:
    v = np.atleast_1d(np.asarray(values, dtype=float))
    if v.size == 0:
        raise ValueError("empty sample")
    if not np.all(np.isfinite(v)):
        raise ValueError("sample values must be finite")
    return v, checked_weights(weights, v.size)


def var_empirical(values, weights, alpha: float) -> float:
    v, w = _prepare(values, weights)
    order = np.argsort(v, kind="stable")
    vs = v[order]
    c = np.cumsum(w[order])
    return float(-vs[tail_index(c, alpha)])


def avar_empirical(values, weights, alpha: float) -> float:
    v, w = _prepare(values, weights)
    order = np.argsort(v, kind="stable")
    vs = v[order]
    ws = w[order]
    c = np.cumsum(ws)
    m = tail_index(c, alpha)
    head = float(np.dot(ws[:m], -vs[:m])) if m > 0 else 0.0
    c_prev = float(c[m - 1]) if m > 0 else 0.0
    tail = max(alpha - c_prev, 0.0) * float(-vs[m])
    return (head + tail) / alpha


def revar_two_piece_grid(sample, config) -> np.ndarray:
    x, y, w = sample.x, sample.y, sample.weights
    var_alpha = var_empirical(x, w, config.alpha)
    betas = config.beta_nodes()
    rs = config.r_nodes()
    out = np.empty((betas.size, rs.size))
    for j, r in enumerate(rs):
        z = x + (1.0 - r) * y
        order = np.argsort(z, kind="stable")
        zs = z[order]
        c = np.cumsum(w[order])
        idx = np.minimum(np.searchsorted(c, betas + LEVEL_EPS, side="right"), zs.size - 1)
        out[:, j] = np.maximum(-zs[idx], var_alpha)
    return out


def _tail_weights(order: np.ndarray, weights: np.ndarray, alpha: float) -> np.ndarray:
    ws = weights[order]
    c = np.cumsum(ws)
    m = tail_index(c, alpha)
    tail = np.zeros_like(weights)
    tail[order[:m]] = weights[order[:m]]
    c_prev = float(c[m - 1]) if m > 0 else 0.0
    tail[order[m]] += max(alpha - c_prev, 0.0)
    return tail


def euler_allocation(sample, gamma) -> tuple[int, np.ndarray]:
    """(binding index, kappa) of the Euler allocation under Recovery AVaR."""
    agg = sample.aggregate()
    terms = [avar_empirical(agg.x + (1.0 - r) * agg.y, agg.weights, a) for r, a in gamma.pieces()]
    j = int(np.argmax(terms))
    r_j, alpha_j = gamma.pieces()[j]
    s_agg = agg.x + (1.0 - r_j) * agg.y
    order = np.argsort(s_agg, kind="stable")  # ties resolve by scenario index
    tail = _tail_weights(order, sample.weights, alpha_j)
    s_div = sample.de + (1.0 - r_j) * sample.liabilities
    return j, -(tail @ s_div) / alpha_j


def weighted_quantile_interval(values: np.ndarray, weights: np.ndarray,
                               alpha: float) -> tuple[float, float]:
    order = np.argsort(values, kind="stable")
    vs = values[order]
    c = np.cumsum(weights[order])
    lo = int(np.searchsorted(c, alpha - LEVEL_EPS, side="left"))
    hi = int(np.searchsorted(c, alpha + LEVEL_EPS, side="right"))
    lo = min(lo, vs.size - 1)
    hi = min(hi, vs.size - 1)
    return float(vs[lo]), float(vs[hi])
