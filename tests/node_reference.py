"""Reference recovery maxima: every node evaluated on the full sample, kept
as the oracle for ``recrisk.measures.screen``.

``node_max`` is the per-node loop of ``measures._node_max`` and
``revar_two_piece_grid`` the per-r-node loop of
``adjustments.revar_two_piece_grid``, both as they were before the nodes
shared one screened tail pass, copied without change.  Only the estimators
and the tail kernel are shared, so a difference in the screen shows up as a
difference in the result.
"""

from __future__ import annotations

import numpy as np

from recrisk.measures import PiecewiseEvaluation, _ascending, tail_index, var_empirical


def node_max(sample, nodes, estimator, liability_side: bool = False) -> PiecewiseEvaluation:
    x, y, w = sample.x, sample.y, sample.weights
    if liability_side:
        terms = [estimator(x - lam * y, w, level) / lam for lam, level in nodes]
    else:
        terms = [estimator(x + (1.0 - lam) * y, w, level) for lam, level in nodes]
    j = int(np.argmax(terms))
    return PiecewiseEvaluation(float(terms[j]), j, *nodes[j], tuple(terms))


def revar_two_piece_grid(sample, config, var_alpha: float | None = None) -> np.ndarray:
    sample.require_nonnegative_y("the recovery adjustment grid")
    x, y, w = sample.x, sample.y, sample.weights
    if var_alpha is None:
        var_alpha = var_empirical(x, w, config.alpha)
    betas = config.beta_nodes()
    rs = config.r_nodes()
    out = np.empty((betas.size, rs.size))
    for j, r in enumerate(rs):
        _, zs, _, c = _ascending(x + (1.0 - r) * y, w, betas.max())
        out[:, j] = np.maximum(-zs[tail_index(c, betas)], var_alpha)
    return out
