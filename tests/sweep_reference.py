"""Reference sweep: one full draw per cell, kept as the oracle for
``recrisk.adjustments.case_study_sweep``.

``sample`` and ``mixture_quantile`` are the single-pass sampler and spliced
quantile that the staged sampler of ``recrisk.balancesheet`` replaced, copied
without change; ``sweep`` is the per-cell loop that the shared-draw sweep
replaced.  Only the uniform stream, the model type with its splice
constants, ``gamma_quantile`` and the per-cell evaluation
``regime_adjustments`` are shared, so a difference in the staging
shows up as a difference in the result.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr, ndtri

from recrisk.adjustments import SweepRow, regime_adjustments
from recrisk.balancesheet import (BalanceSheetModel, gamma_quantile, loss_probability,
                                  uniform_stream)
from recrisk.errors import DenominatorNotPositive
from recrisk.samples import WeightedSample


def mixture_quantile(u, model: BalanceSheetModel):
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
        raise ValueError("liability quantile requires u in (0, 1)")
    shift = model.tail_shift()
    out = np.empty_like(u_arr)
    body = u_arr < model.splice_level
    if np.any(body):
        out[body] = gamma_quantile(u_arr[body], model.body_shape, model.body_rate)
    if np.any(~body):
        out[~body] = gamma_quantile(u_arr[~body], model.tail_shape, model.tail_rate) - shift
    return float(out[0]) if np.ndim(u) == 0 else out


def sample(model: BalanceSheetModel, m: int, seed: int) -> tuple[WeightedSample, np.ndarray]:
    """(scenarios, assets) of one cell, drawn from scratch."""
    if m < 1:
        raise ValueError("scenario count must be at least 1")
    u = uniform_stream(seed, 0, 2 * m)
    z1 = ndtri(u[0::2])
    z2 = ndtri(u[1::2])
    rho = model.copula_correlation
    zc = rho * z1 + math.sqrt(max(1.0 - rho * rho, 0.0)) * z2
    assets = np.exp(model.asset_log_mean + model.asset_log_sd * z1)
    liabilities = mixture_quantile(ndtr(zc), model)
    delta_e = assets - liabilities - model.initial_net_asset_value
    return WeightedSample(delta_e, liabilities, None), assets


def sweep(model: BalanceSheetModel, rho_grid, tau_grid, regimes, m: int, seed: int,
          config) -> list[SweepRow]:
    """The case study, one independent draw and evaluation per (rho, tau) cell."""
    e0 = model.initial_net_asset_value
    rows = []
    for rho in rho_grid:
        for tau in tau_grid:
            cell = model.with_params(copula_correlation=rho, tail_shape=tau)
            scenarios, _ = sample(cell, m, seed)
            lp = loss_probability(scenarios)
            try:
                adjusted = regime_adjustments(scenarios, config, regimes)
            except DenominatorNotPositive as exc:
                raise DenominatorNotPositive(f"{exc} at rho={rho}, tau={tau}") from None
            rows += [SweepRow(rho=rho, tau=tau, regime=regime.kind, loss_prob=lp,
                              reg_capital=cap, reg_measure_e1=cap - e0,
                              solvency_ratio=e0 / cap, agg_rec_adj_integral=integral,
                              agg_rec_adj_mean=mean)
                     for regime, (cap, integral, mean) in zip(regimes, adjusted)]
    return rows
