"""Closed-form stress cases.

Two families of balance sheets admit fully analytic recovery risk measures
and serve as oracles for the empirical engine:

* the two-state hedging case (one good state, one bad state with probability
  alpha/2, liabilities 1 and 100, asset transfer parameter k), and
* the peaked liability density (two triangular peaks, body mass 1 - alpha on
  [0, a], tail mass alpha on [b, c]) with deterministic assets.

The extremal construction produces a peaked balance sheet whose recovery
adjustment attains the largest value compatible with a solvency-ratio band,
following the explicit recipe behind that bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionInfeasible
from .samples import WeightedSample

__all__ = [
    "TwoStateCase", "TwoStateMeasures", "two_state_sample", "two_state_measures",
    "PeakedLiabilityModel", "peaked_density", "peaked_cdf", "peaked_quantile",
    "peaked_xi", "peaked_q_beta", "peaked_regulatory", "peaked_revar",
    "ExtremalSearchConfig", "ConstraintCheck", "ExtremalWitness",
    "extremal_construction", "avar_feasible_r_interval",
]


# --- two-state case ----------------------------------------------------------

@dataclass(frozen=True)
class TwoStateCase:
    """One good state, one bad state of probability alpha/2.

    Liabilities are 1 (good) and 100 (bad); assets are 101 - k and k, so the
    net position is 100 - k and k - 100.  The two-piece level function has
    level beta below fraction r and level alpha above.
    """

    k: float
    alpha: float
    beta: float
    r: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.k <= 100.0):
            raise ValueError("k must lie in [0, 100]")
        # The closed forms order the two states by probability; alpha well
        # below 1/2 keeps that ordering valid for every beta < alpha.
        if not (0.0 < self.alpha < 0.5):
            raise ValueError("alpha must lie in (0, 0.5)")
        if not (0.0 < self.beta < self.alpha):
            raise ValueError("beta must lie in (0, alpha)")
        if not (0.0 < self.r < 1.0):
            raise ValueError("r must lie in (0, 1)")


def two_state_sample(case: TwoStateCase) -> WeightedSample:
    """The two-scenario weighted sample (x = net position, y = liabilities)."""
    return WeightedSample(
        np.array([100.0 - case.k, case.k - 100.0]),
        np.array([1.0, 100.0]),
        np.array([1.0 - case.alpha / 2.0, case.alpha / 2.0]),
    )


@dataclass(frozen=True)
class TwoStateMeasures:
    var_alpha: float
    avar_alpha: float
    var_beta_shifted: float    # VaR_beta of the position shifted by (1 - r) * liabilities
    avar_beta_shifted: float
    revar: float
    reavar: float
    revar_min_admissible_k: float
    reavar_min_admissible_k: float


def two_state_measures(case: TwoStateCase) -> TwoStateMeasures:
    k, alpha, beta, r = case.k, case.alpha, case.beta, case.r
    var_alpha = k - 100.0
    avar_alpha = 0.0

    crossover = (101.0 + 99.0 * r) / 2.0  # where the two shifted outcomes swap order
    if beta < alpha / 2.0 and k <= crossover:
        var_beta = 100.0 * r - k
    else:
        var_beta = k + r - 101.0
    if k <= crossover:
        if beta < alpha / 2.0:
            avar_beta = 100.0 * r - k
        else:
            avar_beta = (r - 101.0 + alpha / (2.0 * beta) * (101.0 + 99.0 * r)
                         + (1.0 - alpha / beta) * k)
    else:
        avar_beta = k + r - 101.0

    if beta < alpha / 2.0 and k <= 50.0 * (r + 1.0):
        revar_value = 100.0 * r - k
    else:
        revar_value = k - 100.0

    if beta < alpha / 2.0:
        reavar_value = 100.0 * r - k if k <= 100.0 * r else 0.0
        revar_min_k = 100.0 * r
        reavar_min_k = 100.0 * r
    else:
        middle_threshold = ((99.0 * alpha + 2.0 * beta) * r
                            - 101.0 * (2.0 * beta - alpha)) / (2.0 * (alpha - beta))
        if k <= middle_threshold:
            reavar_value = (r - 101.0 + alpha / (2.0 * beta) * (101.0 + 99.0 * r)
                            + (1.0 - alpha / beta) * k)
        else:
            reavar_value = 0.0
        revar_min_k = 0.0
        reavar_min_k = max(middle_threshold, 0.0)

    return TwoStateMeasures(var_alpha, avar_alpha, var_beta, avar_beta,
                            revar_value, reavar_value, revar_min_k, reavar_min_k)


# --- peaked liability density -------------------------------------------------

@dataclass(frozen=True)
class PeakedLiabilityModel:
    """Liabilities with a body peak on [0, a] (mass 1 - tail_mass) and a far
    peak on [b, c] (mass tail_mass); assets constant at ``asset_value``."""

    a: float
    b: float
    c: float
    asset_value: float
    initial_capital: float
    tail_mass: float = 0.005

    def __post_init__(self) -> None:
        if not (0.0 < self.a < self.b < self.c < math.inf):
            raise ValueError("need 0 < a < b < c < inf")
        for name in ("asset_value", "initial_capital"):
            if not (0.0 < getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)!r}")
        # tail_mass < 1/3 keeps the 2*tail_mass quantile inside the body peak's
        # descending flank, which the tail-average closed form relies on.
        if not (0.0 < self.tail_mass < 1.0 / 3.0):
            raise ValueError("tail mass must lie in (0, 1/3)")


def peaked_density(x, model: PeakedLiabilityModel):
    a, b, c, al = model.a, model.b, model.c, model.tail_mass
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(x_arr)
    left_up = (x_arr >= 0.0) & (x_arr <= a / 2.0)
    left_down = (x_arr > a / 2.0) & (x_arr <= a)
    right_up = (x_arr >= b) & (x_arr <= (b + c) / 2.0)
    right_down = (x_arr > (b + c) / 2.0) & (x_arr <= c)
    out[left_up] = 4.0 * (1.0 - al) / a**2 * x_arr[left_up]
    out[left_down] = -4.0 * (1.0 - al) / a**2 * x_arr[left_down] + 4.0 * (1.0 - al) / a
    out[right_up] = 4.0 * al / (c - b)**2 * (x_arr[right_up] - b)
    out[right_down] = 4.0 * al / (c - b)**2 * (c - x_arr[right_down])
    return float(out[0]) if np.ndim(x) == 0 else out


def peaked_cdf(x, model: PeakedLiabilityModel):
    a, b, c, al = model.a, model.b, model.c, model.tail_mass
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(x_arr)
    out[x_arr < 0.0] = 0.0
    m = (x_arr >= 0.0) & (x_arr <= a / 2.0)
    out[m] = 2.0 * (1.0 - al) * x_arr[m]**2 / a**2
    m = (x_arr > a / 2.0) & (x_arr <= a)
    out[m] = (1.0 - al) * (1.0 - 2.0 * (a - x_arr[m])**2 / a**2)
    m = (x_arr > a) & (x_arr < b)
    out[m] = 1.0 - al
    m = (x_arr >= b) & (x_arr <= (b + c) / 2.0)
    out[m] = 1.0 - al + 2.0 * al * (x_arr[m] - b)**2 / (c - b)**2
    m = (x_arr > (b + c) / 2.0) & (x_arr <= c)
    out[m] = 1.0 - 2.0 * al * (c - x_arr[m])**2 / (c - b)**2
    out[x_arr > c] = 1.0
    return float(out[0]) if np.ndim(x) == 0 else out


def peaked_quantile(u, model: PeakedLiabilityModel):
    """Closed-form branch inversion of :func:`peaked_cdf` on (0, 1)."""
    a, b, c, al = model.a, model.b, model.c, model.tail_mass
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
        raise ValueError("quantile requires u in (0, 1)")
    out = np.empty_like(u_arr)
    body_half = (1.0 - al) / 2.0
    m = u_arr <= body_half
    out[m] = a * np.sqrt(u_arr[m] / (2.0 * (1.0 - al)))
    m = (u_arr > body_half) & (u_arr <= 1.0 - al)
    out[m] = a - a * np.sqrt((1.0 - al - u_arr[m]) / (2.0 * (1.0 - al)))
    m = (u_arr > 1.0 - al) & (u_arr <= 1.0 - al / 2.0)
    out[m] = b + (c - b) * np.sqrt((u_arr[m] - (1.0 - al)) / (2.0 * al))
    m = u_arr > 1.0 - al / 2.0
    out[m] = c - (c - b) * np.sqrt((1.0 - u_arr[m]) / (2.0 * al))
    return float(out[0]) if np.ndim(u) == 0 else out


def peaked_xi(model: PeakedLiabilityModel) -> float:
    """Constant in the tail-average formula: 1/2 - (1/3) sqrt(al / (2 (1 - al)))."""
    al = model.tail_mass
    return 0.5 - math.sqrt(al / (2.0 * (1.0 - al))) / 3.0


def peaked_regulatory(model: PeakedLiabilityModel) -> tuple[float, float]:
    """(VaR at level tail_mass, AVaR at level 2 * tail_mass) of delta E.

    At the default tail mass of 0.5% these are the Solvency II and Swiss
    Solvency Test requirements.
    """
    a, b, c = model.a, model.b, model.c
    k, e0 = model.asset_value, model.initial_capital
    var_req = a - k + e0
    avar_req = peaked_xi(model) * a + (b + c) / 4.0 - k + e0
    return var_req, avar_req


def peaked_q_beta(model: PeakedLiabilityModel, beta: float) -> float:
    """The (1 - beta)-quantile of liabilities, branching at beta = tail_mass / 2."""
    a_l = model.tail_mass
    if not (0.0 < beta < a_l):
        raise ValueError("beta must lie in (0, tail_mass)")
    b, c = model.b, model.c
    if beta < a_l / 2.0:
        w = math.sqrt(beta / (2.0 * a_l))
        return w * b + (1.0 - w) * c
    lam = math.sqrt((a_l - beta) / (2.0 * a_l))
    return (1.0 - lam) * b + lam * c


def peaked_revar(model: PeakedLiabilityModel, beta: float, r: float) -> float:
    """Recovery VaR of (delta E, L) under the two-piece level function."""
    if not (0.0 < r < 1.0):
        raise ValueError("r must lie in (0, 1)")
    q = peaked_q_beta(model, beta)
    return max(model.a, r * q) - model.asset_value + model.initial_capital


# --- extremal construction ----------------------------------------------------

@dataclass(frozen=True)
class ExtremalSearchConfig:
    s_min: float
    s_max: float
    regime: str  # 'var' | 'avar'
    beta: float
    r: float
    alpha: float = 0.005

    def __post_init__(self) -> None:
        if not (1.0 < self.s_min < self.s_max):
            raise ValueError("need 1 < s_min < s_max")
        if self.regime not in ("var", "avar"):
            raise ValueError("regime must be 'var' or 'avar'")
        if not (0.0 < self.alpha < 1.0 / 3.0):
            raise ValueError("alpha must lie in (0, 1/3)")
        if not (0.0 < self.beta < self.alpha):
            raise ValueError("beta must lie in (0, alpha)")
        if not (0.0 < self.r < 1.0):
            raise ValueError("r must lie in (0, 1)")


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    satisfied: bool
    value: float


@dataclass(frozen=True)
class ExtremalWitness:
    model: PeakedLiabilityModel
    achieved_adjustment: float
    constraints: tuple[ConstraintCheck, ...]
    loss_probability: float

    @property
    def all_constraints_hold(self) -> bool:
        return all(c.satisfied for c in self.constraints)


def avar_feasible_r_interval(beta: float, alpha: float = 0.005) -> tuple[float, float]:
    """(lower, upper] interval of recovery fractions for which the
    tail-average extremal recipe is feasible (requires beta >= alpha/2)."""
    if not (alpha / 2.0 <= beta < alpha):
        raise ConstructionInfeasible("the tail-average recipe needs alpha/2 <= beta < alpha")
    lam = math.sqrt((alpha - beta) / (2.0 * alpha))
    xi = 0.5 - math.sqrt(alpha / (2.0 * (1.0 - alpha))) / 3.0
    return 1.0 / (4.0 * lam), 0.25 / ((1.0 - lam) * (1.0 - xi))


def extremal_construction(config: ExtremalSearchConfig, e0: float,
                          anchor_a: float | None = None) -> ExtremalWitness:
    """Construct a peaked balance sheet attaining recovery adjustment s_max.

    VaR regime: any two-piece level function works; the body scale defaults
    to the 10 * e0 anchor (``anchor_a`` overrides it, in this regime only),
    the asset value sits at the binding solvency-ratio boundary, and (b, c)
    solve r * q_beta(b, c) = k with b midway between its admissible
    endpoints.

    AVaR regime: feasible only for beta >= alpha/2 and r inside
    :func:`avar_feasible_r_interval`; b is taken at half its cap, c at the
    midpoint of its admissible bracket, and the body scale comes from the
    binding solvency-ratio constraint.
    """
    if not (0.0 < e0 < math.inf):
        raise ValueError(f"e0 must be positive and finite, got {e0!r}")
    if anchor_a is not None and not (0.0 < anchor_a < math.inf):
        raise ValueError(f"anchor_a must be positive and finite, got {anchor_a!r}")
    if anchor_a is not None and config.regime != "var":
        raise ValueError("anchor_a applies only to the VaR regime; the AVaR regime "
                         "takes the body scale from its binding solvency-ratio constraint")
    t_cap = (config.s_max - 1.0) / config.s_max * e0
    alpha, beta, r = config.alpha, config.beta, config.r

    if config.regime == "var":
        a = 10.0 * e0 if anchor_a is None else float(anchor_a)
        k = a + t_cap
        q = k / r
        b = 0.5 * (a + q)
        if beta < alpha / 2.0:
            w_b = math.sqrt(beta / (2.0 * alpha))
        else:
            w_b = 1.0 - math.sqrt((alpha - beta) / (2.0 * alpha))
        c = (q - w_b * b) / (1.0 - w_b)
        model = PeakedLiabilityModel(a, b, c, k, e0, alpha)
    else:
        lo, hi = avar_feasible_r_interval(beta, alpha)
        if not (lo < r <= hi):
            raise ConstructionInfeasible(
                f"r={r!r} outside the feasible interval ({lo!r}, {hi!r}] for beta={beta!r}"
            )
        lam = math.sqrt((alpha - beta) / (2.0 * alpha))
        xi = 0.5 - math.sqrt(alpha / (2.0 * (1.0 - alpha))) / 3.0
        b_cap = t_cap / (r * lam - 0.25)
        b = 0.5 * b_cap
        c_lo = max(b, (t_cap - (r * (1.0 - lam) - 0.25) * b) / (r * lam - 0.25))
        c = 0.5 * (c_lo + b_cap)
        k = r * ((1.0 - lam) * b + lam * c)
        a = (k - 0.25 * (b + c) - t_cap) / xi
        model = PeakedLiabilityModel(a, b, c, k, e0, alpha)

    return _verify_witness(model, config, e0)


def _verify_witness(model: PeakedLiabilityModel, config: ExtremalSearchConfig,
                    e0: float) -> ExtremalWitness:
    tol = 1e-9 * max(1.0, model.asset_value)
    q = peaked_q_beta(model, config.beta)
    var_de, avar_de = peaked_regulatory(model)
    reg_de = var_de if config.regime == "var" else avar_de
    revar_de = peaked_revar(model, config.beta, config.r)
    ratio = e0 / reg_de if reg_de > 0.0 else math.inf
    checks = (
        ConstraintCheck("solvent_under_regulator", reg_de - e0 <= tol, reg_de - e0),
        ConstraintCheck("regulator_requires_capital", reg_de > 0.0, reg_de),
        ConstraintCheck("solvent_under_recovery_measure", revar_de - e0 <= tol, revar_de - e0),
        ConstraintCheck("recovery_measure_requires_capital", revar_de > 0.0, revar_de),
        ConstraintCheck("var_alone_insufficient", config.r * q > model.a, config.r * q - model.a),
        ConstraintCheck("solvency_ratio_in_range",
                        config.s_min - 1e-12 <= ratio <= config.s_max * (1.0 + 1e-12), ratio),
    )
    achieved = max(revar_de / reg_de, 1.0) if reg_de > 0.0 else math.inf
    threshold = model.asset_value - e0
    if threshold <= 0.0:
        loss_prob = 1.0
    else:
        loss_prob = 1.0 - float(peaked_cdf(threshold, model))
    return ExtremalWitness(model, achieved, checks, loss_prob)
