"""Calibrating a recovery level function to a VaR-based regime.

Benchmark: the net-asset-value change and the liabilities are independent
normals.  Requiring VaR at level gamma(lam) of the shifted position to equal
the regulatory VaR for every recovery fraction yields a closed-form level
function; where that function fails to be increasing it is flattened to its
minimum (a plateau on [0, lambda*)), which can only tighten the test.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .balancesheet import normal_cdf, normal_quantile, uniform_stream
from .measures import var_empirical
from .recovery import RecoveryFunction
from .samples import WeightedSample

__all__ = [
    "CalibrationInput", "CalibratedGamma", "CalibrationReport",
    "normal_var", "calibrate_gamma", "discretize_gamma", "verify_calibration", "thin_tail",
]

NEGATIVITY_TOL = 1e-4  # largest P(L < 0) the normal liability benchmark takes without a warning
N_LAMBDA = 101         # fractions on each analytic check grid of verify_calibration
MC_GRID = 101          # fractions on the Monte Carlo supremum grid
MIN_TAIL = 50          # fewest expected tail scenarios for a trustworthy empirical quantile
ANALYTIC_TOL = 1e-8    # CalibrationReport.passed: identity residual bound
MC_REL_TOL = 0.02      # CalibrationReport.passed: Monte Carlo relative error bound


@dataclass(frozen=True)
class CalibrationInput:
    mean_de: float
    sd_de: float
    mean_l: float
    sd_l: float
    alpha: float

    def __post_init__(self) -> None:
        if self.sd_de <= 0.0 or self.sd_l <= 0.0:
            raise ValueError("standard deviations must be positive")
        # The derivation uses that the alpha-quantile of the standard normal
        # is negative, so alpha must sit below one half.
        if not (0.0 < self.alpha < 0.5):
            raise ValueError("alpha must lie in (0, 0.5)")
        p_neg = float(normal_cdf(-self.mean_l / self.sd_l))
        if p_neg > NEGATIVITY_TOL:
            warnings.warn(
                f"P(L < 0) = {p_neg:.3g} exceeds the negativity tolerance "
                f"{NEGATIVITY_TOL:.3g}; the normal liability benchmark is strained",
                stacklevel=2,
            )


def thin_tail(level: float, m: int) -> bool:
    """True when a level's tail among ``m`` equally likely scenarios holds
    fewer than ``MIN_TAIL`` expected scenarios (level * m < MIN_TAIL)."""
    return level * m < MIN_TAIL


def normal_var(mean: float, sd: float, level: float) -> float:
    """VaR of a normal position: -mean - sd * Phi^{-1}(level)."""
    if sd <= 0.0:
        raise ValueError("sd must be positive")
    return -mean - sd * normal_quantile(level)


@dataclass(frozen=True)
class CalibratedGamma:
    """Closed-form level function with its monotonicity repair.

    ``raw`` is the unrepaired solution of the level equation; below
    ``lambda_star`` the repaired function is constant at ``plateau``.
    Guarantees gamma(1) = alpha exactly and a non-decreasing output.
    """

    input: CalibrationInput
    lambda_star: float
    plateau: float

    @property
    def alpha(self) -> float:
        return self.input.alpha

    def raw(self, lam):
        p = self.input
        lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
        z_a = normal_quantile(p.alpha)
        rest = 1.0 - lam_arr
        num = p.sd_de * z_a - rest * p.mean_l
        den = np.hypot(p.sd_de, rest * p.sd_l)
        out = normal_cdf(num / den)
        out = np.where(lam_arr == 1.0, p.alpha, out)  # snap the anchor exactly
        return float(out[0]) if np.ndim(lam) == 0 else out

    def __call__(self, lam):
        lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
        if np.any(lam_arr < 0.0) or np.any(lam_arr > 1.0):
            raise ValueError("recovery fraction must lie in [0, 1]")
        out = np.where(lam_arr < self.lambda_star, self.plateau, self.raw(lam_arr))
        return float(out[0]) if np.ndim(lam) == 0 else out


def calibrate_gamma(inp: CalibrationInput) -> CalibratedGamma:
    z_a = normal_quantile(inp.alpha)  # negative for alpha < 1/2
    lambda_star = 1.0 + inp.mean_l * inp.sd_de / (inp.sd_l**2 * z_a)
    lambda_star = min(max(lambda_star, 0.0), 1.0)
    plateau = float(normal_cdf(-math.hypot(z_a, inp.mean_l / inp.sd_l)))
    return CalibratedGamma(inp, lambda_star, plateau)


def discretize_gamma(gamma, n: int = 10) -> RecoveryFunction:
    """Piecewise-constant approximation on a uniform n-piece partition.

    Each piece takes the value of ``gamma`` at its left endpoint, which never
    exceeds the true level on the piece, so the induced solvency test is at
    least as strict as the continuous one.  Adjacent equal-valued pieces are
    merged; a constant function collapses to a single level.
    """
    if n < 1:
        raise ValueError("piece count must be at least 1")
    grid = np.arange(n) / n
    values = [float(gamma(g)) for g in grid]
    for v in values:
        if not (0.0 < v < 1.0):
            raise ValueError(f"level function value {v!r} outside (0, 1); cannot discretize")
    if any(b < a for a, b in zip(values, values[1:])):
        raise ValueError("level function is not non-decreasing on the partition")
    breakpoints: list[float] = []
    levels: list[float] = [values[0]]
    for j in range(1, n):
        if values[j] > levels[-1]:
            breakpoints.append(float(grid[j]))
            levels.append(values[j])
    return RecoveryFunction(tuple(breakpoints), tuple(levels))


@dataclass(frozen=True)
class CalibrationReport:
    target: float                      # VaR_alpha of the net-asset-value change
    analytic_max_abs_err: float        # identity residual on [lambda*, 1]
    repaired_region_conservative: bool  # plateau VaRs never undershoot the target
    mc_value: float
    mc_rel_err: float

    def passed(self) -> bool:
        return (self.analytic_max_abs_err <= ANALYTIC_TOL
                and self.repaired_region_conservative
                and self.mc_rel_err <= MC_REL_TOL)


def verify_calibration(inp: CalibrationInput, gamma: CalibratedGamma,
                       m: int, seed: int) -> CalibrationReport:
    """Check the calibration identity analytically and by Monte Carlo.

    The Monte Carlo recovery VaR equals the regulatory VaR only when the
    repair is inactive (lambda* = 0); with an active plateau the repaired
    test is strictly more conservative and the relative error reported here
    reflects that overshoot.

    The Monte Carlo supremum grid keeps only fractions whose level puts at
    least ``MIN_TAIL`` expected scenarios in the tail: below that the
    empirical quantile degenerates to the sample minimum, whose noise is
    extreme-value distributed.  Under the calibration identity every
    fraction carries the same true value, so the restriction does not move
    the target.
    """
    target = normal_var(inp.mean_de, inp.sd_de, inp.alpha)

    def shifted_var(lam: float, level: float) -> float:
        """Normal VaR of delta E + (1 - lam) L at ``level``."""
        return normal_var(inp.mean_de + (1.0 - lam) * inp.mean_l,
                          math.hypot(inp.sd_de, (1.0 - lam) * inp.sd_l), level)

    lams = np.linspace(gamma.lambda_star, 1.0, N_LAMBDA)
    vals = np.array([shifted_var(lam, gamma.raw(lam)) for lam in lams])
    analytic_err = float(np.max(np.abs(vals - target)))

    repaired_ok = True
    if gamma.lambda_star > 0.0:
        rep = np.linspace(0.0, gamma.lambda_star, N_LAMBDA, endpoint=False)
        repaired_ok = all(shifted_var(lam, gamma.plateau) >= target - 1e-9 for lam in rep)

    u = uniform_stream(seed, 0, 2 * m)
    de = inp.mean_de + inp.sd_de * ndtri(u[0::2])
    liab = inp.mean_l + inp.sd_l * ndtri(u[1::2])
    sample = WeightedSample(de, liab, None)
    mc_lams = [lam for lam in np.linspace(0.0, 1.0, MC_GRID)
               if not thin_tail(float(gamma(lam)), m)]
    if not mc_lams:
        mc_lams = [1.0]
    mc_value = max(
        var_empirical(sample.x + (1.0 - lam) * sample.y, sample.weights, float(gamma(lam)))
        for lam in mc_lams
    )
    var_alpha_scale = abs(target)
    if var_alpha_scale == 0.0:
        raise ValueError("target VaR is zero; the relative check is undefined")
    mc_rel_err = abs(mc_value - target) / var_alpha_scale
    return CalibrationReport(target, analytic_err, repaired_ok, mc_value, mc_rel_err)
