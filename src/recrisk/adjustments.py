"""Regulatory regimes, recovery adjustments, and the balance-sheet sweep.

The recovery adjustment is the factor (at least 1) by which a regulatory
capital requirement must be multiplied so that the two-piece recovery-based
test is also satisfied.  The aggregate adjustment integrates it over a
rectangle of (beta, r) parameters by midpoint quadrature; midpoint nodes keep
beta strictly below the base level so the two-piece level function stays
valid at every node.  The ReVaR grid reads all its r nodes from one tail
pass (``measures.screen``): with liabilities y >= 0 the positions
x + (1 - r) y are monotone in r, so the nodes run on the scenarios that can
enter any node's tail plus one atom holding the rest of the weight, and every
grid value equals (``==``) the full sample's.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .balancesheet import (BalanceSheetModel, asset_values, copula_body, loss_probability,
                           scenario_sample, standard_normals)
from .errors import DenominatorNotPositive
from .measures import avar_empirical, revar, screen, var_empirical, var_levels
from .recovery import RecoveryFunction
from .samples import WeightedSample, write_table


@dataclass(frozen=True)
class RegulatoryRegime:
    """A classical solvency regime: VaR or AVaR at a fixed level."""

    kind: str
    level: float
    measure: str  # "var" | "avar"

    def __post_init__(self) -> None:
        if not (0.0 < self.level < 1.0):
            raise ValueError("regulatory level must lie in (0, 1)")
        if self.measure not in ("var", "avar"):
            raise ValueError("regime measure must be 'var' or 'avar'")

    @classmethod
    def solvency_ii(cls) -> "RegulatoryRegime":
        return cls("SolvencyII", 0.005, "var")

    @classmethod
    def swiss_solvency_test(cls) -> "RegulatoryRegime":
        return cls("SwissSolvencyTest", 0.01, "avar")


def parse_regime(token: str) -> RegulatoryRegime:
    token = token.strip().lower()
    if token in ("sii", "solvencyii", "solvency2"):
        return RegulatoryRegime.solvency_ii()
    if token in ("sst", "swisssolvencytest"):
        return RegulatoryRegime.swiss_solvency_test()
    raise ValueError(f"unknown regime {token!r}; expected 'sii' or 'sst'")


def regulatory_capital(sample: WeightedSample, regime: RegulatoryRegime) -> float:
    """Classical capital requirement applied to the net-asset-value change."""
    if regime.measure == "var":
        return var_empirical(sample.x, sample.weights, regime.level)
    return avar_empirical(sample.x, sample.weights, regime.level)


def rec_adj(sample: WeightedSample, gamma2: RecoveryFunction,
            regime: RegulatoryRegime) -> float:
    """Recovery adjustment max{ReVaR / regulatory capital, 1}.

    Requires a two-piece level function and a strictly positive regulatory
    requirement (the ratio targets under-capitalised tails).
    """
    if gamma2.n_pieces != 2:
        raise ValueError("recovery adjustment uses the two-piece level function (beta, r, alpha)")
    denom = regulatory_capital(sample, regime)
    if denom <= 0.0:
        raise DenominatorNotPositive(
            f"regulatory capital must be positive for the recovery adjustment, got {denom!r}"
        )
    return max(revar(sample, gamma2) / denom, 1.0)


@dataclass(frozen=True)
class AggRecAdjConfig:
    beta_min: float = 0.001
    beta_max: float = 0.0025
    r_min: float = 0.80
    r_max: float = 0.90
    n_beta: int = 16
    n_r: int = 16
    alpha: float = 0.005

    def __post_init__(self) -> None:
        if not (0.0 < self.beta_min < self.beta_max < self.alpha):
            raise ValueError("need 0 < beta_min < beta_max < alpha")
        if not (0.0 < self.r_min < self.r_max < 1.0):
            raise ValueError("need 0 < r_min < r_max < 1")
        if self.n_beta < 1 or self.n_r < 1:
            raise ValueError("grid counts must be positive")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")

    def beta_nodes(self) -> np.ndarray:
        step = (self.beta_max - self.beta_min) / self.n_beta
        return self.beta_min + (np.arange(self.n_beta) + 0.5) * step

    def r_nodes(self) -> np.ndarray:
        step = (self.r_max - self.r_min) / self.n_r
        return self.r_min + (np.arange(self.n_r) + 0.5) * step


def revar_two_piece_grid(sample: WeightedSample, config: AggRecAdjConfig,
                         var_alpha: float | None = None) -> np.ndarray:
    """ReVaR values on the (beta, r) midpoint grid, sharing one scenario set.

    Shape (n_beta, n_r).  The r nodes share one tail pass over the full
    sample (``measures.screen`` with coefficients 1 - r up to the largest
    beta), which leaves the few scenarios that can enter any node's tail
    plus one atom; the tail kernel then runs once per r node on that
    censored sample, with every value equal (``==``) to the full sample's.
    The beta axis only moves the quantile index.  ``var_alpha`` is the VaR
    of ``sample.x`` at ``config.alpha`` when the caller already holds it.
    """
    sample.require_nonnegative_y("the recovery adjustment grid")
    x, y, w = sample.x, sample.y, sample.weights
    if var_alpha is None:
        var_alpha = var_empirical(x, w, config.alpha)
    betas = config.beta_nodes()
    rs = config.r_nodes()
    out = np.empty((betas.size, rs.size))
    x, y, w = screen(x, y, w, 1.0 - rs, betas.max())
    for j, r in enumerate(rs):
        out[:, j] = np.maximum(var_levels(x + (1.0 - r) * y, w, betas), var_alpha)
    return out


def regime_adjustments(sample: WeightedSample, config: AggRecAdjConfig,
                       regimes) -> list[tuple[float, float, float]]:
    """Aggregate recovery adjustment of each regime over the (beta, r) rectangle.

    Returns one (capital, integral, mean) per regime, in order: the regime's
    capital requirement, the midpoint-rule tensor quadrature of
    RecAdj(beta, r) and its range-normalised average.  Every capital is
    checked before the ReVaR grid is built once for all regimes; a VaR
    regime at the grid's ``alpha`` hands the grid its capital.
    """
    caps = [regulatory_capital(sample, regime) for regime in regimes]
    for cap in caps:
        if cap <= 0.0:
            raise DenominatorNotPositive(f"regulatory capital must be positive for the "
                                         f"aggregate adjustment, got {cap!r}")
    held = next((cap for regime, cap in zip(regimes, caps)
                 if regime.measure == "var" and regime.level == config.alpha), None)
    grid = revar_two_piece_grid(sample, config, held)
    area = (config.beta_max - config.beta_min) * (config.r_max - config.r_min)
    means = [float(np.mean(np.maximum(grid / cap, 1.0))) for cap in caps]
    return [(cap, mean * area, mean) for cap, mean in zip(caps, means)]


def agg_rec_adj(sample: WeightedSample, config: AggRecAdjConfig,
                regime: RegulatoryRegime) -> tuple[float, float]:
    """(integral, mean) of :func:`regime_adjustments` for one regime."""
    [(_, integral, mean)] = regime_adjustments(sample, config, [regime])
    return integral, mean


@dataclass(frozen=True)
class SweepRow:
    rho: float
    tau: float
    regime: str
    loss_prob: float
    reg_capital: float
    reg_measure_e1: float
    solvency_ratio: float
    agg_rec_adj_integral: float
    agg_rec_adj_mean: float


def case_study_sweep(model: BalanceSheetModel, rho_grid, tau_grid,
                     regimes, m: int, seed: int,
                     config: AggRecAdjConfig = AggRecAdjConfig(),
                     workers: int = 1) -> list[SweepRow]:
    """Evaluate the balance-sheet case study over a (rho, tau) grid.

    All cells share one scenario set up to their margins (common random
    numbers across cells and across the (beta, r) nodes within a cell): the
    normals and the assets are drawn once per sweep, the copula uniforms and
    the liability body once per rho, and only the tail quantiles per cell,
    so each cell's sample is byte-identical to ``sample_scenarios(cell, m,
    seed)``.  One rho group is held at a time per worker; with ``workers`` >
    1 the groups are evaluated on a thread pool, and the output order follows
    the input grids regardless of the execution order.
    """
    rho_grid = [float(r) for r in np.atleast_1d(rho_grid)]
    tau_grid = [float(t) for t in np.atleast_1d(tau_grid)]
    regimes = list(regimes)
    if not rho_grid or not tau_grid or not regimes:
        raise ValueError("sweep grids and regime list must be non-empty")
    e0 = model.initial_net_asset_value
    groups = [[model.with_params(copula_correlation=rho, tail_shape=tau) for tau in tau_grid]
              for rho in rho_grid]
    z1, z2 = standard_normals(m, seed)
    assets = asset_values(model, z1)

    def evaluate_group(cells: list[BalanceSheetModel]) -> list[SweepRow]:
        body = copula_body(cells[0], z1, z2)
        rows = []
        for cell in cells:
            rho, tau = cell.copula_correlation, cell.tail_shape
            sample = scenario_sample(cell, assets, body.spliced(cell))
            lp = loss_probability(sample)
            try:
                adjusted = regime_adjustments(sample, config, regimes)
            except DenominatorNotPositive as exc:
                raise DenominatorNotPositive(f"{exc} at rho={rho}, tau={tau}") from None
            rows += [SweepRow(
                rho=rho, tau=tau, regime=regime.kind,
                loss_prob=lp,
                reg_capital=cap,
                reg_measure_e1=cap - e0,  # cash invariance: rho_reg(E1) = rho_reg(dE1) - E0
                solvency_ratio=e0 / cap,
                agg_rec_adj_integral=integral,
                agg_rec_adj_mean=mean,
            ) for regime, (cap, integral, mean) in zip(regimes, adjusted)]
        return rows

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_group = list(pool.map(evaluate_group, groups))
    else:
        per_group = [evaluate_group(cells) for cells in groups]
    return [row for group_rows in per_group for row in group_rows]


# The sweep CSV header: the SweepRow fields in order.
SWEEP_COLUMNS = ("rho", "tau", "regime", "loss_prob", "reg_capital",
                 "reg_measure_E1", "solvency_ratio",
                 "agg_rec_adj_integral", "agg_rec_adj_mean")


def write_sweep_csv(rows: list[SweepRow], path_or_buffer) -> None:
    write_table(path_or_buffer, SWEEP_COLUMNS,
                [[getattr(row, f.name) for row in rows] for f in fields(SweepRow)])
