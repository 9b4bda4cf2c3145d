"""Euler capital allocation under Recovery AVaR and RoRaC diagnostics.

With a piecewise-constant level function, the aggregate Recovery AVaR is a
finite maximum of tail averages.  When the binding piece is a strict maximum,
the per-division capital is the tail conditional expectation of the
division's contribution, taken along the aggregate ordering with a fractional
weight on the marginal scenario; full allocation is then exact by linearity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousBindingIndex, DenominatorNotPositive
from .measures import reavar, reavar_pieces, tail_weights
from .recovery import RecoveryFunction
from .samples import (WeightedSample, checked_weights, freeze, numbered_columns, read_table,
                      write_table, xy_columns)

__all__ = [
    "DivisionalSample", "AllocationResult", "euler_allocation",
    "rorac", "rorac_from_sample", "AllocationPropertyReport",
    "allocation_property_check", "read_divisional_csv",
]

DEFAULT_GAP_TOL = 1e-3
PROPERTY_STEPS = (1e-3, 1e-2)  # growth steps of the RoRaC compatibility probe, smallest first


@dataclass(frozen=True)
class DivisionalSample:
    """M scenarios of per-division net-asset-value changes and liabilities."""

    de: np.ndarray           # (M, N)
    liabilities: np.ndarray  # (M, N)
    weights: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        de = np.atleast_2d(np.asarray(self.de, dtype=float))
        liab = np.atleast_2d(np.asarray(self.liabilities, dtype=float))
        if de.shape != liab.shape or de.size == 0:
            raise ValueError("division arrays must share a non-empty (M, N) shape")
        freeze(self, "division values", de=de, liabilities=liab)
        if np.any(self.liabilities < 0.0):
            raise ValueError("division liabilities must be nonnegative")
        freeze(self, "weights", weights=checked_weights(self.weights, de.shape[0]))

    @property
    def n_scenarios(self) -> int:
        return self.de.shape[0]

    @property
    def n_divisions(self) -> int:
        return self.de.shape[1]

    def aggregate(self) -> WeightedSample:
        return WeightedSample(self.de.sum(axis=1), self.liabilities.sum(axis=1),
                              self.weights)

    def division(self, i: int) -> WeightedSample:
        return WeightedSample(self.de[:, i], self.liabilities[:, i], self.weights)


@dataclass(frozen=True)
class AllocationResult:
    binding_index: int
    binding_fraction: float
    binding_level: float
    binding_gap: float              # relative distance to the runner-up term
    kappa: tuple[float, ...]
    reavar_value: float
    full_allocation_gap: float      # sum(kappa) - reavar_value
    division_rorac: tuple[float | None, ...]
    aggregate_rorac: float | None


def euler_allocation(sample: DivisionalSample, gamma: RecoveryFunction,
                     gap_tol: float = DEFAULT_GAP_TOL) -> AllocationResult:
    """Per-division capital under Recovery AVaR with a strict binding piece."""
    agg = sample.aggregate()
    ev = reavar_pieces(agg, gamma)
    terms = np.asarray(ev.terms)
    if terms.size > 1:
        top_two = np.sort(terms)[::-1][:2]
        scale = max(1.0, abs(top_two[0]), abs(top_two[1]))
        gap = float((top_two[0] - top_two[1]) / scale)
        if gap < gap_tol:
            raise AmbiguousBindingIndex(
                f"binding tail-average term is not a strict maximum "
                f"(relative gap {gap:.3g} < {gap_tol:.3g})"
            )
    else:
        gap = float("inf")
    r_j, alpha_j = ev.binding_fraction, ev.binding_level

    tail = tail_weights(agg.x + (1.0 - r_j) * agg.y, sample.weights, alpha_j)
    s_div = sample.de + (1.0 - r_j) * sample.liabilities
    kappa = -(tail @ s_div) / alpha_j

    mean_div = sample.weights @ sample.de
    division_rorac = tuple(
        float(mean_div[i] / kappa[i]) if kappa[i] > 0.0 else None
        for i in range(sample.n_divisions)
    )
    total_mean = float(np.sum(mean_div))
    aggregate_rorac = total_mean / ev.value if ev.value > 0.0 else None

    return AllocationResult(
        binding_index=ev.binding_index,
        binding_fraction=r_j,
        binding_level=alpha_j,
        binding_gap=gap,
        kappa=tuple(float(k) for k in kappa),
        reavar_value=ev.value,
        full_allocation_gap=float(np.sum(kappa) - ev.value),
        division_rorac=division_rorac,
        aggregate_rorac=aggregate_rorac,
    )


def rorac(expected_gain: float, capital: float) -> float:
    """Return on risk-adjusted capital; the capital figure must be positive."""
    if capital <= 0.0:
        raise DenominatorNotPositive(f"RoRaC needs positive capital, got {capital!r}")
    return float(expected_gain) / float(capital)


def rorac_from_sample(sample: WeightedSample, gamma: RecoveryFunction) -> float:
    return rorac(sample.mean_x(), reavar(sample, gamma))


@dataclass(frozen=True)
class AllocationPropertyReport:
    result: AllocationResult
    full_allocation_error: float
    diversification_ok: tuple[bool, ...]
    standalone: tuple[float, ...]
    rorac_compatibility: tuple[str, ...]  # per division: consistent / inconsistent / inconclusive / not_applicable


def allocation_property_check(sample: DivisionalSample,
                              gamma: RecoveryFunction) -> AllocationPropertyReport:
    """Verify full allocation, diversification, and directional RoRaC compatibility.

    RoRaC compatibility is probed by the growth steps ``PROPERTY_STEPS``: for
    each division whose RoRaC differs from the aggregate, the smallest step
    that keeps the binding piece unchanged must move the aggregate RoRaC in
    the same direction.  A division is inconclusive when every step flips the
    binding piece.
    """
    result = euler_allocation(sample, gamma)
    agg = sample.aggregate()
    full_err = abs(result.full_allocation_gap)

    standalone = tuple(reavar(sample.division(i), gamma) for i in range(sample.n_divisions))
    diversification = tuple(
        result.kappa[i] <= standalone[i] + 1e-9 for i in range(sample.n_divisions)
    )

    statuses: list[str] = []
    for i in range(sample.n_divisions):
        r_i = result.division_rorac[i]
        if r_i is None or result.aggregate_rorac is None:
            statuses.append("not_applicable")
            continue
        direction = r_i - result.aggregate_rorac
        if direction == 0.0:
            statuses.append("not_applicable")
            continue
        status = "inconclusive"
        for h in PROPERTY_STEPS:
            grown = WeightedSample(agg.x + h * sample.de[:, i],
                                   agg.y + h * sample.liabilities[:, i],
                                   sample.weights)
            ev = reavar_pieces(grown, gamma)
            if ev.binding_index != result.binding_index:
                continue
            if ev.value <= 0.0:
                continue
            grown_rorac = float(np.dot(sample.weights, grown.x)) / ev.value
            moved = grown_rorac - result.aggregate_rorac
            status = "consistent" if moved * direction > 0.0 else "inconsistent"
            break
        statuses.append(status)

    return AllocationPropertyReport(result, full_err, diversification, standalone,
                                    tuple(statuses))


def read_divisional_csv(path_or_buffer) -> DivisionalSample:
    """Read a divisional CSV with header ``weight,dE_1..dE_N,L_1..L_N``
    (weight column optional, columns in any order).

    Plain scenario files (``weight,x,y`` or simulator output
    ``weight,deltaE,L,A``, under the aliases :func:`read_scenario_csv`
    accepts) are read as a single division.
    """
    cols, data, weights = read_table(path_or_buffer, "divisional CSV")
    de_cols, l_cols = numbered_columns(cols, "dE_"), numbered_columns(cols, "L_")
    if not de_cols and None not in (xy := xy_columns(cols)):
        de_cols, l_cols = [xy[0]], [xy[1]]
    if not de_cols or len(de_cols) != len(l_cols):
        raise ValueError("divisional CSV needs matching dE_1..dE_N and L_1..L_N columns")
    return DivisionalSample(data[:, de_cols], data[:, l_cols], weights)


def write_divisional_csv(sample: DivisionalSample, path_or_buffer) -> None:
    n = sample.n_divisions
    cols = ["weight"] + [f"dE_{i+1}" for i in range(n)] + [f"L_{i+1}" for i in range(n)]
    write_table(path_or_buffer, cols, [sample.weights, *sample.de.T, *sample.liabilities.T])
