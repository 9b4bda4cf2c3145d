"""Parametric one-period balance-sheet model and its Monte Carlo sampler.

Assets are lognormal, liabilities follow a spliced mixture of two gamma laws
(body below a splice quantile, tail shifted to keep the distribution function
continuous), and the pair is linked by a Gaussian copula.  Scenario
generation is fully deterministic given a 64-bit seed: a SplitMix64
counter-based stream produces 53-bit uniforms, two per scenario, so any
block partition of the scenario index range reproduces identical output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammainc, gammaincinv, ndtr, ndtri

from .samples import WeightedSample, json_number, json_object, write_scenario_csv

__all__ = [
    "BalanceSheetModel", "SimulationResult",
    "normal_cdf", "normal_quantile", "gamma_cdf", "gamma_quantile",
    "mixture_gamma_cdf", "mixture_gamma_quantile",
    "sample_scenarios", "loss_probability", "uniform_stream",
    "LiabilityBody", "liability_body", "standard_normals", "asset_values", "copula_body",
    "scenario_sample",
]


# --- special functions -----------------------------------------------------
# Backed by scipy.special (erf-based normal CDF, Wichura's AS241 inverse,
# regularized incomplete gamma); the wrappers add domain validation and the
# rate/shape parametrisation used throughout this package.

def normal_cdf(z):
    """Standard normal distribution function."""
    return ndtr(np.asarray(z, dtype=float)) if np.ndim(z) else float(ndtr(z))


def normal_quantile(u):
    """Inverse of the standard normal distribution function, u in (0, 1)."""
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
        raise ValueError("normal quantile requires u in (0, 1)")
    out = ndtri(u_arr)
    return float(out) if u_arr.ndim == 0 else out


def gamma_cdf(x, shape: float, rate: float):
    """Gamma distribution function with the given shape and rate."""
    if shape <= 0.0 or rate <= 0.0:
        raise ValueError("gamma shape and rate must be positive")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("gamma cdf requires x >= 0")
    out = gammainc(shape, rate * x_arr)
    return float(out) if x_arr.ndim == 0 else out


def gamma_quantile(u, shape: float, rate: float):
    """Inverse gamma distribution function, u in (0, 1)."""
    if shape <= 0.0 or rate <= 0.0:
        raise ValueError("gamma shape and rate must be positive")
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
        raise ValueError("gamma quantile requires u in (0, 1)")
    out = gammaincinv(shape, u_arr) / rate
    return float(out) if u_arr.ndim == 0 else out


# --- model -----------------------------------------------------------------

@dataclass(frozen=True)
class BalanceSheetModel:
    asset_log_mean: float = 2.0
    asset_log_sd: float = 0.2
    body_shape: float = 1.0
    body_rate: float = 1.0
    tail_shape: float = 3.0
    tail_rate: float = 1.0
    splice_level: float = 0.975
    copula_correlation: float = 0.5
    initial_net_asset_value: float = 6.5

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            value = json_number(getattr(self, name), f"balance-sheet model field {name!r}")
            object.__setattr__(self, name, value)
        if self.asset_log_sd <= 0.0:
            raise ValueError("asset log-sd must be positive")
        for name in ("body_shape", "body_rate", "tail_shape", "tail_rate"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not (0.0 < self.splice_level < 1.0):
            raise ValueError("splice level must lie strictly inside (0, 1)")
        # |rho| = 1 is tolerated for the degenerate comonotone/antimonotone sampler.
        if not (-1.0 <= self.copula_correlation <= 1.0):
            raise ValueError("copula correlation must lie in [-1, 1]")

    def with_params(self, **kwargs) -> "BalanceSheetModel":
        return replace(self, **kwargs)

    def to_json(self) -> str:
        return json.dumps({k: getattr(self, k) for k in self.__dataclass_fields__},
                          sort_keys=True)

    @classmethod
    def from_json(cls, payload: str | dict) -> "BalanceSheetModel":
        return cls(**json_object(json.loads(payload) if isinstance(payload, str) else payload,
                                 "balance-sheet model", cls.__dataclass_fields__))

    # Splice constants: body quantile at the splice level and the shift that
    # glues the tail gamma continuously on top of it.
    def splice_point(self) -> float:
        return gamma_quantile(self.splice_level, self.body_shape, self.body_rate)

    def tail_shift(self) -> float:
        return gamma_quantile(self.splice_level, self.tail_shape, self.tail_rate) - self.splice_point()


def mixture_gamma_cdf(x, model: BalanceSheetModel):
    """Distribution function of the spliced liability law."""
    q0 = model.splice_point()
    shift = model.tail_shift()
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr < 0.0):
        raise ValueError("liability cdf requires x >= 0")
    out = np.empty_like(x_arr)
    body = x_arr < q0
    out[body] = gamma_cdf(x_arr[body], model.body_shape, model.body_rate)
    out[~body] = gamma_cdf(x_arr[~body] + shift, model.tail_shape, model.tail_rate)
    return float(out[0]) if np.ndim(x) == 0 else out


def mixture_gamma_quantile(u, model: BalanceSheetModel):
    """Inverse of :func:`mixture_gamma_cdf`, u in (0, 1)."""
    out = liability_body(np.atleast_1d(np.asarray(u, dtype=float)), model).spliced(model)
    return float(out[0]) if np.ndim(u) == 0 else out


@dataclass(frozen=True)
class LiabilityBody:
    """The liability uniforms ``u`` with the body part of their quantiles.

    ``body`` marks the scenarios below the splice level and ``values`` holds
    their body-gamma quantiles.  These depend on the body parameters and the
    splice level alone, so one instance serves every tail law spliced on top.
    """

    u: np.ndarray
    body: np.ndarray
    values: np.ndarray

    def spliced(self, model: BalanceSheetModel) -> np.ndarray:
        """Liabilities with ``model``'s tail quantiles above the splice level.

        ``model`` must have the body parameters and splice level this body
        was built with.
        """
        shift = model.tail_shift()
        out = np.empty_like(self.u)
        out[self.body] = self.values
        tail = ~self.body
        if np.any(tail):
            out[tail] = gamma_quantile(self.u[tail], model.tail_shape, model.tail_rate) - shift
        return out


def liability_body(u: np.ndarray, model: BalanceSheetModel) -> LiabilityBody:
    """Body stage of the spliced liability quantile for the uniforms ``u``."""
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("liability quantile requires u in (0, 1)")
    body = u < model.splice_level
    values = gamma_quantile(u[body], model.body_shape, model.body_rate)
    return LiabilityBody(u, body, values)


# --- deterministic uniform stream -------------------------------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64


def _splitmix64(state: np.ndarray) -> np.ndarray:
    z = state
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


def uniform_stream(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs ``start .. start+count-1`` of the SplitMix64 stream at ``seed``
    as 53-bit uniforms in (0, 1).

    Output ``i`` is ``mix(seed + (i + 1) * golden)``, so any block of indices
    can be generated independently of the rest of the stream.
    """
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        states = _U64(seed & 0xFFFFFFFFFFFFFFFF) + idx * _GOLDEN
        bits = _splitmix64(states)
    return ((bits >> _U64(11)).astype(np.float64) + 0.5) / float(1 << 53)


@dataclass(frozen=True)
class SimulationResult:
    """Scenario set of (delta E, L) with the asset companion column."""

    sample: WeightedSample
    assets: np.ndarray
    model: BalanceSheetModel
    seed: int

    def write_csv(self, path_or_buffer) -> None:
        header = f"model={self.model.to_json()} seed={self.seed} rng=splitmix64"
        write_scenario_csv(self.sample, path_or_buffer, assets=self.assets,
                           header_comment=header)


# --- staged sampler ----------------------------------------------------------
# Draws, then margins: the normals depend on (m, seed) alone, the copula
# uniforms and the liability body on the correlation too, and only the tail
# quantiles on the tail law.  A sweep over (rho, tau) runs each stage once per
# distinct input; every stage is elementwise, so any composition gives the
# same bytes as sample_scenarios.

def standard_normals(m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The two independent standard normals of each of ``m`` scenarios, by
    quantile inversion of the even and odd outputs of the uniform stream."""
    if m < 1:
        raise ValueError("scenario count must be at least 1")
    u = uniform_stream(seed, 0, 2 * m)
    return ndtri(u[0::2]), ndtri(u[1::2])


def asset_values(model: BalanceSheetModel, z1: np.ndarray) -> np.ndarray:
    """Lognormal assets driven by the first normal."""
    return np.exp(model.asset_log_mean + model.asset_log_sd * z1)


def copula_body(model: BalanceSheetModel, z1: np.ndarray, z2: np.ndarray) -> LiabilityBody:
    """Liability body of the normals correlated by the 2x2 Cholesky factor."""
    rho = model.copula_correlation
    zc = rho * z1 + math.sqrt(max(1.0 - rho * rho, 0.0)) * z2
    return liability_body(ndtr(zc), model)


def scenario_sample(model: BalanceSheetModel, assets: np.ndarray,
                    liabilities: np.ndarray) -> WeightedSample:
    """Equally weighted (delta E, L) scenarios of the given margins."""
    delta_e = assets - liabilities - model.initial_net_asset_value
    return WeightedSample(delta_e, liabilities, None)


def sample_scenarios(model: BalanceSheetModel, m: int, seed: int) -> SimulationResult:
    """Draw ``m`` scenarios of (delta E, L) under the model, deterministically.

    Two uniforms per scenario are mapped to standard normals by quantile
    inversion; the 2x2 Cholesky factor correlates them; margins follow by
    quantile inversion of the lognormal and spliced liability laws.
    """
    z1, z2 = standard_normals(m, seed)
    assets = asset_values(model, z1)
    liabilities = copula_body(model, z1, z2).spliced(model)
    return SimulationResult(scenario_sample(model, assets, liabilities), assets, model, int(seed))


def loss_probability(sample: WeightedSample) -> float:
    """Weighted frequency of a negative net-asset-value change."""
    return float(np.sum(sample.weights[sample.x < 0.0]))
