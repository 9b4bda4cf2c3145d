"""Piecewise-constant recovery level functions.

A recovery level function maps a target recovery fraction ``lam`` in [0, 1]
to a probability bound in (0, 1): the solvency test it induces caps
``P(A < lam * L)`` at ``gamma(lam)`` for every fraction.  The piecewise
representation keeps ``n`` interior breakpoints ``r_1 < ... < r_n`` and
``n + 1`` strictly increasing levels, the i-th level applying on
``[r_{i-1}, r_i)`` and the last on ``[r_n, 1]``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .samples import json_numbers, json_object, write_text


@dataclass(frozen=True)
class RecoveryFunction:
    breakpoints: tuple[float, ...]
    levels: tuple[float, ...]

    def __post_init__(self) -> None:
        bp = tuple(float(b) for b in self.breakpoints)
        lv = tuple(float(a) for a in self.levels)
        if len(lv) != len(bp) + 1:
            raise ValueError("levels must have exactly one more entry than breakpoints")
        for b in bp:
            if not (0.0 < b < 1.0):
                raise ValueError("breakpoints must lie strictly inside (0, 1)")
        for a in lv:
            if not (0.0 < a < 1.0):
                raise ValueError("levels must lie strictly inside (0, 1)")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(a2 <= a1 for a1, a2 in zip(lv, lv[1:])):
            raise ValueError("levels must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "levels", lv)

    @classmethod
    def constant(cls, alpha: float) -> "RecoveryFunction":
        return cls((), (alpha,))

    @classmethod
    def two_piece(cls, beta: float, r: float, alpha: float) -> "RecoveryFunction":
        """Level ``beta`` below fraction ``r``, level ``alpha`` above (beta < alpha)."""
        return cls((r,), (beta, alpha))

    @property
    def n_pieces(self) -> int:
        return len(self.levels)

    def pieces(self) -> tuple[tuple[float, float], ...]:
        """(fraction, level) pairs driving the finite-max reduction; the last
        fraction is always 1."""
        fractions = self.breakpoints + (1.0,)
        return tuple(zip(fractions, self.levels))

    def __call__(self, lam):
        """Evaluate (right-continuous at breakpoints); accepts scalars or arrays."""
        lam_arr = np.asarray(lam, dtype=float)
        if np.any(lam_arr < 0.0) or np.any(lam_arr > 1.0):
            raise ValueError("recovery fraction must lie in [0, 1]")
        idx = np.searchsorted(np.asarray(self.breakpoints), lam_arr, side="right")
        out = np.asarray(self.levels, dtype=float)[idx]
        return float(out) if np.isscalar(lam) or lam_arr.ndim == 0 else out

    def left_limit(self, lam: float) -> float:
        """Limit of the function from below at ``lam`` (0 < lam <= 1)."""
        if not (0.0 < lam <= 1.0):
            raise ValueError("left limit defined for lam in (0, 1]")
        idx = int(np.searchsorted(np.asarray(self.breakpoints), lam, side="left"))
        return self.levels[idx]

    def to_json(self) -> str:
        return json.dumps({"breakpoints": list(self.breakpoints), "levels": list(self.levels)})

    @classmethod
    def from_json(cls, payload: str | dict) -> "RecoveryFunction":
        fields = ("breakpoints", "levels")
        obj = json_object(json.loads(payload) if isinstance(payload, str) else payload,
                          "level function", fields)
        return cls(*(json_numbers(obj.get(k), f"level function field {k!r}") for k in fields))


def load_recovery_function(path) -> RecoveryFunction:
    with open(path, "r", encoding="utf-8") as fh:
        return RecoveryFunction.from_json(fh.read())


def save_recovery_function(gamma: RecoveryFunction, path) -> None:
    write_text(gamma.to_json() + "\n", path)
