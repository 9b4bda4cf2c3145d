"""The benchmark's three workloads: generated inputs and command lists.

Each workload is a closed loop with one client.  A *cycle* is one pass
through the workload's fixed command list, run in-process through
``recrisk.cli.main(argv)``.  Every input is generated here from the run seed,
without calling ``recrisk``: the program receives only generated files.

This module needs numpy and scipy.special only, so the measured worker
process imports nothing that the program itself would not import.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.special import gammaincinv, ndtr, ndtri

DEFAULT_SEED = 1

# Parameters of the default balance-sheet model in ``recrisk.balancesheet``;
# the `simulate` and `recadj sweep` commands run with them.
E0 = 6.5
ASSET_LOG_MEAN = 2.0
ASSET_LOG_SD = 0.2
BODY_SHAPE = 1.0
SPLICE_LEVEL = 0.975
DEFAULT_RHO = 0.5
DEFAULT_TAU = 3.0

# Ten pieces with levels 0.1% .. 1%: at M=1e5 every piece's tail holds about
# 100 .. 1000 scenarios.
GAMMA10 = {"breakpoints": [i / 10 for i in range(1, 10)],
           "levels": [i / 1000 for i in range(1, 11)]}
# Two-piece level function of the frontier workload.
GAMMA2 = {"breakpoints": [0.6], "levels": [0.02, 0.10]}

SWEEP_RHO = (0.25, 0.75)
SWEEP_TAU = (2.0, 4.0)
SWEEP_REGIMES = ("SolvencyII", "SwissSolvencyTest")
N_LAMBDA = 51
DIVISIONS = 4
DIVISION_SCALE = (1.0, 0.8, 0.6, 0.4)
FRONTIER_VOLS = (0.08, 0.15, 0.22)
FRONTIER_ASSETS = len(FRONTIER_VOLS)
FRONTIER_BUDGET = 100.0
# Targets at these fractions of the mean-return hull [min, max]; interior
# points keep every target attainable.
FRONTIER_TARGETS = (0.1, 0.3, 0.5, 0.7, 0.9)

# Scenario counts.  "tiny" exists for the benchmark's own tests.
SIZES = {
    "full": {"M": 100_000, "frontier_M": 200},
    "tiny": {"M": 5_000, "frontier_M": 40},
}

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def derived_seed(seed: int, *tags: int) -> int:
    """A 32-bit seed derived from the run seed and a tag path."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def balance_sheet(m: int, seed: int, rho: float = DEFAULT_RHO,
                  tau: float = DEFAULT_TAU) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(delta E, L, A) of the default balance-sheet model, written from the
    model's definition: a SplitMix64 counter stream, a Gaussian copula, a
    lognormal asset and a gamma liability body spliced to a gamma tail."""
    idx = np.arange(1, 2 * m + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        z = z ^ (z >> np.uint64(31))
    u = ((z >> np.uint64(11)).astype(np.float64) + 0.5) / float(1 << 53)
    z1 = ndtri(u[0::2])
    z2 = ndtri(u[1::2])
    zc = rho * z1 + math.sqrt(max(1.0 - rho * rho, 0.0)) * z2
    assets = np.exp(ASSET_LOG_MEAN + ASSET_LOG_SD * z1)
    v = ndtr(zc)
    shift = gammaincinv(tau, SPLICE_LEVEL) - gammaincinv(BODY_SHAPE, SPLICE_LEVEL)
    body = v < SPLICE_LEVEL
    liabilities = np.empty_like(v)
    liabilities[body] = gammaincinv(BODY_SHAPE, v[body])
    liabilities[~body] = gammaincinv(tau, v[~body]) - shift
    return assets - liabilities - E0, liabilities, assets


def write_csv(path: Path, header: str, columns: list[np.ndarray]) -> None:
    """Write columns as CSV with shortest round-trip floats, in blocks so the
    generator's memory stays small."""
    n = columns[0].size
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for start in range(0, n, 8192):
            block = zip(*(col[start:start + 8192].tolist() for col in columns))
            fh.write("".join(",".join(map(repr, row)) + "\n" for row in block))


def divisional_sample(m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-division (delta E, L), each (m, DIVISIONS).

    Liabilities are large beside each division's asset spread, so every piece
    with fraction r_i < 1 earns a liability credit (1 - r_i) * L that outweighs
    its lower level: the fraction-1 piece binds, about 9% above the runner-up,
    far beyond `allocate`'s 1e-3 ambiguity tolerance.
    """
    rng = np.random.default_rng(seed)
    scale = np.asarray(DIVISION_SCALE)
    assets = np.exp(rng.normal(np.log(7.5 * scale), 0.2, size=(m, DIVISIONS)))
    liabilities = rng.gamma(3.0, scale, size=(m, DIVISIONS))
    return assets - liabilities - E0 * scale, liabilities


def frontier_problem(m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Asset returns (m, K) and liability fractions (m,) of one frontier problem.

    The asset volatilities and drifts are fixed, so problems differ only by
    their scenario draw; drawing them too doubled the spread of the cycle
    time (its interquartile range went from 16% to 33% of the median).
    """
    rng = np.random.default_rng(seed)
    vol = np.asarray(FRONTIER_VOLS)
    returns = rng.normal(0.01 + 0.25 * vol, vol, size=(m, vol.size))
    return returns, rng.uniform(0.0, 0.3, size=m)


def frontier_targets(returns: np.ndarray) -> list[float]:
    means = np.full(returns.shape[0], 1.0 / returns.shape[0]) @ returns
    lo, hi = float(np.min(means)), float(np.max(means))
    return [lo + f * (hi - lo) for f in FRONTIER_TARGETS]


class Workload:
    """One workload in a working directory.

    ``setup`` writes the inputs shared by every cycle; ``prepare(c)`` writes
    the inputs of cycle ``c`` (cycle 0 is the warm-up) and returns its command
    lines.  Outputs are overwritten by the next cycle.
    """

    name = ""

    def __init__(self, workdir: Path, seed: int, size: str = "full") -> None:
        self.workdir = Path(workdir)
        self.seed = int(seed)
        self.size = size
        self.m = SIZES[size]["M"]
        self.frontier_m = SIZES[size]["frontier_M"]

    def path(self, name: str) -> Path:
        return self.workdir / name

    def cycle_seed(self, c: int) -> int:
        """Seed of cycle ``c``.  The warm-up cycle 0 draws the default seed's
        inputs at every run seed, so that ``setup_s`` times set-up and not the
        problem drawn: the frontier LP's solve time varies 15-30% between
        problems."""
        return derived_seed(DEFAULT_SEED if c == 0 else self.seed, 0, c)

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, c: int) -> list[list[str]]:
        raise NotImplementedError

    @property
    def rows_per_cycle(self) -> int:
        """Scenario rows consumed per cycle: M per sweep cell, per file read
        or written, and per frontier problem."""
        raise NotImplementedError

    def input_files(self) -> list[str]:
        """Generated files, for the determinism test and the recorded digests."""
        raise NotImplementedError

    def output_files(self) -> list[tuple[int, str]]:
        """(index of the producing command, file name) of each output."""
        raise NotImplementedError

    def clear_outputs(self) -> None:
        """Delete the previous cycle's outputs, so that no command truncates a
        written file: on a file system that discards freed blocks at once
        (ext4 mounted with ``discard``), that costs 50-400 ms of device time
        that is not the program's work."""
        for _, name in self.output_files():
            self.path(name).unlink(missing_ok=True)


class GridSweep(Workload):
    name = "grid-sweep"

    def setup(self) -> None:
        self.path("gamma10.json").write_text(json.dumps(GAMMA10) + "\n", encoding="utf-8")
        de, liab, assets = balance_sheet(self.m, derived_seed(self.seed, 1))
        write_csv(self.path("lrevar_in.csv"), "weight,deltaE,L,A",
                  [np.full(self.m, 1.0 / self.m), de, liab, assets])

    def prepare(self, c: int) -> list[list[str]]:
        return [
            ["recadj", "sweep",
             "--rho", ",".join(map(repr, SWEEP_RHO)), "--tau", ",".join(map(repr, SWEEP_TAU)),
             "--regime", "sii,sst", "--M", str(self.m), "--seed", str(self.cycle_seed(c)),
             "--out", str(self.path("sweep.csv"))],
            ["measure", "--scenarios", str(self.path("lrevar_in.csv")),
             "--gamma", str(self.path("gamma10.json")), "--measure", "lrevar",
             "--n-lambda", str(N_LAMBDA), "--out", str(self.path("lrevar.json"))],
        ]

    @property
    def rows_per_cycle(self) -> int:
        return len(SWEEP_RHO) * len(SWEEP_TAU) * self.m + self.m

    def input_files(self) -> list[str]:
        return ["gamma10.json", "lrevar_in.csv"]

    def output_files(self) -> list[tuple[int, str]]:
        return [(0, "sweep.csv"), (1, "lrevar.json")]


class ScenarioIO(Workload):
    name = "scenario-io"

    def setup(self) -> None:
        self.path("gamma10.json").write_text(json.dumps(GAMMA10) + "\n", encoding="utf-8")
        de, liab = divisional_sample(self.m, derived_seed(self.seed, 2))
        header = ",".join(["weight"] + [f"dE_{i + 1}" for i in range(DIVISIONS)]
                          + [f"L_{i + 1}" for i in range(DIVISIONS)])
        write_csv(self.path("div.csv"), header,
                  [np.full(self.m, 1.0 / self.m), *de.T, *liab.T])

    def prepare(self, c: int) -> list[list[str]]:
        sim = str(self.path("sim.csv"))
        gamma = str(self.path("gamma10.json"))
        return [
            ["simulate", "--M", str(self.m), "--seed", str(self.cycle_seed(c)), "--out", sim],
            ["measure", "--scenarios", sim, "--gamma", gamma, "--measure", "reavar",
             "--E0", repr(E0), "--out", str(self.path("reavar.json"))],
            ["measure", "--scenarios", sim, "--measure", "var", "--level", "0.5%",
             "--out", str(self.path("var.json"))],
            ["allocate", "--scenarios", str(self.path("div.csv")), "--gamma", gamma,
             "--out", str(self.path("alloc.json"))],
        ]

    @property
    def rows_per_cycle(self) -> int:
        return 4 * self.m

    def input_files(self) -> list[str]:
        return ["gamma10.json", "div.csv"]

    def output_files(self) -> list[tuple[int, str]]:
        return [(0, "sim.csv"), (1, "reavar.json"), (2, "var.json"), (3, "alloc.json")]


class FrontierLP(Workload):
    name = "frontier-lp"

    def setup(self) -> None:
        pass

    def problem(self, c: int) -> tuple[np.ndarray, np.ndarray]:
        return frontier_problem(self.frontier_m, self.cycle_seed(c))

    def prepare(self, c: int) -> list[list[str]]:
        returns, z = self.problem(c)
        header = ",".join([f"R_{k + 1}" for k in range(FRONTIER_ASSETS)] + ["Z"])
        write_csv(self.path("problem.csv"), header, [*returns.T, z])
        config = {"budget": FRONTIER_BUDGET, "gamma": GAMMA2,
                  "c_grid": frontier_targets(returns)}
        self.path("config.json").write_text(json.dumps(config) + "\n", encoding="utf-8")
        return [["frontier", "--problem", str(self.path("problem.csv")),
                 "--config", str(self.path("config.json")),
                 "--out", str(self.path("frontier.csv"))]]

    @property
    def rows_per_cycle(self) -> int:
        return self.frontier_m

    def input_files(self) -> list[str]:
        return ["problem.csv", "config.json"]

    def output_files(self) -> list[tuple[int, str]]:
        return [(0, "frontier.csv")]


WORKLOADS = {w.name: w for w in (GridSweep, ScenarioIO, FrontierLP)}
