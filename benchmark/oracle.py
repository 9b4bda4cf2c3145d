"""Output checks: plain references the benchmark keeps apart from ``recrisk``.

The tail measures are recomputed with a full stable ``argsort`` per term, the
frontier LP is rebuilt from its definition and solved by HiGHS through
``scipy.optimize.linprog``, and every scenario set is regenerated by
``workloads.balance_sheet``.  A checker returns ``(command index, message)``
for each failed check; an empty list means the cycle's outputs are correct.

Tolerances: 1e-9 on money values (the package's MONEY_TOL), 1e-7 between
the simplex and HiGHS optima (the residual the package itself accepts).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

import workloads as wl

MONEY_TOL = 1e-9
LP_TOL = 1e-7
LEVEL_EPS = 1e-12
GAP_TOL = 1e-3  # `allocate`'s default ambiguity tolerance
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


# --- references --------------------------------------------------------------

def _tail(values: np.ndarray, weights: np.ndarray, alpha: float):
    order = np.argsort(values, kind="stable")
    vs = values[order]
    ws = weights[order]
    c = np.cumsum(ws)
    m = min(int(np.searchsorted(c, alpha + LEVEL_EPS, side="right")), vs.size - 1)
    return vs, ws, c, m


def var_ref(values, weights, alpha: float) -> float:
    vs, _, _, m = _tail(np.asarray(values, float), np.asarray(weights, float), alpha)
    return float(-vs[m])


def avar_ref(values, weights, alpha: float) -> float:
    vs, ws, c, m = _tail(np.asarray(values, float), np.asarray(weights, float), alpha)
    head = float(np.dot(ws[:m], -vs[:m])) if m > 0 else 0.0
    c_prev = float(c[m - 1]) if m > 0 else 0.0
    return (head + max(alpha - c_prev, 0.0) * float(-vs[m])) / alpha


def pieces(gamma: dict) -> list[tuple[float, float]]:
    return list(zip(list(gamma["breakpoints"]) + [1.0], gamma["levels"]))


def recovery_terms(x, y, w, gamma: dict, estimator) -> list[float]:
    """Finite-max terms estimator_{alpha_i}(x + (1 - r_i) y)."""
    return [estimator(x + (1.0 - r) * y, w, a) for r, a in pieces(gamma)]


def l_revar_ref(assets, liabilities, w, gamma: dict, n_grid: int) -> float:
    """Liability-side ReVaR on the grid that defines it: lam = k/(n-1) for
    k >= 1 at the right-continuous level, each breakpoint at its left-limit
    level, and lam = 1 at the last level."""
    bps = np.asarray(gamma["breakpoints"])
    levels = np.asarray(gamma["levels"])
    lams = np.linspace(0.0, 1.0, n_grid)[1:]
    points = list(zip(lams.tolist(), levels[np.searchsorted(bps, lams, side="right")].tolist()))
    points += [(float(r), float(levels[np.searchsorted(bps, r, side="left")])) for r in bps]
    points.append((1.0, float(levels[-1])))
    return max(var_ref(assets - lam * liabilities, w, level) / lam for lam, level in points)


def frontier_lp_ref(returns, z, gamma: dict, target: float) -> tuple[int, float]:
    """Minimum over portfolios x of the piecewise-max tail average of
    R @ x - r_i Z, as the scenario LP over (x, v_i, U, u_{i,m}); HiGHS."""
    m, k = returns.shape
    w = np.full(m, 1.0 / m)
    ps = pieces(gamma)
    p = len(ps)
    n = k + p + 1 + p * m
    u0 = k + p + 1
    rows = []
    b_ub = []
    for i, (_, alpha) in enumerate(ps):
        # (1/alpha_i) sum_m w_m u_{i,m} - v_i - U <= 0
        row = sparse.lil_matrix((1, n))
        row[0, k + i] = -1.0
        row[0, k + p] = -1.0
        row[0, u0 + i * m:u0 + (i + 1) * m] = w / alpha
        rows.append(row.tocsr())
        b_ub.append(np.zeros(1))
    for i, (r, _) in enumerate(ps):
        # v_i - R_m x - u_{i,m} <= -r_i Z_m
        hinge = sparse.hstack([
            sparse.csr_matrix(-returns),
            sparse.csr_matrix((np.ones(m), (np.arange(m), np.full(m, i))), shape=(m, p)),
            sparse.csr_matrix((m, 1)),
            sparse.csr_matrix((m, i * m)),
            -sparse.identity(m, format="csr"),
            sparse.csr_matrix((m, (p - 1 - i) * m)),
        ])
        rows.append(hinge.tocsr())
        b_ub.append(-r * z)
    a_eq = np.zeros((2, n))
    a_eq[0, :k] = 1.0
    a_eq[1, :k] = w @ returns
    cost = np.zeros(n)
    cost[k + p] = 1.0
    bounds = [(0.0, 1.0)] * k + [(None, None)] * (p + 1) + [(0.0, None)] * (p * m)
    res = linprog(cost, A_ub=sparse.vstack(rows).tocsr(), b_ub=np.concatenate(b_ub),
                  A_eq=a_eq, b_eq=[1.0, target], bounds=bounds, method="highs")
    return res.status, float(res.fun) if res.status == 0 else math.nan


# --- helpers -------------------------------------------------------------------

def _close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= tol


def _read_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:] if ln]


def digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


class Checker:
    """Checks one workload's outputs, cycle by cycle."""

    def __init__(self, workload: wl.Workload) -> None:
        self.w = workload
        self.golden = load_golden().get(workload.name) if (
            workload.seed == wl.DEFAULT_SEED and workload.size == "full") else None

    def check(self, c: int, skip: set[int] = frozenset()) -> list[tuple[int, str]]:
        """Failures of cycle ``c``; commands in ``skip`` already failed to run."""
        failures = self._check(c, skip)
        if c == 0 and self.golden is not None:
            failures.extend(self._check_digests(skip))
        return failures

    def _check_digests(self, skip) -> list[tuple[int, str]]:
        out = []
        for name in self.w.input_files():
            if digest(self.w.path(name)) != self.golden["inputs"].get(name):
                out.append((0, f"generated input {name} differs from its recorded digest"))
        for index, name in self.w.output_files():
            if index not in skip and digest(self.w.path(name)) != self.golden["outputs"].get(name):
                out.append((index, f"{name} is not byte-identical to its recorded digest"))
        return out

    def _check(self, c: int, skip) -> list[tuple[int, str]]:
        raise NotImplementedError


class GridSweepChecker(Checker):
    """Every cycle: regulatory capital of both regimes, loss probability,
    E1 measure and solvency ratio of all four cells, and the ReVaR-L output.
    The aggregate adjustment is checked on one cell per cycle, in turn, since
    its reference takes n_r full sorts per cell."""

    def __init__(self, workload) -> None:
        super().__init__(workload)
        self._lrevar = None

    def _check(self, c, skip):
        out = []
        if 0 not in skip:
            out += [(0, msg) for msg in self._sweep(c)]
        if 1 not in skip:
            out += [(1, msg) for msg in self._lrevar_check()]
        return out

    def _sweep(self, c):
        header, rows = _read_csv(self.w.path("sweep.csv"))
        if header[:5] != ["rho", "tau", "regime", "loss_prob", "reg_capital"]:
            return [f"unexpected sweep header {header}"]
        cells = [(rho, tau) for rho in wl.SWEEP_RHO for tau in wl.SWEEP_TAU]
        if len(rows) != len(cells) * len(wl.SWEEP_REGIMES):
            return [f"sweep has {len(rows)} rows"]
        msgs = []
        m = self.w.m
        w = np.full(m, 1.0 / m)
        for k, (rho, tau) in enumerate(cells):
            x, y, _ = wl.balance_sheet(m, self.w.cycle_seed(c), rho, tau)
            caps = {"SolvencyII": var_ref(x, w, 0.005),
                    "SwissSolvencyTest": avar_ref(x, w, 0.01)}
            loss = float(np.sum(w[x < 0.0]))
            grid = self._revar_grid(x, y, w) if k == c % len(cells) else None
            for j, regime in enumerate(wl.SWEEP_REGIMES):
                row = rows[len(wl.SWEEP_REGIMES) * k + j]
                if (float(row[0]), float(row[1]), row[2]) != (rho, tau, regime):
                    msgs.append(f"sweep row {row[:3]} out of order")
                    continue
                cap = caps[regime]
                got = [float(v) for v in row[3:]]
                want = [loss, cap, cap - wl.E0, wl.E0 / cap]
                for name, g, v in zip(header[3:7], got, want):
                    if not _close(g, v, MONEY_TOL):
                        msgs.append(f"{name} at ({rho}, {tau}, {regime}) is {g!r}, reference {v!r}")
                if grid is not None:
                    mean = float(np.mean(np.maximum(grid / cap, 1.0)))
                    if not _close(got[5], mean, MONEY_TOL):
                        msgs.append(f"agg_rec_adj_mean at ({rho}, {tau}, {regime}) is "
                                    f"{got[5]!r}, reference {mean!r}")
                    area = (0.0025 - 0.001) * (0.90 - 0.80)
                    if not _close(got[4], mean * area, MONEY_TOL * area):
                        msgs.append(f"agg_rec_adj_integral at ({rho}, {tau}, {regime}) "
                                    f"is {got[4]!r}")
        return msgs

    @staticmethod
    def _revar_grid(x, y, w) -> np.ndarray:
        """Two-piece ReVaR on the default 16 x 16 midpoint (beta, r) grid:
        max(VaR_beta(x + (1 - r) y), VaR_0.5%(x)), one stable sort per r."""
        betas = 0.001 + (np.arange(16) + 0.5) * (0.0025 - 0.001) / 16
        rs = 0.80 + (np.arange(16) + 0.5) * (0.90 - 0.80) / 16
        var_alpha = var_ref(x, w, 0.005)
        grid = np.empty((betas.size, rs.size))
        for j, r in enumerate(rs):
            vs, _, c, _ = _tail(x + (1.0 - r) * y, w, 0.005)
            idx = np.minimum(np.searchsorted(c, betas + LEVEL_EPS, side="right"), vs.size - 1)
            grid[:, j] = np.maximum(-vs[idx], var_alpha)
        return grid

    def _lrevar_check(self):
        if self._lrevar is None:  # the input is fixed, so one reference serves every cycle
            _, rows = _read_csv(self.w.path("lrevar_in.csv"))
            data = np.asarray(rows, dtype=float)
            self._lrevar = l_revar_ref(data[:, 3], data[:, 2], data[:, 0], wl.GAMMA10,
                                       wl.N_LAMBDA)
        got = _read_json(self.w.path("lrevar.json"))
        if got.get("measure") != "lrevar" or not _close(got.get("value", math.nan),
                                                         self._lrevar, MONEY_TOL):
            return [f"lrevar output {got}, reference {self._lrevar!r}"]
        return []


class ScenarioIOChecker(Checker):
    """Every cycle: the simulated scenarios against the regenerated model
    draw, ReAVaR with its binding piece and verdict, VaR, and the allocation
    (full allocation within 1e-9, and kappa, binding piece and ReAVaR against
    an Euler reference computed once for the fixed divisional file)."""

    def __init__(self, workload) -> None:
        super().__init__(workload)
        self._alloc = None

    def _check(self, c, skip):
        m = self.w.m
        w = np.full(m, 1.0 / m)
        x, y, a = wl.balance_sheet(m, self.w.cycle_seed(c))
        out = []
        if 0 not in skip:
            out += [(0, msg) for msg in self._simulated(c, x, y, a)]
        if 1 not in skip:
            terms = recovery_terms(x, y, w, wl.GAMMA10, avar_ref)
            j = int(np.argmax(terms))
            r_j, a_j = pieces(wl.GAMMA10)[j]
            got = _read_json(self.w.path("reavar.json"))
            want = {"measure": "reavar", "E0": wl.E0, "binding_fraction": r_j,
                    "binding_level": a_j, "solvency_pass": terms[j] <= wl.E0}
            if {k: got.get(k) for k in want} != want or not _close(
                    got.get("value", math.nan), terms[j], MONEY_TOL):
                out.append((1, f"reavar output {got}, reference {terms[j]!r} at piece {j}"))
        if 2 not in skip:
            got = _read_json(self.w.path("var.json"))
            want = var_ref(x, w, 0.005)
            if got.get("level") != 0.005 or not _close(got.get("value", math.nan), want,
                                                       MONEY_TOL):
                out.append((2, f"var output {got}, reference {want!r}"))
        if 3 not in skip:
            out += [(3, msg) for msg in self._allocation()]
        return out

    def _simulated(self, c, x, y, a):
        with open(self.w.path("sim.csv"), "r", encoding="utf-8") as fh:
            comment = fh.readline()
            header = fh.readline().strip()
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        msgs = []
        if not comment.startswith("# model=") or f" seed={self.w.cycle_seed(c)} " not in comment:
            msgs.append(f"unexpected comment line {comment.strip()!r}")
        if header != "weight,deltaE,L,A" or data.shape != (self.w.m, 4):
            return msgs + [f"unexpected layout {header!r} {data.shape}"]
        for k, (name, want) in enumerate((("weight", np.full(self.w.m, 1.0 / self.w.m)),
                                          ("deltaE", x), ("L", y), ("A", a))):
            err = float(np.max(np.abs(data[:, k] - want)))
            if not err <= MONEY_TOL:
                msgs.append(f"simulated column {name} deviates by {err:.3e}")
        return msgs

    def _allocation(self):
        if self._alloc is None:  # the divisional file is fixed
            _, rows = _read_csv(self.w.path("div.csv"))
            data = np.asarray(rows, dtype=float)
            n = wl.DIVISIONS
            w, de, liab = data[:, 0], data[:, 1:1 + n], data[:, 1 + n:]
            self._alloc = self._euler_ref(w, de, liab)
        ref = self._alloc
        got = _read_json(self.w.path("alloc.json"))
        msgs = []
        gap = got.get("full_allocation_gap", math.nan)
        if not abs(gap) <= MONEY_TOL:
            msgs.append(f"full_allocation_gap {gap!r} exceeds {MONEY_TOL}")
        if ref["gap"] < GAP_TOL:
            msgs.append(f"generated divisional file has an ambiguous binding piece "
                        f"(gap {ref['gap']:.3g})")
        if (got.get("binding_fraction"), got.get("binding_level")) != ref["piece"]:
            msgs.append(f"binding piece {got.get('binding_fraction')}, "
                        f"{got.get('binding_level')}; reference {ref['piece']}")
        if not _close(got.get("reavar", math.nan), ref["reavar"], MONEY_TOL):
            msgs.append(f"allocation reavar {got.get('reavar')!r}, reference {ref['reavar']!r}")
        kappa = got.get("kappa", [])
        if len(kappa) != len(ref["kappa"]) or not all(
                _close(k, r, MONEY_TOL) for k, r in zip(kappa, ref["kappa"])):
            msgs.append(f"kappa {kappa}, reference {ref['kappa']}")
        return msgs

    @staticmethod
    def _euler_ref(w, de, liab) -> dict:
        """Euler allocation: the tail conditional expectation of each
        division along the aggregate stable order at the binding piece."""
        x, y = de.sum(axis=1), liab.sum(axis=1)
        terms = recovery_terms(x, y, w, wl.GAMMA10, avar_ref)
        j = int(np.argmax(terms))
        top = sorted(terms, reverse=True)[:2]
        gap = (top[0] - top[1]) / max(1.0, abs(top[0]), abs(top[1]))
        r_j, a_j = pieces(wl.GAMMA10)[j]
        order = np.argsort(x + (1.0 - r_j) * y, kind="stable")
        c = np.cumsum(w[order])
        m = min(int(np.searchsorted(c, a_j + LEVEL_EPS, side="right")), c.size - 1)
        tail = np.zeros_like(w)
        tail[order[:m]] = w[order[:m]]
        tail[order[m]] += max(a_j - (float(c[m - 1]) if m > 0 else 0.0), 0.0)
        kappa = -(tail @ (de + (1.0 - r_j) * liab)) / a_j
        return {"piece": (r_j, a_j), "reavar": terms[j], "gap": gap,
                "kappa": [float(k) for k in kappa]}


class FrontierChecker(Checker):
    """Every cycle, every frontier point: status Optimal; upsilon within 1e-7
    of HiGHS on the same LP and of the reference ReAVaR at the reported x;
    money risk = budget * (upsilon - 1); x in [0, 1] summing to 1 and meeting
    the target return, each up to 1e-9."""

    def _check(self, c, skip):
        if 0 in skip:
            return []
        returns, z = self.w.problem(c)
        m = returns.shape[0]
        w = np.full(m, 1.0 / m)
        targets = wl.frontier_targets(returns)
        header, rows = _read_csv(self.w.path("frontier.csv"))
        k = wl.FRONTIER_ASSETS
        if header != ["c", "risk", "upsilon"] + [f"x_{i + 1}" for i in range(k)] + ["status"]:
            return [(0, f"unexpected frontier header {header}")]
        if len(rows) != len(targets):
            return [(0, f"frontier has {len(rows)} points, expected {len(targets)}")]
        msgs = []
        for target, row in zip(targets, rows):
            c_val, risk, ups = (float(v) for v in row[:3])
            x = np.asarray([float(v) for v in row[3:3 + k]])
            status = row[-1]
            where = f"c={target!r}"
            if status != "Optimal" or c_val != target:
                msgs.append(f"{where}: status {status}, c {c_val!r}")
                continue
            lp_status, ups_ref = frontier_lp_ref(returns, z, wl.GAMMA2, target)
            if lp_status != 0 or not _close(ups, ups_ref, LP_TOL):
                msgs.append(f"{where}: upsilon {ups!r}, HiGHS {ups_ref!r} (status {lp_status})")
            position = returns @ x - z
            risk_at_x = max(recovery_terms(position, z, w, wl.GAMMA2, avar_ref))
            if not _close(ups, risk_at_x, LP_TOL):
                msgs.append(f"{where}: upsilon {ups!r}, ReAVaR at x {risk_at_x!r}")
            if not _close(risk, wl.FRONTIER_BUDGET * (ups - 1.0), LP_TOL * wl.FRONTIER_BUDGET):
                msgs.append(f"{where}: risk {risk!r} is not budget * (upsilon - 1)")
            if (abs(float(np.sum(x)) - 1.0) > MONEY_TOL or np.any(x < -MONEY_TOL)
                    or np.any(x > 1.0 + MONEY_TOL) or abs(float(w @ returns @ x) - target) > LP_TOL):
                msgs.append(f"{where}: x {x.tolist()} violates the budget, bounds or target")
        return [(0, msg) for msg in msgs]


CHECKERS = {"grid-sweep": GridSweepChecker, "scenario-io": ScenarioIOChecker,
            "frontier-lp": FrontierChecker}
