"""Command-line interface.

Subcommands: simulate, measure, recadj, stress, calibrate, allocate,
frontier, selftest.  All randomness is determined by --seed; structured
configuration travels as JSON and bulk numerics as CSV so that runs diff
cleanly.  Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import adjustments, allocation, balancesheet, calibration, frontier, measures, stress
from .errors import NumericalError
from .recovery import RecoveryFunction, load_recovery_function, save_recovery_function
from .samples import json_number, json_numbers, json_object, read_scenario_csv, write_text

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


def _thread_count() -> int:
    """Worker count for internal sweep parallelism (RECRISK_THREADS, default 1).
    Output ordering never depends on it."""
    raw = os.environ.get("RECRISK_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"RECRISK_THREADS must be an integer, got {raw!r}") from None


def parse_level(token: str) -> float:
    """Accept probabilities as decimals ('0.005') or percentages ('0.5%');
    a '%' suffix takes precedence and divides by 100."""
    token = str(token).strip()
    if token.endswith("%"):
        return float(token[:-1]) / 100.0
    return float(token)


def parse_grid(token: str) -> np.ndarray:
    """'start:stop:count' inclusive grid, or a comma list of values."""
    if ":" in token:
        start, stop, count = token.split(":")
        return np.linspace(float(start), float(stop), int(count))
    return np.asarray([float(t) for t in token.split(",")])


def _out(path: str):
    """The ``--out`` target: stdout for '-', otherwise the path."""
    return sys.stdout if path == "-" else path


def _emit_json(payload: dict, path: str) -> None:
    write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", _out(path))


def _warn_thin_tails(levels: dict, m: int) -> None:
    """One stderr line naming every level whose tail among ``m`` scenarios
    is thinner than ``calibration.MIN_TAIL``; the output is still written."""
    thin = [f"{name} {level:g} ({level * m:g} scenarios)"
            for name, level in levels.items() if calibration.thin_tail(level, m)]
    if thin:
        print(f"warning: fewer than {calibration.MIN_TAIL} expected tail scenarios of "
              f"M={m}: {', '.join(thin)}; the empirical quantiles are unreliable",
              file=sys.stderr)


def _piece_levels(gamma: RecoveryFunction) -> dict:
    return {f"gamma piece {i}": level for i, level in enumerate(gamma.levels, 1)}


def _load_model(path: str | None) -> balancesheet.BalanceSheetModel:
    if path is None:
        return balancesheet.BalanceSheetModel()
    with open(path, "r", encoding="utf-8") as fh:
        return balancesheet.BalanceSheetModel.from_json(fh.read())


def _cmd_simulate(args) -> int:
    model = _load_model(args.model)
    overrides = {}
    if args.rho is not None:
        overrides["copula_correlation"] = args.rho
    if args.tau is not None:
        overrides["tail_shape"] = args.tau
    if overrides:
        model = model.with_params(**overrides)
    sim = balancesheet.sample_scenarios(model, args.M, args.seed)
    sim.write_csv(_out(args.out))
    return EXIT_OK


# The measures that read each measure option.
_MEASURE_OPTIONS = {
    "level": ("--level", ("var", "avar")),
    "E0": ("--E0", ("revar", "reavar", "lrevar", "lreavar")),
    "n_lambda": ("--n-lambda", ("lrevar", "lreavar")),
}


def _cmd_measure(args) -> int:
    name = args.measure
    unread = [flag for dest, (flag, readers) in _MEASURE_OPTIONS.items()
              if getattr(args, dest) is not None and name not in readers]
    if unread:
        raise ValueError(f"--measure {name} does not read {', '.join(unread)}")
    sample, assets = read_scenario_csv(args.scenarios)
    out: dict = {"measure": name}
    if name in ("var", "avar"):
        if args.level is None:
            raise ValueError("--level is required for var/avar")
        level = parse_level(args.level)
        _warn_thin_tails({f"{name} level": level}, sample.size)
        fn = measures.var_empirical if name == "var" else measures.avar_empirical
        out["level"] = level
        out["value"] = fn(sample.x, sample.weights, level)
    else:
        if args.gamma is None:
            raise ValueError("--gamma is required for recovery measures")
        gamma = load_recovery_function(args.gamma)
        _warn_thin_tails(_piece_levels(gamma), sample.size)
        if name in ("revar", "reavar") and args.E0 is not None:
            v = measures.solvency_test(sample, gamma, args.E0, name)
            out.update(value=v.measure_value, binding_fraction=v.binding_fraction,
                       binding_level=v.binding_level, E0=args.E0, solvency_pass=v.passed)
        elif name in ("revar", "reavar"):
            ev = (measures.revar_pieces if name == "revar" else measures.reavar_pieces)(sample, gamma)
            out.update(value=ev.value, binding_fraction=ev.binding_fraction,
                       binding_level=ev.binding_level)
        else:  # lrevar, lreavar
            if assets is not None:
                if args.E0 is not None:
                    raise ValueError("--E0 applies only to a scenario file without an A column")
                asset_values = assets
            elif args.E0 is not None:
                if not np.isfinite(args.E0):
                    raise ValueError("available capital must be finite")
                asset_values = sample.x + args.E0 + sample.y  # x read as delta E
            else:
                asset_values = sample.x + sample.y            # x read as E1
            lsample = type(sample)(asset_values, sample.y, sample.weights)
            fn = measures.l_revar if name == "lrevar" else measures.l_reavar
            out["value"] = (fn(lsample, gamma) if args.n_lambda is None
                            else fn(lsample, gamma, args.n_lambda))
    _emit_json(out, args.out)
    return EXIT_OK


def _cmd_recadj(args) -> int:
    config = adjustments.AggRecAdjConfig(
        beta_min=parse_level(args.beta_min), beta_max=parse_level(args.beta_max),
        r_min=parse_level(args.r_min), r_max=parse_level(args.r_max),
        n_beta=args.n_beta, n_r=args.n_r, alpha=parse_level(args.alpha),
    )
    regimes = [adjustments.parse_regime(tok) for tok in args.regime.split(",")]
    levels = {regime.kind: regime.level for regime in regimes}
    levels["smallest beta node"] = float(config.beta_nodes().min())
    if args.action == "eval":
        if args.scenarios is None:
            raise ValueError("recadj eval needs --scenarios")
        sample, _ = read_scenario_csv(args.scenarios)
        _warn_thin_tails(levels, sample.x.size)
        adjusted = adjustments.regime_adjustments(sample, config, regimes)
        payload = {regime.kind: {"reg_capital": cap, "agg_rec_adj_integral": integral,
                                 "agg_rec_adj_mean": mean}
                   for regime, (cap, integral, mean) in zip(regimes, adjusted)}
        _emit_json(payload, args.out)
        return EXIT_OK
    model = _load_model(args.model)
    if args.rho is None or args.tau is None or args.M is None or args.seed is None:
        raise ValueError("recadj sweep needs --rho, --tau, --M, and --seed")
    _warn_thin_tails(levels, args.M)
    rows = adjustments.case_study_sweep(model, parse_grid(args.rho), parse_grid(args.tau),
                                        regimes, args.M, args.seed, config,
                                        workers=_thread_count())
    adjustments.write_sweep_csv(rows, _out(args.out))
    return EXIT_OK


def _cmd_stress(args) -> int:
    if args.action == "peaked":
        if None in (args.a, args.b, args.c, args.k):
            raise ValueError("stress peaked needs --a, --b, --c, and --k")
        model = stress.PeakedLiabilityModel(args.a, args.b, args.c, args.k, args.E0,
                                            parse_level(args.tail_mass))
        beta = parse_level(args.beta)
        var_req, avar_req = stress.peaked_regulatory(model)
        payload = {
            "var_requirement": var_req,
            "avar_requirement": avar_req,
            "xi": stress.peaked_xi(model),
            "q_beta": stress.peaked_q_beta(model, beta),
            "revar": stress.peaked_revar(model, beta, args.r),
        }
        for regime_name, req in (("var", var_req), ("avar", avar_req)):
            payload[f"rec_adj_{regime_name}"] = (max(payload["revar"] / req, 1.0)
                                                 if req > 0 else None)
        _emit_json(payload, args.out)
        return EXIT_OK
    config = stress.ExtremalSearchConfig(
        s_min=args.smin, s_max=args.smax, regime=args.regime,
        beta=parse_level(args.beta), r=args.r, alpha=parse_level(args.alpha),
    )
    witness = stress.extremal_construction(config, args.E0, anchor_a=args.anchor_a)
    payload = {
        "model": dataclasses.asdict(witness.model),
        "achieved_adjustment": witness.achieved_adjustment,
        "constraints": {c.name: c.satisfied for c in witness.constraints},
        "loss_probability": witness.loss_probability,
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    inp = calibration.CalibrationInput(args.mu_de, args.sd_de, args.mu_l, args.sd_l,
                                       parse_level(args.alpha))
    gamma = calibration.calibrate_gamma(inp)
    discrete = calibration.discretize_gamma(gamma, args.pieces)
    save_recovery_function(discrete, _out(args.out))
    summary = {
        "lambda_star": gamma.lambda_star,
        "plateau": gamma.plateau,
        "pieces": discrete.n_pieces,
        "out": args.out,
    }
    print(json.dumps(summary, indent=2, sort_keys=True), file=sys.stderr)
    return EXIT_OK


def _cmd_allocate(args) -> int:
    sample = allocation.read_divisional_csv(args.scenarios)
    gamma = load_recovery_function(args.gamma)
    _warn_thin_tails(_piece_levels(gamma), sample.n_scenarios)
    result = allocation.euler_allocation(sample, gamma, args.gap_tol)
    payload = {
        "binding_fraction": result.binding_fraction,
        "binding_level": result.binding_level,
        "binding_gap": result.binding_gap,
        "kappa": list(result.kappa),
        "reavar": result.reavar_value,
        "full_allocation_gap": result.full_allocation_gap,
        "division_rorac": list(result.division_rorac),
        "aggregate_rorac": result.aggregate_rorac,
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_frontier(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = json_object(json.load(fh), "frontier config", ("budget", "gamma", "c_grid"))
    gamma = RecoveryFunction.from_json(config.get("gamma"))
    budget = json_number(config.get("budget", 1.0), "frontier config field 'budget'")
    c_grid = json_numbers(config.get("c_grid"), "frontier config field 'c_grid'")
    problem = frontier.read_problem_csv(args.problem, gamma, budget=budget)
    result = frontier.efficient_frontier(problem, c_grid)
    frontier.write_frontier_csv(result, problem.n_assets, _out(args.out))
    if not result.convex_in_c:
        print("warning: frontier risk not convex in the target return", file=sys.stderr)
    return EXIT_OK


def _cmd_selftest(args) -> int:
    rng = np.random.default_rng(20240521)
    checks: list[tuple[str, bool, str]] = []

    ok = True
    for _ in range(50):
        alpha = float(rng.uniform(0.002, 0.2))
        case = stress.TwoStateCase(
            k=float(rng.uniform(0.0, 100.0)), alpha=alpha,
            beta=float(rng.uniform(0.2, 0.99)) * alpha,
            r=float(rng.uniform(0.05, 0.95)))
        closed = stress.two_state_measures(case)
        sample = stress.two_state_sample(case)
        gamma = RecoveryFunction.two_piece(case.beta, case.r, case.alpha)
        ok &= abs(measures.revar(sample, gamma) - closed.revar) <= 1e-9
        ok &= abs(measures.reavar(sample, gamma) - closed.reavar) <= 1e-9
    checks.append(("two-state closed forms", ok, "engine equals analytic values"))

    ok = True
    for alpha in (0.005, 0.01, 0.025):
        for k in range(10, 40):
            pair = measures.min_recovery_pair(alpha, alpha - 2.0**-k if 2.0**-k < alpha / 2 else alpha / 2)
            ok &= measures.avar_empirical(pair.x - pair.y, pair.weights, alpha) == 0.0
    checks.append(("zero-margin tail-average pairs", ok, "AVaR exactly zero"))

    ok = True
    for _ in range(10):
        returns = rng.normal(0.03, 0.1, size=(40, 2))
        z = rng.uniform(0.0, 0.2, size=40)
        gamma = RecoveryFunction.two_piece(0.05, 0.6, 0.1)
        problem = frontier.PortfolioProblem(returns, z, gamma)
        x = rng.dirichlet([1.0, 1.0])
        try:
            frontier.minimax_check(problem, x)
        except NumericalError:
            ok = False
    checks.append(("minimax equality", ok, "gap below 1e-6 on random instances"))

    width = max(len(name) for name, _, _ in checks)
    failed = 0
    for name, passed, detail in checks:
        status = "PASS" if passed else "FAIL"
        print(f"{status}  {name.ljust(width)}  {detail}")
        failed += 0 if passed else 1
    return EXIT_OK if failed == 0 else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="recrisk",
                                     description="Recovery-based risk measure toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw balance-sheet scenarios")
    p.add_argument("--model", default=None, help="model JSON file (defaults apply if omitted)")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rho", type=float, default=None, help="override copula correlation")
    p.add_argument("--tau", type=float, default=None, help="override liability tail shape")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("measure", help="evaluate a risk measure on a scenario file")
    p.add_argument("--scenarios", required=True)
    p.add_argument("--measure", required=True,
                   choices=["var", "avar", "revar", "reavar", "lrevar", "lreavar"])
    p.add_argument("--gamma", default=None, help="recovery function JSON file")
    p.add_argument("--level", default=None, help="level for var/avar ('0.5%%' or '0.005')")
    p.add_argument("--E0", type=float, default=None, help="available capital for the solvency verdict")
    p.add_argument("--n-lambda", type=int, default=None, dest="n_lambda",
                   help="lambda grid size for lrevar/lreavar (default 1001)")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_measure)

    p = sub.add_parser("recadj", help="recovery adjustment sweeps")
    p.add_argument("action", choices=["sweep", "eval"])
    p.add_argument("--model", default=None)
    p.add_argument("--scenarios", default=None, help="scenario CSV for 'eval'")
    p.add_argument("--rho", default=None, help="grid 'start:stop:count' or comma list")
    p.add_argument("--tau", default=None)
    p.add_argument("--regime", default="sii,sst")
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--alpha", default="0.5%")
    p.add_argument("--beta-min", default="0.1%", dest="beta_min")
    p.add_argument("--beta-max", default="0.25%", dest="beta_max")
    p.add_argument("--r-min", default="80%", dest="r_min")
    p.add_argument("--r-max", default="90%", dest="r_max")
    p.add_argument("--n-beta", type=int, default=16, dest="n_beta")
    p.add_argument("--n-r", type=int, default=16, dest="n_r")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_recadj)

    p = sub.add_parser("stress", help="closed-form stress cases")
    p.add_argument("action", choices=["peaked", "extremal"])
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--k", type=float)
    p.add_argument("--E0", type=float, required=True)
    p.add_argument("--beta", default="0.25%")
    p.add_argument("--r", type=float, default=0.8)
    p.add_argument("--tail-mass", default="0.5%", dest="tail_mass")
    p.add_argument("--alpha", default="0.5%")
    p.add_argument("--regime", choices=["var", "avar"], default="var")
    p.add_argument("--smin", type=float, default=1.2)
    p.add_argument("--smax", type=float, default=3.0)
    p.add_argument("--anchor-a", type=float, default=None, dest="anchor_a")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_stress)

    p = sub.add_parser("calibrate", help="calibrate a recovery function to a VaR regime")
    p.add_argument("--mu-de", type=float, required=True, dest="mu_de")
    p.add_argument("--sd-de", type=float, required=True, dest="sd_de")
    p.add_argument("--mu-l", type=float, required=True, dest="mu_l")
    p.add_argument("--sd-l", type=float, required=True, dest="sd_l")
    p.add_argument("--alpha", required=True)
    p.add_argument("--pieces", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_calibrate)

    p = sub.add_parser("allocate", help="Euler capital allocation")
    p.add_argument("--scenarios", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--gap-tol", type=float, default=1e-3, dest="gap_tol")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_allocate)

    p = sub.add_parser("frontier", help="efficient frontier under Recovery AVaR")
    p.add_argument("--problem", required=True)
    p.add_argument("--config", required=True, help="JSON with budget, gamma, c_grid")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_frontier)

    p = sub.add_parser("selftest", help="run the embedded oracle suite")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
