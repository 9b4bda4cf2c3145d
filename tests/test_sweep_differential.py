"""Differential test: the staged sampler and the shared-draw sweep against the
per-cell reference in ``sweep_reference``.

The stages keep the single-pass sampler's elementwise operations, so every
sample must be byte-equal and every sweep row ``==``, or both sides must fail
with the same message.  The sweep CSV must not depend on ``RECRISK_THREADS``,
and the draws must be made once per sweep and the liability body once per rho.
"""

import numpy as np
import pytest

import sweep_reference
from recrisk import balancesheet
from recrisk.adjustments import (AggRecAdjConfig, RegulatoryRegime, case_study_sweep,
                                 write_sweep_csv)
from recrisk.balancesheet import (BalanceSheetModel, copula_body, mixture_gamma_quantile,
                                  sample_scenarios, standard_normals)
from recrisk.cli import main
from recrisk.errors import DenominatorNotPositive

RHOS = (-1.0, 0.0, 0.37, 1.0)
TAUS = (0.5, 1.0, 3.0)
REGIMES = (RegulatoryRegime.solvency_ii(), RegulatoryRegime.swiss_solvency_test())
CONFIG = AggRecAdjConfig(n_beta=3, n_r=2)
# Splice levels below every uniform of a small draw (no body scenario) and
# above every one (no tail scenario), beside the default.
SPLICES = (1e-9, 0.975, 1.0 - 1e-12)
# The default balance sheet, and one whose capital is negative in every cell.
MODELS = (BalanceSheetModel(), BalanceSheetModel(initial_net_asset_value=-100.0))


def outcome(fn, *args):
    try:
        return fn(*args)
    except DenominatorNotPositive as exc:
        return ("DenominatorNotPositive", str(exc))


@pytest.mark.parametrize("m", [1, 2, 2000])
@pytest.mark.parametrize("splice", SPLICES)
@pytest.mark.parametrize("base", MODELS)
def test_sweep_rows_equal_the_per_cell_loop(base, splice, m):
    model = base.with_params(splice_level=splice)
    z1, z2 = standard_normals(m, 3)
    bodies = [copula_body(model.with_params(copula_correlation=rho), z1, z2).body
              for rho in RHOS]
    if splice == SPLICES[0]:
        assert not any(body.any() for body in bodies)
    if splice == SPLICES[-1]:
        assert all(body.all() for body in bodies)
    got = outcome(case_study_sweep, model, RHOS, TAUS, REGIMES, m, 3, CONFIG)
    want = outcome(sweep_reference.sweep, model, RHOS, TAUS, REGIMES, m, 3, CONFIG)
    assert got == want
    if base is MODELS[0]:
        assert len(got) == len(RHOS) * len(TAUS) * len(REGIMES)
    else:
        assert got[0] == "DenominatorNotPositive" and "at rho=-1.0, tau=0.5" in got[1]


@pytest.mark.parametrize("m", [1, 2, 2000])
@pytest.mark.parametrize("splice", SPLICES)
@pytest.mark.parametrize("rho", RHOS)
@pytest.mark.parametrize("tau", TAUS)
def test_sample_scenarios_equals_the_single_pass_sampler(tau, rho, splice, m):
    model = BalanceSheetModel(copula_correlation=rho, tail_shape=tau, splice_level=splice)
    sim = sample_scenarios(model, m, 17)
    ref, assets = sweep_reference.sample(model, m, 17)
    assert sim.sample.x.tobytes() == ref.x.tobytes()
    assert sim.sample.y.tobytes() == ref.y.tobytes()
    assert sim.assets.tobytes() == assets.tobytes()


def test_mixture_quantile_equals_the_single_pass_splice():
    model = BalanceSheetModel(tail_shape=2.5, tail_rate=1.5)
    u = np.array([1e-12, 0.3, 0.974999, 0.975, 0.99, 1.0 - 1e-12])
    assert mixture_gamma_quantile(u, model).tobytes() == \
        sweep_reference.mixture_quantile(u, model).tobytes()
    for v in (0.5, 0.99):
        assert mixture_gamma_quantile(v, model) == sweep_reference.mixture_quantile(v, model)
    for bad in (0.0, 1.0, np.array([0.5, 1.0])):
        with pytest.raises(ValueError, match=r"liability quantile requires u in \(0, 1\)"):
            mixture_gamma_quantile(bad, model)


@pytest.mark.parametrize("rho, tau", [("0.2,0.5,0.8", "2,4"), ("0.6", "1,2,3")],
                         ids=["three-rho-groups", "one-rho-group"])
def test_sweep_csv_bytes_do_not_depend_on_the_thread_count(tmp_path, monkeypatch, rho, tau):
    want = tmp_path / "reference.csv"
    rows = sweep_reference.sweep(BalanceSheetModel(), [float(r) for r in rho.split(",")],
                                 [float(t) for t in tau.split(",")], REGIMES, 2000, 5,
                                 AggRecAdjConfig(n_beta=4, n_r=4))
    write_sweep_csv(rows, want)
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("RECRISK_THREADS", threads)
        out = tmp_path / f"threads{threads}.csv"
        assert main(["recadj", "sweep", "--rho", rho, "--tau", tau, "--regime", "sii,sst",
                     "--M", "2000", "--seed", "5", "--n-beta", "4", "--n-r", "4",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == want.read_bytes()


def test_sweep_draws_once_and_builds_each_body_once_per_rho(monkeypatch):
    calls = {"uniform_stream": 0, "liability_body": 0}
    for name in calls:
        inner = getattr(balancesheet, name)

        def counted(*args, _name=name, _inner=inner):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(balancesheet, name, counted)
    rows = case_study_sweep(BalanceSheetModel(), [0.2, 0.5, 0.8], [2.0, 4.0], REGIMES,
                            2000, 9, CONFIG)
    assert len(rows) == 12
    assert calls == {"uniform_stream": 1, "liability_body": 3}
