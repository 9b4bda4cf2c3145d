import hashlib
import json

import numpy as np
import pytest

from recrisk import balancesheet, measures
from recrisk.cli import main, parse_grid, parse_level
from recrisk.recovery import RecoveryFunction
from recrisk.stress import TwoStateCase, two_state_measures, two_state_sample
from recrisk.samples import write_scenario_csv


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_parse_level_accepts_percent_and_decimal():
    assert parse_level("0.5%") == 0.005
    assert parse_level("0.005") == 0.005
    assert parse_level(" 2.5% ") == 0.025


def test_parse_grid_forms():
    assert np.allclose(parse_grid("0.1:0.9:5"), np.linspace(0.1, 0.9, 5))
    assert np.allclose(parse_grid("1,2,5"), [1.0, 2.0, 5.0])


def test_unknown_command_exits_one(capsys):
    assert main(["definitely-not-a-command"]) == 1
    assert main(["measure", "--scenarios", "missing.csv", "--measure", "var"]) == 1


def test_simulate_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["simulate", "--M", "300", "--seed", "11", "--out", str(out1)]) == 0
    assert main(["simulate", "--M", "300", "--seed", "11", "--out", str(out2)]) == 0
    assert sha(out1) == sha(out2)
    assert main(["simulate", "--M", "300", "--seed", "12", "--out", str(out2)]) == 0
    assert sha(out1) != sha(out2)


def test_measure_two_state_file_matches_closed_form(tmp_path):
    case = TwoStateCase(k=30.0, alpha=0.01, beta=0.004, r=0.8)
    closed = two_state_measures(case)
    scen = tmp_path / "s.csv"
    with open(scen, "w", encoding="utf-8") as fh:
        write_scenario_csv(two_state_sample(case), fh)
    gamma_file = tmp_path / "g.json"
    gamma_file.write_text(RecoveryFunction.two_piece(0.004, 0.8, 0.01).to_json())
    out = tmp_path / "out.json"
    assert main(["measure", "--scenarios", str(scen), "--gamma", str(gamma_file),
                 "--measure", "reavar", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["value"] == pytest.approx(closed.reavar, abs=1e-9)
    assert main(["measure", "--scenarios", str(scen), "--gamma", str(gamma_file),
                 "--measure", "revar", "--E0", "0.0", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["value"] == pytest.approx(closed.revar, abs=1e-9)
    assert payload["solvency_pass"] == (closed.revar <= 0.0)


def test_round_trip_simulate_measure_recadj_allocate(tmp_path):
    scen = tmp_path / "s.csv"
    assert main(["simulate", "--M", "4000", "--seed", "3", "--out", str(scen)]) == 0
    gamma_file = tmp_path / "g.json"
    gamma_file.write_text(RecoveryFunction.two_piece(0.001, 0.8, 0.005).to_json())
    out = tmp_path / "m.json"
    assert main(["measure", "--scenarios", str(scen), "--gamma", str(gamma_file),
                 "--measure", "revar", "--out", str(out)]) == 0
    assert main(["measure", "--scenarios", str(scen), "--gamma", str(gamma_file),
                 "--measure", "lrevar", "--out", str(out)]) == 0
    assert main(["recadj", "eval", "--scenarios", str(scen), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["SolvencyII"]["agg_rec_adj_mean"] >= 1.0
    assert main(["allocate", "--scenarios", str(scen), "--gamma", str(gamma_file),
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["kappa"]) == 1


def test_recadj_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["recadj", "sweep", "--rho", "0.2:0.8:2", "--tau", "1:3:2",
                 "--regime", "sii", "--M", "2000", "--seed", "5",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("rho,tau,regime,loss_prob,reg_capital")
    assert len(lines) == 1 + 4


def test_stress_commands(tmp_path):
    out = tmp_path / "peaked.json"
    assert main(["stress", "peaked", "--a", "10", "--b", "40", "--c", "60",
                 "--k", "12", "--E0", "4", "--beta", "0.25%", "--r", "0.8",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["q_beta"] == pytest.approx(50.0)
    assert payload["revar"] == pytest.approx(32.0)
    assert payload["rec_adj_var"] == pytest.approx(16.0)
    assert main(["stress", "extremal", "--regime", "avar", "--smin", "1.2",
                 "--smax", "3", "--beta", "0.25%", "--r", "0.8", "--E0", "6",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["achieved_adjustment"] == pytest.approx(3.0, abs=1e-9)
    assert all(payload["constraints"].values())
    # infeasible construction -> numerical failure exit code
    assert main(["stress", "extremal", "--regime", "avar", "--smin", "1.2",
                 "--smax", "3", "--beta", "0.1%", "--r", "0.8", "--E0", "6"]) == 2


def test_calibrate_emits_recovery_function(tmp_path):
    out = tmp_path / "gamma.json"
    assert main(["calibrate", "--mu-de", "0", "--sd-de", "1", "--mu-l", "10",
                 "--sd-l", "2", "--alpha", "1%", "--pieces", "8",
                 "--out", str(out)]) == 0
    gamma = RecoveryFunction.from_json(out.read_text())
    assert gamma.n_pieces <= 8


def test_allocate_ambiguous_tie_exit_code(tmp_path):
    scen = tmp_path / "div.csv"
    scen.write_text("weight,dE_1,dE_2,L_1,L_2\n"
                    "0.5,0.0,0.0,0.0,0.0\n0.5,0.0,0.0,0.0,0.0\n")
    gamma_file = tmp_path / "g.json"
    gamma_file.write_text(RecoveryFunction.two_piece(0.05, 0.6, 0.25).to_json())
    assert main(["allocate", "--scenarios", str(scen), "--gamma", str(gamma_file)]) == 2


def test_frontier_command(tmp_path):
    rng = np.random.default_rng(9)
    m = 40
    lines = ["weight,R_1,R_2,Z"]
    for i in range(m):
        r1, r2 = rng.normal(0.04, 0.12), rng.normal(0.02, 0.05)
        z = rng.uniform(0, 0.2)
        lines.append(f"{1.0 / m!r},{r1!r},{r2!r},{z!r}")
    problem = tmp_path / "p.csv"
    problem.write_text("\n".join(lines) + "\n")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "budget": 100.0,
        "gamma": {"breakpoints": [0.6], "levels": [0.02, 0.1]},
        "c_grid": [0.025, 0.03, 0.035],
    }))
    out = tmp_path / "f.csv"
    assert main(["frontier", "--problem", str(problem), "--config", str(config),
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "c,risk,upsilon,x_1,x_2,status"
    assert len(lines) == 4


def test_selftest_passes():
    assert main(["selftest"]) == 0


BAD_ROW_ARGV = {
    "measure": ["measure", "--scenarios", "{data}", "--measure", "var", "--level", "1%"],
    "allocate": ["allocate", "--scenarios", "{data}", "--gamma", "{gamma}"],
    "frontier": ["frontier", "--problem", "{data}", "--config", "{config}"],
}
BAD_ROW_HEADER = {"measure": "weight,x,y", "allocate": "weight,dE_1,L_1",
                  "frontier": "weight,R_1,Z"}


def run_with_table(tmp_path, capsys, command, text, data=None):
    if data is None:
        data = tmp_path / "data.csv"
        data.write_text(text)
    gamma = tmp_path / "g.json"
    gamma.write_text(RecoveryFunction.constant(0.1).to_json())
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"gamma": {"breakpoints": [], "levels": [0.1]},
                                  "c_grid": [0.01]}))
    argv = [a.format(data=data, gamma=gamma, config=config) for a in BAD_ROW_ARGV[command]]
    code = main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("bad_row, message", [
    ("0.5,1.0", "line 4 has 2 fields, the header has 3"),
    ("0.5,abc,2.0", "line 4: 'abc' is not a number"),
    ("0.5,1_0,2.0", "line 4: '1_0' is not a number"),
    ("0.5,,abc", "line 4: '' is not a number"),
    ("0.5,1.0,", "line 4: '' is not a number"),
], ids=["ragged", "non-numeric", "digit-separator", "empty-before-non-numeric", "empty-last"])
@pytest.mark.parametrize("command", sorted(BAD_ROW_ARGV))
def test_malformed_row_names_its_line(tmp_path, capsys, command, bad_row, message):
    text = f"# comment\n{BAD_ROW_HEADER[command]}\n0.5,1.0,2.0\n{bad_row}\n"
    code, err = run_with_table(tmp_path, capsys, command, text)
    assert code == 1
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, header, message", [
    ("frontier", "R_1,R_3,Z", "R_ columns must be R_1..R_2 once each; got R_3"),
    ("frontier", "R_1,R_a,Z", "R_ columns must be R_1..R_2 once each; got R_a"),
    ("frontier", "R_2,R_2,Z", "R_ columns must be R_1..R_2 once each; got R_2"),
    ("allocate", "dE_1,dE_3,L_1", "dE_ columns must be dE_1..dE_2 once each; got dE_3"),
    ("allocate", "dE_1,L_1,L_x", "L_ columns must be L_1..L_2 once each; got L_x"),
], ids=["frontier-gap", "frontier-not-a-number", "frontier-repeat", "allocate-dE-gap",
        "allocate-L-not-a-number"])
def test_numbered_columns_must_run_from_one(tmp_path, capsys, command, header, message):
    code, err = run_with_table(tmp_path, capsys, command,
                               f"{header}\n0.01,0.02,0.5\n0.03,0.01,0.7\n")
    assert code == 1
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text, message", [
    ("weight,R_1,Z\n", "no rows"),
    ("weight,R_1,Z\n0.5,0.01,0.1\nnan,0.02,0.1\n", "non-finite"),
], ids=["header-only", "nan-weight"])
def test_frontier_rejects_unusable_problem(tmp_path, capsys, text, message):
    code, err = run_with_table(tmp_path, capsys, "frontier", text)
    assert code == 1
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, payload, message", [
    (["simulate", "--M", "10", "--seed", "1", "--model", "{f}"], {"foo": 1}, "'foo'"),
    (["simulate", "--M", "10", "--seed", "1", "--model", "{f}"], {"tail_shape": "3"},
     "'tail_shape'"),
    (["measure", "--scenarios", "{data}", "--measure", "revar", "--gamma", "{f}"],
     {"breakpoints": [], "levels": 5}, "'levels'"),
    (["frontier", "--problem", "{data}", "--config", "{f}"],
     {"gamma": {"breakpoints": [], "levels": 5}, "c_grid": [0.01]}, "'levels'"),
    (["frontier", "--problem", "{data}", "--config", "{f}"], [0.01], "JSON object"),
    (["frontier", "--problem", "{data}", "--config", "{f}"],
     {"gamma": {"breakpoints": [], "levels": [0.1]}, "budget": [1], "c_grid": [0.01]},
     "'budget'"),
    (["frontier", "--problem", "{data}", "--config", "{f}"],
     {"gamma": {"breakpoints": [], "levels": [0.1]}, "budget": float("nan"), "c_grid": [0.01]},
     "'budget'"),
    (["frontier", "--problem", "{data}", "--config", "{f}"],
     {"gamma": {"breakpoints": [], "levels": [0.1]}, "c_grid": [{"a": 1}]}, "'c_grid'"),
    (["simulate", "--M", "10", "--seed", "1", "--model", "{f}"], {"body_shape": True},
     "'body_shape'"),
    (["simulate", "--M", "10", "--seed", "1", "--model", "{f}"], {"body_rate": 10 ** 400},
     "'body_rate' must be finite"),
    (["measure", "--scenarios", "{data}", "--measure", "revar", "--gamma", "{f}"],
     {"breakpoints": [], "levels": [True]}, "'levels'"),
    (["frontier", "--problem", "{data}", "--config", "{f}"],
     {"gamma": {"breakpoints": [], "levels": [0.1]}, "budget": True, "c_grid": [0.01]},
     "'budget'"),
    (["frontier", "--problem", "{data}", "--config", "{f}"],
     {"gamma": {"breakpoints": [], "levels": [0.1]}, "c_grid": [0.01, True]}, "'c_grid'"),
    (["measure", "--scenarios", "{data}", "--measure", "revar", "--gamma", "{f}"],
     {"breakpoints": [], "levels": [0.1], "level": [0.2]}, "'level'"),
    (["frontier", "--problem", "{data}", "--config", "{f}"],
     {"gamma": {"breakpoints": [], "levels": [0.1]}, "budgett": 100, "c_grid": [0.01]},
     "'budgett'"),
    (["frontier", "--problem", "{data}", "--config", "{f}"], {"c_grid": [0.01]},
     "level function must be a JSON object"),
], ids=["model-unknown-field", "model-string-value", "gamma-levels-not-a-list",
        "config-gamma-levels-not-a-list", "config-not-an-object", "config-budget-a-list",
        "config-budget-nan", "config-c-grid-entry-an-object", "model-field-a-boolean",
        "model-field-an-integer-no-float-holds", "gamma-level-a-boolean",
        "config-budget-a-boolean", "config-c-grid-entry-a-boolean", "gamma-unknown-field",
        "config-unknown-field", "config-gamma-missing"])
def test_malformed_json_input_exits_one(tmp_path, capsys, argv, payload, message):
    f = tmp_path / "input.json"
    f.write_text(json.dumps(payload))
    data = tmp_path / "data.csv"
    data.write_text("weight,x,y,R_1,Z\n0.5,1.0,2.0,0.1,0.1\n0.5,-1.0,1.0,0.0,0.2\n")
    assert main([a.format(f=f, data=data) for a in argv]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_integer_model_field_reads_as_its_float(tmp_path):
    outputs = []
    for value in ("3", "3.0"):
        model, out = tmp_path / f"model-{value}.json", tmp_path / f"out-{value}.csv"
        model.write_text(f'{{"tail_shape": {value}}}')
        assert main(["simulate", "--M", "20", "--seed", "1", "--model", str(model),
                     "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_allocation_failure_exits_one_with_a_message(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.46 TiB")
    monkeypatch.setattr(balancesheet, "uniform_stream", refuse)
    assert main(["simulate", "--M", "10", "--seed", "1", "--out", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert "error: not enough memory: Unable to allocate 1.46 TiB" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--M", "10", "--seed", "1", "--model", "{f}"], "'asset_log_sd'"),
    (["simulate", "--M", "10", "--seed", "1", "--rho", "nan"], "'copula_correlation'"),
    (["simulate", "--M", "10", "--seed", "1", "--tau", "inf"], "'tail_shape'"),
    (["stress", "peaked", "--a", "10", "--b", "40", "--c", "60", "--k", "12", "--E0", "nan"],
     "initial_capital"),
    (["stress", "peaked", "--a", "10", "--b", "40", "--c", "60", "--k", "inf", "--E0", "5"],
     "asset_value"),
    (["stress", "extremal", "--E0", "inf"], "e0"),
    (["stress", "extremal", "--E0", "6", "--anchor-a", "nan"], "anchor_a"),
], ids=["model-nan-field", "rho-nan", "tau-inf", "peaked-E0-nan", "peaked-k-inf",
        "extremal-E0-inf", "extremal-anchor-nan"])
def test_non_finite_input_exits_one(tmp_path, capsys, argv, message):
    f = tmp_path / "model.json"
    f.write_text('{"asset_log_sd": NaN}')
    out = tmp_path / "out"
    assert main([a.format(f=f) for a in argv] + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_extremal_anchor_outside_the_var_regime_exits_one(tmp_path, capsys):
    argv = ["stress", "extremal", "--E0", "6", "--regime", "avar", "--r", "0.72",
            "--out", str(tmp_path / "out.json")]
    assert main(argv) == 0
    assert main(argv + ["--anchor-a", "5"]) == 1
    err = capsys.readouterr().err
    assert "anchor_a applies only to the VaR regime" in err
    assert "Traceback" not in err


def two_piece_scenarios(tmp_path):
    scen = tmp_path / "s.csv"
    with open(scen, "w", encoding="utf-8") as fh:
        write_scenario_csv(two_state_sample(TwoStateCase(k=30.0, alpha=0.01, beta=0.004, r=0.8)),
                           fh)
    gamma_file = tmp_path / "g.json"
    gamma_file.write_text(RecoveryFunction.two_piece(0.004, 0.8, 0.01).to_json())
    return ["measure", "--scenarios", str(scen), "--gamma", str(gamma_file)]


def test_measure_E0_inf_exits_one(tmp_path, capsys):
    argv = two_piece_scenarios(tmp_path)
    for name in ("revar", "reavar", "lrevar", "lreavar"):
        assert main(argv + ["--measure", name, "--E0", "inf"]) == 1
        assert "available capital must be finite" in capsys.readouterr().err


def test_measure_liability_side_refuses_E0_when_the_file_has_assets(tmp_path, capsys):
    scen = tmp_path / "s.csv"
    assert main(["simulate", "--M", "300", "--seed", "3", "--out", str(scen)]) == 0
    gamma_file = tmp_path / "g.json"
    gamma_file.write_text(RecoveryFunction.two_piece(0.05, 0.8, 0.1).to_json())
    argv = ["measure", "--scenarios", str(scen), "--gamma", str(gamma_file),
            "--out", str(tmp_path / "out.json")]
    for name in ("lrevar", "lreavar"):
        assert main(argv + ["--measure", name]) == 0
        for e0 in ("6.5", "nan"):
            assert main(argv + ["--measure", name, "--E0", e0]) == 1
            err = capsys.readouterr().err
            assert "--E0 applies only to a scenario file without an A column" in err
            assert "Traceback" not in err


def test_measure_E0_evaluates_each_piece_once(tmp_path, monkeypatch):
    calls = []
    original = measures.avar_empirical
    monkeypatch.setattr(measures, "avar_empirical", lambda *a: calls.append(a) or original(*a))
    out = tmp_path / "out.json"
    assert main(two_piece_scenarios(tmp_path)
                + ["--measure", "reavar", "--E0", "1.0", "--out", str(out)]) == 0
    assert len(calls) == 2
    payload = json.loads(out.read_text())
    terms = [original(*c) for c in calls]
    assert payload["value"] == max(terms)
    assert payload["binding_fraction"] == (0.8, 1.0)[terms.index(max(terms))]
    assert payload["solvency_pass"] == (max(terms) <= 1.0)


def test_calibrate_out_dash_writes_the_level_function_to_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["calibrate", "--mu-de", "0", "--sd-de", "1", "--mu-l", "10", "--sd-l", "2",
                 "--alpha", "1%", "--pieces", "4", "--out", "-"]) == 0
    captured = capsys.readouterr()
    gamma = RecoveryFunction.from_json(captured.out)
    assert gamma.n_pieces <= 4
    assert json.loads(captured.err)["pieces"] == gamma.n_pieces
    assert list(tmp_path.iterdir()) == []


def _recadj_sides(tmp_path):
    """``recadj eval`` on a simulated cell and the matching ``recadj sweep`` rows."""
    scen, eval_out, sweep_out = (tmp_path / n for n in ("s.csv", "e.json", "w.csv"))
    cell = ["--rho", "0.4", "--tau", "2", "--M", "3000", "--seed", "5"]
    grid = ["--n-beta", "4", "--n-r", "4"]
    assert main(["simulate", *cell, "--out", str(scen)]) == 0
    assert main(["recadj", "eval", "--scenarios", str(scen), *grid,
                 "--out", str(eval_out)]) == 0
    assert main(["recadj", "sweep", *cell, *grid, "--out", str(sweep_out)]) == 0
    header, *rows = (line.split(",") for line in sweep_out.read_text().splitlines())
    return json.loads(eval_out.read_text()), [dict(zip(header, row)) for row in rows]


def test_recadj_eval_equals_the_sweep_row_of_its_cell(tmp_path):
    payload, rows = _recadj_sides(tmp_path)
    assert sorted(payload) == sorted(row["regime"] for row in rows) == [
        "SolvencyII", "SwissSolvencyTest"]
    for row in rows:
        for key in ("reg_capital", "agg_rec_adj_integral", "agg_rec_adj_mean"):
            assert payload[row["regime"]][key] == float(row[key])


def test_recadj_eval_builds_the_revar_grid_once(tmp_path, monkeypatch):
    from recrisk import adjustments
    scen = tmp_path / "s.csv"
    assert main(["simulate", "--M", "2000", "--seed", "5", "--out", str(scen)]) == 0
    calls = []
    grid = adjustments.revar_two_piece_grid
    monkeypatch.setattr(adjustments, "revar_two_piece_grid",
                        lambda *a, **k: calls.append(1) or grid(*a, **k))
    assert main(["recadj", "eval", "--scenarios", str(scen), "--regime", "sii,sst",
                 "--n-beta", "4", "--n-r", "4", "--out", str(tmp_path / "e.json")]) == 0
    assert len(calls) == 1


def test_recadj_sweep_names_the_cell_of_a_non_positive_capital(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text('{"initial_net_asset_value": -100.0}')
    assert main(["recadj", "sweep", "--model", str(model), "--rho", "0.4", "--tau", "2",
                 "--M", "2000", "--seed", "5", "--n-beta", "4", "--n-r", "4",
                 "--out", str(tmp_path / "w.csv")]) == 2
    assert "rho=" in capsys.readouterr().err


def test_recadj_warns_once_on_thin_tails_and_still_writes(tmp_path, capsys):
    out = tmp_path / "thin.csv"
    argv = ["recadj", "sweep", "--rho", "0.5", "--tau", "2", "--M", "50", "--seed", "1",
            "--n-beta", "2", "--n-r", "2", "--out", str(out)]
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert err.count("warning") == 1
    assert "fewer than 50 expected tail scenarios of M=50" in err
    for part in ("SolvencyII 0.005 (0.25 scenarios)", "SwissSolvencyTest 0.01 (0.5 scenarios)",
                 "smallest beta node 0.001375"):
        assert part in err
    sweep_bytes = out.read_bytes()
    capsys.readouterr()
    scen = tmp_path / "s.csv"
    assert main(["simulate", "--M", "50", "--seed", "1", "--rho", "0.5", "--tau", "2",
                 "--out", str(scen)]) == 0
    assert main(["recadj", "eval", "--scenarios", str(scen), "--n-beta", "2", "--n-r", "2",
                 "--out", str(tmp_path / "e.json")]) == 0
    assert capsys.readouterr().err.count("warning: fewer than 50") == 1
    # The warning goes to stderr alone: the sweep CSV keeps its bytes.
    assert main(argv[:-1] + [str(tmp_path / "again.csv")]) == 0
    assert (tmp_path / "again.csv").read_bytes() == sweep_bytes


def test_recadj_is_silent_when_every_tail_is_thick(tmp_path, capsys):
    # 0.4% of 20000 scenarios is 80 >= MIN_TAIL, and the regimes hold more.
    assert main(["recadj", "sweep", "--rho", "0.5", "--tau", "2", "--M", "20000",
                 "--seed", "1", "--beta-min", "0.4%", "--beta-max", "0.45%",
                 "--n-beta", "2", "--n-r", "2", "--out", str(tmp_path / "w.csv")]) == 0
    assert "warning" not in capsys.readouterr().err


def test_measure_and_allocate_warn_on_thin_pieces_and_keep_their_output(tmp_path, capsys):
    # M=100: the first piece's level 0.1 expects 10 tail scenarios, the
    # second's 0.6 expects 60 >= MIN_TAIL.
    from recrisk import allocation
    from recrisk.samples import read_scenario_csv
    scen = tmp_path / "s.csv"
    assert main(["simulate", "--M", "100", "--seed", "4", "--out", str(scen)]) == 0
    gamma = RecoveryFunction.two_piece(0.1, 0.8, 0.6)
    gamma_file = tmp_path / "g.json"
    gamma_file.write_text(gamma.to_json())
    sample, _ = read_scenario_csv(scen)
    out = tmp_path / "out.json"
    capsys.readouterr()
    runs = [
        (["measure", "--measure", "revar", "--gamma", str(gamma_file)],
         "gamma piece 1 0.1 (10 scenarios)", "value", measures.revar_pieces(sample, gamma).value),
        (["measure", "--measure", "var", "--level", "1%"], "var level 0.01 (1 scenarios)",
         "value", measures.var_empirical(sample.x, sample.weights, 0.01)),
        (["allocate", "--gamma", str(gamma_file)], "gamma piece 1 0.1 (10 scenarios)",
         "reavar", allocation.euler_allocation(allocation.read_divisional_csv(scen),
                                               gamma).reavar_value),
    ]
    for argv, part, key, value in runs:
        assert main(argv + ["--scenarios", str(scen), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("warning: fewer than 50 expected tail "
                                                       "scenarios of M=100: ")
        assert part in err and "piece 2" not in err
        assert json.loads(out.read_text())[key] == value
    assert main(["measure", "--measure", "avar", "--level", "60%", "--scenarios", str(scen),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


WHAT = {"measure": "scenario CSV", "allocate": "divisional CSV", "frontier": "problem CSV"}


@pytest.mark.parametrize("kind", ["non-utf8-first-byte", "non-utf8-deep", "empty",
                                  "header-only"])
@pytest.mark.parametrize("command", sorted(BAD_ROW_ARGV))
@pytest.mark.filterwarnings("error")
def test_unreadable_table_exits_one_with_the_message(tmp_path, capsys, monkeypatch, command, kind):
    # Small blocks, so that the bad byte deep in the file lies past the
    # first block and past the decoder's first chunk: its position is still
    # counted from the start of the file.
    from recrisk import samples
    monkeypatch.setattr(samples, "READ_BLOCK", 16)
    head = f"# comment\n{BAD_ROW_HEADER[command]}\n".encode()
    body = head + b"0.5,1.0,2.0\n" * 2000
    raw, message = {
        "non-utf8-first-byte": (b"\xff" + body,
                                "'utf-8' codec can't decode byte 0xff in position 0: "
                                "invalid start byte"),
        "non-utf8-deep": (body + b"0.5,\xff,2.0\n",
                          f"'utf-8' codec can't decode byte 0xff in position {len(body) + 4}: "
                          "invalid start byte"),
        "empty": (b"", f"{WHAT[command]} is empty"),
        "header-only": (head + b"\n  \n# no rows\n", f"{WHAT[command]} has a header but no rows"),
    }[kind]
    data = tmp_path / "data.bin"
    data.write_bytes(raw)
    code, err = run_with_table(tmp_path, capsys, command, None, data)
    assert (code, err) == (1, f"error: {message}\n")
