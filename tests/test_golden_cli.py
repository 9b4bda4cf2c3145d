"""Byte-identity of CLI outputs on a fixed set of small, fixed-seed runs.

Each case runs ``recrisk.cli.main`` and compares the SHA-256 of what it wrote
to its ``--out`` target (stdout for ``-``) with ``golden_cli.json``.  The
inputs are written here without calling ``recrisk``, except the scenario file,
which is the output of the ``simulate`` case.  A change meant to alter an
output replaces its digest and says why.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from recrisk.cli import main

GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text())

SIMULATE = ["simulate", "--M", "2000", "--seed", "7", "--out", "{d}/scen.csv"]

CASES = {
    "simulate": SIMULATE,
    "measure_var": ["measure", "--scenarios", "{d}/scen.csv", "--measure", "var",
                    "--level", "0.5%", "--out", "-"],
    "measure_avar": ["measure", "--scenarios", "{d}/scen.csv", "--measure", "avar",
                     "--level", "1%", "--out", "{d}/avar.json"],
    "measure_reavar": ["measure", "--scenarios", "{d}/scen.csv", "--gamma", "{d}/gamma.json",
                       "--measure", "reavar", "--E0", "6.5", "--out", "{d}/reavar.json"],
    "measure_revar": ["measure", "--scenarios", "{d}/scen.csv", "--gamma", "{d}/gamma4.json",
                     "--measure", "revar", "--out", "{d}/revar.json"],
    "measure_lreavar": ["measure", "--scenarios", "{d}/scen.csv", "--gamma", "{d}/gamma4.json",
                        "--measure", "lreavar", "--n-lambda", "21", "--out", "{d}/lreavar.json"],
    "measure_lrevar": ["measure", "--scenarios", "{d}/scen.csv", "--gamma", "{d}/gamma.json",
                       "--measure", "lrevar", "--n-lambda", "21",
                       "--out", "{d}/lrevar.json"],
    "recadj_sweep": ["recadj", "sweep", "--rho", "0.3,0.6", "--tau", "2", "--regime", "sii,sst",
                     "--M", "2000", "--seed", "5", "--n-beta", "4", "--n-r", "4",
                     "--out", "{d}/sweep.csv"],
    "recadj_eval": ["recadj", "eval", "--scenarios", "{d}/scen.csv", "--n-beta", "4",
                    "--n-r", "4", "--out", "{d}/eval.json"],
    "allocate": ["allocate", "--scenarios", "{d}/div.csv", "--gamma", "{d}/gamma.json",
                 "--out", "{d}/alloc.json"],
    "frontier": ["frontier", "--problem", "{d}/problem.csv", "--config", "{d}/config.json",
                 "--out", "{d}/frontier.csv"],
    "calibrate": ["calibrate", "--mu-de", "0", "--sd-de", "1", "--mu-l", "10", "--sd-l", "2",
                  "--alpha", "1%", "--pieces", "6", "--out", "{d}/calibrated.json"],
    "stress_peaked": ["stress", "peaked", "--a", "10", "--b", "40", "--c", "60", "--k", "12",
                      "--E0", "4", "--beta", "0.25%", "--r", "0.8", "--out", "-"],
    "stress_extremal_avar": ["stress", "extremal", "--regime", "avar", "--smin", "1.2",
                             "--smax", "3", "--beta", "0.25%", "--r", "0.8", "--E0", "6",
                             "--out", "-"],
    "stress_extremal_var": ["stress", "extremal", "--regime", "var", "--smin", "1.2",
                            "--smax", "3", "--beta", "0.25%", "--r", "0.8", "--E0", "6",
                            "--out", "-"],
    "stress_extremal_var_anchor": ["stress", "extremal", "--regime", "var", "--E0", "6",
                                   "--anchor-a", "50", "--out", "-"],
}


def _csv(header, rows):
    return header + "\n" + "".join(",".join(repr(float(v)) for v in row) + "\n"
                                   for row in rows)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    (d / "gamma.json").write_text('{"breakpoints": [0.8], "levels": [0.01, 0.05]}')
    (d / "gamma4.json").write_text('{"breakpoints": [0.4, 0.7, 0.9], '
                                   '"levels": [0.025, 0.026, 0.027, 0.05]}')
    rng = np.random.default_rng(2024)
    m = 500
    de = rng.normal(0.5, 1.0, size=(m, 3))
    liab = rng.gamma(4.0, 1.0, size=(m, 3))
    (d / "div.csv").write_text(_csv("dE_1,dE_2,dE_3,L_1,L_2,L_3", np.hstack([de, liab])))
    m = 40
    returns = rng.normal([0.04, 0.03, 0.02], [0.15, 0.08, 0.03], size=(m, 3))
    z = rng.uniform(0.0, 0.2, size=(m, 1))
    (d / "problem.csv").write_text(_csv("R_1,R_2,R_3,Z", np.hstack([returns, z])))
    (d / "config.json").write_text(json.dumps({
        "budget": 100.0,
        "gamma": {"breakpoints": [0.6], "levels": [0.05, 0.1]},
        "c_grid": [0.025, 0.03, 0.035],
    }))
    assert main([a.format(d=d) for a in SIMULATE]) == 0
    return d


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical(name, workdir, capsys):
    argv = [a.format(d=workdir) for a in CASES[name]]
    if name != "simulate":
        capsys.readouterr()
        assert main(argv) == 0, capsys.readouterr().err
    target = argv[argv.index("--out") + 1]
    data = capsys.readouterr().out.encode() if target == "-" else Path(target).read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN[name]
