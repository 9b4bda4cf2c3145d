"""Tests of the benchmark itself.  Run with ``python3 -m pytest benchmark/tests``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from recrisk import cli  # noqa: E402


def _bench(*args: str) -> list[str]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "all",
                           "--size", "tiny", "--seconds", "1", *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("seed", [3, 4])
def test_tiny_run_prints_every_metric_and_passes_the_oracle(seed):
    lines = _bench("--seed", str(seed))
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    for name in wl.WORKLOADS:
        assert any(line.startswith(f"# {name}: ") and line.endswith("(failed_ratio 0)")
                   for line in lines)
        for metric, unit in run.END_TO_END.items():
            assert f"{name}/{metric}" in result["metrics"]
            assert any(line.startswith(f"{name}  {metric} = ") and line.endswith(f" {unit}")
                       for line in lines), (name, metric)
            assert result["metrics"][f"{name}/{metric}"]["value"] > 0


def test_traced_run_reports_every_layer_metric():
    result = json.loads(_bench("--trace", "1")[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    for name in wl.WORKLOADS:
        for metric, unit in tracer.METRICS.items():
            assert metrics[f"{name}/{metric}"]["unit"] == unit
    assert metrics["grid-sweep/measures.l_revar.nodes"]["value"] == 60
    assert metrics["grid-sweep/adjustments.revar_two_piece_grid.sorts"]["value"] == 64
    assert metrics["scenario-io/samples.read_scenario_csv.calls"]["value"] == 2
    assert metrics["frontier-lp/simplex.solve_lp.calls"]["value"] == 5
    assert metrics["frontier-lp/measures.tail.scenarios"]["value"] == 0


def _cycle_zero(name: str, workdir: Path, seed: int = 5):
    """A tiny workload with its warm-up cycle run in-process."""
    workload = wl.WORKLOADS[name](workdir, seed, "tiny")
    workload.setup()
    commands = workload.prepare(0)
    assert [cli.main(argv) for argv in commands] == [0] * len(commands)
    return workload


def _edit_json(key, index=None):
    def edit(path: Path) -> None:
        data = json.loads(path.read_text())
        if index is None:
            data[key] += 1e-6
        else:
            data[key][index] += 1e-6
        path.write_text(json.dumps(data))
    return edit


def _edit_csv(row: int, col: int):
    def edit(path: Path) -> None:
        lines = path.read_text().splitlines()
        cells = lines[row].split(",")
        cells[col] = repr(float(cells[col]) + 1e-6)
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    return edit


@pytest.mark.parametrize("name,file,command,edit", [
    ("grid-sweep", "sweep.csv", 0, _edit_csv(1, 4)),
    ("grid-sweep", "lrevar.json", 1, _edit_json("value")),
    ("scenario-io", "sim.csv", 0, _edit_csv(5, 1)),
    ("scenario-io", "reavar.json", 1, _edit_json("value")),
    ("scenario-io", "var.json", 2, _edit_json("value")),
    ("scenario-io", "alloc.json", 3, _edit_json("kappa", 0)),
    ("frontier-lp", "frontier.csv", 0, _edit_csv(1, 2)),
])
def test_oracle_rejects_a_perturbed_output(tmp_path, name, file, command, edit):
    workload = _cycle_zero(name, tmp_path)
    checker = oracle.CHECKERS[name](workload)
    assert checker.check(0) == []
    edit(workload.path(file))
    failures = checker.check(0)
    assert failures and {index for index, _ in failures} == {command}


def _generated(name: str, workdir: Path, seed: int) -> dict[str, bytes]:
    workdir.mkdir()
    workload = wl.WORKLOADS[name](workdir, seed, "tiny")
    workload.setup()
    files = {}
    for c in (0, 1):
        argv = workload.prepare(c)
        files.update({f"{c}/{p.name}": p.read_bytes() for p in workdir.iterdir()})
        files[f"{c}/argv"] = json.dumps(argv).replace(str(workdir), "").encode()
    return files


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    first = _generated(name, tmp_path / "a", 7)
    second = _generated(name, tmp_path / "b", 7)
    other = _generated(name, tmp_path / "c", 8)
    assert first == second
    assert first != other
