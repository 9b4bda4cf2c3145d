"""Benchmark of the recrisk CLI: three closed-loop workloads, one client each.

    python3 benchmark/run.py --workload grid-sweep --seed 1 --seconds 25 --trace 0
    python3 benchmark/run.py                         # every workload, every metric

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run.  Lines before it give each metric by name and unit, and the
environment.  The full record (environment, samples, failures, spans) goes
to ``.bench_out/`` in the checkout.  See ``benchmark/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

# One thread of numerical work: the worker is single-threaded by design.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 2         # set-up-only workers beside the measured one; setup_s is the median
RUN_LIMIT_S = 170.0       # every process of a workload's run has ended by then
CYCLE_DEADLINE_S = 120.0  # no timed cycle starts later than this after the run starts
TAIL_PERCENTILE = 90      # cycle_tail_s; fixed, whatever the cycle count

END_TO_END = {
    "setup_s": "s",
    "cycle_p50_s": "s",
    "cycle_tail_s": "s",
    "scenarios_per_s": "scenarios/s",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}

# Which layers should dominate each workload's traced self time.
PREDICTIONS = {
    "grid-sweep": ("adjustments + measures", ["layer.adjustments.self_share",
                                              "layer.measures.self_share"]),
    "scenario-io": ("CSV I/O (samples + allocation.read_divisional_csv)",
                    ["layer.samples.self_share", "allocation.read_divisional_csv.self_share"]),
    "frontier-lp": ("simplex.solve_lp", ["simplex.solve_lp.self_share"]),
}


def _lscpu() -> dict:
    keys = ("Model name", "L1d cache", "L1i cache", "L2 cache", "L3 cache")
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10,
                              env={**os.environ, "LC_ALL": "C"}).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    info = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in keys:
            info[key.strip()] = value.strip()
    return info


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "recrisk").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu": _lscpu(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {}).get("name"),
        "blas_threads": THREAD_ENV,
        "RECRISK_THREADS": "unset (default 1)",
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def tail(times: list[float]) -> float:
    """The TAIL_PERCENTILE-th percentile of the cycle times, interpolated
    between order statistics, so that its place does not move with the
    number of cycles a run completes."""
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=100, method="inclusive")[TAIL_PERCENTILE - 1]


class Worker:
    """A worker process and its line channel, ended by ``close``."""

    def __init__(self, workload: str, seed: int, size: str, seconds: float, trace: int,
                 workdir: Path, run_start: float, spans: Path | None = None,
                 setup_only: bool = False) -> None:
        self.workdir = workdir
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        env = {k: v for k, v in os.environ.items() if k != "RECRISK_THREADS"}
        env.update(THREAD_ENV)
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        t0 = time.monotonic()
        argv = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
                "--workdir", str(workdir), "--workload", workload, "--seed", str(seed),
                "--size", size, "--seconds", repr(float(seconds)), "--trace", str(trace),
                "--t0", repr(t0), "--deadline", repr(run_start + CYCLE_DEADLINE_S)]
        if spans is not None:
            argv += ["--spans", str(spans)]
        if setup_only:
            argv.append("--setup-only")
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=env, cwd=str(ROOT))
        self._watchdog = threading.Timer(max(run_start + RUN_LIMIT_S - t0, 0.0),
                                         self.proc.kill)
        self._watchdog.daemon = True
        self._watchdog.start()

    def receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker ended with code {self.proc.wait()} before reporting")
        return json.loads(line)

    def reply(self, proceed: bool) -> None:
        self.proc.stdin.write("next\n" if proceed else "stop\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        self._watchdog.cancel()
        self.proc.stdin.close()  # end of input stops a worker waiting for a reply
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    """One run of one workload: set-up probes, then the measured worker with
    every cycle checked.  Returns the metrics and the run's record."""
    import oracle
    import workloads

    run_start = time.monotonic()
    tag = f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    setups = []
    for k in range(SETUP_PROBES):
        probe = Worker(name, seed, size, seconds, 0, WORK / f"{tag}-probe{k}", run_start,
                       setup_only=True)
        try:
            setups.append(probe.receive()["setup_s"])
            probe.receive()
        finally:
            probe.close()

    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{name}-seed{seed}-spans.jsonl" if trace else None
    worker = Worker(name, seed, size, seconds, trace, WORK / tag, run_start, spans=spans)
    checker = oracle.CHECKERS[name](workloads.WORKLOADS[name](worker.workdir, seed, size))
    times: dict[str, list[float]] = {}
    attempted = failed = 0
    failures: list[str] = []
    try:
        while True:
            event = worker.receive()
            if event["event"] == "done":
                break
            c, results = event["c"], event["results"]
            if c == 0:
                setups.append(event["setup_s"])
            else:
                times.setdefault(event["phase"], []).append(event["dt"])
            skip = {i for i, r in enumerate(results) if r != 0}
            found = checker.check(c, skip)
            attempted += len(results)
            failed += len(skip | {i for i, _ in found})
            failures += [f"cycle {c} command {i}: exit {results[i]!r}" for i in sorted(skip)]
            failures += [f"cycle {c} command {i}: {msg}" for i, msg in found]
            worker.reply(True)
    finally:
        worker.close()

    timed = times.get("traced" if trace else "timed", [])
    if not timed:
        raise RuntimeError(f"{name}: no timed cycle completed")
    wl = checker.w
    metrics = {
        "setup_s": statistics.median(setups),
        "cycle_p50_s": statistics.median(timed),
        "cycle_tail_s": tail(timed),
        "scenarios_per_s": wl.rows_per_cycle * len(timed) / sum(timed),
        "peak_rss_mb": event["peak_rss_mb"],
        "ok_ratio": (attempted - failed) / attempted,
    }
    report = {
        "workload": name, "size": size, "seconds": seconds, "trace": trace,
        "environment": {**environment(seed), "worker_threads": event.get("threads")},
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "failed_ratio": failed / attempted,
        "cycles": len(timed),
        "cycle_times_s": timed,
        "tail_percentile": TAIL_PERCENTILE,
        "setup_samples_s": setups,
        "rows_per_cycle": wl.rows_per_cycle,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
    if trace:
        report["metrics"] = event["per_layer"]
        report["untraced_cycle_times_s"] = times.get("untraced", [])
        report["prediction"] = _prediction(name, event["per_layer"])
        report["spans"] = str(spans.relative_to(ROOT))
    with open(OUT / f"{name}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    return report


def _prediction(name: str, per_layer: dict) -> dict:
    """Compare the predicted largest self-time share with the largest rival:
    every other layer, and the rest of a layer whose function is claimed."""
    label, keys = PREDICTIONS[name]
    share = {k: v["value"] for k, v in per_layer.items()}
    rivals = {k.split(".")[1]: v for k, v in share.items() if k.startswith("layer.")}
    for key in keys:
        if key.startswith("layer."):
            rivals.pop(key.split(".")[1])
        else:
            layer = key.split(".")[0]
            rivals[f"{layer} (other)"] = rivals.pop(layer) - share[key]
    claimed = sum(share[k] for k in keys)
    rival = max(rivals, key=rivals.get)
    return {"largest": label, "share": claimed, "next": rival, "next_share": rivals[rival],
            "holds": claimed > rivals[rival]}


def _print_report(report: dict) -> None:
    name = report["workload"]
    print(f"# {name}: {report['cycles']} timed cycles, tail at p{report['tail_percentile']}, "
          f"{report['attempted']} commands, {report['failed']} failed "
          f"(failed_ratio {report['failed_ratio']:.6g})")
    for failure in report["failures"][:20]:
        print(f"# {name}: FAILED {failure}")
    for metric, entry in report["metrics"].items():
        print(f"{name}  {metric} = {entry['value']:.6g} {entry['unit']}")
    if "prediction" in report:
        p = report["prediction"]
        verdict = "holds" if p["holds"] else "FAILS"
        print(f"# {name}: prediction '{p['largest']} is the largest self-time share' {verdict}: "
              f"{p['share']:.3f} against {p['next']} {p['next_share']:.3f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=["grid-sweep", "scenario-io", "frontier-lp", "all"])
    ap.add_argument("--seed", type=int, default=None, help="input seed (default 1)")
    ap.add_argument("--seconds", type=float, default=25.0, help="timed seconds per run")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "recrisk" / "__init__.py").is_file():
        print(f"error: no recrisk sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy is imported by the checks
    sys.path.insert(0, str(HERE))
    import workloads
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    for name in names:
        report = run_workload(name, seed, args.seconds, args.trace, args.size)
        _print_report(report)
        reports.append(report)
    print("# environment " + json.dumps(reports[0]["environment"], sort_keys=True))
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in reports for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
