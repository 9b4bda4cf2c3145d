"""The measured process: one workload, one client, closed loop.

Started by ``run.py``, never by hand.  It imports ``recrisk`` from the
checkout's ``src/``, writes the workload's inputs, runs one warm-up cycle and
reports its set-up time, then runs timed cycles through
``recrisk.cli.main(argv)``.  After each cycle it reports the cycle's time and
exit codes as one JSON line on its standard output and waits for ``next`` or
``stop`` on its standard input, so the output checks in ``run.py`` run while
no cycle is being timed and their memory stays out of this process.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def _threads() -> int | None:
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _run(cli, argv: list[str]):
    """Exit code of one command, or the exception it raised as text."""
    try:
        return cli.main(argv)
    except Exception as exc:  # a raise is a failed command; the loop goes on
        traceback.print_exc()
        return f"{type(exc).__name__}: {exc}"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--deadline", type=float, required=True, help="time.monotonic() bound")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    channel = os.fdopen(os.dup(1), "w", buffering=1)
    sys.stdout = sys.stderr  # whatever the program prints stays off the channel

    def send(event: dict) -> None:
        channel.write(json.dumps(event) + "\n")

    def proceed() -> bool:
        return sys.stdin.readline().strip() == "next"

    root = Path(args.root)
    sys.path.insert(0, str(root / "src"))
    import recrisk.cli as cli
    if Path(cli.__file__).resolve().parent != (root / "src" / "recrisk").resolve():
        raise SystemExit(f"recrisk imported from {cli.__file__}, not from {root / 'src'}")
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](Path(args.workdir), args.seed, args.size)
    workload.setup()
    commands = workload.prepare(0)
    start = time.perf_counter()
    results = [_run(cli, argv) for argv in commands]
    dt = time.perf_counter() - start
    setup_s = time.monotonic() - args.t0
    send({"event": "cycle", "c": 0, "phase": "warmup", "dt": dt, "results": results,
          "setup_s": setup_s})
    if args.setup_only or not proceed():
        send({"event": "done", "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})
        return 0

    times: dict[str, list[float]] = {"untraced": [], "traced": []} if args.trace else {"timed": []}
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    def run_cycle(phase: str, c: int) -> bool:
        """Run cycle ``c``; False once ``run.py`` asks to stop."""
        workload.clear_outputs()
        commands = workload.prepare(c)
        if phase == "traced":
            tracer.cycle = c
            tracer.install()
        start = time.perf_counter()
        results = [_run(cli, argv) for argv in commands]
        dt = time.perf_counter() - start
        if phase == "traced":
            tracer.uninstall()
        times[phase].append(dt)
        send({"event": "cycle", "c": c, "phase": phase, "dt": dt, "results": results})
        return proceed()

    # A traced run runs each cycle twice on the same inputs, untraced and
    # traced, in alternating order, so that trace.overhead_ratio compares like
    # with like and drift of the machine's speed cancels out.
    orders = [("timed",)] if not args.trace else [("untraced", "traced"), ("traced", "untraced")]
    for c in itertools.count(1):
        if sum(map(sum, times.values())) >= args.seconds or time.monotonic() >= args.deadline:
            break
        if not all(run_cycle(phase, c) for phase in orders[c % len(orders)]):
            break
    done = {"event": "done",
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "threads": _threads()}
    if tracer is not None:
        if args.spans:
            tracer.write(args.spans)
        ratios = [t / u for t, u in zip(times["traced"], times["untraced"])]
        overhead = statistics.median(ratios) if ratios else math.nan
        done["per_layer"] = tracer.summary(len(times["traced"]), sum(times["traced"]), overhead)
    send(done)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
