"""Span tracing of ``recrisk`` from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
``recrisk`` module that holds a reference to it (a function imported by name,
such as ``adjustments.var_empirical`` or ``frontier.solve_lp``, is bound in
the importing module too).  A span records its name, start, end, parent span
and cycle id; spans stay in memory until ``write``.  Only the traced
invocation of the benchmark imports this module, so the timed runs carry no
tracing code.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import defaultdict
from time import perf_counter

# The public functions traced per layer (module under src/recrisk/).
# recovery, stress, calibration and errors are left out on purpose.
LAYERS = {
    "cli": ("main",),
    "samples": ("read_scenario_csv", "write_scenario_csv"),
    "measures": ("var_empirical", "avar_empirical", "revar_pieces", "reavar_pieces", "l_revar"),
    "balancesheet": ("sample_scenarios",),
    "adjustments": ("case_study_sweep", "revar_two_piece_grid", "regulatory_capital",
                    "write_sweep_csv"),
    "allocation": ("read_divisional_csv", "euler_allocation"),
    "frontier": ("read_problem_csv", "build_lp", "solve_portfolio", "efficient_frontier"),
    "simplex": ("solve_lp",),
}

# Per-layer metrics: name -> unit.  Counts are per traced cycle; self shares
# are self time over traced cycle time.
METRICS = {
    "measures.var_empirical.calls": "count",
    "measures.var_empirical.self_share": "ratio",
    "measures.avar_empirical.calls": "count",
    "measures.avar_empirical.self_share": "ratio",
    "measures.revar_pieces.self_share": "ratio",
    "measures.reavar_pieces.self_share": "ratio",
    "measures.l_revar.calls": "count",
    "measures.l_revar.self_share": "ratio",
    "measures.l_revar.nodes": "count",
    "measures.tail.scenarios": "count",
    "measures.tail.useful_ratio": "ratio",
    "adjustments.case_study_sweep.self_share": "ratio",
    "adjustments.revar_two_piece_grid.calls": "count",
    "adjustments.revar_two_piece_grid.self_share": "ratio",
    "adjustments.revar_two_piece_grid.sorts": "count",
    "adjustments.regulatory_capital.calls": "count",
    "adjustments.write_sweep_csv.self_share": "ratio",
    "adjustments.write_sweep_csv.bytes": "B",
    "balancesheet.sample_scenarios.calls": "count",
    "balancesheet.sample_scenarios.self_share": "ratio",
    "balancesheet.sample_scenarios.scenarios": "count",
    "samples.read_scenario_csv.calls": "count",
    "samples.read_scenario_csv.self_share": "ratio",
    "samples.read_scenario_csv.bytes": "B",
    "samples.write_scenario_csv.calls": "count",
    "samples.write_scenario_csv.self_share": "ratio",
    "samples.write_scenario_csv.bytes": "B",
    "allocation.read_divisional_csv.self_share": "ratio",
    "allocation.read_divisional_csv.bytes": "B",
    "allocation.euler_allocation.calls": "count",
    "allocation.euler_allocation.self_share": "ratio",
    "frontier.read_problem_csv.self_share": "ratio",
    "frontier.build_lp.calls": "count",
    "frontier.build_lp.self_share": "ratio",
    "frontier.build_lp.dense_bytes": "B_computed",
    "frontier.solve_portfolio.self_share": "ratio",
    "frontier.efficient_frontier.self_share": "ratio",
    "simplex.solve_lp.calls": "count",
    "simplex.solve_lp.self_share": "ratio",
    "simplex.solve_lp.iterations": "count",
    "cli.main.calls": "count",
    "cli.main.self_share": "ratio",
    **{f"layer.{layer}.self_share": "ratio" for layer in LAYERS},
    "trace.unattributed_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _tell(handle):
    try:
        return handle.tell()
    except (AttributeError, OSError, ValueError):
        return None


def _size(path) -> int:
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index, cycle]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.cycle = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "recrisk" or name.startswith("recrisk."))]
        for layer, names in LAYERS.items():
            home = sys.modules[f"recrisk.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = [name, start, end, parent, self.cycle]
            if after:
                after(counts, args, kwargs, result, state)
            return result

        return wrapper

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, cycle in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "cycle": cycle}) + "\n")

    def summary(self, cycles: int, traced_wall: float, overhead_ratio: float) -> dict:
        """Per-layer metrics over ``cycles`` traced cycles of ``traced_wall`` seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        nodes = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            busy[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
            if name in ("measures.var_empirical", "measures.avar_empirical") and parent >= 0 \
                    and self.spans[parent][0] == "measures.l_revar":
                nodes += 1
        per_cycle = 1.0 / max(cycles, 1)
        wall = traced_wall if traced_wall > 0 else math.inf
        values = {}
        for metric in METRICS:
            head, _, kind = metric.rpartition(".")
            if kind == "calls":
                values[metric] = calls[head] * per_cycle
            elif kind == "self_share" and not head.startswith("layer."):
                values[metric] = own[head] / wall
        for layer, names in LAYERS.items():
            values[f"layer.{layer}.self_share"] = sum(own[f"{layer}.{n}"] for n in names) / wall
        n_lp = calls["frontier.build_lp"]
        values.update({
            "measures.l_revar.nodes": nodes * per_cycle,
            "measures.tail.scenarios": self.counts["tail.scenarios"] * per_cycle,
            "measures.tail.useful_ratio": (self.counts["tail.useful"] / self.counts["tail.scenarios"]
                                           if self.counts["tail.scenarios"] else 0.0),
            "adjustments.revar_two_piece_grid.sorts": self.counts["grid.sorts"] * per_cycle,
            "adjustments.write_sweep_csv.bytes": self.counts["sweep.bytes"] * per_cycle,
            "balancesheet.sample_scenarios.scenarios": self.counts["sampled"] * per_cycle,
            "samples.read_scenario_csv.bytes": self.counts["read.bytes"] * per_cycle,
            "samples.write_scenario_csv.bytes": self.counts["write.bytes"] * per_cycle,
            "allocation.read_divisional_csv.bytes": self.counts["div.bytes"] * per_cycle,
            "frontier.build_lp.dense_bytes": self.counts["lp.bytes"] / n_lp if n_lp else 0.0,
            "simplex.solve_lp.iterations": self.counts["lp.iterations"] * per_cycle,
            "trace.unattributed_share": (own["cli.main"] / busy["cli.main"]
                                         if busy["cli.main"] else 0.0),
            "trace.overhead_ratio": overhead_ratio,
        })
        return {metric: {"value": values[metric], "unit": unit}
                for metric, unit in METRICS.items()}


# -- counters taken from call arguments and results ------------------------------

def _tail_counts(counts, args, kwargs, result, state):
    m = int(getattr(_arg(args, kwargs, 0, "values"), "size", 1))
    counts["tail.scenarios"] += m
    counts["tail.useful"] += math.ceil(float(_arg(args, kwargs, 2, "alpha")) * m)


def _handle_position(args, kwargs):
    return _tell(_arg(args, kwargs, 1, "path_or_buffer"))


def _written(key):
    def after(counts, args, kwargs, result, before):
        target = _arg(args, kwargs, 1, "path_or_buffer")
        end = _tell(target)
        if before is not None and end is not None:
            counts[key] += end - before
        else:
            counts[key] += _size(target)
    return after


def _read(key):
    def after(counts, args, kwargs, result, state):
        counts[key] += _size(_arg(args, kwargs, 0, "path_or_buffer"))
    return after


def _counter(key, fn):
    def after(counts, args, kwargs, result, state):
        counts[key] += fn(args, kwargs, result)
    return after


_BEFORE = {
    "samples.write_scenario_csv": _handle_position,
    "adjustments.write_sweep_csv": _handle_position,
}
_AFTER = {
    "measures.var_empirical": _tail_counts,
    "measures.avar_empirical": _tail_counts,
    "adjustments.revar_two_piece_grid": _counter(
        "grid.sorts", lambda a, k, r: _arg(a, k, 1, "config").n_r),
    "adjustments.write_sweep_csv": _written("sweep.bytes"),
    "balancesheet.sample_scenarios": _counter("sampled", lambda a, k, r: _arg(a, k, 1, "m")),
    "samples.read_scenario_csv": _read("read.bytes"),
    "samples.write_scenario_csv": _written("write.bytes"),
    "allocation.read_divisional_csv": _read("div.bytes"),
    "frontier.build_lp": _counter("lp.bytes", lambda a, k, r: r.a_ub.nbytes + r.a_eq.nbytes),
    "simplex.solve_lp": _counter("lp.iterations", lambda a, k, r: r.iterations),
}
