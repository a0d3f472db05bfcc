"""Spans around qusync's public functions, recorded from outside the program.

``Tracer.install`` replaces each named function with a wrapper wherever a
loaded ``qusync`` module binds it, so calls made through ``from .x import f``
are seen too.  Spans stay in memory (name, start, end, parent, all under one
run id) until ``dump`` writes them out; ``summarize`` derives the per-layer
metrics from a written span list.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# Wrapped functions, as "module.function".  The four commands share the span
# name "experiments.cmd", so one metric covers every workload.
TARGETS = [
    "config.load_config",
    "operators.check_density_matrix",
    "operators.save_matrix_csv",
    "lindblad.build_liouvillian",
    "lindblad.evolve",
    "lindblad.steady_state",
    "lindblad.long_time_state",
    "lindblad.save_evolution_csv",
    "lindblad.save_bloch_csv",
    "phaselock.sync_metrics",
    "phaselock.save_metrics_csv",
    "qinfo.discord_min",
    "qinfo.mutual_information",
    "qinfo.classical_mutual_information",
    "qinfo.degree_of_quantumness",
    "qinfo.random_density_matrix",
    "qinfo.save_discord_csv",
    "svgplot.line_plot",
    "svgplot.heatmap",
    "experiments.cmd_evolve",
    "experiments.cmd_sync_sweep",
    "experiments.cmd_info_sweep",
    "experiments.cmd_discord_bench",
]


def span_name(target: str) -> str:
    return "experiments.cmd" if target.startswith("experiments.cmd_") else target


# Writers whose first argument is the file they write: their spans record
# its size in bytes.
WRITERS = {"lindblad.save_evolution_csv", "lindblad.save_bloch_csv", "svgplot.line_plot"}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": open_[-1] if open_ else None}
            open_.append(len(spans))
            spans.append(span)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = perf_counter()
                open_.pop()
            if name in WRITERS:
                span["bytes"] = os.path.getsize(args[0])
            return result

        return traced

    def count_optimizer(self, fn):
        """Wrap the optimizer a traced function calls; its result's ``nfev``
        is added to the innermost open span."""
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if open_:
                span = spans[open_[-1]]
                span["nfev"] = span.get("nfev", 0) + int(result.nfev)
            return result

        return counted

    def install(self, package: str = "qusync") -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        replacements = []
        for target in TARGETS:
            mod, attr = target.split(".")
            orig = getattr(sys.modules[f"{package}.{mod}"], attr)
            replacements.append((orig, self.wrap(span_name(target), orig)))
        qinfo = sys.modules[f"{package}.qinfo"]
        replacements.append((qinfo.minimize, self.count_optimizer(qinfo.minimize)))
        for orig, wrapper in replacements:
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced command call.

    ``busy_s`` sums a function's spans that have no ancestor of the same
    name; ``self_s`` subtracts the time covered by direct child spans.
    """
    duration = [s["end"] - s["start"] for s in spans]
    child_time = [0.0] * len(spans)
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span["name"]].append(i)
        if span["parent"] is not None:
            child_time[span["parent"]] += duration[i]

    def nested_in_same(i: int) -> bool:
        p = spans[i]["parent"]
        while p is not None and spans[p]["name"] != spans[i]["name"]:
            p = spans[p]["parent"]
        return p is not None

    def total(names, key: str):
        return sum(spans[i].get(key, 0) for n in names for i in by_name[n])

    out: dict[str, float] = {}
    for name in sorted({span_name(t) for t in TARGETS}):
        idx = by_name[name]
        ms = np.array([duration[i] for i in idx]) * 1e3
        out[f"{name}.calls"] = len(idx)
        out[f"{name}.busy_s"] = sum(duration[i] for i in idx if not nested_in_same(i))
        out[f"{name}.self_s"] = sum(duration[i] - child_time[i] for i in idx)
        out[f"{name}.p50_ms"] = float(np.percentile(ms, 50)) if idx else 0.0
        out[f"{name}.p99_ms"] = float(np.percentile(ms, 99)) if idx else 0.0
    out["lindblad.steady_state.degenerate"] = sum(
        spans[i].get("error") == "DegenerateSteadyStateError"
        for i in by_name["lindblad.steady_state"])
    n_discord = len(by_name["qinfo.discord_min"])
    out["qinfo.discord_min.objective_evals"] = (
        total(["qinfo.discord_min"], "nfev") / n_discord if n_discord else 0.0)
    out["lindblad.csv.bytes"] = total(
        ["lindblad.save_evolution_csv", "lindblad.save_bloch_csv"], "bytes")
    out["svgplot.line_plot.bytes"] = total(["svgplot.line_plot"], "bytes")
    return out
