"""Span tracer that times levicool's layers from outside the package.

`Tracer.install` replaces each traced function at every name a levicool
module looks it up by (``levicool.cli.evaluate``, ``levicool.sweep.evaluate``,
``levicool.steady_state.derive``, ...) with a wrapper that records a span:
name, start, end, parent span and job. Spans are kept in flat arrays in
memory and written out by `save` when the run ends. Self time is a span's
duration minus the durations of its direct children; the program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np


def _cells(tracer, span, args, result):
    tracer.count("sweep.run_sweep.cells", len(result.cells))


def _csv_rows(counter, attribute):
    def hook(tracer, span, args, result):
        tracer.count(counter, len(getattr(args[0], attribute)))
    return hook


def _feasible(tracer, span, args, result):
    tracer.count("sweep.optimize.feasible", sum(1 for e in result.trace if e["feasible"]))


def _steps(tracer, span, args, result):
    tracer.count("dynamics.evolve_occupation.steps", len(result.times) - 1)


#: (module, function or Class.method, hook run on a normal return)
LAYERS = (
    ("levicool.configfile", "load_config", None),
    ("levicool.configfile", "set_value", None),
    ("levicool.system", "derive", None),
    ("levicool.rates", "build_rate_bundle", None),
    ("levicool.steady_state", "steady_state", None),
    ("levicool.steady_state", "evaluate", None),
    ("levicool.report", "build_report", None),
    ("levicool.report", "render_text", None),
    ("levicool.report", "render_json", None),
    ("levicool.sweep", "run_sweep", _cells),
    ("levicool.sweep", "SweepResult.to_csv", _csv_rows("sweep.to_csv.rows", "cells")),
    ("levicool.sweep", "optimize", _feasible),
    ("levicool.dynamics", "evolve_occupation", _steps),
    ("levicool.dynamics", "SimulationTrace.to_csv", _csv_rows("dynamics.to_csv.rows", "times")),
    ("levicool.dynamics", "normal_modes", None),
    ("levicool.cli", "main", None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("q")
        self.job = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.job_id = 0
        self.active = False
        self.counts: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, span_name: str, fn, hook=None):
        tracer, name_id = self, len(self.names)
        self.names.append(span_name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = len(tracer.start)
            stack = tracer.stack
            tracer.name.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.job.append(tracer.job_id)
            tracer.end.append(0)
            stack.append(span)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end[span] = clock()
                stack.pop()
                tracer.count(span_name + ".errors")
                raise
            tracer.end[span] = clock()
            stack.pop()
            if hook is not None:
                hook(tracer, span, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "levicool" or name.startswith("levicool.")]
        for module_name, qualname, hook in LAYERS:
            module = sys.modules[module_name]
            short = module_name.split(".", 1)[1]
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, self.wrap(f"{short}.{attr}", original, hook))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(f"{short}.{attr}", original, hook)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {key: np.frombuffer(getattr(self, key), dtype=np.int64 if key != "name" else np.uint16)
                for key in ("name", "parent", "job", "start", "end")}

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self ns, and evaluate calls made directly under it."""
        a = self.arrays()
        duration = (a["end"] - a["start"]).astype(np.float64)
        nested = a["parent"] >= 0
        child_time = np.bincount(a["parent"][nested], weights=duration[nested],
                                 minlength=len(duration))
        self_ns = duration - child_time
        evaluate = self.names.index("steady_state.evaluate")
        evaluate_parents = a["parent"][(a["name"] == evaluate) & nested]
        out = {}
        for k, span_name in enumerate(self.names):
            mine = a["name"] == k
            out[span_name] = {
                "calls": int(mine.sum()),
                "self_ns": float(self_ns[mine].sum()),
                "evaluates": int(mine[evaluate_parents].sum()),
            }
        return out

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())


def layer_metrics(tracer: Tracer, jobs: int, speed: float) -> dict[str, float]:
    """Per-layer figures of one traced pass, named `<module>.<function>.<stat>`.

    `calls` and `errors` are per job; `self_us` is mean self time per call.
    Times are multiplied by `speed`, the machine's speed relative to nominal.
    """
    spans = tracer.summary()
    counts = tracer.counts

    def calls(name):
        return spans[name]["calls"]

    def per(name, total_of):
        # self time of `name` in microseconds per unit of `total_of`
        return spans[name]["self_ns"] * speed / 1e3 / total_of if total_of else 0.0

    metrics = {}
    for name in ("system.derive", "rates.build_rate_bundle", "steady_state.steady_state",
                 "configfile.load_config", "configfile.set_value"):
        metrics[f"{name}.calls"] = calls(name) / jobs
    for name in ("system.derive", "rates.build_rate_bundle", "steady_state.steady_state",
                 "steady_state.evaluate", "configfile.load_config", "configfile.set_value",
                 "report.build_report", "report.render_text", "report.render_json",
                 "cli.main"):
        metrics[f"{name}.self_us"] = per(name, calls(name))
    metrics["system.derive.errors"] = counts.get("system.derive.errors", 0) / jobs

    cells = counts.get("sweep.run_sweep.cells", 0)
    metrics["sweep.run_sweep.cells"] = cells / calls("sweep.run_sweep") if cells else 0.0
    metrics["sweep.run_sweep.self_us_per_cell"] = per("sweep.run_sweep", cells)
    metrics["sweep.to_csv.us_per_row"] = per("sweep.to_csv", counts.get("sweep.to_csv.rows", 0))

    probes = spans["sweep.optimize"]["evaluates"]
    searches = calls("sweep.optimize")
    metrics["sweep.optimize.evaluations"] = probes / searches if searches else 0.0
    metrics["sweep.optimize.self_us_per_eval"] = per("sweep.optimize", probes)
    metrics["sweep.optimize.feasible_ratio"] = (
        counts.get("sweep.optimize.feasible", 0) / probes if probes else 0.0)

    steps = counts.get("dynamics.evolve_occupation.steps", 0)
    runs = calls("dynamics.evolve_occupation")
    metrics["dynamics.evolve_occupation.steps"] = steps / runs if runs else 0.0
    metrics["dynamics.evolve_occupation.ns_per_step"] = (
        spans["dynamics.evolve_occupation"]["self_ns"] * speed / steps if steps else 0.0)
    metrics["dynamics.to_csv.us_per_row"] = per("dynamics.to_csv",
                                                counts.get("dynamics.to_csv.rows", 0))
    metrics["dynamics.normal_modes.calls"] = calls("dynamics.normal_modes") / jobs
    return metrics
