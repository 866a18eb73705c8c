"""Span tracing of ``vbsa``'s layers from outside the package.

:func:`install` wraps the public functions listed in :data:`TRACED` and
rebinds every name under which a ``vbsa`` module holds the original (for
example ``designs`` imports ``sobol_block`` by name), so each caller reaches
the wrapper.  Each call records a span (name, start, end, parent) in memory
and adds work counts at the same boundary.  A span's self time is its
duration minus the time its child spans cover; calls are nested on one
thread, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable


def _rows(result) -> int:
    return int(result.shape[0])


# (layer module, attribute, {count name: count of a call from (args, result)})
TRACED: tuple[tuple[str, str, dict[str, Callable]], ...] = (
    ("qmc", "sobol_block", {"points": lambda a, r: r.n_rows}),
    ("qmc", "l2_star_discrepancy", {"pairs": lambda a, r: _rows(getattr(a[0], "values", a[0])) ** 2}),
    ("qmc", "draw_permutation", {}),
    ("qmc", "permute_columns", {}),
    ("designs", "assemble_plan", {"rows": lambda a, r: _rows(r.points), "bytes": lambda a, r: r.points.nbytes}),
    ("designs", "design_metrics", {}),
    ("designs", "budget_table", {}),
    ("designs", "budget_table_csv", {}),
    ("testfns", "evaluate", {"rows": lambda a, r: _rows(r)}),
    ("estimators", "saltenis_T", {}),
    ("estimators", "glen_isaacs_d3_T", {}),
    ("estimators", "owen_T", {}),
    ("estimators", "multimatrix_T", {}),
    ("estimators", "lamboni_T", {}),
    ("estimators", "cyclic_single_matrix_T", {}),
    ("estimators", "sample_plan", {}),
    ("estimators", "estimate_total_effects", {}),
    ("estimators", "estimate_csv", {}),
    (
        "adaptive",
        "adaptive_run",
        {"runs_spent": lambda a, r: r[1].runs_spent, "budget": lambda a, r: r[1].budget},
    ),
    ("bench", "matched_block_size", {}),
    ("bench", "convergence_experiment", {}),
    ("bench", "adaptive_experiment", {}),
    ("bench", "records_csv", {}),
    ("bench", "mae_plot_svg", {}),
)
LAYERS = ("qmc", "designs", "testfns", "estimators", "adaptive", "bench")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []   # name, start, end, parent index
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, counters: dict[str, Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = (name, start, end, parent)
            self.counts[f"{name}.calls"] += 1
            for key, count in counters.items():
                self.counts[f"{name}.{key}"] += count(args, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            out[name] += end - start - inner
        return out


def install(tracer: Tracer) -> None:
    """Route every ``vbsa`` name bound to a traced function through ``tracer``."""
    import vbsa

    modules = [m for name, m in sys.modules.items() if name == "vbsa" or name.startswith("vbsa.")]
    for layer, attr, counters in TRACED:
        original = getattr(getattr(vbsa, layer), attr)
        wrapped = tracer.wrap(f"{layer}.{attr}", original, counters)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapped)
    plan_cls = vbsa.designs.EvaluationPlan
    plan_cls.split_outputs = tracer.wrap("designs.split_outputs", plan_cls.split_outputs, {})


def layer_metrics(tracer: Tracer, wall_s: float, reported_runs: int) -> dict[str, float]:
    """The per-layer metrics of one traced sample."""
    self_s = tracer.self_times()
    traced = [(f"{layer}.{attr}", counters) for layer, attr, counters in TRACED]
    out: dict[str, float] = {}
    for name, counters in traced + [("designs.split_outputs", {})]:
        out[f"{name}.s"] = self_s.get(name, 0.0)
        for key in ("calls", *counters):
            out[f"{name}.{key}"] = tracer.counts.get(f"{name}.{key}", 0.0)
    for layer in LAYERS:
        out[f"{layer}.s"] = sum((v for k, v in self_s.items() if k.startswith(layer + ".")), 0.0)
    budget = tracer.counts.get("adaptive.adaptive_run.budget", 0.0)
    out["adaptive.runs_spent_over_budget"] = (
        tracer.counts.get("adaptive.adaptive_run.runs_spent", 0.0) / budget if budget else 0.0
    )
    model_s = self_s.get("testfns.evaluate", 0.0)
    out["harness_over_model"] = (wall_s - model_s) / model_s
    out["model_runs_over_nt"] = tracer.counts.get("testfns.evaluate.rows", 0.0) / reported_runs
    return out
