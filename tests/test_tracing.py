"""The benchmark's span tracer still reaches every layer it names.

``perfbench/spans.py`` rebinds ``vbsa`` module names to timing wrappers, so a
refactor that renames a traced function, or that dispatches estimators through
function objects captured at import time, silently empties the benchmark's
per-layer report.  The check runs in a subprocess: the tracer's rebinding must
not leak into the other tests.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import vbsa
from spans import TRACED, Tracer, install, layer_metrics
from vbsa import adaptive, bench, designs, estimators, testfns

unresolved = [f"{layer}.{attr}" for layer, attr, _ in TRACED if not hasattr(getattr(vbsa, layer), attr)]
if not hasattr(designs.EvaluationPlan, "split_outputs"):
    unresolved.append("designs.EvaluationPlan.split_outputs")
tracer = Tracer()
install(tracer)

fn = testfns.function_spec("A2", 3)
roster = []
for name in bench.ESTIMATOR_NAMES:
    fixed_n = bench.ESTIMATOR_DESIGNS[name][1]
    roster.append(bench.EstimatorConfig(name, n=3 if fixed_n is None else fixed_n))
cfg = bench.ExperimentConfig(function=fn, estimators=tuple(roster), p_min=4, p_max=4, repetitions=2, seed=1)
records, errors = bench.convergence_experiment(cfg)
sweep_permutations = tracer.counts.get("qmc.permute_columns.calls", 0)
runs = sum(r.n_t for r in records if r.rep is not None)
spec = designs.DesignSpec(kind="owen", n=3, N=16, k=3)
estimators.estimate_total_effects(spec, fn=fn, seed=2)
runs += designs.design_metrics(spec).total_points
_, ledger = adaptive.adaptive_run(fn, 4, seed=3)
runs += ledger.runs_spent
before, first_span = dict(tracer.counts), len(tracer.spans)
records, ledger_lines = bench.adaptive_experiment(fn, range(3, 5), 2, seed=4)
runs += sum(r.n_t for r in records if r.estimator == "saltenis" and r.rep is not None)
runs_block = adaptive.ledger_csv_header().split(",").index("runs_block")
runs += sum(int(line.split(",")[runs_block]) for line in ledger_lines)
rerouted = {name: tracer.counts.get(name + ".calls", 0) - before.get(name + ".calls", 0)
            for name in ("adaptive.adaptive_run", "estimators.estimate_total_effects")}


def under_adaptive_run(index):
    while index >= 0:
        name, _, _, index = tracer.spans[index]
        if name == "adaptive.adaptive_run":
            return True
    return False


# model calls made by adaptive_experiment's adaptive series, found by walking each span's parents
rerouted["testfns.evaluate under adaptive.adaptive_run"] = sum(
    tracer.spans[i][0] == "testfns.evaluate" and under_adaptive_run(tracer.spans[i][3])
    for i in range(first_span, len(tracer.spans)))

metrics = layer_metrics(tracer, 1.0, runs)
calls = {f"{layer}.{attr}": metrics[f"{layer}.{attr}.calls"] for layer, attr, _ in TRACED}
print(json.dumps({
    "unresolved": unresolved,
    "errors": [e.message for e in errors],
    "calls": calls,
    "rerouted": rerouted,
    "sweep_permutations": sweep_permutations,
    "evaluated_rows": metrics["testfns.evaluate.rows"],
    "reported_runs": runs,
}))
"""


def test_traced_names_resolve_and_count_every_layer():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["unresolved"] == []
    assert out["errors"] == []
    estimator_calls = {name: n for name, n in out["calls"].items() if name.endswith("_T")}
    assert len(estimator_calls) == 6
    assert all(n > 0 for n in estimator_calls.values()), estimator_calls
    # adaptive_experiment's plain series runs estimate_total_effects, and its adaptive one reaches the model
    # inside adaptive_run, through the tile writer rather than a whole plan
    assert all(n > 0 for n in out["rerouted"].values()), out["rerouted"]
    assert out["evaluated_rows"] == out["reported_runs"]
    # the sweep gathers each group's columns of its pool's row prefixes itself, without qmc.permute_columns
    assert out["sweep_permutations"] == 0
