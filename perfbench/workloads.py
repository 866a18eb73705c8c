"""The benchmark's workloads: inputs built from a seed, the timed calls into
``vbsa``'s public API, and the outputs those calls report.

Each workload has a ``setup`` (function specs, analytic indices, configs; timed
as ``setup_s``) and a ``run`` (timed as ``wall_s``, from the first library call
to the last output string built).  ``run`` returns an :class:`Outcome` that the
checks in :mod:`checks` compare against the analytic indices and, for the
default seed, against the stored reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from vbsa import adaptive, bench, designs, estimators, qmc, testfns
from vbsa.bench import EstimatorConfig, ExperimentConfig

SWEEP_K = 6


@dataclass
class Group:
    """The cells of one (function, estimator, n, p) sweep point or one design.

    ``t_hats`` holds one T-hat vector per repetition that produced an estimate;
    ``errors`` the messages of repetitions returned as ``CellError``.
    """

    truth: np.ndarray
    t_hats: list[np.ndarray] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    mae: float | None = None          # the aggregate MAE the library reported


@dataclass
class Outcome:
    groups: dict[str, Group]
    reported_runs: int                # model runs the outputs account for
    output_chars: int                 # size of the CSV/SVG strings built
    fixed: dict[str, list[float]] = field(default_factory=dict)  # seed-independent outputs


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], object]
    run: Callable[[object], Outcome]
    # How closely the run's time follows the calibration loop's when the
    # host's speed drifts: the slope of log run time on log pass time.
    speed_exponent: float


def _group_key(family: str, estimator: str, n: int, p: int) -> str:
    return f"{family}/{estimator}/{n}/{p}"


def _collect_records(records, errors, family: str, truth: np.ndarray, groups: dict[str, Group]) -> int:
    """File sweep records into groups; return the N_T the per-rep records report."""
    runs = 0
    for r in records:
        g = groups.setdefault(_group_key(family, r.estimator, r.n, r.p), Group(truth))
        if r.rep is None:
            g.mae = r.mae
        else:
            g.t_hats.append(np.asarray(r.t_hat, dtype=float))
            runs += r.n_t
    for e in errors:
        g = groups.setdefault(_group_key(family, e.estimator, e.n, e.p), Group(truth))
        g.errors.append(e.message)
    return runs


# ---------------------------------------------------------------------------
# convergence sweeps
# ---------------------------------------------------------------------------


def _sweep(families: tuple[str, ...], roster: tuple[EstimatorConfig, ...], p_min: int, p_max: int, reps: int):
    def setup(seed: int):
        configs = []
        for family in families:
            fn = testfns.function_spec(family, SWEEP_K)
            cfg = ExperimentConfig(
                function=fn, estimators=roster, p_min=p_min, p_max=p_max, repetitions=reps, seed=seed
            )
            configs.append((cfg, testfns.analytic_indices(fn).total))
        return configs

    def run(configs) -> Outcome:
        groups: dict[str, Group] = {}
        runs = chars = 0
        for cfg, truth in configs:
            records, errors = bench.convergence_experiment(cfg, workers=1)
            runs += _collect_records(records, errors, cfg.function.family, truth, groups)
            chars += len(bench.records_csv(records))
            chars += len(bench.mae_plot_svg(records, title=cfg.function.family))
        return Outcome(groups, runs, chars)

    return setup, run


_PAIRWISE = (
    EstimatorConfig("saltenis"),
    EstimatorConfig("glen_isaacs"),
    EstimatorConfig("owen", n=3),
    EstimatorConfig("cyclic", n=1),
)

# The criterion-06 roster of the acceptance suite.
_MULTIMATRIX = (
    EstimatorConfig("saltenis"),
    EstimatorConfig("saltenis_symmetric"),
    EstimatorConfig("multimatrix", n=3),
    EstimatorConfig("multimatrix", n=4),
    EstimatorConfig("multimatrix", n=6),
    EstimatorConfig("lamboni", n=3),
    EstimatorConfig("lamboni", n=4),
    EstimatorConfig("lamboni", n=6),
)


# ---------------------------------------------------------------------------
# adaptive allocation
# ---------------------------------------------------------------------------

_ADAPTIVE_FAMILIES = ("A1", "A2", "A3")
_ADAPTIVE_P = range(9, 14)
_ADAPTIVE_REPS = 6


def _adaptive_setup(seed: int):
    fns = [testfns.function_spec(f, SWEEP_K) for f in _ADAPTIVE_FAMILIES]
    return [(fn, testfns.analytic_indices(fn).total, seed) for fn in fns]


def _adaptive_run(inputs) -> Outcome:
    groups: dict[str, Group] = {}
    runs = chars = 0
    for fn, truth, seed in inputs:
        records, ledger_lines = bench.adaptive_experiment(fn, _ADAPTIVE_P, _ADAPTIVE_REPS, seed)
        # The adaptive records carry the budget as N_T; what they actually
        # spent is in the ledger, so only the plain records count here.
        plain = [r for r in records if r.estimator == "saltenis"]
        adapted = [r for r in records if r.estimator != "saltenis"]
        runs += _collect_records(plain, [], fn.family, truth, groups)
        _collect_records(adapted, [], fn.family, truth, groups)
        runs += sum(int(line.split(",")[5]) for line in ledger_lines)   # runs_block
        ledger = "\n".join([adaptive.ledger_csv_header(), *ledger_lines]) + "\n"
        chars += len(ledger) + len(bench.records_csv(records))
        chars += len(bench.mae_plot_svg(records, title=fn.family))
    return Outcome(groups, runs, chars)


# ---------------------------------------------------------------------------
# one expensive model: large designs, budget table, discrepancy
# ---------------------------------------------------------------------------

_SCALE_K = 12
_SCALE_DESIGNS = (
    ("asymmetric", 2, 17),
    ("owen", 3, 16),
    ("lamboni", 4, 14),
    ("cyclic_single", 1, 17),
)
_DISCREPANCY_DIMS, _DISCREPANCY_P = 6, 12
_BUDGET_K, _BUDGET_NT = 6, 4000


def _scale_setup(seed: int):
    fn = testfns.function_spec("B1", _SCALE_K)
    specs = [designs.DesignSpec(kind=kind, n=n, N=2**p, k=_SCALE_K) for kind, n, p in _SCALE_DESIGNS]
    return fn, testfns.analytic_indices(fn).total, specs, seed


def _scale_run(inputs) -> Outcome:
    fn, truth, specs, seed = inputs
    groups: dict[str, Group] = {}
    runs = chars = 0
    for spec in specs:
        est = estimators.estimate_total_effects(spec, fn=fn, seed=seed, repetition=0)
        groups[_group_key(fn.family, spec.kind, spec.n, spec.N.bit_length() - 1)] = Group(
            truth, t_hats=[np.asarray(est.total, dtype=float)]
        )
        runs += designs.design_metrics(spec).total_points
        chars += len(estimators.estimate_csv(est))
    table = designs.budget_table(_BUDGET_K, _BUDGET_NT)
    chars += len(designs.budget_table_csv(table))
    disc = qmc.l2_star_discrepancy(qmc.sobol_block(_DISCREPANCY_DIMS, _DISCREPANCY_P))
    fixed = {
        "budget_table": [float(v) for r in table for v in (r.N, r.n, r.total_points, r.discrepancy)],
        "l2_star_discrepancy": [float(disc)],
    }
    return Outcome(groups, runs, chars, fixed)


# Why each workload is in the benchmark is recorded in BENCHMARK.json.  The
# speed exponents were chosen on the 2-vCPU Xeon guest from four sets of ten
# 30 s runs per workload, for the smallest run-to-run spread in the worst set:
# 1.0 for sweep_multimatrix (interpreter-bound label scan, follows the loop
# fully), 0.6 for sweep_pairwise and adaptive_budget, and 0.3 for
# design_scale (large numpy arrays).
WORKLOADS = {
    "sweep_pairwise": Workload(*_sweep(("A2", "B1", "C2"), _PAIRWISE, 4, 11, reps=20), speed_exponent=0.6),
    "sweep_multimatrix": Workload(*_sweep(("A2", "B1"), _MULTIMATRIX, 6, 10, reps=6), speed_exponent=1.0),
    "adaptive_budget": Workload(_adaptive_setup, _adaptive_run, speed_exponent=0.6),
    "design_scale": Workload(_scale_setup, _scale_run, speed_exponent=0.3),
}
