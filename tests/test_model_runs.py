"""Model-run accounting: the rows a model receives equal the runs reported.

For a real model each row is one expensive run, so the package must never
evaluate more rows than its ledger or N_T says.  Both checks count at the
model boundary: the ``adaptive_run`` ``model=`` hook, and ``testfns.evaluate``
under ``estimate_total_effects``, ``convergence_experiment`` and
``adaptive_experiment``.  The same boundary checks every tile's outputs, so a
faulty model stops the run at the tile that shows the fault.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vbsa import testfns
from vbsa.adaptive import adaptive_run, ledger_csv_header
from vbsa.bench import ESTIMATOR_DESIGNS, EstimatorConfig, ExperimentConfig, adaptive_experiment, convergence_experiment
from vbsa.designs import DESIGN_KINDS, DesignSpec, design_metrics
from vbsa.estimators import EstimationError, estimate_total_effects


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from([f for f in testfns.FAMILIES if f != "G"]),   # G has no default coefficients
    k=st.integers(2, 6),
    data=st.data(),
    seed=st.none() | st.integers(0, 2**32 - 1),
    repetition=st.integers(0, 50),
    rule_enabled=st.booleans(),
)
def test_adaptive_run_evaluates_the_runs_its_ledger_spends(family, k, data, seed, repetition, rule_enabled):
    fn = testfns.function_spec(family, k)
    p = data.draw(st.integers(k - 1, k + 5), label="p")
    rows = []

    def model(points):
        rows.append(len(points))
        return testfns.evaluate(fn, points)

    _, ledger = adaptive_run(fn, p, seed=seed, repetition=repetition, rule_enabled=rule_enabled, model=model)
    assert sum(rows) == ledger.runs_spent


@pytest.fixture
def evaluated_rows(monkeypatch):
    """Row counts of every ``testfns.evaluate`` call made during the test."""
    rows = []
    evaluate = testfns.evaluate

    def counting(fn, points):
        rows.append(len(points))
        return evaluate(fn, points)

    monkeypatch.setattr(testfns, "evaluate", counting)
    return rows


@pytest.mark.parametrize(
    "kind,n", [(kind, n) for kind, rule in DESIGN_KINDS.items() for n in ([rule.n] if rule.n else [2, 4])]
)
def test_estimate_total_effects_evaluates_n_t_rows(kind, n, evaluated_rows):
    spec = DesignSpec(kind=kind, n=n, N=32, k=4)
    estimate_total_effects(spec, fn=testfns.function_spec("A2", 4), seed=1)
    assert sum(evaluated_rows) == design_metrics(spec).total_points


def test_convergence_experiment_evaluates_the_runs_it_reports(evaluated_rows):
    roster = tuple(EstimatorConfig(name, n=fixed or 3) for name, (_, fixed) in ESTIMATOR_DESIGNS.items())
    cfg = ExperimentConfig(testfns.function_spec("A2", 4), roster, p_min=5, p_max=7, repetitions=3, seed=1)
    records, errors = convergence_experiment(cfg, workers=2)
    assert errors == []
    assert sum(evaluated_rows) == sum(r.n_t for r in records if r.rep is not None)
    assert all(rows * cfg.function.k <= 2**17 for rows in evaluated_rows)


def test_adaptive_experiment_evaluates_the_runs_it_reports(evaluated_rows):
    records, ledger_lines = adaptive_experiment(testfns.function_spec("A2", 6), range(6, 8), 2, seed=1)
    plain = sum(r.n_t for r in records if r.estimator == "saltenis" and r.rep is not None)
    runs_block = ledger_csv_header().split(",").index("runs_block")
    adaptive = sum(int(line.split(",")[runs_block]) for line in ledger_lines)
    assert sum(evaluated_rows) == plain + adaptive


@pytest.mark.parametrize("p_values,p", [(range(3, 9), 3), (range(20, 25), 24)], ids=["no-warm-up", "pool-too-large"])
def test_adaptive_experiment_checks_its_p_range_before_any_model_run(monkeypatch, p_values, p):
    # a model run fails the test at once, before the cells ahead of the bad p spend their runs
    monkeypatch.setattr(testfns, "evaluate", lambda fn, points: pytest.fail("model run before the p range check"))
    with pytest.raises(ValueError, match=f"^budget exponent p = {p} "):
        adaptive_experiment(testfns.function_spec("A2", 6), p_values, 1, 0)


def test_small_plan_is_one_model_call(evaluated_rows):
    spec = DesignSpec(kind="lamboni", n=4, N=2**6, k=12)   # 148 segments, 9472 rows, 113 664 values
    estimate_total_effects(spec, fn=testfns.function_spec("B1", 12), seed=1)
    assert evaluated_rows == [design_metrics(spec).total_points]
    assert evaluated_rows[0] * spec.k <= 2**17


@pytest.mark.parametrize("N,k", [(2**14, 12), (2**17, 2), (2**18, 1)])
def test_large_plan_calls_bounded_tiles(N, k, evaluated_rows):
    spec = DesignSpec(kind="asymmetric", n=2, N=N, k=k)
    estimate_total_effects(spec, fn=testfns.function_spec("B1", k), seed=1)
    assert len(evaluated_rows) > 1
    assert all(rows * k <= 2**17 for rows in evaluated_rows)
    assert sum(evaluated_rows) == design_metrics(spec).total_points


FAULTS = {
    "nan": (lambda y: np.where(np.arange(len(y)) == 1, np.nan, y), "holds NaN or infinite values"),
    "inf": (lambda y: np.where(np.arange(len(y)) == 0, -np.inf, y), "holds NaN or infinite values"),
    "short": (lambda y: y[:-1], "has shape"),
}


@pytest.fixture(params=FAULTS, ids=list(FAULTS))
def faulty_third_call(request, monkeypatch):
    """Row counts of every ``testfns.evaluate`` call; the third call's outputs carry the fault of the param."""
    rows = []
    evaluate = testfns.evaluate
    fault, message = FAULTS[request.param]

    def faulty(fn, points):
        rows.append(len(points))
        y = evaluate(fn, points)
        return fault(y) if len(rows) == 3 else y

    monkeypatch.setattr(testfns, "evaluate", faulty)
    return rows, f"^vector 'model output' {message}"


def test_faulty_model_stops_an_estimate_at_that_tile(faulty_third_call):
    rows, message = faulty_third_call
    spec = DesignSpec(kind="asymmetric", n=2, N=2**14, k=12)   # 13 segments of two row ranges: 26 tiles
    with pytest.raises(EstimationError, match=message):
        estimate_total_effects(spec, fn=testfns.function_spec("B1", 12), seed=1)
    assert len(rows) == 3


def test_faulty_model_stops_a_sweep_with_no_cell_error(faulty_third_call):
    # a model fault is a bug, not a degenerate cell: it raises before any later tile or repetition runs
    rows, message = faulty_third_call
    roster = (EstimatorConfig("saltenis"), EstimatorConfig("glen_isaacs"))
    cfg = ExperimentConfig(testfns.function_spec("A2", 4), roster, p_min=5, p_max=7, repetitions=3, seed=1)
    with pytest.raises(EstimationError, match=message):
        convergence_experiment(cfg)
    assert len(rows) == 3
