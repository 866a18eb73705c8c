"""Adaptive budget-allocation tests: ledger accounting, dropping rule, determinism."""

import numpy as np
import pytest

from vbsa.adaptive import adaptive_run, ledger_csv_header, ledger_csv_rows, std_elementary_effects
from vbsa.designs import DesignSpec
from vbsa.estimators import EstimationError, estimate_total_effects
from vbsa.testfns import evaluate, function_spec


class TestStdElementaryEffects:
    def test_equal_diffs_give_zero(self):
        assert std_elementary_effects([np.array([0.25, 0.25, 0.25])])[0] == 0.0

    def test_hand_value(self):
        assert std_elementary_effects([np.array([0.0, 2.0])])[0] == pytest.approx(1.0)

    def test_null_factor_is_exactly_zero(self):
        assert std_elementary_effects([np.zeros(8)])[0] == 0.0

    def test_short_vector_rejected(self):
        with pytest.raises(EstimationError, match="length >= 2"):
            std_elementary_effects([np.array([1.0])])

    def test_rows_match_per_vector_std(self):
        diffs = np.random.default_rng(3).standard_normal((6, 37))
        assert np.array_equal(std_elementary_effects(diffs), [np.std(d) for d in diffs])


class TestAdaptiveRun:
    def test_budget_never_exceeded(self):
        for family in ("A1", "A2", "B3"):
            fn = function_spec(family, 6)
            for p in (6, 8, 10):
                _, ledger = adaptive_run(fn, p, seed=2, repetition=1)
                assert ledger.runs_spent <= ledger.budget == 7 * 2**p

    def test_active_set_never_grows(self):
        _, ledger = adaptive_run(function_spec("A2", 6), 10, seed=0)
        actives = [set(b.active_factors) for b in ledger.blocks]
        for before, after in zip(actives, actives[1:]):
            assert after <= before

    def test_ledger_records_effect_spreads(self):
        _, ledger = adaptive_run(function_spec("A2", 6), 9, seed=0)
        for block in ledger.blocks:
            assert len(block.std_effects) == 6
            assert all(s >= 0.0 for s in block.std_effects)
        # dropped factors keep their last spread; active ones keep updating
        warm = np.asarray(ledger.blocks[0].std_effects)
        assert warm.max() > 0.0

    def test_deterministic(self):
        fn = function_spec("A3", 6)
        est1, led1 = adaptive_run(fn, 9, seed=5, repetition=2)
        est2, led2 = adaptive_run(fn, 9, seed=5, repetition=2)
        assert np.array_equal(est1.total, est2.total)
        assert led1 == led2

    def test_rule_disabled_equals_plain_estimator(self):
        fn = function_spec("A2", 6)
        p, seed, rep = 9, 3, 4
        est, ledger = adaptive_run(fn, p, seed=seed, repetition=rep, rule_enabled=False)
        spec = DesignSpec(kind="asymmetric", n=2, N=2**p, k=6)
        plain = estimate_total_effects(spec, fn=fn, seed=seed, repetition=rep)
        assert est.total == pytest.approx(plain.total, abs=1e-12)
        assert ledger.runs_spent == ledger.budget
        assert all(len(b.active_factors) == 6 for b in ledger.blocks)

    def test_exchangeable_factors_degenerate_to_full_cost(self):
        # with all factor importances equal the sqrt(2) rule should (almost)
        # never fire, leaving the plain estimator at full budget
        fn = function_spec("B3", 6)
        full = 0
        for rep in range(10):
            _, ledger = adaptive_run(fn, 9, seed=7, repetition=rep)
            full += ledger.runs_spent == ledger.budget
        assert full >= 8

    def test_dominant_factor_with_exact_nulls_saves_runs(self):
        fn = function_spec("A2", 6)  # supplies k; the model below overrides values
        est, ledger = adaptive_run(fn, 9, seed=1, model=lambda pts: pts[:, 0] ** 2)
        assert ledger.runs_spent < ledger.budget
        assert ledger.savings > 0
        assert est.total[1:] == pytest.approx(np.zeros(5), abs=1e-15)
        # null factors stop accumulating effects once dropped
        assert est.effects_used[0] > est.effects_used[-1]

    def test_top_factor_can_exceed_the_uniform_block(self):
        fn = function_spec("A2", 6)
        est, ledger = adaptive_run(fn, 9, seed=1, repetition=0)
        assert est.effects_used.max() == 2**10  # one doubling past 2^p
        assert ledger.runs_spent <= ledger.budget

    def test_hook_that_writes_into_its_input_is_refused(self):
        # the hook receives read-only views of the plan it is reading, so scribbling on them raises
        fn = function_spec("A2", 6)

        def scribbling(pts):
            y = evaluate(fn, pts)
            pts[...] = 0.5
            return y

        with pytest.raises(ValueError, match="read-only"):
            adaptive_run(fn, 9, seed=1, repetition=2, model=scribbling)

    @pytest.mark.parametrize(
        "model,match",
        [
            (lambda pts: np.where(pts[:, 0] > 0.5, np.nan, pts[:, 0]), "NaN or infinite"),
            (lambda pts: pts[:-1, 0], "shape"),
        ],
        ids=["nan", "short"],
    )
    def test_model_output_checked(self, model, match):
        with pytest.raises(EstimationError, match=match):
            adaptive_run(function_spec("A2", 6), 9, seed=1, model=model)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="k >= 2"):
            adaptive_run(function_spec("C2", 1), 6)
        with pytest.raises(ValueError, match="warm-up"):
            adaptive_run(function_spec("A2", 6), 4)  # needs p >= k - 1

    def test_ledger_csv_layout(self):
        _, ledger = adaptive_run(function_spec("A2", 6), 8, seed=0)
        rows = ledger_csv_rows(8, 0, ledger)
        assert len(rows) == len(ledger.blocks)
        header_fields = ledger_csv_header().split(",")
        assert header_fields == ["p", "rep", "stage", "rows", "active_factors",
                                 "runs_block", "runs_total", "budget"]
        assert all(len(r.split(",")) == len(header_fields) for r in rows)
