"""Adaptive budget-allocation tests: ledger accounting, dropping rule, determinism."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from vbsa import qmc
from vbsa.adaptive import BlockRecord, adaptive_run, ledger_csv_header, ledger_csv_rows, std_elementary_effects
from vbsa.designs import DesignSpec
from vbsa.estimators import EstimationError, estimate_total_effects, sample_plan
from vbsa.testfns import evaluate, function_spec


def _whole_plan_reference(fn, p, seed, repetition, rule_enabled, model=None):
    """The allocation evaluated segment by segment on the whole asymmetric plan at 2**(p+1) rows.

    Returns (total, numerator, variance, effects_used, blocks), computed with np.std and np.mean.
    """
    k, n_max = fn.k, 2 ** (p + 1)
    segments = sample_plan(DesignSpec("asymmetric", 2, n_max, k), seed, repetition).points.reshape(k + 1, n_max, k)
    evaluator = model or (lambda points: evaluate(fn, points))
    budget = (k + 1) * 2**p
    f_a, diffs = np.empty(n_max), np.empty((k, n_max))
    reached, stds = np.zeros(k, dtype=np.int64), np.empty(k)
    active, n_rows, spent, blocks = tuple(range(1, k + 1)), 0, 0, []
    for stage in range(k):
        if rule_enabled and 1 <= stage <= k - 2:
            order = sorted(range(1, k + 1), key=lambda j: (-stds[j - 1], j))
            if stds[order[k - stage - 2] - 1] / math.sqrt(2.0) > stds[order[k - stage - 1] - 1]:
                active = tuple(j for j in active if j not in order[k - stage - 1 :])
        new_rows = n_rows if stage else 2 ** (p + 2 - k)
        cost = (1 + len(active)) * new_rows
        if spent + cost > budget:
            break
        lo, n_rows = n_rows, n_rows + new_rows
        f_a[lo:n_rows] = evaluator(segments[0, lo:n_rows])
        for j in active:
            diffs[j - 1, lo:n_rows] = f_a[lo:n_rows] - evaluator(segments[j, lo:n_rows])
            reached[j - 1] = n_rows
            stds[j - 1] = np.std(diffs[j - 1, :n_rows])
        spent += cost
        blocks.append(BlockRecord(stage, n_rows, active, cost, spent, tuple(stds.tolist())))
    variance = float(np.var(f_a[:n_rows]))
    numerator = np.array([float(np.mean(np.square(d[:r]))) / 2.0 for d, r in zip(diffs, reached)])
    return numerator / variance, numerator, variance, reached, tuple(blocks)


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

    @pytest.mark.parametrize("rule_enabled", [True, False])
    def test_one_generated_block_per_call_however_many_doublings(self, monkeypatch, rule_enabled):
        # every block's rows are views of the one held pool: drawing a block alone was slower
        generated, direction_vectors = [], qmc._direction_vectors
        monkeypatch.setattr(qmc, "_direction_vectors", lambda: generated.append(1) or direction_vectors())
        _, ledger = adaptive_run(function_spec("A2", 6), 10, seed=97, repetition=3, rule_enabled=rule_enabled)
        assert len(ledger.blocks) >= 5 and len(generated) == 1

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

    @pytest.mark.parametrize("family", ["A1", "A3", "B1", "C2"])
    @pytest.mark.parametrize("k", [2, 3, 6])
    @pytest.mark.parametrize("seed", [1, 20231])
    def test_equals_the_whole_plan_reference_bit_for_bit(self, family, k, seed):
        fn = function_spec(family, k)
        for p in (k - 1, k + 2, 10):
            for rule in (True, False):
                est, ledger = adaptive_run(fn, p, seed=seed, repetition=2, rule_enabled=rule)
                total, numerator, variance, reached, blocks = _whole_plan_reference(fn, p, seed, 2, rule)
                assert est.total.tobytes() == total.tobytes(), (p, rule)
                assert est.numerator.tobytes() == numerator.tobytes() and est.variance == variance
                assert np.array_equal(est.effects_used, reached) and ledger.blocks == blocks

    def test_hook_equals_the_whole_plan_reference_and_sees_tiles(self):
        # the dominant-factor hook drops factors, so the blocks skip segments, leaving gaps in j
        fn, calls = function_spec("A2", 6), []

        def hook(points):
            calls.append(points.size)
            return points[:, 0] ** 2 + 0.25 * points[:, 2]

        est, ledger = adaptive_run(fn, 12, seed=7, repetition=1, model=hook)
        assert max(calls) <= 2**17 and sum(calls) == ledger.runs_spent * 6
        total, *_, blocks = _whole_plan_reference(fn, 12, 7, 1, True, hook)
        assert est.total.tobytes() == total.tobytes() and ledger.blocks == blocks
        assert any(len(b.active_factors) < 6 for b in blocks)

    def test_hook_calls_hold_at_most_one_tile(self):
        fn, sizes = function_spec("B1", 12), []
        _, ledger = adaptive_run(fn, 14, seed=1, model=lambda points: sizes.append(points.size) or evaluate(fn, points))
        assert max(sizes) <= 2**17 and sum(sizes) == ledger.runs_spent * 12
        # far fewer calls than one per segment per block
        assert len(sizes) < sum(1 + len(b.active_factors) for b in ledger.blocks)

    def test_peak_memory_below_half_the_whole_plan(self):
        k, p = 12, 14
        fn = function_spec("B1", k)
        tracemalloc.start()
        try:
            adaptive_run(fn, p, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (k + 1) * 2 ** (p + 1) * k * 8 / 2

    def test_preconditions(self):
        with pytest.raises(ValueError, match="k >= 2"):
            adaptive_run(function_spec("C2", 1), 6)
        with pytest.raises(ValueError, match="warm-up"):
            adaptive_run(function_spec("A2", 6), 4)  # needs p >= k - 1
        with pytest.raises(ValueError, match=re.escape("p = 24 needs a pool of 2**25 rows (need p <= 23)")):
            adaptive_run(function_spec("A2", 6), 24, model=lambda points: pytest.fail("model run before the p check"))

    def test_ledger_csv_layout(self):
        _, ledger = adaptive_run(function_spec("A2", 6), 8, seed=0)
        rows = ledger_csv_rows(8, 0, ledger)
        assert len(rows) == len(ledger.blocks)
        header_fields = ledger_csv_header().split(",")
        assert header_fields == ["p", "rep", "stage", "rows", "active_factors",
                                 "runs_block", "runs_total", "budget"]
        assert all(len(r.split(",")) == len(header_fields) for r in rows)
