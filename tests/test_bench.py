"""Benchmark harness tests: MAE, record bookkeeping, cost matching, exports."""

import numpy as np
import pytest

from vbsa import adaptive, designs, estimators, qmc, testfns
from vbsa.bench import (
    ESTIMATOR_DESIGNS,
    ESTIMATOR_NAMES,
    CellError,
    ConvergenceRecord,
    EstimatorConfig,
    ExperimentConfig,
    _cell_groups,
    _rep_record,
    _with_aggregates,
    adaptive_experiment,
    convergence_experiment,
    design_scatter_svg,
    errors_csv,
    export,
    mae,
    mae_plot_svg,
    matched_block_size,
    records_csv,
)
from vbsa.designs import DesignSpec, budget_table, design_metrics
from vbsa.testfns import function_spec


class TestMae:
    def test_exact_estimates_give_zero(self):
        assert mae(np.array([[0.3, 0.7]]), np.array([0.3, 0.7])) == 0.0

    def test_single_repetition(self):
        assert mae(np.array([[0.5, 0.5]]), np.array([0.4, 0.6])) == pytest.approx(0.1)

    def test_two_repetitions_average(self):
        est = np.array([[0.5, 0.5], [0.1, 0.9]])
        ref = np.array([0.4, 0.6])
        # per-repetition deviations 0.1 and 0.3
        assert mae(est, ref) == pytest.approx(0.2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="columns"):
            mae(np.ones((2, 3)), np.ones(2))


class TestMatchedCost:
    def test_asymmetric_reference_is_exact(self):
        assert matched_block_size(EstimatorConfig("saltenis"), 6, 7 * 2**8) == 2**8

    def test_double_cost_designs_halve_n(self):
        for name, n in (("glen_isaacs", 2), ("owen", 3)):
            assert matched_block_size(EstimatorConfig(name, n=n), 6, 7 * 2**8) == 2**7

    def test_multimatrix_nearest_power_of_two(self):
        # n = 3, k = 6: cost 39 N; against 448 the best N is 8 (312 vs 624)
        assert matched_block_size(EstimatorConfig("multimatrix", n=3), 6, 448) == 8


class TestEstimatorTable:
    """The sweep's estimators come from the design table: each kind's own, then Lamboni's at n = 2."""

    def test_every_estimator_is_read_from_design_kinds(self):
        own = {rule.sweep_name: kind for kind, rule in designs.DESIGN_KINDS.items()}
        assert all(ESTIMATOR_DESIGNS[name] == (kind, designs.DESIGN_KINDS[kind].n) for name, kind in own.items())
        assert ESTIMATOR_DESIGNS["saltenis_symmetric"] == ("lamboni", 2)
        assert set(ESTIMATOR_NAMES) - set(own) == {"saltenis_symmetric"}
        function_of = {name: designs.DESIGN_KINDS[kind].estimator for name, kind in own.items()}
        function_of["saltenis_symmetric"] = "lamboni_T"
        for name in ESTIMATOR_NAMES:
            spec = EstimatorConfig(name).design(32, 3)
            assert isinstance(spec, DesignSpec)
            assert designs.DESIGN_KINDS[spec.kind].estimator == function_of[name]
        assert {name: EstimatorConfig(name).n for name in ESTIMATOR_NAMES} == {
            "saltenis": 2, "glen_isaacs": 2, "multimatrix": 2, "owen": 3, "lamboni": 2, "cyclic": 1,
            "saltenis_symmetric": 2,
        }


class TestConvergenceExperiment:
    def _cfg(self, **kw):
        defaults = dict(
            function=function_spec("C2", 2),
            estimators=(EstimatorConfig("saltenis"),),
            p_min=3,
            p_max=5,
            repetitions=4,
            seed=9,
        )
        defaults.update(kw)
        return ExperimentConfig(**defaults)

    @pytest.mark.parametrize("p_min", [-1, -5])
    def test_negative_p_min_rejected(self, p_min):
        # 2**p would be a float and every cell of that p a misfiled "N >= 2" cell error
        with pytest.raises(ValueError, match="p_min must be >= 0"):
            self._cfg(p_min=p_min)

    def test_p_max_beyond_the_generator_rejected_before_any_model_run(self, monkeypatch):
        monkeypatch.setattr(testfns, "evaluate", lambda fn, points: pytest.fail("model run before the p_max check"))
        with pytest.raises(ValueError, match="^p_max = 25 exceeds the supported maximum 24$"):
            self._cfg(p_min=25, p_max=25)

    def test_cyclic_only_roster_draws_k_columns(self, monkeypatch):
        # one matrix per cyclic design: a pool of k columns, so k = 40 fits the 64 generator dimensions
        widths, draw = [], qmc.draw_permutation
        monkeypatch.setattr(qmc, "draw_permutation", lambda n_cols, *a: widths.append(n_cols) or draw(n_cols, *a))
        cfg = self._cfg(function=function_spec("B1", 40), estimators=(EstimatorConfig("cyclic", n=1),), p_min=2,
                        p_max=3, repetitions=2)
        records, errors = convergence_experiment(cfg)
        assert not errors and len([r for r in records if r.rep is not None]) == 2 * 2
        assert widths == [40, 40]

    @pytest.mark.parametrize("name,n,message", [
        ("lamboni", 1, "^design kind 'lamboni' requires n >= 2$"),
        ("multimatrix", 0, "^design kind 'multimatrix' requires n >= 2$"),
        ("saltenis_symmetric", 3, "^estimator 'saltenis_symmetric' uses n = 2$"),   # its design kind takes any n
        ("owen", 2, "^estimator 'owen' uses n = 3$"),
    ])
    def test_estimator_n_rules(self, name, n, message):
        with pytest.raises(ValueError, match=message):
            EstimatorConfig(name, n=n)

    def test_repeated_estimator_rejected(self):
        with pytest.raises(ValueError, match="'multimatrix' with n = 3 is listed twice"):
            self._cfg(estimators=(EstimatorConfig("multimatrix", 3), EstimatorConfig("multimatrix", 3)))

    def test_record_cardinality(self):
        records, errors = convergence_experiment(self._cfg())
        assert not errors
        per_rep = [r for r in records if r.rep is not None]
        aggregates = [r for r in records if r.rep is None]
        assert len(per_rep) == 3 * 4
        assert len(aggregates) == 3

    def test_aggregate_is_mean_of_per_repetition_deviation(self):
        records, _ = convergence_experiment(self._cfg())
        for agg in (r for r in records if r.rep is None):
            cell = [r.mae for r in records if r.rep is not None and r.p == agg.p]
            assert agg.mae == pytest.approx(np.mean(cell))

    def test_deterministic_for_fixed_seed(self):
        a, _ = convergence_experiment(self._cfg())
        b, _ = convergence_experiment(self._cfg())
        assert records_csv(a) == records_csv(b)

    def test_workers_do_not_change_output(self):
        cfg = self._cfg(repetitions=6)
        serial, _ = convergence_experiment(cfg, workers=1)
        threaded, _ = convergence_experiment(cfg, workers=4)
        assert records_csv(serial) == records_csv(threaded)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            convergence_experiment(self._cfg(), workers=workers)

    def test_error_cells_do_not_abort_the_sweep(self):
        # tiny matched blocks are degenerate for the correlation estimator
        # (N = 1 duplicates the all-halves first row; N = 2 pins |rho| = 1),
        # so the low-p cells error while larger blocks still produce records
        cfg = self._cfg(
            estimators=(EstimatorConfig("glen_isaacs"),), p_min=0, p_max=4, repetitions=2
        )
        records, errors = convergence_experiment(cfg)
        assert errors and all(isinstance(e, CellError) for e in errors)
        assert all(e.p <= 2 for e in errors)
        assert any(r.rep is not None and r.p == 4 for r in records)
        assert any(r.rep is None and r.p == 4 for r in records)

    def test_estimator_bug_propagates(self, monkeypatch):
        # only degenerate inputs (EstimationError) become cell errors; a bug raises
        def broken(evals, k):
            raise IndexError("estimator bug")

        monkeypatch.setattr(estimators, "saltenis_T", broken)
        with pytest.raises(IndexError, match="estimator bug"):
            convergence_experiment(self._cfg())

    def test_convergence_trend_for_all_families(self):
        for family in ("A1", "A2", "B1", "B2", "B3", "C1", "C2"):
            maes = {}
            for p in (4, 12):
                cfg = ExperimentConfig(
                    function=function_spec(family, 2),
                    estimators=(EstimatorConfig("saltenis"),),
                    p_min=p, p_max=p, repetitions=10, seed=4,
                )
                records, _ = convergence_experiment(cfg)
                maes[p] = next(r.mae for r in records if r.rep is None)
            assert maes[12] < maes[4]

    def test_repetition_stability_proxy(self):
        cfg = self._cfg(p_min=8, p_max=8, repetitions=50)
        records, _ = convergence_experiment(cfg)
        per_rep = [r.mae for r in records if r.rep is not None]
        first_half = np.mean(per_rep[:25])
        full = np.mean(per_rep)
        assert abs(first_half - full) / full < 0.5


def test_aggregates_follow_series_then_p_for_records_in_any_order():
    rng = np.random.default_rng(4)
    # at k = 9 each record's deviations are summed pairwise, in blocks of 8, as mae() sums each row
    for k, truth in ((2, np.array([0.5, 0.25])), (9, rng.random(9))):
        fn = function_spec("B1", k)
        # p-major, repetition, then series: the order adaptive_experiment emits its records in
        records = [
            _rep_record(fn, name, p, DesignSpec("asymmetric", 2, 2**p, k), (p + 1) * rep + len(name), rep,
                        rng.random(k), truth)
            for p in (3, 4) for rep in range(3) for name in ("saltenis", "adaptive")
        ]
        series, p_values = [("adaptive", 2), ("saltenis", 2), ("owen", 3)], range(3, 6)
        out = _with_aggregates(records, series, p_values)
        assert out[: len(records)] == records
        aggregates = out[len(records) :]
        assert [(r.estimator, r.p) for r in aggregates] == [(s, p) for s, _ in series[:2] for p in (3, 4)]
        for agg in aggregates:
            cell = [r for r in records if (r.estimator, r.p) == (agg.estimator, agg.p)]
            assert (agg.rep, agg.t_hat, agg.n_t) == (None, None, cell[0].n_t)
            assert agg.mae == mae(np.vstack([r.t_hat for r in cell]), truth)


class TestGroupedCells:
    """A repetition's cells, evaluated in tile-sized groups, give what each cell gives on its own, bit for bit."""

    ROSTER = tuple(EstimatorConfig(name, n=fixed or 3) for name, (_, fixed) in ESTIMATOR_DESIGNS.items())
    OWEN = (EstimatorConfig("owen", n=3),)   # no cell at N = 2**p_max: a pool shorter than the old 2**p_max rows

    @staticmethod
    def _per_cell(cfg):
        """T-hat by (estimator, n, p, rep) and the cell errors of one ``_plan_outputs`` and one estimator per cell."""
        fn, k = cfg.function, cfg.function.k
        specs = {(e, p): e.design(matched_block_size(e, k, (k + 1) * 2**p), k)
                 for e in cfg.estimators for p in cfg.p_values}
        p_pool = max(cfg.p_max, max(spec.N for spec in specs.values()).bit_length() - 1)
        pool = qmc.sobol_block(max(max(e.n for e in cfg.estimators), 2) * k, p_pool).values
        t_hats, errors = {}, []
        for rep in range(cfg.repetitions):
            pool_r = qmc.permute_columns(pool, qmc.draw_permutation(pool.shape[1], cfg.seed, rep))
            for p in cfg.p_values:
                for e in cfg.estimators:
                    spec = specs[e, p]
                    rows = pool_r[: spec.N, : spec.n * k]
                    y = designs._plan_outputs(spec, lambda r0, r1: rows[r0:r1],
                                              lambda points: testfns.evaluate(fn, points))
                    try:
                        t_hats[e.name, e.n, p, rep] = estimators.run_estimator(spec, y).total
                    except estimators.EstimationError as exc:
                        errors.append(CellError(e.name, e.n, p, rep, str(exc)))
        return t_hats, errors

    @pytest.mark.parametrize("k,roster", [(1, ROSTER), (2, ROSTER), (6, ROSTER), (6, OWEN)],
                             ids=["1", "2", "6", "6-owen-only"])
    @pytest.mark.parametrize("tile_values", [2**17, 300], ids=["default-tile", "split-groups"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_equals_per_cell_evaluation_bit_for_bit(self, monkeypatch, k, roster, tile_values, workers):
        monkeypatch.setattr(designs, "_TILE_VALUES", tile_values * k)
        # p = 0 and 1 hold N = 1 cells, which must fail as they do on their own
        cfg = ExperimentConfig(function_spec("A2", k), roster, p_min=0, p_max=8, repetitions=2, seed=5)
        expected_t_hats, expected_errors = self._per_cell(cfg)
        calls = []
        evaluate = testfns.evaluate
        monkeypatch.setattr(testfns, "evaluate", lambda fn, points: calls.append(points.size) or evaluate(fn, points))
        records, errors = convergence_experiment(cfg, workers=workers)
        assert errors == expected_errors and errors
        t_hats = {(r.estimator, r.n, r.p, r.rep): r.t_hat for r in records if r.rep is not None}
        assert t_hats.keys() == expected_t_hats.keys()
        assert all(t_hats[key].tobytes() == expected_t_hats[key].tobytes() for key in t_hats)
        assert max(calls) <= tile_values * k
        # each repetition: one call per group, or more for a group of one bigger than a tile
        specs = [[e.design(matched_block_size(e, k, (k + 1) * 2**p), k) for p in cfg.p_values] for e in roster]
        cells = [[(p, s, design_metrics(s).total_points) for p, s in zip(cfg.p_values, row)] for row in specs]
        groups = [group for row in cells for group in _cell_groups(row)]
        assert len(calls) >= cfg.repetitions * len(groups)
        assert max(map(len, groups)) > 1 and len(groups) < sum(map(len, cells))
        if roster is self.OWEN:
            assert max(s.N for row in specs for s in row) < 2**cfg.p_max
        elif tile_values == 300:
            sizes = [sum(n_t * k for _, _, n_t in g) for g in groups]
            multi_cell_groups = [g for g in groups if len(g) > 1]
            assert len(multi_cell_groups) == len(self.ROSTER) - 1   # every roster entry but cyclic
            assert len(groups) > len(self.ROSTER) + len(cfg.p_values) - 1   # split at the tile boundary
            assert max(sizes) > tile_values * k   # and some cell bigger than a tile

    @staticmethod
    def _blocks(cfg):
        """Each group of the sweep with its block size, as ``convergence_experiment`` runs them."""
        k = cfg.function.k
        out = []
        for e in cfg.estimators:
            specs = [e.design(matched_block_size(e, k, (k + 1) * 2**p), k) for p in cfg.p_values]
            for g in _cell_groups([(p, s, design_metrics(s).total_points) for p, s in zip(cfg.p_values, specs)]):
                out.append((e, g, max(1, designs._TILE_VALUES // sum(n_t for _, _, n_t in g))))
        return out

    @pytest.mark.parametrize("workers", [1, 2])
    def test_groups_spanning_several_blocks(self, monkeypatch, workers):
        monkeypatch.setattr(designs, "_TILE_VALUES", 60 * 2)
        cfg = ExperimentConfig(function_spec("A2", 2), self.ROSTER, p_min=0, p_max=6, repetitions=7, seed=5)
        # some group of several cells runs in blocks of more than one repetition but fewer than all
        assert any(len(g) > 1 and 1 < size < cfg.repetitions for _, g, size in self._blocks(cfg))
        expected_t_hats, expected_errors = self._per_cell(cfg)
        records, errors = convergence_experiment(cfg, workers=workers)
        assert errors == expected_errors and errors
        t_hats = {(r.estimator, r.n, r.p, r.rep): r.t_hat for r in records if r.rep is not None}
        assert t_hats.keys() == expected_t_hats.keys()
        assert all(t_hats[key].tobytes() == expected_t_hats[key].tobytes() for key in t_hats)

    def test_one_estimator_call_per_cell_and_block(self, monkeypatch):
        monkeypatch.setattr(designs, "_TILE_VALUES", 300 * 2)   # blocks of 1 to 12 repetitions
        cfg = ExperimentConfig(function_spec("A2", 2), self.ROSTER, p_min=4, p_max=8, repetitions=7, seed=5)
        calls = {}
        for rule in designs.DESIGN_KINDS.values():
            def counted(evals, *args, _name=rule.estimator, _original=getattr(estimators, rule.estimator)):
                key = (_name, args[1:], evals.shape[-1])   # estimator, n when it takes one, N
                calls[key] = calls.get(key, 0) + 1
                return _original(evals, *args)
            monkeypatch.setattr(estimators, rule.estimator, counted)
        records, errors = convergence_experiment(cfg)
        assert not errors
        expected = {}
        for e, g, size in self._blocks(cfg):
            for _, spec, _ in g:
                fixed = designs.DESIGN_KINDS[spec.kind].n
                expected[designs.DESIGN_KINDS[spec.kind].estimator, () if fixed else (spec.n,), spec.N] = \
                    -(-cfg.repetitions // size)
        assert calls == expected
        assert max(calls.values()) > 1 and sum(calls.values()) < len([r for r in records if r.rep is not None])

    def test_a_degenerate_repetition_in_a_block_keeps_its_own_error_and_the_other_records(self, monkeypatch):
        cfg = ExperimentConfig(function_spec("A2", 2), (EstimatorConfig("saltenis"),), p_min=2, p_max=5,
                               repetitions=3, seed=5)
        assert [(len(g), size >= 3) for _, g, size in self._blocks(cfg)] == [(4, True)]   # one group, one block
        clean, _ = convergence_experiment(cfg)
        outputs, calls = designs._plan_outputs, []

        def constant_first_cell_at_rep_1(spec, rows_of, model):   # one group plan per repetition, in order
            y = outputs(spec, rows_of, model)
            if len(calls) == 1:
                y[:, :4] = 0.25   # the p = 2 cell's N = 4 columns
            calls.append(spec.N)
            return y

        monkeypatch.setattr(designs, "_plan_outputs", constant_first_cell_at_rep_1)
        records, errors = convergence_experiment(cfg)
        assert calls == [4 + 8 + 16 + 32] * 3   # one plan over the group's stacked cells per repetition
        assert errors == [CellError("saltenis", 2, 2, 1, "zero output variance in matrix A; indices undefined")]
        kept = [r for r in clean if r.rep is None or (r.p, r.rep) != (2, 1)]
        assert [(r.p, r.rep, r.mae) for r in records if r.rep is not None] == \
            [(r.p, r.rep, r.mae) for r in kept if r.rep is not None]
        assert all(a.t_hat.tobytes() == b.t_hat.tobytes() for a, b in zip(records, kept) if a.rep is not None)

    @staticmethod
    def _cells(kind, n, Ns, k=2):
        return [(p, s, design_metrics(s).total_points) for p, s in enumerate(DesignSpec(kind, n, N, k) for N in Ns)]

    def test_cyclic_cells_are_groups_of_one(self):
        cells = self._cells("cyclic_single", 1, [2**p for p in range(6)])
        assert [len(g) for g in _cell_groups(cells)] == [1] * 6

    def test_a_cell_bigger_than_a_tile_is_a_group_of_one(self, monkeypatch):
        monkeypatch.setattr(designs, "_TILE_VALUES", 3 * 8 * 2)   # a tile: three segments of N = 8 at k = 2
        cells = self._cells("asymmetric", 2, [1, 2, 4, 8, 16, 1])
        # cell values: 6, 12 and 24 share a tile (42 <= 48); 48 fills one alone, 96 is bigger than one
        assert [[p for p, _, _ in g] for g in _cell_groups(cells)] == [[0, 1, 2], [3], [4], [5]]


class TestAdaptiveExperiment:
    def test_produces_both_series_and_ledgers(self):
        records, ledgers = adaptive_experiment(function_spec("A2", 6), range(7, 9), 3, seed=2)
        names = {r.estimator for r in records}
        assert names == {"saltenis", "adaptive"}
        aggs = [r for r in records if r.rep is None]
        assert len(aggs) == 4  # 2 estimators x 2 block sizes
        assert ledgers and all(int(line.split(",")[7]) >= int(line.split(",")[6]) for line in ledgers)

    @pytest.mark.parametrize("seed,p_values", [(2, range(3, 6)), (20231, range(5, 2, -1))])
    def test_one_draw_per_repetition_and_output_in_p_rep_order(self, seed, p_values, monkeypatch):
        # every design of a repetition reads a prefix of the block drawn at its start; the output equals
        # running each (p, rep) on its own, in that order
        fn, reps = function_spec("A2", 4), 2
        generated, direction_vectors = [], qmc._direction_vectors
        monkeypatch.setattr(qmc, "_direction_vectors", lambda: generated.append(1) or direction_vectors())
        records, ledger_lines = adaptive_experiment(fn, p_values, reps, seed)
        assert len(generated) == reps
        truth, expected, expected_ledger = testfns.analytic_indices(fn).total, [], []
        for p in p_values:
            spec = DesignSpec("asymmetric", 2, 2**p, fn.k)
            for rep in range(reps):
                plain = estimators.estimate_total_effects(spec, fn, seed, rep)
                adapted, ledger = adaptive.adaptive_run(fn, p, seed=seed, repetition=rep)
                expected += [_rep_record(fn, name, p, spec, (fn.k + 1) * spec.N, rep, est.total, truth)
                             for name, est in (("saltenis", plain), ("adaptive", adapted))]
                expected_ledger += adaptive.ledger_csv_rows(p, rep, ledger)
        expected = _with_aggregates(expected, [("saltenis", 2), ("adaptive", 2)], p_values)
        assert [(r.estimator, r.p, r.rep) for r in records] == [(r.estimator, r.p, r.rep) for r in expected]
        assert records_csv(records) == records_csv(expected)
        assert ledger_lines == expected_ledger

    @pytest.mark.parametrize(
        "p_values,repetitions,message",
        [(range(7, 9), 0, "repetitions must be >= 1"), (range(6, 6), 2, "p range is empty"),
         (range(-1, 3), 2, "p_min must be >= 0"), (range(2, -2, -1), 2, "p_min must be >= 0")],
        ids=["no-repetitions", "empty-p-range", "negative-p", "negative-p-descending"],
    )
    def test_empty_sweep_rejected(self, p_values, repetitions, message):
        with pytest.raises(ValueError, match=message):
            adaptive_experiment(function_spec("A2", 6), p_values, repetitions, seed=2)


class TestExport:
    def _records(self):
        return [
            ConvergenceRecord("C2", "saltenis", 2, 3, 8, 24, None, None, 0.25),
            ConvergenceRecord("C2", "saltenis", 2, 4, 16, 48, None, None, 0.125),
            ConvergenceRecord("C2", "glen_isaacs", 2, 3, 4, 24, None, None, 0.5),
            ConvergenceRecord("C2", "glen_isaacs", 2, 4, 8, 48, None, None, 0.25),
        ]

    def test_csv_line_count(self):
        text = records_csv(self._records()[:3])
        assert len(text.strip().splitlines()) == 4  # header + 3 aggregates

    def test_csv_per_rep_rows_expand_by_factor(self):
        rec = ConvergenceRecord("C2", "saltenis", 2, 3, 8, 24, 0, np.array([0.5, 0.6]), 0.1)
        lines = records_csv([rec]).strip().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[7] == "1"  # factor column
        assert lines[2].split(",")[7] == "2"

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            records_csv([])
        with pytest.raises(ValueError, match="no records"):
            export([], ".")

    def test_svg_has_one_polyline_per_series_and_legend(self):
        svg = mae_plot_svg(self._records())
        assert svg.count("<polyline") == 2
        assert "saltenis" in svg and "glen_isaacs" in svg
        assert "MAE" in svg and "N_T" in svg

    def test_export_writes_requested_formats(self, tmp_path):
        paths = export(self._records(), tmp_path, fmt="both", basename="out")
        assert sorted(p.name for p in paths) == ["out.csv", "out.svg"]
        assert (tmp_path / "out.csv").read_text().startswith("function,estimator")

    def test_bad_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            export(self._records(), tmp_path, fmt="png")

    def test_design_scatter_contains_reference_designs(self):
        svg = design_scatter_svg(budget_table(6, 500), 6)
        for label in ("asymmetric", "couples", "stars", "winding stairs"):
            assert label in svg

    def test_errors_csv(self):
        text = errors_csv([CellError("owen", 3, 2, 1, "bad, cell\nhere")])
        assert text.splitlines()[1] == "owen,3,2,1,bad; cell here"
