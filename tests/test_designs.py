"""Plan assembly, pairing tables and design-metric tests."""

import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vbsa import designs
from vbsa.designs import (
    DESIGN_KINDS,
    PLAN_KINDS,
    SHIFT,
    DesignSpec,
    _chunk_runs,
    _draw_rows,
    _plan_outputs,
    _segment_chunks,
    assemble_plan,
    budget_table,
    budget_table_csv,
    cyclic_label,
    design_metrics,
    factor_segments,
    hybrid_label,
    plan_layout,
    pool_matrices,
    reference_metrics,
)
from vbsa.estimators import estimate_total_effects, sample_plan
from vbsa.testfns import FAMILIES, evaluate, function_spec

ALL_PLAN_SPECS = [
    DesignSpec(kind="asymmetric", n=2, N=8, k=3),
    DesignSpec(kind="symmetric2", n=2, N=8, k=3),
    DesignSpec(kind="owen", n=3, N=8, k=3),
    DesignSpec(kind="multimatrix", n=3, N=4, k=3),
    DesignSpec(kind="multimatrix", n=4, N=4, k=2),
    DesignSpec(kind="lamboni", n=3, N=4, k=3),
    DesignSpec(kind="cyclic_single", n=1, N=8, k=3),
]

# every kind, at each fixed base-matrix count or at n = 2 and 3
KIND_NS = [(kind, n) for kind, rule in DESIGN_KINDS.items() for n in ([rule.n] if rule.n else [2, 3])]


def _random_bases(spec: DesignSpec, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.random((spec.N, spec.k)) for _ in range(spec.n)]


def _segment(plan, label: str) -> np.ndarray:
    """The rows of the plan segment ``label``, found by its position in the layout."""
    spec = plan.spec
    labels = [name for name, *_ in plan_layout(spec.kind, spec.n, spec.k)]
    return plan.points.reshape(len(labels), spec.N, spec.k)[labels.index(label)]


def _couples(plan) -> tuple[np.ndarray, np.ndarray]:
    """Left and right points of every elementary-effect couple, ``(k, couples, N, k)`` each."""
    spec = plan.spec
    left, right = factor_segments(spec.kind, spec.n, spec.k)
    segments = plan.points.reshape(-1, spec.N, spec.k)
    return segments[left], segments[right]


class TestAssemblePlan:
    def test_asymmetric_row_count_k6(self):
        spec = DesignSpec(kind="asymmetric", n=2, N=64, k=6)
        mat_a, mat_b = _random_bases(spec)
        plan = assemble_plan(spec, [mat_a, mat_b])
        assert plan.points.shape == (448, 6)
        for j in range(1, 7):
            hybrid = _segment(plan, hybrid_label("A", "B", j))
            assert np.array_equal(hybrid[:, j - 1], mat_b[:, j - 1])
            assert np.array_equal(np.delete(hybrid, j - 1, axis=1), np.delete(mat_a, j - 1, axis=1))

    def test_multimatrix_n3_rows_and_effects(self):
        spec = DesignSpec(kind="multimatrix", n=3, N=16, k=6)
        plan = assemble_plan(spec, _random_bases(spec))
        assert plan.points.shape[0] == 624
        left, _ = _couples(plan)
        assert left[..., 0].size == 864   # effects: factors x couples x rows

    def test_owen_row_count(self):
        spec = DesignSpec(kind="owen", n=3, N=4, k=2)
        plan = assemble_plan(spec, _random_bases(spec))
        assert plan.points.shape[0] == 24

    @pytest.mark.parametrize("spec", ALL_PLAN_SPECS, ids=lambda s: f"{s.kind}-n{s.n}")
    def test_plan_length_matches_metrics(self, spec):
        plan = assemble_plan(spec, _random_bases(spec))
        assert plan.points.shape[0] == design_metrics(spec).total_points

    @pytest.mark.parametrize("spec", ALL_PLAN_SPECS, ids=lambda s: f"{s.kind}-n{s.n}")
    def test_pairs_differ_in_exactly_the_assigned_coordinate(self, spec):
        plan = assemble_plan(spec, _random_bases(spec, seed=7))
        left, right = _couples(plan)
        assert left.shape[1] > 0
        for j in range(1, spec.k + 1):
            delta = left[j - 1] != right[j - 1]
            expected = np.zeros(spec.k, dtype=bool)
            expected[j - 1] = True
            assert np.array_equal(delta, np.broadcast_to(expected, delta.shape))

    @pytest.mark.parametrize("spec", ALL_PLAN_SPECS, ids=lambda s: f"{s.kind}-n{s.n}")
    def test_economy_identity(self, spec):
        plan = assemble_plan(spec, _random_bases(spec))
        metrics = design_metrics(spec)
        pair_count = _couples(plan)[0][..., 0].size
        assert Fraction(pair_count, plan.points.shape[0]) == Fraction(
            metrics.total_effects, metrics.total_points
        )

    def test_cyclic_plan_wraps_last_row(self):
        spec = DesignSpec(kind="cyclic_single", n=1, N=4, k=2)
        base = _random_bases(spec)[0]
        plan = assemble_plan(spec, [base])
        shifted = _segment(plan, cyclic_label(1))
        assert shifted[-1, 0] == base[0, 0]      # wrap: row N borrows row 1
        assert shifted[0, 0] == base[1, 0]
        assert np.array_equal(shifted[:, 1], base[:, 1])

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.0])
    def test_base_outside_unit_cube_rejected(self, bad):
        spec = DesignSpec(kind="owen", n=3, N=4, k=2)
        bases = _random_bases(spec)
        bases[2][3, 1] = bad
        with pytest.raises(ValueError, match="base matrix 2 .*outside"):
            assemble_plan(spec, bases)

    def test_wrong_base_count_rejected(self):
        spec = DesignSpec(kind="owen", n=3, N=4, k=2)
        with pytest.raises(ValueError, match="base matrices"):
            assemble_plan(spec, _random_bases(spec)[:2])

    def test_wrong_base_shape_rejected(self):
        spec = DesignSpec(kind="owen", n=3, N=4, k=2)
        bases = _random_bases(spec)
        bases[1] = bases[1][:3]
        with pytest.raises(ValueError, match=r"base matrix shape \(3, 2\) does not match \(N, k\) = \(4, 2\)"):
            assemble_plan(spec, bases)

    def test_split_outputs_by_label(self):
        spec = DesignSpec(kind="asymmetric", n=2, N=4, k=2)
        plan = assemble_plan(spec, _random_bases(spec))
        y = np.arange(plan.points.shape[0], dtype=float)
        split = plan.split_outputs(y)
        assert set(split) == {"A", hybrid_label("A", "B", 1), hybrid_label("A", "B", 2)}
        assert split["A"].tolist() == [0.0, 1.0, 2.0, 3.0]

    @pytest.mark.parametrize("rows", [11, 13])
    def test_split_outputs_wrong_length_rejected(self, rows):
        spec = DesignSpec(kind="asymmetric", n=2, N=4, k=2)
        plan = assemble_plan(spec, _random_bases(spec))
        with pytest.raises(ValueError, match=rf"^output vector length \({rows},\) does not match plan size 12$"):
            plan.split_outputs(np.zeros(rows))


def _array_rows(bases: list[np.ndarray]):
    """The row source over whole base matrices: rows of the pool they stack into, F-ordered when they are."""
    pool = np.hstack(bases)
    pool = np.asfortranarray(pool) if bases[0].flags.f_contiguous else pool
    return lambda r0, r1: pool[r0:r1]


def _per_segment_reference(spec: DesignSpec, bases: list[np.ndarray]) -> np.ndarray:
    """Every plan segment written on its own, as its layout entry describes it."""
    segments = []
    for _, m, donor, j in plan_layout(spec.kind, spec.n, spec.k):
        segment = np.array(bases[m], dtype=float)
        if donor == SHIFT:
            segment[:, j - 1] = np.roll(bases[m][:, j - 1], -1)
        elif donor is not None:
            segment[:, j - 1] = bases[donor][:, j - 1]
        segments.append(segment)
    return np.array(segments)


class TestSegmentChunks:
    """The run-wise segment writer equals writing each segment on its own."""

    @pytest.mark.parametrize("kind,n", KIND_NS)
    @pytest.mark.parametrize("N", [2, 3, 64])
    @pytest.mark.parametrize("k", [1, 2, 6])
    def test_equals_per_segment_reference(self, kind, n, N, k):
        spec = DesignSpec(kind=kind, n=n, N=N, k=k)
        pool = np.random.default_rng(N * k + n).random((N, n * k))
        # column cuts of an F-ordered pool, as the Sobol' draws pass them, and of a C-ordered one
        for bases in (pool_matrices(np.asfortranarray(pool), n, k), pool_matrices(pool, n, k)):
            expected = _per_segment_reference(spec, bases).transpose(2, 0, 1)   # (k, segments, N)
            segments = expected.shape[1]
            # 1 keeps a slot's base across chunks wherever a couple's hybrids follow their base;
            # 5 and k + 1 split couples' hybrids mid-run; `segments` is one chunk
            for per_chunk in sorted({1, 2, 5, k + 1, segments}):
                chunks = _segment_chunks(spec, _array_rows(bases), per_chunk, N, np.empty(k * per_chunk * N),
                                         range(segments))
                chunks = [(lo, r0, chunk.copy()) for lo, r0, chunk in chunks]
                assert [(lo, r0) for lo, r0, _ in chunks] == [(lo, 0) for lo in range(0, segments, per_chunk)]
                assert np.array_equal(np.concatenate([chunk for *_, chunk in chunks], axis=1), expected)

    @pytest.mark.parametrize("kind,n", KIND_NS)
    @pytest.mark.parametrize("N,rows", [(3, 1), (3, 2), (64, 5), (64, 63)])
    @pytest.mark.parametrize("k", [1, 2, 6])
    def test_row_ranges_equal_per_segment_reference(self, kind, n, N, rows, k):
        # rows-outer, segments-inner: each range's chunks hold the same rows, the last range is shorter,
        # and the cyclic donor reads across range boundaries and wraps in the last range
        spec = DesignSpec(kind=kind, n=n, N=N, k=k)
        bases = pool_matrices(np.asfortranarray(np.random.default_rng(N * k + n).random((N, n * k))), n, k)
        expected = _per_segment_reference(spec, bases).transpose(2, 0, 1)   # (k, segments, N)
        for per_chunk in (1, 3):
            got = np.full_like(expected, np.nan)
            order = []
            storage, segments = np.empty(k * per_chunk * rows), range(expected.shape[1])
            for lo, r0, chunk in _segment_chunks(spec, _array_rows(bases), per_chunk, rows, storage, segments):
                assert chunk.shape[2] == min(rows, N - r0)
                got[:, lo : lo + chunk.shape[1], r0 : r0 + chunk.shape[2]] = chunk
                order.append((r0, lo))
            assert order == [(r0, lo) for r0 in range(0, N, rows) for lo in range(0, expected.shape[1], per_chunk)]
            assert np.array_equal(got, expected)

    def test_one_write_per_run(self):
        # multimatrix n = 6: 6 bases and 30 couples, so 12 base runs over 186 segments and the 180 hybrids'
        # donor columns in one table
        ((first, size, base_runs, columns, shifted),) = _chunk_runs("multimatrix", 6, 6, 186, range(186))
        assert (first, size, len(base_runs), len(columns[0]), shifted) == (0, 186, 12, 180, None)
        # a chunk boundary inside a couple: A_B(1..4) then A_B(5..6); both slots of the second chunk keep
        # base A, so it writes no base run and first restores slot 1's column 1 (buffer row 0 * 5 + 1)
        assert _tables("asymmetric", 2, 6, 5, range(7)) == [
            (((0, 5, 0),), [(1, 6), (7, 7), (13, 8), (19, 9)], None),
            ((), [(1, 0), (20, 10), (26, 11)], None),
        ]

    def test_slot_keeping_its_base_restores_then_writes_one_column(self):
        # one segment per chunk: A, then A_B(1..3) in the same slot
        assert _tables("asymmetric", 2, 3, 1, range(4)) == [
            (((0, 1, 0),), None, None),
            ((), [(0, 3)], None),
            ((), [(0, 0), (1, 4)], None),
            ((), [(1, 1), (2, 5)], None),
        ]

    def test_slot_changing_its_base_is_rewritten_whole(self):
        # owen, two segments per chunk: [A, B], [B_A(1), B_A(2)], [C_B(1), C_B(2)]
        assert _tables("owen", 3, 2, 2, range(6)) == [
            (((0, 1, 0), (1, 2, 2)), None, None),
            (((0, 1, 2),), [(0, 0), (3, 1)], None),   # slot 1 keeps B, which no donor touched
            (((0, 2, 4),), [(0, 2), (3, 3)], None),
        ]


def _tables(kind: str, n: int, k: int, per_chunk: int, segments):
    """Each chunk's base runs and the (buffer row, pool column) pairs of its ``columns`` and ``shifted`` tables."""
    pairs = lambda table: None if table is None else list(zip(*(side.tolist() for side in table)))
    return [(base_runs, pairs(columns), pairs(shifted))
            for _, _, base_runs, columns, shifted in _chunk_runs(kind, n, k, per_chunk, segments)]


class TestChunkTables:
    """The writes of ``_chunk_runs``: numpy does not order repeated indices in an assignment, so none repeats."""

    @pytest.mark.parametrize("kind,n", KIND_NS)
    @pytest.mark.parametrize("k", [1, 2, 6])
    def test_each_buffer_row_is_written_once_and_kept_bases_are_not_rewritten(self, kind, n, k):
        layout = plan_layout(kind, n, k)
        subsets = [range(len(layout))]
        if kind == "asymmetric":   # the adaptive blocks: A and the active factors' hybrids
            subsets += [(0, *active) for r in range(1, k + 1) for active in combinations(range(1, k + 1), r)]
        for segments in subsets:
            for per_chunk in sorted({1, 2, 5, k + 1, len(segments)}):
                last = []   # the base of each slot after the previous chunk
                for i, (base_runs, *tables) in enumerate(_tables(kind, n, k, per_chunk, segments)):
                    part = [layout[s] for s in segments[i * per_chunk : (i + 1) * per_chunk]]
                    for table in tables:
                        if table is not None:
                            assert len({row for row, _ in table}) == len(table)
                    written = [pair for table in tables if table is not None for pair in table]
                    for s, (_, m, donor, j) in enumerate(part):
                        if donor is not None:   # the hybrid's donor column, once
                            col = (m if donor == SHIFT else donor) * k + j - 1
                            assert [c for row, c in written if row == (j - 1) * per_chunk + s] == [col]
                    based = sorted((s, c) for a, b, c in base_runs for s in range(a, b))
                    assert based == [(s, m * k) for s, (_, m, *_) in enumerate(part)
                                     if not (s < len(last) and last[s] == m)]
                    last = [m for _, m, *_ in part]


class TestPlanOutputs:
    """What the model receives from the tile writer, and what it returns."""

    @staticmethod
    def _received_tiles(spec, rows_of, tile_values):
        """The tiles a model receives, and ``_plan_outputs`` of a model that returns each row's arrival index."""
        received = []

        def model(points):
            assert points.ndim == 2 and points.shape[1] == spec.k and points.size <= tile_values
            assert not points.flags.writeable and points.strides[0] == points.itemsize
            first = sum(map(len, received))
            received.append(points.copy())
            return np.arange(first, first + len(points), dtype=float)

        return received, _plan_outputs(spec, rows_of, model)

    def test_model_receives_read_only_column_major_rows_of_the_plan(self, monkeypatch):
        # N = 8: two whole segments per tile, or rows 0..2, 3..5 and 6..7 of one segment
        for spec in ALL_PLAN_SPECS:
            spec = DesignSpec(spec.kind, spec.n, 8, spec.k)
            plan_points = sample_plan(spec, seed=1).points
            assert not plan_points.flags.writeable
            segments = len(plan_points) // 8
            for tile_values, sizes in (
                (3 * 8 * spec.k - 1, [16] * (segments // 2) + [8] * (segments % 2)),
                (3 * spec.k, [3] * (2 * segments) + [2] * segments),   # rows outer, segments inner
            ):
                monkeypatch.setattr(designs, "_TILE_VALUES", tile_values)
                received, arrival = self._received_tiles(spec, _draw_rows(spec, 1, 0), tile_values)
                assert [len(rows) for rows in received] == sizes
                # every plan row arrives exactly once, as the plan holds it
                order = arrival.ravel().astype(np.int64)
                assert np.array_equal(np.sort(order), np.arange(len(plan_points)))
                assert np.array_equal(np.concatenate(received)[order], plan_points)
                assert sum(sizes) == design_metrics(spec).total_points

    @pytest.mark.parametrize("kind,n", KIND_NS)
    @pytest.mark.parametrize("k", [1, 2, 6])
    def test_tiles_equal_evaluating_the_assembled_plan_bit_for_bit(self, monkeypatch, kind, n, k):
        # N = 64 in rows 0..21, 22..43, 44..63 of one segment, so the cyclic donor crosses two tile boundaries
        # and wraps in the last; or in tiles of two whole segments and a remainder
        N = 64
        spec = DesignSpec(kind, n, N, k)
        points = np.ascontiguousarray(sample_plan(spec, 3, 1).points)
        for tile_values, calls in ((25 * k, 3 * len(points) // N), (3 * N * k - 1, -(-len(points) // (2 * N)))):
            monkeypatch.setattr(designs, "_TILE_VALUES", tile_values)
            for family in ("A1", "B1", "C2"):
                fn, rows = function_spec(family, k), []

                def model(tile):
                    assert tile.size <= tile_values
                    rows.append(len(tile))
                    return evaluate(fn, tile)

                got = _plan_outputs(spec, _draw_rows(spec, 3, 1), model)
                assert got.tobytes() == evaluate(fn, points).reshape(-1, N).tobytes(), (tile_values, family)
                assert len(rows) == calls and sum(rows) == design_metrics(spec).total_points

    def test_model_evaluating_a_plan_of_its_own_leaves_its_tiles_intact(self):
        # each tile, once the nested estimate has run in this thread, must still hold the outer plan's rows
        spec, fn = DesignSpec("asymmetric", 2, 2**14, 12), function_spec("B1", 12)   # two row ranges per segment
        inner_spec, inner_fn = DesignSpec("owen", 3, 2**6, 3), function_spec("A2", 3)
        nested = []

        def model(points):
            nested.append(estimate_total_effects(inner_spec, inner_fn, seed=2).total)
            return evaluate(fn, points)

        # the plain run first, so this thread's kept buffer is one the outer plan's tiles fit in
        plain = _plan_outputs(spec, _draw_rows(spec, 1, 0), lambda points: evaluate(fn, points))
        got = _plan_outputs(spec, _draw_rows(spec, 1, 0), model)
        assert got.tobytes() == plain.tobytes()
        assert len(nested) == 2 * 13
        assert all(t.tobytes() == nested[0].tobytes() for t in nested)

    def test_model_writing_into_its_input_raises(self):
        spec = DesignSpec("asymmetric", 2, 8, 3)

        def model(points):
            points[:, 0] = 0.5
            return points[:, 0]

        with pytest.raises(ValueError, match="read-only"):
            _plan_outputs(spec, _draw_rows(spec, 1, 0), model)

    @pytest.mark.parametrize("family", [f for f in FAMILIES if f != "G"])   # G has no default coefficients
    def test_outputs_equal_row_major_evaluation_bit_for_bit(self, family):
        cases = [(kind, n, N, k) for kind, n in KIND_NS for k in (1, 2, 6) for N in (2, 64, 2**10)]
        for kind, n, N, k in cases + [("asymmetric", 2, 2**17, 2)]:   # the last: two row tiles per segment
            fn, spec = function_spec(family, k), DesignSpec(kind, n, N, k)
            expected = evaluate(fn, np.ascontiguousarray(sample_plan(spec, seed=1).points)).reshape(-1, N)
            got = _plan_outputs(spec, _draw_rows(spec, 1, 0), lambda points: evaluate(fn, points))
            assert got.tobytes() == expected.tobytes(), (kind, n, N, k)

    @pytest.mark.parametrize("k", [9, 12, 16])
    def test_a1_beyond_eight_factors_within_four_ulp(self, k):
        # A1 sums k terms per row, pairwise along a contiguous row but in order down a column-major
        # chunk; every term is a prefix product in [0, 1), so the sum moves by a few ulp of 1
        fn = function_spec("A1", k)
        for kind, n in KIND_NS:
            for N in (2**10, 2**12):
                spec = DesignSpec(kind, n, N, k)
                expected = evaluate(fn, np.ascontiguousarray(sample_plan(spec, seed=1).points)).reshape(-1, N)
                got = _plan_outputs(spec, _draw_rows(spec, 1, 0), lambda points: evaluate(fn, points))
                assert np.max(np.abs(got - expected)) <= 4 * np.spacing(1.0), (kind, N)


class TestSegmentSubsets:
    """``_plan_outputs`` over a tuple of layout indices evaluates those segments of the plan and no others."""

    @settings(max_examples=40, deadline=None)
    @given(kind_n=st.sampled_from(KIND_NS), k=st.sampled_from([1, 2, 3, 6, 12]), p=st.sampled_from([1, 3, 6, 10, 14]),
           picks=st.lists(st.integers(0, 1000), min_size=1, max_size=40))
    # k = 12, N = 2**14: two row ranges per segment, with gaps in j; multimatrix n = 3 at N = 2**10: two chunks
    @example(kind_n=("asymmetric", 2), k=12, p=14, picks=[0, 1, 2, 4, 5, 6, 9, 12])
    @example(kind_n=("cyclic_single", 1), k=12, p=14, picks=[1, 3, 4, 12])
    @example(kind_n=("multimatrix", 3), k=6, p=10, picks=list(range(0, 39, 2)) + [5, 7])
    def test_subset_rows_equal_the_full_plan_rows(self, kind_n, k, p, picks):
        kind, n = kind_n
        count = len(plan_layout(kind, n, k))
        if count * 2**p * k > 2**22:   # keep the reference plan small; the examples above reach every tile shape
            p = min(p, 10)
        spec = DesignSpec(kind, n, 2**p, k)
        segments = tuple(sorted({pick % count for pick in picks}))
        received = []

        def arrival(points):
            assert points.size <= designs._TILE_VALUES and not points.flags.writeable
            received.append(points.copy())
            first = sum(map(len, received)) - len(points)
            return np.arange(first, first + len(points), dtype=float)

        got = _plan_outputs(spec, _draw_rows(spec, 5, 2), arrival, segments)
        assert got.shape == (len(segments), spec.N)
        # every row of the chosen segments reaches the model exactly once, and no other row does
        order = got.ravel().astype(np.int64)
        assert np.array_equal(np.sort(order), np.arange(len(segments) * spec.N))
        plan = sample_plan(spec, 5, 2).points.reshape(count, spec.N, k)
        assert np.array_equal(np.concatenate(received)[order].reshape(len(segments), spec.N, k), plan[list(segments)])
        # and its outputs are those rows of the whole plan's outputs, bit for bit
        fn = function_spec("B1", k)
        full = _plan_outputs(spec, _draw_rows(spec, 5, 2), lambda points: evaluate(fn, points))
        subset = _plan_outputs(spec, _draw_rows(spec, 5, 2), lambda points: evaluate(fn, points), segments)
        assert subset.tobytes() == full[list(segments)].tobytes()

    def test_a_gap_in_j_breaks_a_donor_run(self):
        # A, A_B(1), A_B(3), A_B(4) in one chunk: the donor columns are 0, then 2 and 3 of B
        assert _tables("asymmetric", 2, 4, 4, (0, 1, 3, 4)) == [
            (((0, 4, 0),), [(1, 4), (10, 6), (15, 7)], None),
        ]


class TestRowOffset:
    """``_draw_rows`` at an offset ``lo``: rows lo .. lo + N - 1 of the seeded design, so a plan doubles by its new rows."""

    OFFSET_KIND_NS = [(kind, n) for kind, n in KIND_NS if kind != "cyclic_single"]

    @settings(max_examples=40, deadline=None)
    @given(kind_n=st.sampled_from(OFFSET_KIND_NS), k=st.integers(1, 6), p=st.integers(0, 9),
           seed=st.integers(0, 2**32 - 1))
    @example(kind_n=("lamboni", 3), k=6, p=10, seed=7)   # M = 1024, the largest plan
    @example(kind_n=("owen", 3), k=6, p=10, seed=7)
    def test_the_plan_at_M_and_its_rows_from_M_are_the_plan_at_2M(self, kind_n, k, p, seed):
        kind, n = kind_n
        spec, doubled, fn = DesignSpec(kind, n, 2**p, k), DesignSpec(kind, n, 2**(p + 1), k), function_spec("B1", k)
        received = []

        def arrival(points):
            received.append(points.copy())
            first = sum(map(len, received)) - len(points)
            return np.arange(first, first + len(points), dtype=float)

        order = _plan_outputs(spec, _draw_rows(spec, seed, 3, lo=spec.N), arrival).ravel().astype(np.int64)
        # the new rows reach the model once each, N_T(2M) - N_T(M) of them, and they are the doubled plan's
        assert sum(map(len, received)) == design_metrics(doubled).total_points - design_metrics(spec).total_points
        assert np.array_equal(np.sort(order), np.arange(len(order)))
        count = len(plan_layout(kind, n, k))
        plan = sample_plan(doubled, seed, 3).points.reshape(count, doubled.N, k)
        assert np.array_equal(np.concatenate(received)[order].reshape(count, spec.N, k), plan[:, spec.N :])
        # and the outputs of the first M rows, then of the next M, are the doubled plan's, bit for bit
        model = lambda points: evaluate(fn, points)
        halves = [_plan_outputs(spec, _draw_rows(spec, seed, 3, lo=lo), model) for lo in (0, spec.N)]
        whole = _plan_outputs(doubled, _draw_rows(doubled, seed, 3), model)
        assert np.concatenate(halves, axis=1).tobytes() == whole.tobytes()

    def test_cyclic_single_at_an_offset_is_refused_by_name(self):
        spec = DesignSpec("cyclic_single", 1, 8, 3)
        with pytest.raises(ValueError, match="cyclic_single design has no rows at an offset"):
            _draw_rows(spec, 1, 0, lo=8)
        (base,) = pool_matrices(_draw_rows(spec, 1, 0, lo=0)(0, 8), 1, 3)
        assert np.array_equal(base, sample_plan(spec, 1, 0).points[:8])


class TestTileBuffer:
    """``_plan_outputs`` writes its tiles into one reused buffer per thread; plans keep arrays of their own."""

    @staticmethod
    def _on_new_thread(fn):
        """``fn()`` on a new thread, whose tile buffer starts empty."""
        with ThreadPoolExecutor(1) as ex:
            return ex.submit(fn).result()

    def test_plan_points_unchanged_by_later_tiles(self):
        spec = DesignSpec("owen", 3, 64, 4)
        bases = pool_matrices(_draw_rows(spec, 1, 0)(0, spec.N), spec.n, spec.k)
        plans = [assemble_plan(spec, bases), sample_plan(spec, seed=1)]
        before = [plan.points.copy() for plan in plans]
        for seed in (2, 3):
            _plan_outputs(spec, _draw_rows(spec, seed, 0), lambda points: points[:, 0].copy())
        for plan, points in zip(plans, before):
            assert np.array_equal(plan.points, points)
            assert not np.shares_memory(plan.points, designs._tiles.storage)

    def test_two_threads_at_once_equal_a_serial_run(self, monkeypatch):
        monkeypatch.setattr(designs, "_TILE_VALUES", 3 * 8 * 3)   # seven tiles of three segments each
        spec, fn = DesignSpec("lamboni", 3, 8, 3), function_spec("B1", 3)
        sources = [_draw_rows(spec, seed, 0) for seed in (1, 2)]
        serial = [_plan_outputs(spec, rows_of, lambda points: evaluate(fn, points)) for rows_of in sources]
        barrier = threading.Barrier(2, timeout=30)

        def model(points):
            barrier.wait()   # both threads have written a tile before either reads its own
            y = evaluate(fn, points)
            barrier.wait()   # and both have read theirs before either writes the next
            return y

        with ThreadPoolExecutor(2) as ex:
            threaded = list(ex.map(lambda rows_of: _plan_outputs(spec, rows_of, model), sources))
        assert [y.tobytes() for y in threaded] == [y.tobytes() for y in serial]

    def test_one_buffer_grown_only_up_to_tile_values(self):
        def sizes():
            out = []
            for kind, n, N, k in [("cyclic_single", 1, 4, 1), ("multimatrix", 3, 2**6, 6), ("lamboni", 4, 2**6, 12),
                                  ("owen", 3, 2**14, 12), ("asymmetric", 2, 2**17, 2), ("symmetric2", 2, 8, 3)]:
                spec, tiles = DesignSpec(kind, n, N, k), []
                _plan_outputs(spec, _draw_rows(spec, 1, 0), lambda points: tiles.append(points) or points[:, 0])
                storage = designs._tiles.storage
                assert all(np.shares_memory(tile, storage) for tile in tiles)
                out.append(storage.size)
                _plan_outputs(spec, _draw_rows(spec, 2, 0), lambda points: points[:, 0].copy())
                assert designs._tiles.storage is storage   # reused, not reallocated
            return out

        got = self._on_new_thread(sizes)
        assert got == sorted(got) and got[-1] == designs._TILE_VALUES


class TestDesignSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError, match="unknown design kind"):
            DesignSpec(kind="hexagonal", n=2, N=4, k=2)

    @pytest.mark.parametrize("kind,n", [("asymmetric", 3), ("owen", 2), ("cyclic_single", 2)])
    def test_fixed_matrix_counts(self, kind, n):
        with pytest.raises(ValueError, match="requires"):
            DesignSpec(kind=kind, n=n, N=4, k=2)

    @pytest.mark.parametrize("field,counts,value", [("n", (2.0, 8, 3), 2.0), ("N", (2, 8.0, 3), 8.0),
                                                    ("k", (2, 8, 3.0), 3.0)])
    def test_non_integer_counts_rejected_by_name(self, field, counts, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value}$"):
            DesignSpec("asymmetric", *counts)
        assert DesignSpec("asymmetric", *map(np.int64, (2, 8, 3))).N == 8

    @pytest.mark.parametrize("N,k", [(0, 2), (-4, 2), (4, 0), (4, -1)])
    def test_counts_below_one_rejected(self, N, k):
        with pytest.raises(ValueError, match="^N and k must be >= 1$"):
            DesignSpec("asymmetric", 2, N, k)


# The paper's closed forms per kind: (N_T, E_T, chi) as functions of (n, N, k).
CLOSED_FORMS = {
    "asymmetric": lambda n, N, k: (N * (k + 1), N * k, Fraction(2, k + 1)),
    "symmetric2": lambda n, N, k: (2 * N * (k + 1), 2 * N * k, Fraction(1, k + 1)),
    "multimatrix": lambda n, N, k: (
        n * N * (1 + k * (n - 1)), N * k * n * n * (n - 1) // 2, Fraction(1, 1 + k * (n - 1))
    ),
    "lamboni": lambda n, N, k: (n * N * (1 + k * (n - 1)), N * k * n * (n - 1), Fraction(1, 1 + k * (n - 1))),
    "owen": lambda n, N, k: (2 * N * (k + 1), N * k, Fraction(3, 2 * (k + 1))),
    "cyclic_single": lambda n, N, k: (N * (k + 1), N * k, Fraction(1, k + 1)),
}
FIXED_N = {"asymmetric": 2, "symmetric2": 2, "owen": 3, "cyclic_single": 1}


class TestDesignMetrics:
    @pytest.mark.parametrize("kind", PLAN_KINDS)
    def test_closed_forms(self, kind):
        for n in [FIXED_N[kind]] if kind in FIXED_N else [2, 3, 5]:
            for N in (1, 4, 64):
                for k in (1, 2, 6, 13):
                    nt, et, chi = CLOSED_FORMS[kind](n, N, k)
                    m = design_metrics(DesignSpec(kind=kind, n=n, N=N, k=k))
                    assert (m.total_points, m.total_effects) == (nt, et)
                    assert m.economy == float(Fraction(et, nt))
                    assert m.explorativity == float(chi)

    def test_asymmetric_k6(self):
        m = design_metrics(DesignSpec(kind="asymmetric", n=2, N=64, k=6))
        assert m.economy == pytest.approx(6 / 7)
        assert m.explorativity == pytest.approx(2 / 7)

    def test_multimatrix_published_cells(self):
        m = design_metrics(DesignSpec(kind="multimatrix", n=3, N=16, k=6))
        assert (m.total_points, m.total_effects) == (624, 864)
        assert m.explorativity == pytest.approx(1 / 13)
        m10 = design_metrics(DesignSpec(kind="multimatrix", n=10, N=1, k=6))
        assert (m10.total_points, m10.total_effects) == (550, 2700)
        assert m10.explorativity == pytest.approx(0.018, abs=2e-4)

    def test_symmetric_and_multimatrix_n2_agree(self):
        sym = design_metrics(DesignSpec(kind="symmetric2", n=2, N=8, k=5))
        mm = design_metrics(DesignSpec(kind="multimatrix", n=2, N=8, k=5))
        assert sym.explorativity == pytest.approx(1 / 6)
        assert mm.explorativity == pytest.approx(sym.explorativity)
        assert mm.total_points == sym.total_points
        assert mm.total_effects == sym.total_effects

    def test_owen_metrics(self):
        m = design_metrics(DesignSpec(kind="owen", n=3, N=8, k=6))
        assert m.economy == pytest.approx(6 / 14)
        assert m.explorativity == pytest.approx(3 / 14)

    def test_lamboni_economy(self):
        m = design_metrics(DesignSpec(kind="lamboni", n=4, N=2, k=6))
        assert m.economy == pytest.approx(6 * 3 / (1 + 6 * 3))

    def test_economy_limit_for_many_matrices(self):
        m = design_metrics(DesignSpec(kind="multimatrix", n=20, N=1, k=10**6))
        assert m.economy == pytest.approx(10.0, rel=0.01)

    def test_reference_designs(self):
        k = 6
        assert reference_metrics("couples", k).explorativity == pytest.approx((k + 1) / (2 * k))
        assert reference_metrics("stars", k).explorativity == pytest.approx(2 / (k + 1))
        short = reference_metrics("winding_stairs", k, n_t=k + 1)
        assert short.explorativity == pytest.approx(2 / (k + 1))
        long = reference_metrics("winding_stairs", k, n_t=10**6)
        assert long.explorativity == pytest.approx(1 / k, rel=1e-3)
        with pytest.raises(ValueError, match="reference"):
            reference_metrics("asymmetric", k)

    @pytest.mark.parametrize("k,n_t", [(0, None), (-1, 4), (3, 0), (3, -4)])
    def test_reference_designs_refuse_counts_below_one(self, k, n_t):
        with pytest.raises(ValueError, match=f"^k and n_t must be >= 1, got k = {k}, n_t = {n_t}$"):
            reference_metrics("couples", k, n_t=n_t)


class TestBudgetTable:
    def test_k6_budget500_matches_published_costs(self):
        rows = budget_table(6, 500)
        got = [(r.kind, r.N, r.n, r.total_points, r.total_effects, r.original_points) for r in rows]
        assert got == [
            ("asymmetric", 64, 2, 448, 384, 128),
            ("multimatrix", 32, 2, 448, 384, 64),
            ("multimatrix", 16, 3, 624, 864, 48),
            ("multimatrix", 8, 4, 608, 1152, 32),
            ("multimatrix", 4, 5, 500, 1200, 20),
            ("multimatrix", 2, 7, 518, 1764, 14),
            ("multimatrix", 1, 10, 550, 2700, 10),
        ]

    def test_one_factor_row(self):
        rows = budget_table(1, 4)
        asym = rows[0]
        assert (asym.kind, asym.N, asym.total_points, asym.total_effects) == ("asymmetric", 2, 4, 2)
        assert asym.economy == pytest.approx(0.5)

    def test_discrepancy_column_populated_and_positive(self):
        rows = budget_table(6, 500)
        assert all(r.discrepancy is not None and r.discrepancy > 0 for r in rows)

    def test_pools_beyond_the_direction_table_have_no_discrepancy(self):
        rows = budget_table(12, 4000)
        assert [r.n for r in rows if r.discrepancy is None] == [7, 10]   # n * 12 > 64 columns
        assert all(r.discrepancy > 0 for r in rows if r.n * 12 <= 64)

    def test_too_small_target_rejected(self):
        with pytest.raises(ValueError, match="below the minimal"):
            budget_table(6, 3)

    def test_csv_rendering(self):
        text = budget_table_csv(budget_table(6, 500))
        lines = text.strip().splitlines()
        assert lines[0] == "kind,N,n,N_T,E_T,nN,D,chi"
        assert len(lines) == 8
        assert lines[1].startswith("asymmetric,64,2,448,384,128,")
        assert lines[2].startswith("symmetric,32,2,448,384,64,")
