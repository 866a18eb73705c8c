"""Generator, scrambling and discrepancy tests.

The generator is cross-checked bit-for-bit against scipy's Sobol'
implementation (an independent realisation of the same published
direction numbers); the discrepancy closed form is checked against a
brute-force integration oracle, scipy's independent implementation and
Warnock's formula in exact rational arithmetic.
"""

import gc
import math
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vbsa import qmc
from vbsa._directions import POLY_AND_INIT
from vbsa.qmc import (
    ColumnPermutation,
    SampleMatrix,
    draw_permutation,
    l2_star_discrepancy,
    permute_columns,
    sobol_block,
    sobol_rows,
)


class TestSobolBlock:
    def test_first_point_is_all_halves(self):
        assert sobol_block(1, 0).values.tolist() == [[0.5]]

    def test_first_two_points_in_two_dims(self):
        assert sobol_block(2, 1).values.tolist() == [[0.5, 0.5], [0.75, 0.25]]

    @pytest.mark.parametrize("dim", range(1, 65))
    def test_matches_reference_generator(self, dim):
        # positions 1 .. 2^12; the last one reaches direction bit 13
        qmc_scipy = pytest.importorskip("scipy.stats.qmc")
        ref = qmc_scipy.Sobol(dim, scramble=False).random_base2(13)[1 : 2**12 + 1]   # drop the origin
        mine = sobol_block(dim, 12).values
        assert np.array_equal(mine, ref)

    @pytest.mark.parametrize("dim", [1, 13, 36])
    def test_matches_reference_generator_through_bit_18(self, dim):
        # positions 1 .. 2^17: every doubling step, and the last position reaches direction bit 18
        qmc_scipy = pytest.importorskip("scipy.stats.qmc")
        ref = qmc_scipy.Sobol(dim, scramble=False).random_base2(18)[1 : 2**17 + 1]
        assert np.array_equal(sobol_block(dim, 17).values, ref)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 64), st.integers(0, 12), st.integers(0, 2**32 - 1), st.integers(0, 1000))
    def test_permuted_block_is_the_permuted_copy(self, dim, p, seed, repetition):
        perm = draw_permutation(dim, seed, repetition)
        scrambled = sobol_rows(dim, 0, 2**p, perm)
        assert np.array_equal(scrambled, permute_columns(sobol_block(dim, p).values, perm))
        assert scrambled.T.flags.c_contiguous

    def test_permutation_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="permutation length 5 does not match pool column count 6"):
            sobol_rows(6, 0, 8, ColumnPermutation(np.arange(5)))

    def test_deterministic(self):
        a = sobol_block(12, 7).values.copy()   # the block itself is dropped, so b is generated again
        b = sobol_block(12, 7).values
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("dim", [1, 6, 36])
    def test_nested_prefixes(self, dim):
        big = sobol_block(dim, 10).values.copy()   # a held block would serve each prefix as a view of itself
        for p in range(0, 10):
            small = sobol_block(dim, p).values
            assert np.array_equal(small, big[: 2**p])

    @pytest.mark.parametrize("dim,p", [(1, 0), (6, 5), (36, 10), (64, 3)])
    def test_block_is_column_major(self, dim, p):
        # each dimension's column is one contiguous row of values.T, and so of every pool cut
        block = sobol_block(dim, p).values
        assert block.T.flags.c_contiguous
        assert permute_columns(block, draw_permutation(dim, 9, 2)).T.flags.c_contiguous

    def test_values_in_unit_interval_and_no_zero_row(self):
        block = sobol_block(36, 6).values
        assert block.min() >= 0.0 and block.max() < 1.0
        assert not np.any(np.all(block == 0.0, axis=1))

    @pytest.mark.parametrize("p", [6, 8])
    def test_equidistribution_proxy(self, p):
        block = sobol_block(36, p).values
        below = (block < 0.5).mean(axis=0)
        assert np.all(np.abs(below - 0.5) <= 2.0 ** (1 - p))

    def test_dimension_beyond_table_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            sobol_block(65, 3)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            sobol_block(0, 3)
        with pytest.raises(ValueError):
            sobol_block(2, -1)
        with pytest.raises(ValueError, match="maximum"):
            sobol_block(2, 60)

    def test_generated_block_skips_the_range_check(self, monkeypatch):
        # the float-offset construction bounds generated values in [0, 1); caller data is still checked
        monkeypatch.setattr(qmc, "_in_unit_cube", lambda values, closed=False: False)
        assert sobol_block(24, 10).n_rows == 2**10
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            SampleMatrix(values=np.full((2, 2), 0.5))


class TestSobolRows:
    """Row ranges of the Sobol' blocks, generated without the rows before them."""

    @staticmethod
    def _assert_rows_equal_block_slice(dim, p, r0, r1, scrambled):
        perm = draw_permutation(dim, 5, p) if scrambled else None
        rows = sobol_rows(dim, r0, r1, perm)
        assert rows.T.flags.c_contiguous
        rows = rows.copy()   # dropped: the whole block below is generated, not a view of these rows
        block = sobol_block(dim, p).values
        assert np.array_equal(rows, (block if perm is None else permute_columns(block, perm))[r0:r1])

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(0, 17), st.booleans())
    def test_rows_equal_the_block_slice(self, data, p, scrambled):
        dim = data.draw(st.integers(1, min(64, 2**21 >> p)))   # blocks of at most 16 MiB
        r1 = data.draw(st.one_of(st.just(2**p), st.integers(0, 2**p)))   # often the last row
        self._assert_rows_equal_block_slice(dim, p, data.draw(st.integers(0, r1)), r1, scrambled)

    # 64 dimensions take prefixes of at most 2**11 positions: a range across the boundary at 2048, one across
    # several boundaries to the last row, one from row 0 to just before it, and the last row alone
    @pytest.mark.parametrize(
        "dim,r0,r1", [(64, 2000, 2100), (64, 3000, 2**13), (5, 0, 2**13 - 1), (16, 2**13 - 1, 2**13)]
    )
    @pytest.mark.parametrize("scrambled", [False, True])
    def test_ranges_across_chunk_boundaries(self, dim, r0, r1, scrambled):
        self._assert_rows_equal_block_slice(dim, 13, r0, r1, scrambled)

    # any range but rows 0 up to a power of two takes the range path, which the cases above check only against the
    # doubling path: here against scipy's independent generator, positions r0 + 1 .. r1 of a block of 2**14 > r1
    @pytest.mark.parametrize("dim", [1, 13, 36, 64])
    @pytest.mark.parametrize("r0,r1", [(2000, 2100), (3000, 2**13), (2**13 - 1, 2**13), (0, 2**13 - 1)])
    @pytest.mark.parametrize("scrambled", [False, True])
    def test_ranges_match_reference_generator(self, dim, r0, r1, scrambled):
        qmc_scipy = pytest.importorskip("scipy.stats.qmc")
        ref = qmc_scipy.Sobol(dim, scramble=False).random_base2(14)[r0 + 1 : r1 + 1]
        perm = draw_permutation(dim, 5, r0) if scrambled else None
        assert (dim, None if perm is None else perm.perm.tobytes()) not in qmc._held   # generated, not a view
        assert np.array_equal(sobol_rows(dim, r0, r1, perm), ref if perm is None else ref[:, perm.perm])

    def test_bad_ranges_rejected(self):
        for r0, r1 in ((-1, 3), (4, 3), (0, 2**24 + 1)):
            with pytest.raises(ValueError, match="not a range"):
                sobol_rows(3, r0, r1)


class TestSharedBlocks:
    """Any rows inside a held whole block (rows 0 up to a power of two) of the same key are a view of it."""

    @staticmethod
    def _bits(values):
        return values.view(np.uint64).copy()

    @pytest.mark.parametrize("dim,p", [(1, 4), (12, 9), (64, 6)])
    @pytest.mark.parametrize("scrambled", [False, True])
    def test_prefix_shares_while_held_and_equals_a_fresh_block(self, dim, p, scrambled):
        perm = draw_permutation(dim, 7, p) if scrambled else None
        held = sobol_rows(dim, 0, 2**p, perm)
        same = None if perm is None else ColumnPermutation(perm.perm.copy())   # equal by value, another object
        prefixes = [sobol_rows(dim, 0, 2**q, same) for q in range(p + 1)]
        if perm is None:
            prefixes += [sobol_block(dim, q).values for q in range(p + 1)]
        assert all(np.shares_memory(prefix, held) and prefix.strides[0] == 8 for prefix in prefixes)   # columns
        shared = [self._bits(prefix) for prefix in prefixes]
        del held, prefixes
        gc.collect()
        for q, bits in enumerate(shared[: p + 1]):   # ascending, so no larger block is held
            fresh = sobol_rows(dim, 0, 2**q, perm)
            assert fresh.T.flags.c_contiguous and np.array_equal(self._bits(fresh), bits)
        assert all(np.array_equal(bits, shared[i % (p + 1)]) for i, bits in enumerate(shared))   # sobol_block's

    # rows from r0 > 0, to an end that is not a power of two, both (a plan range with its extra SHIFT row), the
    # last row alone, and no rows
    @pytest.mark.parametrize("r0,r1", [(1, 32), (0, 33), (17, 41), (63, 64), (5, 5)])
    @pytest.mark.parametrize("scrambled", [False, True])
    def test_rows_inside_a_held_block_share_and_equal_fresh_rows(self, r0, r1, scrambled):
        perm = draw_permutation(6, 7, 0) if scrambled else None
        held = sobol_rows(6, 0, 64, perm)
        rows = sobol_rows(6, r0, r1, perm)
        assert np.shares_memory(rows, held) or r0 == r1
        assert rows.shape == (r1 - r0, 6) and rows.strides[0] == 8 and not rows.flags.writeable
        shared = self._bits(rows)
        del held, rows
        gc.collect()
        fresh = sobol_rows(6, r0, r1, perm)   # no block of this key is held: the range is generated
        assert fresh.T.flags.c_contiguous and np.array_equal(self._bits(fresh), shared)

    def test_other_keys_and_longer_requests_never_share(self):
        perm = draw_permutation(6, 7, 0)
        held = sobol_rows(6, 0, 64, perm)
        plain = sobol_rows(6, 0, 64)
        # a range starting after row 0, or ending off a power of two, shares when inside the held rows
        assert np.shares_memory(sobol_rows(6, 1, 32, perm), held) and np.shares_memory(sobol_rows(6, 0, 33, perm), held)
        others = [
            sobol_rows(6, 0, 32, draw_permutation(6, 8, 0)),   # another permutation
            sobol_rows(6, 0, 32),   # unscrambled against scrambled
            sobol_rows(5, 0, 32, ColumnPermutation(np.arange(5))),   # another dimension count
            sobol_rows(5, 0, 32),
            sobol_rows(6, 0, 128, perm),   # more rows than held
            sobol_rows(6, 60, 65, perm),   # a range that ends past the held rows
        ]
        for other in others:
            assert not np.shares_memory(other, held)
        assert not np.shares_memory(others[3], plain) and np.shares_memory(sobol_block(6, 5).values, plain)

    def test_no_block_outlives_its_holders(self):
        held = sobol_rows(6, 0, 64, draw_permutation(6, 7, 0))
        buffer = weakref.ref(held.base)
        prefix = sobol_rows(6, 0, 16, draw_permutation(6, 7, 0))
        del held
        gc.collect()
        assert buffer() is not None   # the prefix still holds the block
        del prefix
        gc.collect()
        assert buffer() is None

    def test_concurrent_requests_get_the_bits_of_a_lone_block(self):
        # threads request and hold whole blocks of mixed keys and sizes; each must read what a lone generation gives
        keys = [(dim, perm) for dim in (3, 6) for perm in (None, draw_permutation(dim, 7, 0))]
        ref = {(i, p): self._bits(sobol_rows(keys[i][0], 0, 2**p, keys[i][1])) for i in range(4) for p in range(9)}

        def worker(seed):
            rng, wrong, held = np.random.default_rng(seed), 0, []
            for _ in range(300):
                i, p = int(rng.integers(4)), int(rng.integers(9))
                out = sobol_rows(keys[i][0], 0, 2**p, keys[i][1])
                wrong += not np.array_equal(self._bits(out), ref[i, p])
                held = (held + [out])[-3:]   # keep a few blocks alive, so requests share
            return wrong

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as ex:
                futures = [ex.submit(worker, seed) for seed in range(6)]
                assert [f.result(timeout=120) for f in futures] == [0] * 6
        finally:
            sys.setswitchinterval(interval)

    def test_outputs_are_read_only(self):
        perm = draw_permutation(6, 7, 0)
        held = sobol_rows(6, 0, 64, perm)
        for out in (held, sobol_rows(6, 0, 16, perm), sobol_rows(6, 3, 40, perm), sobol_rows(4, 0, 7),
                    sobol_block(3, 4).values):
            with pytest.raises(ValueError, match="read-only"):
                out[0, 0] = 0.5


class TestDirectionTable:
    def test_default_covers_64_dimensions(self):
        assert qmc._MAX_DIM == 64 == len(POLY_AND_INIT) + 1

    def test_embedded_entries_are_well_formed(self):
        for dim, (poly, m_init) in enumerate(POLY_AND_INIT, start=2):
            assert poly.bit_length() - 1 == len(m_init), f"dimension {dim}: degree and initial integers differ"
            for i, mi in enumerate(m_init, start=1):
                assert mi % 2 == 1 and 0 < mi < 2**i, f"dimension {dim}: m_{i} = {mi} must be odd and < 2^{i}"


class TestPermuteColumns:
    def test_identity(self):
        pool = sobol_block(4, 3).values
        out = permute_columns(pool, ColumnPermutation(np.arange(4)))
        assert np.array_equal(out, pool)

    def test_reversal_two_columns(self):
        out = permute_columns(np.array([[0.1, 0.2]]), ColumnPermutation(np.array([1, 0])))
        assert out.tolist() == [[0.2, 0.1]]

    def test_length_mismatch_rejected(self):
        pool = sobol_block(36, 2).values
        with pytest.raises(ValueError, match="does not match"):
            permute_columns(pool, ColumnPermutation(np.arange(5)))

    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError, match="bijection"):
            ColumnPermutation(np.array([0, 0, 2]))

    def test_non_integer_values_rejected(self):
        with pytest.raises(ValueError, match="^column permutation must hold integers, got dtype float64$"):
            ColumnPermutation(np.array([0.7, 1.2]))
        assert ColumnPermutation(np.array([1, 0], dtype=np.uint8)).perm.tolist() == [1, 0]

    @pytest.mark.parametrize("seed,repetition,name", [(-1, 0, "seed"), (3, -2, "repetition")])
    def test_negative_seed_or_repetition_named(self, seed, repetition, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
            draw_permutation(6, seed, repetition)

    def test_draw_permutation_deterministic_per_repetition(self):
        a = draw_permutation(36, seed=9, repetition=3)
        b = draw_permutation(36, seed=9, repetition=3)
        c = draw_permutation(36, seed=9, repetition=4)
        assert np.array_equal(a.perm, b.perm)
        assert not np.array_equal(a.perm, c.perm)

    def test_memoised_draw_equals_a_fresh_draw_and_is_read_only(self):
        draw_permutation(24, seed=5, repetition=1)
        again = draw_permutation(24, seed=5, repetition=1)
        fresh = np.random.default_rng(np.random.SeedSequence(entropy=5, spawn_key=(1,))).permutation(24)
        assert np.array_equal(again.perm, fresh)
        assert not again.perm.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            again.perm[0] = again.perm[1]
        assert draw_permutation(24, seed=5, repetition=1) is again

    def test_permutation_freezes_a_copy_not_the_callers_array(self):
        given = np.array([2, 0, 1], dtype=np.intp)
        perm = ColumnPermutation(given)
        assert given.flags.writeable and not perm.perm.flags.writeable
        given[0] = 0
        assert perm.perm.tolist() == [2, 0, 1]


def _discrepancy_by_integration(points: np.ndarray, grid: int = 801) -> float:
    """Brute-force oracle: integrate the squared local discrepancy on a grid."""
    points = np.asarray(points, float)
    m, k = points.shape
    assert k <= 2, "oracle implemented for 1-D and 2-D point sets"
    axes = [(np.arange(grid) + 0.5) / grid for _ in range(k)]
    if k == 1:
        x = axes[0][:, None]
        counts = (points[None, :, 0] < x).sum(axis=1) / m
        local = counts - x[:, 0]
        return float(np.sqrt(np.mean(local**2)))
    xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
    counts = np.zeros((grid, grid))
    for px, py in points:
        counts += (px < xx) & (py < yy)
    local = counts / m - xx * yy
    return float(np.sqrt(np.mean(local**2)))


def _points_on_faces() -> np.ndarray:
    """24 random points in three dimensions, each with one coordinate on a face x_j = 0 or 1."""
    pts = np.random.default_rng(4).random((24, 3))
    pts[0::6, 0] = pts[1::6, 1] = pts[2::6, 2] = 0.0
    pts[3::6, 0] = pts[4::6, 1] = pts[5::6, 2] = 1.0
    pts[7] = 1.0   # the far corner
    return pts


class TestL2StarDiscrepancy:
    def test_single_midpoint_closed_form(self):
        expected = np.sqrt(1.0 / 3.0 - 0.75 + 0.5)
        assert l2_star_discrepancy(np.array([[0.5]])) == pytest.approx(expected, abs=1e-15)

    def test_matches_integration_oracle_1d(self):
        pts = np.array([[0.2], [0.7], [0.85]])
        assert l2_star_discrepancy(pts) == pytest.approx(_discrepancy_by_integration(pts), abs=2e-3)

    def test_matches_integration_oracle_2d(self):
        rng = np.random.default_rng(5)
        pts = rng.random((7, 2))
        assert l2_star_discrepancy(pts) == pytest.approx(_discrepancy_by_integration(pts), abs=2e-3)

    def test_matches_scipy_implementation(self):
        qmc_scipy = pytest.importorskip("scipy.stats.qmc")
        rng = np.random.default_rng(11)
        for shape in [(5, 3), (30, 6), (64, 2)]:
            pts = rng.random(shape)
            assert l2_star_discrepancy(pts) == pytest.approx(
                qmc_scipy.discrepancy(pts, method="L2-star"), rel=1e-12
            )

    def test_monotone_decrease_for_sobol_blocks(self):
        block = sobol_block(6, 10).values
        values = [l2_star_discrepancy(block[: 2**p]) for p in range(3, 11)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.permutations(list(range(4))))
    def test_invariant_under_coordinate_reordering(self, seed, perm):
        pts = np.random.default_rng(seed).random((9, 4))
        assert l2_star_discrepancy(pts[:, perm]) == pytest.approx(
            l2_star_discrepancy(pts), rel=1e-12
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(400, 800), st.integers(1, 4))
    def test_invariant_under_row_permutation(self, seed, m, k):
        """Sets of 400-800 rows span two to five row blocks, so the permutation moves pairs between blocks."""
        rng = np.random.default_rng(seed)
        pts = rng.random((m, k))
        assert l2_star_discrepancy(pts[rng.permutation(m)]) == pytest.approx(
            l2_star_discrepancy(pts), rel=1e-12
        )

    @pytest.mark.parametrize("points", [
        np.random.default_rng(2).random((64, 4)),
        np.random.default_rng(3).random((17, 3)),
        sobol_block(4, 6).values,
        _points_on_faces(),
        np.array([[0.3, 0.7, 0.1]]),
    ], ids=["random-64x4", "random-17x3", "sobol-64x4", "faces-24x3", "single-point"])
    def test_matches_exact_rational_warnock(self, points):
        """Against Warnock's formula in exact rational arithmetic (every float is a dyadic rational).

        D^2 is a difference of terms near 3^-k, so rounding in the float sums is amplified; the
        achieved relative error of D on these sets is at most 6e-15, asserted at 1e-13.
        """
        x = [[Fraction(v) for v in row] for row in points.tolist()]
        m, k = points.shape
        term2 = sum(math.prod((1 - v * v) / 2 for v in row) for row in x) * 2 / m
        term3 = sum(math.prod(1 - max(a, b) for a, b in zip(r, s)) for r in x for s in x) / (m * m)
        exact = math.sqrt(Fraction(1, 3**k) - term2 + term3)
        assert l2_star_discrepancy(points) == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_blocked_path_matches_scipy_across_block_boundaries(self):
        """Sets of many row blocks with a ragged last block: 2500 x 3 random points (blocks of 52
        rows, the last of 3) and 4096 Sobol' points in six dimensions (blocks of 32, the last of 31).

        scipy's own values differ from an extended-precision evaluation by 1.9e-12 and 2.2e-12
        relative on these sets (this function's by 2e-13 and 4e-13), so the bound is 5e-12; a
        dropped or doubled pair would move D by more than 1e-5.
        """
        qmc_scipy = pytest.importorskip("scipy.stats.qmc")
        for pts in (np.random.default_rng(1).random((2500, 3)), sobol_block(6, 12).values):
            assert l2_star_discrepancy(pts) == pytest.approx(
                qmc_scipy.discrepancy(pts, method="L2-star"), rel=5e-12
            )

    def test_zero_dimensional_set_has_zero_discrepancy(self):
        assert l2_star_discrepancy(np.empty((5, 0))) == 0.0

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            l2_star_discrepancy(np.empty((0, 2)))

    def test_points_outside_cube_rejected(self):
        for bad in ([[1.5, 0.2]], [[np.nan, 0.5], [0.2, 0.3]]):
            with pytest.raises(ValueError, match="unit cube"):
                l2_star_discrepancy(np.array(bad))

    def test_strictly_positive(self):
        assert l2_star_discrepancy(sobol_block(3, 5)) > 0.0


@pytest.mark.parametrize("shape", [(3,), (2, 2, 2), ()])
def test_sample_matrix_rejects_other_than_two_dimensions(shape):
    with pytest.raises(ValueError, match="^sample matrix must be two-dimensional$"):
        SampleMatrix(values=np.full(shape, 0.5))


def test_sample_matrix_rejects_out_of_range_values():
    for bad in (1.0, np.nan):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            SampleMatrix(values=np.array([[bad, 0.5]]))
