"""Generator, scrambling and discrepancy tests.

The generator is cross-checked bit-for-bit against scipy's Sobol'
implementation (an independent realisation of the same published
direction numbers); the discrepancy closed form is checked against a
brute-force integration oracle, scipy's independent implementation and
Warnock's formula in exact rational arithmetic.
"""

import math
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

    def test_deterministic(self):
        a = sobol_block(12, 7).values
        b = sobol_block(12, 7).values
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("dim", [1, 6, 36])
    def test_nested_prefixes(self, dim):
        big = sobol_block(dim, 10).values
        for p in range(0, 10):
            small = sobol_block(dim, p).values
            assert np.array_equal(small, big[: 2**p])

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
        pool = sobol_block(4, 3)
        out = permute_columns(pool, ColumnPermutation(np.arange(4)))
        assert np.array_equal(out.values, pool.values)

    def test_reversal_two_columns(self):
        pool = SampleMatrix(values=np.array([[0.1, 0.2]]))
        out = permute_columns(pool, ColumnPermutation(np.array([1, 0])))
        assert out.values.tolist() == [[0.2, 0.1]]

    def test_length_mismatch_rejected(self):
        pool = sobol_block(36, 2)
        with pytest.raises(ValueError, match="does not match"):
            permute_columns(pool, ColumnPermutation(np.arange(5)))

    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError, match="bijection"):
            ColumnPermutation(np.array([0, 0, 2]))

    def test_draw_permutation_deterministic_per_repetition(self):
        a = draw_permutation(36, seed=9, repetition=3)
        b = draw_permutation(36, seed=9, repetition=3)
        c = draw_permutation(36, seed=9, repetition=4)
        assert np.array_equal(a.perm, b.perm)
        assert not np.array_equal(a.perm, c.perm)


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


def test_sample_matrix_rejects_out_of_range_values():
    for bad in (1.0, np.nan):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            SampleMatrix(values=np.array([[bad, 0.5]]))
