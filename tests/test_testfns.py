"""Test-function evaluation and exact index tests.

Closed forms are checked three ways: hand-derived fractions for small cases,
conditional-variance quadrature at k = 2, and a moderate quasi-Monte Carlo
estimate (the heavy 2^20 cross-check lives in the acceptance suite).
"""

import numpy as np
import pytest

from vbsa.qmc import sobol_block
from vbsa.testfns import (
    A2_COEFFS,
    A3_COEFFS,
    FunctionSpec,
    analytic_indices,
    evaluate,
    function_spec,
    indices_csv,
)

ALL_FAMILY_SPECS = [
    ("A1", None),
    ("A2", None),
    ("A3", None),
    ("B1", None),
    ("B2", None),
    ("B3", None),
    ("C1", None),
    ("C2", None),
]


class TestEvaluate:
    def test_c1_center_is_zero(self):
        assert evaluate(function_spec("C1", 2), np.array([0.5, 0.5])) == 0.0

    def test_c2_center_is_one(self):
        assert evaluate(function_spec("C2", 3), np.array([0.5, 0.5, 0.5])) == pytest.approx(1.0)

    def test_a1_at_ones_is_zero(self):
        # f(1, 1) = -1 + 1*1 = 0
        assert evaluate(function_spec("A1", 2), np.array([1.0, 1.0])) == 0.0

    def test_a1_matches_direct_sum(self):
        fn = function_spec("A1", 4)
        x = np.array([0.3, 0.6, 0.9, 0.2])
        expected = -x[0] + x[0] * x[1] - x[0] * x[1] * x[2] + x[0] * x[1] * x[2] * x[3]
        assert evaluate(fn, x) == pytest.approx(expected, rel=1e-15)

    def test_c1_equals_g_with_zero_coefficients(self):
        rng = np.random.default_rng(3)
        x = rng.random((100, 6))
        c1 = evaluate(function_spec("C1", 6), x)
        g0 = evaluate(function_spec("G", 6, a=(0.0,) * 6), x)
        assert np.max(np.abs(c1 - g0)) < 1e-15

    def test_batch_and_single_agree(self):
        fn = function_spec("B2", 3)
        x = np.array([[0.2, 0.4, 0.9], [0.5, 0.5, 0.5]])
        batch = evaluate(fn, x)
        assert batch[0] == pytest.approx(float(evaluate(fn, x[0])))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            evaluate(function_spec("C2", 3), np.array([0.1, 0.2]))


class TestFunctionSpec:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            FunctionSpec(family="Z9", k=2)

    def test_non_integer_k_rejected(self):
        with pytest.raises(ValueError, match="^factor count k must be an integer, got 3.0$"):
            FunctionSpec("B1", 3.0)
        assert FunctionSpec("B1", np.int64(3)).k == 3

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FunctionSpec(family="G", k=2, a=(1.0, -0.5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        with pytest.raises(ValueError, match="^G-function coefficients must be finite and non-negative$"):
            FunctionSpec(family="G", k=2, a=(bad, 1.0))

    def test_coefficient_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            FunctionSpec(family="G", k=3, a=(1.0, 2.0))

    def test_g_requires_coefficients(self):
        with pytest.raises(ValueError, match="requires"):
            function_spec("G", 4)

    def test_a2_default_limited_to_six_factors(self):
        assert function_spec("A2", 6).coefficients == A2_COEFFS
        with pytest.raises(ValueError, match="k <= 6"):
            function_spec("A2", 7)

    def test_a3_ladder(self):
        assert function_spec("A3", 6).coefficients == A3_COEFFS

    @pytest.mark.parametrize("family,k,message", [
        ("G", 3, "^family 'G' requires an explicit coefficient vector$"),
        ("A2", 7, "^A2 has default coefficients for k <= 6; pass an explicit coefficient vector$"),
    ])
    def test_missing_default_refused_at_construction(self, family, k, message):
        with pytest.raises(ValueError, match=message):
            FunctionSpec(family, k)

    @pytest.mark.parametrize("family", ["A1", "B1", "B2", "C2"])
    def test_coefficients_refused_outside_the_g_products(self, family):
        # they would otherwise be ignored by evaluate and analytic_indices
        with pytest.raises(ValueError, match=f"^family '{family}' takes no coefficient vector$"):
            FunctionSpec(family, 2, a=(1.0, 2.0))
        assert FunctionSpec(family, 2).coefficients is None

    def test_coefficients_settled_at_construction(self):
        assert FunctionSpec("B3", 2).coefficients == (6.42, 6.42)
        assert FunctionSpec("C1", 3).coefficients == (0.0, 0.0, 0.0)
        assert FunctionSpec("A2", 4, a=[1, 2, 3, 4]).coefficients == (1.0, 2.0, 3.0, 4.0)
        # derived, so neither compared nor shown
        assert FunctionSpec("A2", 3) == FunctionSpec("A2", 3) and hash(FunctionSpec("A2", 3)) == hash(FunctionSpec("A2", 3))
        assert repr(FunctionSpec("A2", 3)) == "FunctionSpec(family='A2', k=3, a=None)"
        with pytest.raises(TypeError):
            FunctionSpec("G", 2, a=(1.0, 1.0), coefficients=(0.0, 0.0))


def _qmc_total_indices(fn: FunctionSpec, p: int = 16) -> np.ndarray:
    """Independent sampling oracle: squared-difference total indices at 2^p."""
    k = fn.k
    pool = sobol_block(2 * k, p).values
    a, b = pool[:, :k], pool[:, k:]
    f_a = evaluate(fn, a)
    var = f_a.var()
    out = np.empty(k)
    for j in range(k):
        ab = a.copy()
        ab[:, j] = b[:, j]
        out[j] = np.mean((f_a - evaluate(fn, ab)) ** 2) / (2 * var)
    return out


class TestAnalyticIndices:
    def test_c1_k2_exact_fractions(self):
        # By hand: g = |4x - 2| has mean 1, variance 1/3, so with two factors
        # V = (4/3)^2 - 1 = 7/9, S = (1/3)/(7/9) = 3/7, T = (1/3)(4/3)/(7/9) = 4/7.
        idx = analytic_indices(function_spec("C1", 2))
        assert idx.total == pytest.approx([4 / 7, 4 / 7], abs=1e-15)
        assert idx.first_order == pytest.approx([3 / 7, 3 / 7], abs=1e-15)

    def test_a1_k2_exact_fractions(self):
        # f = x1 (x2 - 1): V = 1/9 - 1/16 = 7/144; conditioning gives
        # E[V(f | x_~j)] = 1/36 and V(E[f | x_j]) = 1/48 for both factors.
        idx = analytic_indices(function_spec("A1", 2))
        assert idx.variance == pytest.approx(7 / 144, abs=1e-16)
        assert idx.total == pytest.approx([4 / 7, 4 / 7], abs=1e-15)
        assert idx.first_order == pytest.approx([3 / 7, 3 / 7], abs=1e-15)

    def test_b3_equal_totals_near_published_level(self):
        idx = analytic_indices(function_spec("B3", 6))
        assert idx.total == pytest.approx([0.1692] * 6, abs=5e-4)

    @pytest.mark.parametrize("family,a", ALL_FAMILY_SPECS)
    @pytest.mark.parametrize("k", [2, 6])
    def test_matches_sampling_oracle(self, family, a, k):
        fn = function_spec(family, k, a)
        idx = analytic_indices(fn)
        sampled = _qmc_total_indices(fn)
        assert np.max(np.abs(idx.total - sampled)) < 0.01

    @pytest.mark.parametrize("family,a", ALL_FAMILY_SPECS)
    @pytest.mark.parametrize("k", [2, 6])
    def test_index_bounds(self, family, a, k):
        idx = analytic_indices(function_spec(family, k, a))
        assert np.all(idx.first_order >= -1e-15)
        assert np.all(idx.first_order <= idx.total + 1e-15)
        assert np.all(idx.total <= 1.0 + 1e-12)
        assert idx.first_order.sum() <= 1.0 + 1e-12

    @pytest.mark.parametrize("family,a", ALL_FAMILY_SPECS)
    def test_one_factor_case_is_additive(self, family, a):
        idx = analytic_indices(function_spec(family, 1, a))
        assert idx.first_order == pytest.approx([1.0], abs=1e-12)
        assert idx.total == pytest.approx([1.0], abs=1e-12)

    def test_a_family_has_dominant_factors_at_k6(self):
        for family in ("A1", "A2"):
            idx = analytic_indices(function_spec(family, 6))
            assert idx.total.max() / idx.total.min() > 10

    @pytest.mark.parametrize("family", ["B1", "B2", "B3", "C1", "C2"])
    def test_symmetric_families_have_equal_totals(self, family):
        idx = analytic_indices(function_spec(family, 6))
        assert np.max(idx.total) - np.min(idx.total) < 1e-12

    def test_g_totals_strictly_decrease_with_coefficient(self):
        idx = analytic_indices(function_spec("A3", 6))
        assert all(a > b for a, b in zip(idx.total, idx.total[1:]))

    def test_complement_identity_for_multiplicative_families(self):
        # T_j V must equal V minus the first-order variance of the complement
        # set, prod_{l != j}(mu^2 + v) - prod_{l != j} mu^2 for product functions.
        for family in ("A2", "B1", "B2", "B3", "C1", "C2"):
            fn = function_spec(family, 4)
            idx = analytic_indices(fn)
            for j in range(fn.k):
                others = [fn_j for fn_j in range(fn.k) if fn_j != j]
                sub = _marginal_moments(fn)
                v_first_complement = np.prod([1 + sub[l] for l in others]) - 1.0
                assert idx.total[j] * idx.variance == pytest.approx(
                    idx.variance - v_first_complement, rel=1e-12
                )


def _marginal_moments(fn: FunctionSpec) -> np.ndarray:
    """Per-factor variances of the unit-mean factor terms (for identity checks)."""
    k = fn.k
    if fn.family in ("A2", "A3", "B3", "C1", "G"):
        return (1.0 / 3.0) / (1.0 + np.asarray(fn.coefficients)) ** 2
    if fn.family == "B1":
        return np.full(k, (1.0 / 12.0) / (k - 0.5) ** 2)
    if fn.family == "B2":
        return np.full(k, 1.0 / (k * (k + 2.0)))
    if fn.family == "C2":
        return np.full(k, 1.0 / 3.0)
    raise ValueError(fn.family)


class TestVarianceDecompositionByQuadrature:
    """Law-of-total-variance check at k = 2 on midpoint grids."""

    GRID = 1024

    @pytest.mark.parametrize("family,a", ALL_FAMILY_SPECS)
    def test_conditional_pieces_sum_to_variance(self, family, a):
        fn = function_spec(family, 2, a)
        idx = analytic_indices(fn)
        g = (np.arange(self.GRID) + 0.5) / self.GRID
        xx, yy = np.meshgrid(g, g, indexing="ij")
        vals = evaluate(fn, np.stack([xx, yy], axis=-1))
        for j, axis in ((0, 1), (1, 0)):
            cond_mean = vals.mean(axis=axis)
            cond_var = vals.var(axis=axis)
            v_first = cond_mean.var()
            v_resid = cond_var.mean()
            assert v_first + v_resid == pytest.approx(idx.variance, rel=0.01)
            assert v_first / idx.variance == pytest.approx(idx.first_order[j], abs=0.01)
            assert 1 - v_first / idx.variance == pytest.approx(idx.total[1 - j], abs=0.01)


def test_indices_csv_shape():
    text = indices_csv(function_spec("C1", 2))
    lines = text.strip().splitlines()
    assert lines[1] == "factor,S,T"
    assert len(lines) == 4
    assert lines[2].startswith("1,")
