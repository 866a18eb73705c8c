"""Estimator tests: hand-checked values, scripted single-purpose oracles and
structural properties (scale/shift invariance, null factors, symmetry)."""

import math
import re
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vbsa import estimators, qmc, testfns
from vbsa.designs import (
    DESIGN_KINDS,
    DesignSpec,
    assemble_plan,
    cyclic_label,
    design_metrics,
    factor_segments,
    hybrid_label,
    plan_layout,
)
from vbsa.estimators import (
    EstimationError,
    _d3_terms,
    _outputs,
    cyclic_single_matrix_T,
    estimate_csv,
    estimate_total_effects,
    glen_isaacs_d3_T,
    lamboni_T,
    multimatrix_T,
    owen_T,
    run_estimator,
    sample_plan,
    saltenis_T,
)
from vbsa.testfns import analytic_indices, evaluate, function_spec


# every plan kind, at both n = 2 and n = 4 for the kinds of free n
PLAN_CASES = [(kind, n) for kind, rule in DESIGN_KINDS.items() for n in ([rule.n] if rule.n else [2, 4])]


def _plan_evals(spec: DesignSpec, f, seed=3):
    rng = np.random.default_rng(seed)
    bases = [rng.random((spec.N, spec.k)) for _ in range(spec.n)]
    plan = assemble_plan(spec, bases)
    return plan.split_outputs(f(plan.points))


def _saltenis_variance(f_a: list[float]) -> float:
    return saltenis_T({"A": np.array(f_a), hybrid_label("A", "B", 1): np.zeros(len(f_a))}, 1).variance


class TestSampleVariance:
    """V-hat(Y) is the population (1/N) variance (constant A: TestSaltenis::test_zero_variance_rejected)."""

    def test_two_values(self):
        assert _saltenis_variance([0.0, 1.0]) == pytest.approx(0.25)

    def test_three_values(self):
        assert _saltenis_variance([1.0, 2.0, 3.0]) == pytest.approx(2 / 3)

    def test_short_vector_rejected(self):
        with pytest.raises(EstimationError, match=re.escape("N >= 2 rows per matrix (got N = 1)")):
            _saltenis_variance([1.0])

    @pytest.mark.parametrize("kind, n, runner, context, value", [
        ("asymmetric", 2, lambda e: saltenis_T(e, 1), "matrix A", 0.1),
        ("owen", 3, lambda e: owen_T(e, 1), "matrices A and B", 0.1),
        ("lamboni", 3, lambda e: lamboni_T(e, 1, 3), "pooled base matrices", 0.9),
    ], ids=["saltenis", "owen", "lamboni"])
    def test_constant_outputs_with_inexact_mean_rejected(self, kind, n, runner, context, value):
        """Equal base outputs whose np.var is rounding noise (1e-34 to 1e-32), not 0."""
        layout = plan_layout(kind, n, 1)
        evals = {label: np.full(3, value) if donor is None else np.array([0.1, 0.2, 0.3])
                 for label, _, donor, _ in layout}
        assert float(np.var([evals[label] for label, _, donor, _ in layout if donor is None])) > 0.0
        with pytest.raises(EstimationError, match=f"zero output variance in {context};"):
            runner(evals)


def _row_correlations(y):
    """Reference correlations by the gather formulation: every row of ``y`` centred and its norm taken at once;
    ``rho(u, v)`` correlates rows u and v (indices or index arrays) over the last axis, with matched normalisation."""
    d = y - np.add.reduce(y, axis=1, keepdims=True) / y.shape[1]
    norms = np.vecdot(d, d)
    if np.any(norms == 0.0):
        raise EstimationError("correlation of a constant vector is undefined")
    return lambda u, v: np.minimum(np.maximum(np.vecdot(d[u], d[v]) / np.sqrt(norms[u] * norms[v]), -1.0), 1.0)


def _d3_reference(y, k):
    """``_d3_terms`` by the gather formulation: the six correlations over two (6, k, N) row stacks in one call."""
    a, b = np.zeros(k, dtype=np.intp), np.ones(k, dtype=np.intp)
    ab = np.arange(2, 2 + k)   # A_B(j); B_A(j) is ab + k
    r = _row_correlations(y)(np.array([a, b, b, a, a, ab]), np.array([ab, ab + k, ab, ab + k, b, ab + k]))
    c_dmj, c_dj, p_j = 0.5 * (r[0] + r[1]), 0.5 * (r[2] + r[3]), 0.5 * (r[4] + r[5])
    if np.any(np.abs(p_j) >= 1.0):
        j = int(np.argmax(np.abs(p_j) >= 1.0)) + 1
        raise EstimationError(f"spurious correlation |p_{j}| = 1; correction undefined")
    c_aj = (c_dmj - p_j * c_dj) / (1.0 - p_j**2)
    c_amj = (c_dj - p_j * c_dmj) / (1.0 - p_j**2)
    return c_dmj, c_dj, p_j, c_aj, c_amj


def _rho(u, v):
    return _row_correlations(np.array([u, v]))(0, 1)


class TestPearsonRho:
    def test_self_correlation(self):
        u = np.array([0.3, 1.4, -2.0, 5.0])
        assert _rho(u, u) == pytest.approx(1.0)

    def test_anti_correlation(self):
        u = np.array([0.3, 1.4, -2.0])
        assert _rho(u, -u) == pytest.approx(-1.0)

    def test_hand_case(self):
        # cov = ((-1)(-1) + 0*1 + 1*0)/3 = 1/3; sd_u sd_v = 2/3, so rho = 1/2.
        assert _rho(np.array([1.0, 2, 3]), np.array([1.0, 3, 2])) == pytest.approx(0.5)

    def test_constant_vector_rejected(self):
        with pytest.raises(EstimationError, match="constant"):
            _rho(np.array([1.0, 1.0]), np.array([0.0, 1.0]))


class TestSaltenis:
    def test_null_factor_exact_zero(self):
        spec = DesignSpec(kind="asymmetric", n=2, N=16, k=2)
        evals = _plan_evals(spec, lambda pts: pts[:, 1] ** 2)
        est = saltenis_T(evals, 2)
        assert est.total[0] == 0.0
        assert est.numerator[0] == 0.0

    def test_hand_numerator(self):
        evals = {"A": np.array([0.0, 1.0]), hybrid_label("A", "B", 1): np.array([1.0, 0.0])}
        est = saltenis_T(evals, 1)
        assert est.numerator[0] == pytest.approx(0.5)
        assert est.effects_used[0] == 2

    def test_zero_variance_rejected(self):
        evals = {"A": np.array([1.0, 1.0]), hybrid_label("A", "B", 1): np.array([1.0, 0.0])}
        with pytest.raises(EstimationError, match="variance"):
            saltenis_T(evals, 1)

    def test_missing_label_rejected(self):
        with pytest.raises(EstimationError, match="missing"):
            saltenis_T({"A": np.array([0.0, 1.0])}, 1)


def _script_corr(u, v):
    mu = sum(u) / len(u)
    mv = sum(v) / len(v)
    num = sum((a - mu) * (b - mv) for a, b in zip(u, v))
    du = math.sqrt(sum((a - mu) ** 2 for a in u))
    dv = math.sqrt(sum((b - mv) ** 2 for b in v))
    return num / (du * dv)


def _script_d3(f_a, f_b, f_ab, f_ba, k):
    """Plain-loop transcription of the D3 correlation formulas."""
    out = []
    for j in range(k):
        c_dmj = 0.5 * (_script_corr(f_a, f_ab[j]) + _script_corr(f_b, f_ba[j]))
        c_dj = 0.5 * (_script_corr(f_b, f_ab[j]) + _script_corr(f_a, f_ba[j]))
        p_j = 0.5 * (_script_corr(f_a, f_b) + _script_corr(f_ab[j], f_ba[j]))
        c_aj = (c_dmj - p_j * c_dj) / (1 - p_j**2)
        c_amj = (c_dj - p_j * c_dmj) / (1 - p_j**2)
        out.append(1 - c_dmj + p_j * c_aj / (1 - c_aj * c_amj))
    return out


class TestGlenIsaacs:
    def test_tiny_instance_matches_scripted_formulas(self):
        spec = DesignSpec(kind="symmetric2", n=2, N=4, k=2)
        evals = _plan_evals(spec, lambda pts: pts[:, 0] * pts[:, 1])
        est = glen_isaacs_d3_T(evals, 2)
        scripted = _script_d3(
            list(evals["A"]),
            list(evals["B"]),
            [list(evals[hybrid_label("A", "B", j)]) for j in (1, 2)],
            [list(evals[hybrid_label("B", "A", j)]) for j in (1, 2)],
            2,
        )
        assert est.total == pytest.approx(scripted, abs=1e-12)

    def test_null_factor_reduces_to_correction_term(self):
        spec = DesignSpec(kind="symmetric2", n=2, N=4096, k=2)
        evals = _plan_evals(spec, lambda pts: np.sin(6 * pts[:, 1]))
        est = glen_isaacs_d3_T(evals, 2)
        c_dmj, _, p_j, c_aj, c_amj = (t[0] for t in _d3_terms(_outputs(evals, "symmetric2", 2, 2), 2))
        assert c_dmj == pytest.approx(1.0, abs=1e-12)
        expected = p_j * c_aj / (1 - c_aj * c_amj)
        assert est.total[0] == pytest.approx(expected, abs=1e-12)
        assert abs(est.total[0]) < 0.05

    def test_correction_identity(self):
        spec = DesignSpec(kind="symmetric2", n=2, N=64, k=3)
        evals = _plan_evals(spec, lambda pts: pts.sum(axis=1) ** 2)
        c_dmj, c_dj, p_j, c_aj, c_amj = _d3_terms(_outputs(evals, "symmetric2", 2, 3), 3)
        assert c_aj.shape == (3,)
        assert c_aj == pytest.approx((c_dmj - p_j * c_dj) / (1 - p_j**2), abs=1e-14)
        assert c_amj == pytest.approx((c_dj - p_j * c_dmj) / (1 - p_j**2), abs=1e-14)


class TestD3GatherReference:
    """``_d3_terms`` and ``glen_isaacs_d3_T`` give the bits and error texts of the gather formulation."""

    @staticmethod
    def _outputs(N, k, seed):
        """Random (2 + 2k, N) outputs at three scales, also rounded to ties, and rows raising either error text."""
        rng = np.random.default_rng(seed)
        for scale in (1e-8, 1.0, 1e8):
            y = (rng.standard_normal((2 + 2 * k, N)) + rng.uniform(-3, 3)) * scale
            yield y
            yield np.round(y / scale) * scale
        y = rng.random((2 + 2 * k, N))
        y[2 + k] = 0.3   # B_A(1) constant
        yield y
        y = rng.random((2 + 2 * k, N))
        y[1] = -y[0]
        for j in (k // 2, k - 1):   # rho(A, B) = rho(A_B(j), B_A(j)) = -1, so |p_j| = 1 first at factor k // 2 + 1
            y[2 + k + j] = -y[2 + j]
        yield y.copy()
        y[2 + k - 1] = 0.5   # a constant A_B(k) as well: the constant-vector text comes first
        yield y

    @pytest.mark.parametrize("k", [1, 2, 6, 12])
    @pytest.mark.parametrize("N", [2, 3, 8, 1000, 2**13])
    @pytest.mark.parametrize("tile_values", [qmc._TILE_VALUES, 1])
    def test_equals_reference_bit_for_bit(self, N, k, tile_values, monkeypatch):
        monkeypatch.setattr(qmc, "_TILE_VALUES", tile_values)
        texts = set()
        for y in self._outputs(N, k, seed=k * N):
            try:
                expected = _d3_reference(y, k)
            except EstimationError as exc:
                texts.add(str(exc))
                with pytest.raises(EstimationError) as got:
                    _d3_terms(y, k)
                assert str(got.value) == str(exc)
                continue
            assert [t.tobytes() for t in _d3_terms(y, k)] == [t.tobytes() for t in expected]
            variance = estimators._checked_variance(y[:2], "matrices A and B")
            c_dmj, _, p_j, c_aj, c_amj = expected
            numerator = (1.0 - c_dmj + p_j * c_aj / (1.0 - c_aj * c_amj)) * variance
            est = glen_isaacs_d3_T(y, k)
            assert est.numerator.tobytes() == numerator.tobytes()
            assert est.total.tobytes() == (numerator / variance).tobytes()
            assert est.variance == variance
        assert "correlation of a constant vector is undefined" in texts
        # at N = 2 any two rows correlate to +-1, so random outputs already fail at an earlier factor
        assert f"spurious correlation |p_{k // 2 + 1}| = 1; correction undefined" in texts or N == 2
        assert any(text.startswith("spurious correlation") for text in texts)

    def test_traced_peak_at_most_4_mib(self):
        # the gather formulation held 85 MiB here, 6.5 times the 13 MiB outputs
        y = np.random.default_rng(0).random((26, 2**16))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            glen_isaacs_d3_T(y, 12)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, peak


class TestOwen:
    def test_hand_correction_term(self):
        # every estimator needs N >= 2, so the one hand-checked row is repeated
        evals = {
            "A": np.array([1.0, 1.0]),
            "B": np.array([2.0, 2.0]),
            hybrid_label("B", "A", 1): np.array([3.0, 3.0]),
            hybrid_label("C", "B", 1): np.array([0.0, 0.0]),
        }
        est = owen_T(evals, 1)
        # the subtracted product term is (2 - 0)(3 - 1) = 4 on each row
        assert est.variance - est.numerator[0] == pytest.approx(4.0)

    def test_null_factor_small_at_large_n(self):
        spec = DesignSpec(kind="owen", n=3, N=2**12, k=2)
        evals = _plan_evals(spec, lambda pts: pts[:, 1] ** 2)
        est = owen_T(evals, 2)
        assert abs(est.total[0]) < 0.05

    def test_variance_pooled_over_a_and_b(self):
        spec = DesignSpec(kind="owen", n=3, N=8, k=2)
        evals = _plan_evals(spec, lambda pts: pts[:, 0] + pts[:, 1])
        est = owen_T(evals, 2)
        pooled = np.concatenate([evals["A"], evals["B"]])
        assert est.variance == pytest.approx(np.var(pooled))


def _script_lamboni(bases, hybrids, n, k, N):
    """Plain-loop transcription of the donor-averaged squared-difference form."""
    flat = [x for b in bases for x in b]
    mean = sum(flat) / len(flat)
    var = sum((x - mean) ** 2 for x in flat) / len(flat)
    out = []
    for j in range(k):
        total = 0.0
        for i in range(N):
            for m in range(n):
                inner = 0.0
                for q in range(n):
                    if q == m:
                        continue
                    inner += (bases[m][i] - hybrids[m][q][j][i]) / (n - 1)
                total += inner**2
        out.append((n - 1) / (N * n * n) * total / var)
    return out


class TestLamboni:
    def test_n2_equals_symmetric_squared_difference(self):
        spec = DesignSpec(kind="lamboni", n=2, N=32, k=3)
        evals = _plan_evals(spec, lambda pts: np.exp(pts).sum(axis=1))
        est = lamboni_T(evals, 3, 2)
        f_a, f_b = evals["A"], evals["B"]
        pooled_var = np.var(np.concatenate([f_a, f_b]))
        for j in (1, 2, 3):
            f_ab = evals[hybrid_label("A", "B", j)]
            f_ba = evals[hybrid_label("B", "A", j)]
            direct = (np.sum((f_a - f_ab) ** 2) + np.sum((f_b - f_ba) ** 2)) / (4 * 32)
            assert est.total[j - 1] == pytest.approx(direct / pooled_var, abs=1e-12)

    def test_null_factor_exact_zero(self):
        spec = DesignSpec(kind="lamboni", n=3, N=8, k=2)
        evals = _plan_evals(spec, lambda pts: np.cos(pts[:, 1]))
        assert lamboni_T(evals, 2, 3).total[0] == 0.0

    def test_hand_instance_matches_scripted_formula(self):
        spec = DesignSpec(kind="lamboni", n=3, N=2, k=1)
        evals = _plan_evals(spec, lambda pts: 3.0 * pts[:, 0] ** 2 + 1.0, seed=11)
        est = lamboni_T(evals, 1, 3)
        bases = [list(evals["A"]), list(evals["B"]), list(evals["C"])]
        hybrids = [
            [[list(evals[hybrid_label(bl, dl, 1)])] if bl != dl else None for dl in "ABC"]
            for bl in "ABC"
        ]
        scripted = _script_lamboni(bases, hybrids, 3, 1, 2)
        assert est.total == pytest.approx(scripted, abs=1e-12)


class TestMultimatrix:
    def test_uses_first_base_variance(self):
        spec = DesignSpec(kind="multimatrix", n=3, N=16, k=2)
        evals = _plan_evals(spec, lambda pts: pts[:, 0] * 2 + pts[:, 1])
        est = multimatrix_T(evals, 2, 3)
        assert est.variance == pytest.approx(np.var(evals["A"]))

    def test_effect_count(self):
        spec = DesignSpec(kind="multimatrix", n=3, N=4, k=2)
        evals = _plan_evals(spec, lambda pts: pts.sum(axis=1))
        est = multimatrix_T(evals, 2, 3)
        assert est.effects_used.tolist() == [36, 36]  # n^2 (n-1) / 2 * N = 9 * 4


class TestCyclic:
    def test_null_factor_exact_zero(self):
        spec = DesignSpec(kind="cyclic_single", n=1, N=8, k=2)
        evals = _plan_evals(spec, lambda pts: pts[:, 1] ** 3)
        assert cyclic_single_matrix_T(evals, 2).total[0] == 0.0

    def test_hand_pairs(self):
        evals = {"A": np.array([0.25, 0.75]), cyclic_label(1): np.array([0.75, 0.25])}
        est = cyclic_single_matrix_T(evals, 1)
        assert est.numerator[0] == pytest.approx(0.125)

    def test_single_row_rejected(self):
        with pytest.raises(EstimationError, match=re.escape("N >= 2 rows per matrix (got N = 1)")):
            cyclic_single_matrix_T({"A": np.array([0.5]), cyclic_label(1): np.array([0.5])}, 1)


ALL_RUNNERS = [
    (DesignSpec(kind="asymmetric", n=2, N=32, k=3), lambda e: saltenis_T(e, 3)),
    (DesignSpec(kind="symmetric2", n=2, N=32, k=3), lambda e: glen_isaacs_d3_T(e, 3)),
    (DesignSpec(kind="owen", n=3, N=32, k=3), lambda e: owen_T(e, 3)),
    (DesignSpec(kind="multimatrix", n=3, N=16, k=3), lambda e: multimatrix_T(e, 3, 3)),
    (DesignSpec(kind="lamboni", n=3, N=16, k=3), lambda e: lamboni_T(e, 3, 3)),
    (DesignSpec(kind="cyclic_single", n=1, N=32, k=3), lambda e: cyclic_single_matrix_T(e, 3)),
]


@pytest.mark.parametrize("spec,runner", ALL_RUNNERS, ids=lambda v: getattr(v, "kind", ""))
class TestSharedProperties:
    def _evals(self, spec):
        return _plan_evals(spec, lambda pts: np.exp(pts[:, 0]) + pts.prod(axis=1), seed=5)

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(0.1, 10.0) | st.floats(-10.0, -0.1), b=st.floats(-10.0, 10.0))
    @example(a=3.7, b=0.0)
    @example(a=1.0, b=2.5)
    def test_scale_equivariance(self, spec, runner, a, b):
        """T-hat is unchanged by y -> a*y + b for any a != 0 and shift b."""
        evals = self._evals(spec)
        moved = {label: a * v + b for label, v in evals.items()}
        assert runner(moved).total == pytest.approx(runner(evals).total, abs=1e-12)

    def test_shift_invariance(self, spec, runner):
        evals = self._evals(spec)
        shifted = {label: v + 2.5 for label, v in evals.items()}
        assert runner(shifted).total == pytest.approx(runner(evals).total, abs=1e-12)

    def test_factor_permutation_equivariance(self, spec, runner):
        if spec.kind == "owen":
            swaps = {hybrid_label("B", "A", 1): hybrid_label("B", "A", 2),
                     hybrid_label("C", "B", 1): hybrid_label("C", "B", 2)}
        elif spec.kind == "cyclic_single":
            swaps = {cyclic_label(1): cyclic_label(2)}
        else:
            swaps = {}
            for label in self._evals(spec):
                if label.endswith("(1)"):
                    swaps[label] = label[:-3] + "(2)"
        evals = self._evals(spec)
        full_swap = dict(swaps, **{v: k for k, v in swaps.items()})
        relabelled = {full_swap.get(label, label): v for label, v in evals.items()}
        direct = runner(evals).total
        permuted = runner(relabelled).total
        assert permuted[0] == pytest.approx(direct[1], abs=1e-14)
        assert permuted[1] == pytest.approx(direct[0], abs=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_squared_difference_numerators_nonnegative(self, spec, runner, data):
        """Squared-difference estimators give T-hat >= 0 for any finite, non-constant outputs."""
        if spec.kind in ("symmetric2", "owen"):
            pytest.skip("correlation/product estimators may go negative at finite N")
        layout = plan_layout(spec.kind, spec.n, spec.k)
        values = st.floats(-1e6, 1e6, allow_subnormal=False)
        size = len(layout) * spec.N
        y = np.array(data.draw(st.lists(values, min_size=size, max_size=size))).reshape(len(layout), spec.N)
        evals = {label: row for (label, *_), row in zip(layout, y)}
        try:
            est = runner(evals)
        except EstimationError as exc:   # constant base outputs have no index
            assert "zero output variance" in str(exc)
            assume(False)
        assert np.all(est.numerator >= 0.0)
        assert np.all(est.total >= 0.0)

    def test_missing_base_vector_raises_estimation_error(self, spec, runner):
        evals = dict(self._evals(spec))
        del evals["A"]
        with pytest.raises(EstimationError, match="'A'"):
            runner(evals)

    def test_non_finite_hybrid_raises_estimation_error(self, spec, runner):
        good = self._evals(spec)
        hybrid = plan_layout(spec.kind, spec.n, spec.k)[-1][0]   # the last hybrid
        for label, bad in [
            (hybrid, np.where(np.arange(spec.N) == 3, np.nan, good[hybrid])),
            ("A", np.where(np.arange(spec.N) == 0, np.inf, good["A"])),
            (hybrid, good[hybrid][:-1]),        # one row short
            (hybrid, good[hybrid][:, None]),    # (N, 1)
        ]:
            with pytest.raises(EstimationError, match=re.escape(repr(label))):
                runner(dict(good, **{label: bad}))

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_row_permutation_invariance(self, spec, runner, data):
        if spec.kind == "cyclic_single":
            pytest.skip("the cyclic design pairs adjacent rows by construction")
        perm = np.array(data.draw(st.permutations(range(spec.N))))
        evals = self._evals(spec)
        permuted = {label: v[perm] for label, v in evals.items()}
        assert runner(permuted).total == pytest.approx(runner(evals).total, abs=1e-12)

    def test_effects_used_matches_pairing_table(self, spec, runner):
        rng = np.random.default_rng(5)
        bases = [rng.random((spec.N, spec.k)) for _ in range(spec.n)]
        plan = assemble_plan(spec, bases)
        evals = plan.split_outputs(np.exp(plan.points[:, 0]) + plan.points.prod(axis=1))
        est = runner(evals)
        left, _ = factor_segments(spec.kind, spec.n, spec.k)
        couple_rows = plan.points.reshape(-1, spec.N, spec.k)[left]   # (k, couples, N, k)
        for j in range(1, spec.k + 1):
            assert est.effects_used[j - 1] == len(couple_rows[j - 1].reshape(-1, spec.k))


@pytest.mark.slow
class TestConsistency:
    """Mean |T_hat - T| below 0.05 at N = 2^13 over 50 scrambled repetitions.

    The cyclic single-matrix variant is excluded: its steps reuse adjacent
    quasi-random rows, whose coordinate increments are not independent draws,
    leaving a bias of up to ~0.36 on strongly interactive functions (measured
    at N = 2^13).  That bias is inherent to the construction, not a defect of
    the implementation; the benchmarks only ever claim it is "not better"
    than the asymmetric estimator.
    """

    CASES = [
        ("saltenis", DesignSpec(kind="asymmetric", n=2, N=2**13, k=2)),
        ("glen_isaacs", DesignSpec(kind="symmetric2", n=2, N=2**13, k=2)),
        ("owen", DesignSpec(kind="owen", n=3, N=2**13, k=2)),
        ("lamboni", DesignSpec(kind="lamboni", n=3, N=2**13, k=2)),
    ]

    @pytest.mark.parametrize("family", ["A1", "A2", "B1", "B2", "B3", "C1", "C2"])
    def test_mean_error_below_bound(self, family):
        fn = function_spec(family, 2)
        truth = analytic_indices(fn).total
        for name, spec in self.CASES:
            errs = []
            for rep in range(50):
                est = estimate_total_effects(spec, fn=fn, seed=17, repetition=rep)
                errs.append(np.abs(est.total - truth))
            worst = np.mean(errs, axis=0).max()
            assert worst < 0.05, f"{name} on {family}: mean error {worst:.4f}"


class TestEntryPoint:
    def test_dispatch_by_design_kind(self):
        spec = DesignSpec(kind="asymmetric", n=2, N=8, k=2)
        evals = _plan_evals(spec, lambda pts: pts.sum(axis=1))
        direct = saltenis_T(evals, 2)
        routed = run_estimator(spec, evals)
        assert routed.total == pytest.approx(direct.total)

    def test_every_design_kind_names_an_exported_estimator(self):
        assert all(rule.estimator in estimators.__all__ for rule in DESIGN_KINDS.values())

    @pytest.mark.parametrize("kind,n", PLAN_CASES)
    def test_dispatch_calls_the_module_attribute_at_call_time(self, kind, n, monkeypatch):
        # the benchmark's tracer rebinds estimator names in the module; dispatch must reach the rebound function
        name, calls = DESIGN_KINDS[kind].estimator, []
        original = getattr(estimators, name)
        monkeypatch.setattr(estimators, name, lambda evals, *args: calls.append(args) or original(evals, *args))
        spec = DesignSpec(kind=kind, n=n, N=8, k=2)
        evals = _plan_evals(spec, lambda pts: pts.sum(axis=1) + pts[:, 0] ** 2)
        routed = run_estimator(spec, evals)
        assert calls == [(2,) if DESIGN_KINDS[kind].n else (2, n)]
        assert np.array_equal(routed.total, original(evals, *calls[0]).total)

    def test_sampled_estimate_converges(self):
        fn = function_spec("C2", 2)
        spec = DesignSpec(kind="asymmetric", n=2, N=2**13, k=2)
        est = estimate_total_effects(spec, fn=fn, seed=1, repetition=0)
        truth = analytic_indices(fn).total
        assert np.max(np.abs(est.total - truth)) < 0.02

    def test_sample_plan_scrambles_columns(self):
        spec = DesignSpec(kind="asymmetric", n=2, N=8, k=3)
        plain = sample_plan(spec)
        scrambled = sample_plan(spec, seed=4, repetition=1)
        assert plain.points.shape == scrambled.points.shape
        assert not np.array_equal(plain.points, scrambled.points)

    def test_estimate_csv_layout(self):
        spec = DesignSpec(kind="asymmetric", n=2, N=16, k=2)
        est = estimate_total_effects(spec, fn=function_spec("C1", 2), seed=0)
        lines = estimate_csv(est).strip().splitlines()
        assert lines[0] == "factor,T_hat,numerator,effects_used"
        assert len(lines) == 3

    @pytest.mark.parametrize("kind,n", PLAN_CASES)
    def test_single_row_plan_names_n(self, kind, n, monkeypatch):
        # the check comes before the draw: the model sees no row
        rows = []
        monkeypatch.setattr(testfns, "evaluate", lambda fn, points: rows.append(len(points)) or evaluate(fn, points))
        spec = DesignSpec(kind=kind, n=n, N=1, k=3)
        with pytest.raises(EstimationError, match=re.escape("estimators need N >= 2 rows per matrix (got N = 1)")):
            estimate_total_effects(spec, fn=function_spec("A2", 3), seed=1)
        assert rows == []

    def test_block_beyond_the_generator_fails_before_any_model_run(self, monkeypatch):
        rows = []
        monkeypatch.setattr(testfns, "evaluate", lambda fn, points: rows.append(len(points)) or evaluate(fn, points))
        with pytest.raises(ValueError, match=re.escape("N must be a power of two up to 2**24")):
            estimate_total_effects(DesignSpec("asymmetric", 2, 2**25, 1), fn=function_spec("A2", 1))
        assert rows == []

    @pytest.mark.parametrize("seed,repetition,name", [(-1, 0, "seed"), (1, -1, "repetition")])
    def test_negative_seed_or_repetition_named(self, seed, repetition, name):
        spec = DesignSpec(kind="asymmetric", n=2, N=8, k=3)
        with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
            estimate_total_effects(spec, fn=function_spec("A2", 3), seed=seed, repetition=repetition)


class TestStreamedEvaluation:
    """``estimate_total_effects`` evaluates in whole-segment chunks, never the assembled plan."""

    @staticmethod
    def _assert_equals_assembled(spec, fn, seed):
        streamed = estimate_total_effects(spec, fn=fn, seed=seed, repetition=2)
        plan = sample_plan(spec, seed=seed, repetition=2)
        assembled = run_estimator(spec, plan.split_outputs(evaluate(fn, plan.points)))
        assert np.array_equal(streamed.total, assembled.total)
        assert np.array_equal(streamed.numerator, assembled.numerator)
        assert streamed.variance == assembled.variance
        assert np.array_equal(streamed.effects_used, assembled.effects_used)

    @pytest.mark.parametrize("kind,n", PLAN_CASES)
    def test_equals_assembled_plan(self, kind, n):
        self._assert_equals_assembled(DesignSpec(kind=kind, n=n, N=64, k=3), function_spec("A2", 3), seed=5)

    @pytest.mark.parametrize(
        "kind,n,N,k",
        [("asymmetric", 2, 2**17, 2), ("owen", 3, 2**16, 2), ("lamboni", 4, 2**14, 3), ("cyclic_single", 1, 2**16, 3)],
    )
    def test_equals_assembled_plan_over_several_chunks(self, kind, n, N, k):
        spec = DesignSpec(kind=kind, n=n, N=N, k=k)
        assert design_metrics(spec).total_points > 2**17
        self._assert_equals_assembled(spec, function_spec("B1", k), seed=1)

    def test_ranges_of_a_held_pool_are_views_not_generated(self, monkeypatch):
        # a design longer than one tile range reads each range, with its next row, from the held pool of 2N rows
        spec, fn = DesignSpec(kind="asymmetric", n=2, N=2**16, k=6), function_spec("B1", 6)
        generated, direction_vectors = [], qmc._direction_vectors
        monkeypatch.setattr(qmc, "_direction_vectors", lambda: generated.append(1) or direction_vectors())
        alone = estimate_total_effects(spec, fn=fn, seed=1, repetition=0)
        assert len(generated) == 4   # four row ranges, each generated
        held = estimators._draw_rows(DesignSpec(kind="asymmetric", n=2, N=2**17, k=6), 1, 0)(0, 2**17)
        generated.clear()
        shared = estimate_total_effects(spec, fn=fn, seed=1, repetition=0)
        assert generated == [] and shared.total.tobytes() == alone.total.tobytes()
        del held

    def test_peak_memory_below_the_full_points_array(self):
        spec = DesignSpec(kind="asymmetric", n=2, N=2**16, k=12)
        fn = function_spec("B1", 12)
        tracemalloc.start()
        try:
            estimate_total_effects(spec, fn=fn, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < design_metrics(spec).total_points * spec.k * 8

    @pytest.mark.parametrize("kind,n,N", [("asymmetric", 2, 2**16), ("lamboni", 4, 2**14), ("symmetric2", 2, 2**14)])
    def test_working_set_does_not_grow_with_n(self, kind, n, N):
        # the traced peak beyond the (segments, N) outputs is the same, within one tile, at N and at 4N; both
        # sizes take several row ranges per segment, and each estimate runs on a new thread, with a new tile buffer
        def excess(N):
            spec = DesignSpec(kind=kind, n=n, N=N, k=12)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                estimate_total_effects(spec, fn=function_spec("B1", 12), seed=1)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            return peak - len(plan_layout(kind, n, 12)) * N * 8

        def on_new_thread(N):
            with ThreadPoolExecutor(1) as ex:
                return ex.submit(excess, N).result()

        small, large = on_new_thread(N), on_new_thread(4 * N)
        assert abs(large - small) <= qmc._TILE_VALUES * 8, (small, large)


class TestArrayEntry:
    """Estimators read the ``(segments, N)`` output array as they read its labelled rows."""

    @pytest.mark.parametrize("kind,n", PLAN_CASES)
    def test_equals_labelled_rows(self, kind, n):
        spec = DesignSpec(kind=kind, n=n, N=32, k=3)
        plan = sample_plan(spec, seed=2)
        y = evaluate(function_spec("A2", 3), plan.points)
        from_array = run_estimator(spec, y.reshape(-1, spec.N))
        from_dict = run_estimator(spec, plan.split_outputs(y))
        assert np.array_equal(from_array.total, from_dict.total)
        assert np.array_equal(from_array.numerator, from_dict.numerator)
        assert from_array.variance == from_dict.variance
        assert np.array_equal(from_array.effects_used, from_dict.effects_used)

    @pytest.mark.parametrize("kind,n", PLAN_CASES)
    @pytest.mark.parametrize("fault", ["nan", "inf", "missing_segment", "single_row"])
    def test_same_error_text_as_labelled_rows(self, kind, n, fault):
        spec = DesignSpec(kind=kind, n=n, N=8, k=3)
        layout = plan_layout(kind, n, 3)
        y = np.random.default_rng(1).random((len(layout), 8))
        if fault == "nan":
            y[-2, 3] = np.nan
        elif fault == "inf":
            y[1, 0] = -np.inf
        elif fault == "missing_segment":
            y = y[:-1]
        else:
            y = y[:, :1]
        labelled = {label: row for (label, *_), row in zip(layout, y)}
        with pytest.raises(EstimationError) as from_dict:
            run_estimator(spec, labelled)
        with pytest.raises(EstimationError) as from_array:
            run_estimator(spec, y)
        assert str(from_array.value) == str(from_dict.value)

    def test_finite_outputs_whose_sum_overflows_accepted(self):
        # finiteness is read off the sum first; a sum that overflows on finite values is checked row by row
        y = np.full((2, 4), 1e308)
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert _outputs(y, "asymmetric", 2, 1) is y

    def test_extra_segment_rejected(self):
        spec = DesignSpec(kind="asymmetric", n=2, N=8, k=2)
        with pytest.raises(EstimationError, match=re.escape("output array has shape (4, 8), expected (3, N)")):
            run_estimator(spec, np.random.default_rng(0).random((4, 8)))

    @pytest.mark.parametrize("kind,n", PLAN_CASES)
    def test_float_array_used_in_place_and_left_unchanged(self, kind, n):
        y = np.random.default_rng(0).random((len(plan_layout(kind, n, 2)), 16))
        before = y.copy()
        assert _outputs(y, kind, n, 2) is y
        run_estimator(DesignSpec(kind=kind, n=n, N=16, k=2), y)
        assert np.array_equal(y, before)


def _oracle_variance(y, context):
    v = float(np.var(y))
    if v <= (4.0 * np.finfo(float).eps * max(float(y.max()), -float(y.min()))) ** 2:
        raise EstimationError(f"zero output variance in {context}; indices undefined")
    return v


def _oracle(kind, n, k, y):
    """(total, numerator, variance) by the estimators' formulas as first written: np.var, np.mean, np.clip and
    six separate correlation calls."""
    if kind == "symmetric2":
        variance = _oracle_variance(y[:2], "matrices A and B")
        d = y - y.mean(axis=1, keepdims=True)
        norms = np.vecdot(d, d)
        if np.any(norms == 0.0):
            raise EstimationError("correlation of a constant vector is undefined")

        def rho(u, v):
            return np.clip(np.vecdot(d[u], d[v]) / np.sqrt(norms[u] * norms[v]), -1.0, 1.0)

        a, b, ab, ba = 0, 1, slice(2, 2 + k), slice(2 + k, 2 + 2 * k)
        c_dmj = 0.5 * (rho(a, ab) + rho(b, ba))
        c_dj = 0.5 * (rho(b, ab) + rho(a, ba))
        p_j = 0.5 * (rho(a, b) + rho(ab, ba))
        if np.any(np.abs(p_j) >= 1.0):
            j = int(np.argmax(np.abs(p_j) >= 1.0)) + 1
            raise EstimationError(f"spurious correlation |p_{j}| = 1; correction undefined")
        c_aj = (c_dmj - p_j * c_dj) / (1.0 - p_j**2)
        c_amj = (c_dj - p_j * c_dmj) / (1.0 - p_j**2)
        numerator = (1.0 - c_dmj + p_j * c_aj / (1.0 - c_aj * c_amj)) * variance
    elif kind == "owen":
        variance = _oracle_variance(y[:2], "matrices A and B")
        f_ba, f_cb = y[2:].reshape(2, k, -1)
        numerator = variance - np.mean((y[1] - f_cb) * (f_ba - y[0]), axis=1)
    elif kind == "lamboni":
        N = y.shape[1]
        variance = _oracle_variance(y[:n], "pooled base matrices")
        inner = (y[:n, None, None, :] - y[n:].reshape(n, n - 1, k, N)).sum(axis=1) / (n - 1)
        numerator = (n - 1) / (N * n * n) * np.square(inner).sum(axis=(0, 2))
    else:
        variance = _oracle_variance(y[:1], "matrix A")
        left, right = factor_segments(kind, n, k)
        diff = y[right] - (y[left] if left.any() else y[0])
        numerator = np.square(diff).sum(axis=(1, 2)) / (2.0 * diff[0].size)
    return numerator / variance, numerator, variance


class TestBitwiseOracle:
    """Every estimator gives the oracle's bits, and the oracle's error text on degenerate outputs."""

    @staticmethod
    def _outputs(kind, n, k, N, seed):
        """Random (segments, N) outputs at scales 1e-8 .. 1e8, also rounded to ties, and degenerate ones."""
        rng = np.random.default_rng(seed)
        segments = len(plan_layout(kind, n, k))
        for scale in (1e-8, 1e-3, 1.0, 1e3, 1e8):
            y = (rng.standard_normal((segments, N)) + rng.uniform(-3, 3)) * scale
            yield y
            yield np.round(y / scale) * scale   # few distinct values: tied outputs, some constant rows
        y = rng.random((segments, N))
        y[:n] = 0.1   # constant base matrices, whose mean does not round exactly
        yield y
        y = rng.random((segments, N))
        y[-1] = y[1]   # a hybrid equal to matrix B
        yield y

    # Lamboni at n = 3 and 6 sums two and five donors per base, one at a time; a one-value tile makes the
    # estimators build their temporaries one factor at a time
    @pytest.mark.parametrize("kind,n", [*PLAN_CASES, ("lamboni", 3), ("lamboni", 6)])
    @pytest.mark.parametrize("k", [1, 2, 6, 12])
    @pytest.mark.parametrize("N", [2, 3, 8, 1000])
    @pytest.mark.parametrize("tile_values", [qmc._TILE_VALUES, 1])
    def test_equals_oracle_bit_for_bit(self, kind, n, k, N, tile_values, monkeypatch):
        monkeypatch.setattr(qmc, "_TILE_VALUES", tile_values)
        spec = DesignSpec(kind=kind, n=n, N=N, k=k)
        for y in self._outputs(kind, n, k, N, seed=k * N + n):
            try:
                expected = _oracle(kind, n, k, y)
            except EstimationError as exc:
                with pytest.raises(EstimationError) as got:
                    run_estimator(spec, y)
                assert str(got.value) == str(exc)
                continue
            got = run_estimator(spec, y)
            assert got.total.tobytes() == expected[0].tobytes()
            assert got.numerator.tobytes() == expected[1].tobytes()
            assert np.float64(got.variance).tobytes() == np.float64(expected[2]).tobytes()
