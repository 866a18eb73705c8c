"""Total-effect index estimators over labelled evaluation vectors.

Every estimator consumes an :class:`EvaluationSet` (model outputs keyed by the
plan's matrix labels) and returns a :class:`TotalIndexEstimate`.  Conventions
fixed for reproducibility: variances are population (1/N) moments; Pearson
correlations use matched numerator/denominator normalisation so |rho| <= 1;
negative estimates from the Owen and Glen-Isaacs formulas are reported as-is.

Estimator provenance: the squared-difference form goes back to Saltenis and
Dzemyda (1982) and Jansen (1999); the correlation-based D3 follows Glen and
Isaacs (2012); the three-matrix product form follows Owen (2013) as used in
the R ``sensitivity`` package; the many-matrix generalisation is Lamboni
(2018).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import designs, qmc, testfns
from .designs import DesignSpec, base_label, cyclic_label, hybrid_label

EvaluationSet = Mapping[str, np.ndarray]


class EstimationError(ValueError):
    """Raised when an estimator's inputs are degenerate (constant vectors, etc.)."""


@dataclass(frozen=True)
class TotalIndexEstimate:
    """Per-factor total-effect estimates with their building blocks."""

    total: np.ndarray          # T-hat, length k
    numerator: np.ndarray      # per-factor numerator, T-hat = numerator / variance
    variance: float            # V-hat(Y) used for normalisation
    effects_used: np.ndarray   # elementary effects consumed per factor

    @property
    def k(self) -> int:
        return len(self.total)


def sample_variance(f: np.ndarray) -> float:
    """Population (1/N) variance of an output vector."""
    f = np.asarray(f, dtype=float)
    if f.ndim != 1 or len(f) < 2:
        raise EstimationError("variance needs a one-dimensional vector of length >= 2")
    return float(np.var(f))


def pearson_rho(u: np.ndarray, v: np.ndarray) -> float:
    """Product-moment correlation with matched normalisation (|rho| <= 1)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1 or len(u) < 2:
        raise EstimationError("correlation needs two equal-length vectors of length >= 2")
    du, dv = u - u.mean(), v - v.mean()
    su, sv = float(du @ du), float(dv @ dv)
    if su == 0.0 or sv == 0.0:
        raise EstimationError("correlation of a constant vector is undefined")
    # clip guards float round-off only; the estimator itself satisfies |rho| <= 1
    return float(np.clip(du @ dv / np.sqrt(su * sv), -1.0, 1.0))


def _require(evals: EvaluationSet, label: str, n_rows: int | None = None) -> np.ndarray:
    """Vector ``label`` of the evaluation set, of length ``n_rows`` when given."""
    try:
        vec = np.asarray(evals[label], dtype=float)
    except KeyError:
        raise EstimationError(f"evaluation set is missing vector {label!r}") from None
    if n_rows is not None and vec.shape != (n_rows,):
        raise EstimationError(f"vector {label!r} has shape {vec.shape}, expected ({n_rows},)")
    return vec


def _checked_variance(v: float, context: str) -> float:
    if v <= 0.0:
        raise EstimationError(f"zero output variance in {context}; indices undefined")
    return v


def saltenis_T(evals: EvaluationSet, k: int) -> TotalIndexEstimate:
    """Squared-difference estimator on the asymmetric design (A plus A_B(j)).

    numerator_j = 1/(2N) sum_i (f(a_i) - f(a_b,i^(j)))^2, normalised by the
    variance of the independent runs (matrix A).
    """
    f_a = _require(evals, "A")
    n_rows = len(f_a)
    variance = _checked_variance(sample_variance(f_a), "matrix A")
    numerator = np.empty(k)
    for j in range(1, k + 1):
        f_ab = _require(evals, hybrid_label("A", "B", j), n_rows)
        numerator[j - 1] = float(np.mean((f_a - f_ab) ** 2)) / 2.0
    return TotalIndexEstimate(
        total=numerator / variance,
        numerator=numerator,
        variance=variance,
        effects_used=np.full(k, n_rows),
    )


@dataclass(frozen=True)
class CorrelationTerms:
    """The per-factor correlations feeding the D3 estimator.

    ``c_d_minus_j`` is the symmetrised correlation over couples differing only
    in coordinate j, ``c_d_j`` over couples sharing only coordinate j, and
    ``p_j`` the spurious correlation over couples sharing no columns.  The
    corrected terms remove the spurious channel:
    corrected = (raw - p_j * raw_other) / (1 - p_j^2).
    """

    c_d_minus_j: float
    c_d_j: float
    p_j: float
    c_a_j: float          # corrected, from raw c_d_minus_j
    c_a_minus_j: float    # corrected, from raw c_d_j


def d3_correlation_terms(evals: EvaluationSet, k: int, j: int) -> CorrelationTerms:
    """Correlation terms of the D3 estimator for factor ``j`` (1-based)."""
    f_a = _require(evals, "A")
    n_rows = len(f_a)
    f_b = _require(evals, "B", n_rows)
    f_ab = _require(evals, hybrid_label("A", "B", j), n_rows)
    f_ba = _require(evals, hybrid_label("B", "A", j), n_rows)
    c_dmj = 0.5 * (pearson_rho(f_a, f_ab) + pearson_rho(f_b, f_ba))
    c_dj = 0.5 * (pearson_rho(f_b, f_ab) + pearson_rho(f_a, f_ba))
    p_j = 0.5 * (pearson_rho(f_a, f_b) + pearson_rho(f_ab, f_ba))
    if abs(p_j) >= 1.0:
        raise EstimationError(f"spurious correlation |p_{j}| = 1; correction undefined")
    return CorrelationTerms(
        c_d_minus_j=c_dmj,
        c_d_j=c_dj,
        p_j=p_j,
        c_a_j=(c_dmj - p_j * c_dj) / (1.0 - p_j**2),
        c_a_minus_j=(c_dj - p_j * c_dmj) / (1.0 - p_j**2),
    )


def glen_isaacs_d3_T(evals: EvaluationSet, k: int) -> TotalIndexEstimate:
    """Correlation-based D3 estimator on the symmetric two-matrix design.

    T-hat_j = 1 - c_d_minus_j + p_j c_a_j / (1 - c_a_j c_a_minus_j) with the
    terms of :func:`d3_correlation_terms`; the correction vanishes as the
    spurious correlation p_j -> 0, leaving 1 - c_d_minus_j -> T_j.
    """
    f_a = _require(evals, "A")
    n_rows = len(f_a)
    f_b = _require(evals, "B", n_rows)
    variance = _checked_variance(sample_variance(np.concatenate([f_a, f_b])), "matrices A and B")
    total = np.empty(k)
    for j in range(1, k + 1):
        t = d3_correlation_terms(evals, k, j)
        total[j - 1] = 1.0 - t.c_d_minus_j + t.p_j * t.c_a_j / (1.0 - t.c_a_j * t.c_a_minus_j)
    return TotalIndexEstimate(
        total=total,
        numerator=total * variance,
        variance=variance,
        effects_used=np.full(k, 2 * n_rows),
    )


def owen_T(evals: EvaluationSet, k: int) -> TotalIndexEstimate:
    """Three-matrix product estimator on the Owen design (A, B, B_A(j), C_B(j)).

    numerator_j = V-hat(Y) - 1/N sum_i (f(b_i) - f(c_b,i^(j)))(f(b_a,i^(j)) - f(a_i)),
    with V-hat(Y) pooled over the independent runs of A and B.
    """
    f_a = _require(evals, "A")
    n_rows = len(f_a)
    f_b = _require(evals, "B", n_rows)
    variance = _checked_variance(sample_variance(np.concatenate([f_a, f_b])), "matrices A and B")
    numerator = np.empty(k)
    for j in range(1, k + 1):
        f_ba = _require(evals, hybrid_label("B", "A", j), n_rows)
        f_cb = _require(evals, hybrid_label("C", "B", j), n_rows)
        numerator[j - 1] = variance - float(np.mean((f_b - f_cb) * (f_ba - f_a)))
    return TotalIndexEstimate(
        total=numerator / variance,
        numerator=numerator,
        variance=variance,
        effects_used=np.full(k, n_rows),
    )


def _hybrid_sets(evals: EvaluationSet, k: int, n: int, n_rows: int):
    """Base vectors and hybrid vectors of an n-matrix plan, indexed [m][q][j - 1]."""
    bases = [_require(evals, base_label(m), n_rows) for m in range(n)]
    hybrids = {}
    for m in range(n):
        for q in range(n):
            if q == m:
                continue
            hybrids[m, q] = [
                _require(evals, hybrid_label(base_label(m), base_label(q), j), n_rows)
                for j in range(1, k + 1)
            ]
    return bases, hybrids


def multimatrix_T(evals: EvaluationSet, k: int, n: int) -> TotalIndexEstimate:
    """Squared-difference estimator over every coupling of an n-matrix plan.

    Uses all base-hybrid couples plus same-base hybrid-hybrid couples, i.e.
    n^2 (n-1) / 2 elementary effects per factor and row.  Normalised by the
    variance of the first base matrix, the historical convention for the
    squared-difference family.
    """
    if n < 2:
        raise EstimationError("multimatrix estimator needs n >= 2 base matrices")
    f_a = _require(evals, "A")
    n_rows = len(f_a)
    bases, hybrids = _hybrid_sets(evals, k, n, n_rows)
    variance = _checked_variance(sample_variance(bases[0]), "matrix A")
    numerator = np.empty(k)
    per_factor = n * n * (n - 1) // 2 * n_rows
    for j in range(1, k + 1):
        acc = 0.0
        for m in range(n):
            others = [q for q in range(n) if q != m]
            for q in others:
                acc += float(np.sum((bases[m] - hybrids[m, q][j - 1]) ** 2))
            for a in range(len(others)):
                for b in range(a + 1, len(others)):
                    acc += float(
                        np.sum((hybrids[m, others[a]][j - 1] - hybrids[m, others[b]][j - 1]) ** 2)
                    )
        numerator[j - 1] = acc / (2.0 * per_factor)
    return TotalIndexEstimate(
        total=numerator / variance,
        numerator=numerator,
        variance=variance,
        effects_used=np.full(k, per_factor),
    )


def lamboni_T(evals: EvaluationSet, k: int, n: int) -> TotalIndexEstimate:
    """Lamboni's many-matrix estimator: variance of donor-averaged differences.

    numerator_j = (n-1)/(N n^2) sum_i sum_m [ sum_{q != m} (f(h_m,i) -
    f(h_m<-q,i^(j))) / (n-1) ]^2, normalised by the variance pooled over all
    base matrices.  For n = 2 this reduces exactly to the two-matrix
    symmetric squared-difference estimator.
    """
    if n < 2:
        raise EstimationError("Lamboni estimator needs n >= 2 base matrices")
    f_a = _require(evals, "A")
    n_rows = len(f_a)
    bases, hybrids = _hybrid_sets(evals, k, n, n_rows)
    variance = _checked_variance(sample_variance(np.concatenate(bases)), "pooled base matrices")
    numerator = np.empty(k)
    for j in range(1, k + 1):
        acc = 0.0
        for m in range(n):
            inner = np.zeros(n_rows)
            for q in range(n):
                if q == m:
                    continue
                inner += (bases[m] - hybrids[m, q][j - 1]) / (n - 1)
            acc += float(np.sum(inner**2))
        numerator[j - 1] = (n - 1) / (n_rows * n * n) * acc
    return TotalIndexEstimate(
        total=numerator / variance,
        numerator=numerator,
        variance=variance,
        effects_used=np.full(k, n * (n - 1) * n_rows),
    )


def cyclic_single_matrix_T(evals: EvaluationSet, k: int) -> TotalIndexEstimate:
    """Squared-difference estimator on the single-matrix cyclic plan.

    Pairs row i of A with row i whose coordinate j is borrowed from row i+1,
    wrapping the last row onto the first, so one matrix supplies both sides
    of every elementary effect.
    """
    f_a = _require(evals, "A")
    n_rows = len(f_a)
    if n_rows < 2:
        raise EstimationError("cyclic estimator needs N >= 2 rows")
    variance = _checked_variance(sample_variance(f_a), "matrix A")
    numerator = np.empty(k)
    for j in range(1, k + 1):
        f_shift = _require(evals, cyclic_label(j), n_rows)
        numerator[j - 1] = float(np.mean((f_a - f_shift) ** 2)) / 2.0
    return TotalIndexEstimate(
        total=numerator / variance,
        numerator=numerator,
        variance=variance,
        effects_used=np.full(k, n_rows),
    )


def run_estimator(spec: DesignSpec, evals: EvaluationSet) -> TotalIndexEstimate:
    """Dispatch the estimator matching a design kind over an evaluation set."""
    kind = spec.kind
    if kind == "asymmetric":
        return saltenis_T(evals, spec.k)
    if kind == "symmetric2":
        return glen_isaacs_d3_T(evals, spec.k)
    if kind == "owen":
        return owen_T(evals, spec.k)
    if kind == "multimatrix":
        return multimatrix_T(evals, spec.k, spec.n)
    if kind == "lamboni":
        return lamboni_T(evals, spec.k, spec.n)
    if kind == "cyclic_single":
        return cyclic_single_matrix_T(evals, spec.k)
    raise ValueError(f"no estimator for design kind {kind!r}")


def estimate_total_effects(
    spec: DesignSpec,
    fn: testfns.FunctionSpec | None = None,
    evals: EvaluationSet | None = None,
    seed: int | None = None,
    repetition: int = 0,
) -> TotalIndexEstimate:
    """Library entry point: estimate T-hat from a function or a raw evaluation set.

    With ``fn`` given, draws the Sobol' column pool for the design (optionally
    scrambled by the per-repetition column permutation derived from ``seed``),
    assembles the plan, evaluates the function and runs the matching
    estimator.  With ``evals`` given, skips sampling entirely.
    """
    if (fn is None) == (evals is None):
        raise ValueError("provide exactly one of fn or evals")
    if evals is not None:
        return run_estimator(spec, evals)
    if fn.k != spec.k:
        raise ValueError(f"function dimension {fn.k} does not match design k = {spec.k}")
    if spec.N & (spec.N - 1):
        raise ValueError("sampled estimation needs N to be a power of two")
    plan = sample_plan(spec, seed=seed, repetition=repetition)
    y = testfns.evaluate(fn, plan.points)
    return run_estimator(spec, plan.split_outputs(y))


def sample_plan(spec: DesignSpec, seed: int | None = None, repetition: int = 0) -> "designs.EvaluationPlan":
    """Draw the Sobol' pool for a design and assemble its evaluation plan.

    Pool columns are optionally scrambled by a seeded per-repetition
    permutation; the k left-most (permuted) columns form matrix A, the next
    k matrix B, and so on.
    """
    n_cols = spec.n * spec.k
    p = int(spec.N).bit_length() - 1
    if 1 << p != spec.N:
        raise ValueError("N must be a power of two to draw generator blocks")
    pool = qmc.sobol_block(n_cols, p)
    if seed is not None:
        pool = qmc.permute_columns(pool, qmc.draw_permutation(n_cols, seed, repetition))
    return designs.assemble_plan(spec, designs.pool_matrices(pool.values, spec.n, spec.k))


def estimate_csv(estimate: TotalIndexEstimate) -> str:
    """CSV rendering of an estimate (factor,T_hat,numerator,effects_used)."""
    lines = ["factor,T_hat,numerator,effects_used"]
    for j in range(estimate.k):
        lines.append(
            f"{j + 1},{float(estimate.total[j])!r},{float(estimate.numerator[j])!r},"
            f"{int(estimate.effects_used[j])}"
        )
    return "\n".join(lines) + "\n"


__all__ = [
    "CorrelationTerms",
    "EstimationError",
    "EvaluationSet",
    "TotalIndexEstimate",
    "cyclic_single_matrix_T",
    "d3_correlation_terms",
    "estimate_csv",
    "estimate_total_effects",
    "glen_isaacs_d3_T",
    "lamboni_T",
    "multimatrix_T",
    "owen_T",
    "pearson_rho",
    "run_estimator",
    "sample_plan",
    "saltenis_T",
]
