"""Total-effect index estimators over labelled evaluation vectors.

At the boundary every estimator consumes an :class:`EvaluationSet` (model
outputs keyed by the plan's matrix labels, the form an external model
returns) and returns a :class:`TotalIndexEstimate`.  The vectors are
stacked into one ``(segments, N)`` array in :func:`designs.plan_layout`
order and checked once, as one array: a missing, misshapen or non-finite
vector raises :class:`EstimationError` naming the first such label.  Every
estimator is a few array expressions over that array and the couples of
:func:`designs.factor_segments`, the same design table that lays out the
plan; ``effects_used`` is the table's couple count times N; N >= 2.
Internal evaluation goes by chunks of whole segments.  Conventions fixed
for reproducibility: variances are population (1/N) moments; Pearson
correlations match numerator/denominator normalisation so |rho| <= 1; Owen
and Glen-Isaacs report negative estimates as-is.

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
from .designs import DesignSpec

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


def _rho(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise product-moment correlation over the last axis, with matched normalisation."""
    du = u - u.mean(axis=-1, keepdims=True)
    dv = v - v.mean(axis=-1, keepdims=True)
    su, sv = np.vecdot(du, du), np.vecdot(dv, dv)
    if np.any(su == 0.0) or np.any(sv == 0.0):
        raise EstimationError("correlation of a constant vector is undefined")
    # clip guards float round-off only; the estimator itself satisfies |rho| <= 1
    return np.clip(np.vecdot(du, dv) / np.sqrt(su * sv), -1.0, 1.0)


def checked_vector(label: str, vec, n_rows: int | None = None) -> np.ndarray:
    """``vec`` as a finite float vector, of length ``n_rows`` when given.

    Raises :class:`EstimationError` naming ``label`` for any other shape and
    for NaN or infinite entries.
    """
    vec = np.asarray(vec, dtype=float)
    if vec.ndim != 1 or (n_rows is not None and len(vec) != n_rows):
        raise EstimationError(f"vector {label!r} has shape {vec.shape}, expected ({n_rows or 'N'},)")
    if not np.isfinite(vec).all():
        raise EstimationError(f"vector {label!r} holds NaN or infinite values")
    return vec


def _outputs(evals: EvaluationSet, kind: str, n: int, k: int) -> np.ndarray:
    """The evaluation set as one ``(segments, N)`` array in :func:`designs.plan_layout` order."""
    if designs.DESIGN_KINDS[kind].n is None and n < 2:
        raise EstimationError(f"{kind} estimator needs n >= 2 base matrices")
    labels = [label for label, *_ in designs.plan_layout(kind, n, k)]
    try:
        y = np.array([evals[label] for label in labels], dtype=float)
    except (KeyError, TypeError, ValueError):
        y = None
    if y is None or y.ndim != 2 or not np.isfinite(y).all():
        # name the first bad vector, in layout order
        n_rows = None
        for label in labels:
            if label not in evals:
                raise EstimationError(f"evaluation set is missing vector {label!r}")
            n_rows = len(checked_vector(label, evals[label], n_rows))
    if y.shape[1] < 2:
        raise EstimationError(f"estimators need N >= 2 rows per matrix (got N = {y.shape[1]})")
    return y


def _checked_variance(y: np.ndarray, context: str) -> float:
    """Population (1/N) V-hat(Y) over all values of ``y``, which must not all be equal.

    Equal values whose mean does not round exactly leave rounding noise (three
    0.1s give 1.9e-34), so a variance up to (4 eps max|y|)^2 counts as zero.
    """
    v = float(np.var(y))
    if v <= (4.0 * np.finfo(float).eps * max(float(y.max()), -float(y.min()))) ** 2:
        raise EstimationError(f"zero output variance in {context}; indices undefined")
    return v


def _estimate(kind: str, n: int, N: int, numerator: np.ndarray, variance: float) -> TotalIndexEstimate:
    """T-hat = numerator / variance, with the design's couples times N effects per factor."""
    left, _ = designs.factor_segments(kind, n, len(numerator))
    return TotalIndexEstimate(
        total=numerator / variance,
        numerator=numerator,
        variance=variance,
        effects_used=np.full(len(numerator), left.shape[1] * N),
    )


def _squared_difference_T(y: np.ndarray, kind: str, n: int, k: int) -> TotalIndexEstimate:
    """The squared-difference estimator over the couples of ``kind``'s design table entry.

    ``y`` is the plan's ``(segments, N)`` output array (:func:`_outputs`).
    numerator_j = 1/2 mean over factor j's couples and rows of
    (f(left) - f(right))^2, normalised by the variance of matrix A.
    """
    variance = _checked_variance(y[:1], "matrix A")
    left, right = designs.factor_segments(kind, n, k)
    diff = y[left]
    diff -= y[right]
    numerator = np.square(diff, out=diff).sum(axis=(1, 2)) / (2.0 * diff[0].size)
    return _estimate(kind, n, y.shape[1], numerator, variance)


def saltenis_T(evals: EvaluationSet, k: int) -> TotalIndexEstimate:
    """Squared-difference estimator on the asymmetric design (A plus A_B(j)).

    numerator_j = 1/(2N) sum_i (f(a_i) - f(a_b,i^(j)))^2, normalised by the
    variance of the independent runs (matrix A).
    """
    return _squared_difference_T(_outputs(evals, "asymmetric", 2, k), "asymmetric", 2, k)


def _d3_terms(y: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """The per-factor correlations feeding the D3 estimator, as length-k arrays.

    Returns ``(c_dmj, c_dj, p_j, c_aj, c_amj)``: ``c_dmj`` is the symmetrised
    correlation over couples differing only in coordinate j, ``c_dj`` over
    couples sharing only coordinate j, and ``p_j`` the spurious correlation
    over couples sharing no columns.  The corrected terms remove the spurious
    channel, corrected = (raw - p_j * raw_other) / (1 - p_j^2): ``c_aj`` from
    raw ``c_dmj`` and ``c_amj`` from raw ``c_dj``.
    """
    f_a, f_b = y[0], y[1]
    f_ab, f_ba = y[2:].reshape(2, k, -1)
    c_dmj = 0.5 * (_rho(f_a, f_ab) + _rho(f_b, f_ba))
    c_dj = 0.5 * (_rho(f_b, f_ab) + _rho(f_a, f_ba))
    p_j = 0.5 * (_rho(f_a, f_b) + _rho(f_ab, f_ba))
    if np.any(np.abs(p_j) >= 1.0):
        j = int(np.argmax(np.abs(p_j) >= 1.0)) + 1
        raise EstimationError(f"spurious correlation |p_{j}| = 1; correction undefined")
    c_aj = (c_dmj - p_j * c_dj) / (1.0 - p_j**2)
    c_amj = (c_dj - p_j * c_dmj) / (1.0 - p_j**2)
    return c_dmj, c_dj, p_j, c_aj, c_amj


def glen_isaacs_d3_T(evals: EvaluationSet, k: int) -> TotalIndexEstimate:
    """Correlation-based D3 estimator on the symmetric two-matrix design.

    T-hat_j = 1 - c_dmj + p_j c_aj / (1 - c_aj c_amj) with the terms of
    :func:`_d3_terms`; the correction vanishes as the spurious correlation
    p_j -> 0, leaving 1 - c_dmj -> T_j.
    """
    y = _outputs(evals, "symmetric2", 2, k)
    variance = _checked_variance(y[:2], "matrices A and B")
    c_dmj, _, p_j, c_aj, c_amj = _d3_terms(y, k)
    total = 1.0 - c_dmj + p_j * c_aj / (1.0 - c_aj * c_amj)
    return _estimate("symmetric2", 2, y.shape[1], total * variance, variance)


def owen_T(evals: EvaluationSet, k: int) -> TotalIndexEstimate:
    """Three-matrix product estimator on the Owen design (A, B, B_A(j), C_B(j)).

    numerator_j = V-hat(Y) - 1/N sum_i (f(b_i) - f(c_b,i^(j)))(f(b_a,i^(j)) - f(a_i)),
    with V-hat(Y) pooled over the independent runs of A and B.
    """
    y = _outputs(evals, "owen", 3, k)
    variance = _checked_variance(y[:2], "matrices A and B")
    f_ba, f_cb = y[2:].reshape(2, k, -1)   # hybrids B_A(j), C_B(j)
    numerator = variance - np.mean((y[1] - f_cb) * (f_ba - y[0]), axis=1)
    return _estimate("owen", 3, y.shape[1], numerator, variance)


def multimatrix_T(evals: EvaluationSet, k: int, n: int) -> TotalIndexEstimate:
    """Squared-difference estimator over every coupling of an n-matrix plan.

    Uses all base-hybrid couples plus same-base hybrid-hybrid couples, i.e.
    n^2 (n-1) / 2 elementary effects per factor and row.  Normalised by the
    variance of the first base matrix, the historical convention for the
    squared-difference family.
    """
    return _squared_difference_T(_outputs(evals, "multimatrix", n, k), "multimatrix", n, k)


def lamboni_T(evals: EvaluationSet, k: int, n: int) -> TotalIndexEstimate:
    """Lamboni's many-matrix estimator: variance of donor-averaged differences.

    numerator_j = (n-1)/(N n^2) sum_i sum_m [ sum_{q != m} (f(h_m,i) -
    f(h_m<-q,i^(j))) / (n-1) ]^2, normalised by the variance pooled over all
    base matrices.  For n = 2 this reduces exactly to the two-matrix
    symmetric squared-difference estimator.
    """
    y = _outputs(evals, "lamboni", n, k)
    N = y.shape[1]
    variance = _checked_variance(y[:n], "pooled base matrices")
    # hybrids by base m, donor q != m, factor j
    hybrids = y[n:].reshape(n, n - 1, k, N)
    inner = (y[:n, None, None, :] - hybrids).sum(axis=1) / (n - 1)
    numerator = (n - 1) / (N * n * n) * np.square(inner).sum(axis=(0, 2))
    return _estimate("lamboni", n, N, numerator, variance)


def cyclic_single_matrix_T(evals: EvaluationSet, k: int) -> TotalIndexEstimate:
    """Squared-difference estimator on the single-matrix cyclic plan.

    Pairs row i of A with row i whose coordinate j is borrowed from row i+1,
    wrapping the last row onto the first, so one matrix supplies both sides
    of every elementary effect.
    """
    return _squared_difference_T(_outputs(evals, "cyclic_single", 1, k), "cyclic_single", 1, k)


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
    spec: DesignSpec, fn: testfns.FunctionSpec, seed: int | None = None, repetition: int = 0
) -> TotalIndexEstimate:
    """Library entry point: estimate T-hat of an analytic function.

    Draws the Sobol' bases of :func:`sample_plan` (optionally scrambled by
    the per-repetition column permutation derived from ``seed``), evaluates
    the function on the plan in chunks of whole segments of at most
    ``max(N, 2**17)`` rows and runs the matching estimator.  For outputs
    computed elsewhere, use :func:`run_estimator` on the evaluation set.
    """
    if fn.k != spec.k:
        raise ValueError(f"function dimension {fn.k} does not match design k = {spec.k}")
    return _estimate_on(spec, fn, _draw_bases(spec, seed, repetition))


def _estimate_on(spec: DesignSpec, fn: testfns.FunctionSpec, base_matrices: list[np.ndarray]) -> TotalIndexEstimate:
    """T-hat of ``fn`` over the plan of ``spec`` on these bases, evaluated in whole-segment chunks."""
    y = designs._plan_outputs(spec, base_matrices, lambda points: testfns.evaluate(fn, points))
    return run_estimator(spec, designs._labelled(spec, y))


def sample_plan(spec: DesignSpec, seed: int | None = None, repetition: int = 0) -> "designs.EvaluationPlan":
    """Draw the scrambled Sobol' design of ``spec`` and assemble its evaluation plan.

    The one draw of a single design: the pool is the first N points in
    n*k dimensions, its columns optionally scrambled by a seeded
    per-repetition permutation; the k left-most (permuted) columns form
    matrix A, the next k matrix B, and so on.  Blocks are nested, so a
    design at N holds the first N rows of the same design at 2N.  The plan
    holds every point, for external models; internal evaluation is chunked.
    """
    return designs.assemble_plan(spec, _draw_bases(spec, seed, repetition))


def _draw_bases(spec: DesignSpec, seed: int | None, repetition: int) -> list[np.ndarray]:
    """The n base matrices of :func:`sample_plan`'s draw."""
    n_cols = spec.n * spec.k
    p = int(spec.N).bit_length() - 1
    if 1 << p != spec.N:
        raise ValueError("N must be a power of two to draw generator blocks")
    pool = qmc.sobol_block(n_cols, p)
    if seed is not None:
        pool = qmc.permute_columns(pool, qmc.draw_permutation(n_cols, seed, repetition))
    return designs.pool_matrices(pool.values, spec.n, spec.k)


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
    "EstimationError",
    "EvaluationSet",
    "TotalIndexEstimate",
    "checked_vector",
    "cyclic_single_matrix_T",
    "estimate_csv",
    "estimate_total_effects",
    "glen_isaacs_d3_T",
    "lamboni_T",
    "multimatrix_T",
    "owen_T",
    "run_estimator",
    "sample_plan",
    "saltenis_T",
]
