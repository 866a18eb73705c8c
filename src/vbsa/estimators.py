"""Total-effect index estimators over the outputs of an evaluation plan.

Every estimator returns a :class:`TotalIndexEstimate` and reads the outputs
in either of two forms: the ``(segments, N)`` float array whose rows follow
:func:`designs.plan_layout` (what internal evaluation produces, read without
a copy), or an :class:`EvaluationSet` keyed by the plan's matrix labels (what
``EvaluationPlan.split_outputs`` gives an external model), stacked into that
array.  The array is checked once: a missing, misshapen or non-finite row
raises :class:`EstimationError` naming the first such label, with the same
text for both forms.  Every estimator is a few array expressions over that
array and the couples of :func:`designs.factor_segments`, the same design
table that lays out the plan; ``effects_used`` is the table's couple count
times N; N >= 2.  Internal evaluation goes by cache-sized plan tiles.
Conventions fixed for reproducibility: variances are population (1/N)
moments; Pearson correlations match numerator/denominator normalisation so
|rho| <= 1; Owen and Glen-Isaacs report negative estimates as-is.

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
# what an estimator reads: an evaluation set or the (segments, N) output array
Outputs = EvaluationSet | np.ndarray


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


def _row_correlations(y: np.ndarray):
    """Product-moment correlation between rows of ``y``, with matched normalisation.

    Every row is centred and its norm taken once; the returned ``rho(u, v)``
    correlates rows u and v (indices, slices or index arrays) over the last axis.
    """
    d = y - np.add.reduce(y, axis=1, keepdims=True) / y.shape[1]   # y.mean(axis=1), bit for bit
    norms = np.vecdot(d, d)
    if np.any(norms == 0.0):
        raise EstimationError("correlation of a constant vector is undefined")

    def rho(u, v) -> np.ndarray:
        # the clip to [-1, 1] guards float round-off only; the estimator itself satisfies |rho| <= 1
        return np.minimum(np.maximum(np.vecdot(d[u], d[v]) / np.sqrt(norms[u] * norms[v]), -1.0), 1.0)

    return rho


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


def _outputs(evals: Outputs, kind: str, n: int, k: int) -> np.ndarray:
    """The outputs as one ``(segments, N)`` array in :func:`designs.plan_layout` order.

    ``evals`` is an evaluation set, stacked here, or already that array, used
    as it is (a C-contiguous float array is not copied).  Either way a bad
    row raises the same :class:`EstimationError`, naming its layout label.
    """
    if designs.DESIGN_KINDS[kind].n is None and n < 2:
        raise EstimationError(f"{kind} estimator needs n >= 2 base matrices")
    layout = designs.plan_layout(kind, n, k)
    if isinstance(evals, np.ndarray):
        y = np.ascontiguousarray(evals, dtype=float)
        if y.ndim != 2 or len(y) > len(layout):
            raise EstimationError(f"output array has shape {y.shape}, expected ({len(layout)}, N)")
        if len(y) < len(layout):
            raise EstimationError(f"evaluation set is missing vector {layout[len(y)][0]!r}")
        # the sum carries any NaN or infinity: only a sum of finite values that overflows needs the full mask
        if not np.isfinite(np.add.reduce(y, axis=None)) and not (finite := np.isfinite(y).all(axis=1)).all():
            raise EstimationError(f"vector {layout[int(np.argmin(finite))][0]!r} holds NaN or infinite values")
    else:
        rows = []   # checked in layout order, so the first missing or bad vector is the one named
        for label, *_ in layout:
            if label not in evals:
                raise EstimationError(f"evaluation set is missing vector {label!r}")
            rows.append(checked_vector(label, evals[label], len(rows[0]) if rows else None))
        y = np.array(rows)
    if y.shape[1] < 2:
        raise EstimationError(f"estimators need N >= 2 rows per matrix (got N = {y.shape[1]})")
    return y


def _factor_chunks(k: int, per_factor: int) -> list[slice]:
    """Consecutive factors whose temporaries, ``per_factor`` values each, fill at most one tile, or one factor."""
    width = max(1, qmc._TILE_VALUES // per_factor)
    return [slice(j, j + width) for j in range(0, k, width)]


def _checked_variance(y: np.ndarray, context: str) -> float:
    """Population (1/N) V-hat(Y) over all values of ``y``, which must not all be equal.

    Equal values whose mean does not round exactly leave rounding noise (three
    0.1s give 1.9e-34), so a variance up to (4 eps max|y|)^2 counts as zero.
    """
    # np.var's own ufunc steps, without its Python wrapper: the same bits
    mean = np.add.reduce(y, axis=None, keepdims=True)
    x = np.subtract(y, np.true_divide(mean, y.size, out=mean))
    v = float(np.add.reduce(np.multiply(x, x, out=x), axis=None)) / y.size
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
    numerator = np.empty(k)
    for j in _factor_chunks(k, right[0].size * y.shape[1]):
        diff = y[right[j]]
        # asymmetric and cyclic: every left segment is matrix A, so broadcast its row
        np.subtract(y[left[j]] if left.any() else y[0], diff, out=diff)
        numerator[j] = np.square(diff, out=diff).sum(axis=(1, 2))
        del diff   # released before the next chunk is gathered
    return _estimate(kind, n, y.shape[1], numerator / (2.0 * right[0].size * y.shape[1]), variance)


def saltenis_T(evals: Outputs, k: int) -> TotalIndexEstimate:
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
    a, b = np.zeros(k, dtype=np.intp), np.ones(k, dtype=np.intp)
    ab = np.arange(2, 2 + k)   # A_B(j); B_A(j) is ab + k
    # the six correlations in one call: rows (a, ab), (b, ba), (b, ab), (a, ba), (a, b), (ab, ba)
    r = _row_correlations(y)(np.array([a, b, b, a, a, ab]), np.array([ab, ab + k, ab, ab + k, b, ab + k]))
    c_dmj = 0.5 * (r[0] + r[1])
    c_dj = 0.5 * (r[2] + r[3])
    p_j = 0.5 * (r[4] + r[5])
    if np.any(np.abs(p_j) >= 1.0):
        j = int(np.argmax(np.abs(p_j) >= 1.0)) + 1
        raise EstimationError(f"spurious correlation |p_{j}| = 1; correction undefined")
    c_aj = (c_dmj - p_j * c_dj) / (1.0 - p_j**2)
    c_amj = (c_dj - p_j * c_dmj) / (1.0 - p_j**2)
    return c_dmj, c_dj, p_j, c_aj, c_amj


def glen_isaacs_d3_T(evals: Outputs, k: int) -> TotalIndexEstimate:
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


def owen_T(evals: Outputs, k: int) -> TotalIndexEstimate:
    """Three-matrix product estimator on the Owen design (A, B, B_A(j), C_B(j)).

    numerator_j = V-hat(Y) - 1/N sum_i (f(b_i) - f(c_b,i^(j)))(f(b_a,i^(j)) - f(a_i)),
    with V-hat(Y) pooled over the independent runs of A and B.
    """
    y = _outputs(evals, "owen", 3, k)
    variance = _checked_variance(y[:2], "matrices A and B")
    f_ba, f_cb = y[2:].reshape(2, k, -1)   # hybrids B_A(j), C_B(j)
    products = np.empty(k)
    for j in _factor_chunks(k, y.shape[1]):
        products[j] = np.add.reduce((y[1] - f_cb[j]) * (f_ba[j] - y[0]), axis=1)
    numerator = variance - products / y.shape[1]   # np.mean's steps
    return _estimate("owen", 3, y.shape[1], numerator, variance)


def multimatrix_T(evals: Outputs, k: int, n: int) -> TotalIndexEstimate:
    """Squared-difference estimator over every coupling of an n-matrix plan.

    Uses all base-hybrid couples plus same-base hybrid-hybrid couples, i.e.
    n^2 (n-1) / 2 elementary effects per factor and row.  Normalised by the
    variance of the first base matrix, the historical convention for the
    squared-difference family.
    """
    return _squared_difference_T(_outputs(evals, "multimatrix", n, k), "multimatrix", n, k)


def lamboni_T(evals: Outputs, k: int, n: int) -> TotalIndexEstimate:
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
    numerator = np.empty(k)
    for j in _factor_chunks(k, n * N):
        # sum over donors q of (f(h_m) - f(h_m<-q)), added in q order, the order of a sum over the donor axis
        inner = y[:n, None, :] - hybrids[:, 0, j]
        for q in range(1, n - 1):
            inner += y[:n, None, :] - hybrids[:, q, j]
        inner /= n - 1
        np.square(inner, out=inner)
        # as the sum over axes (0, 2) of all k factors at once: each (m, j) row summed pairwise, rows added in m order;
        # a one-factor chunk would merge the axes into one pairwise sum, so at k > 1 it spells that order out
        numerator[j] = (np.add.reduce(inner, axis=(0, 2)) if inner.shape[1] > 1 or k == 1
                        else np.add.accumulate(np.add.reduce(inner, axis=2))[-1])
    return _estimate("lamboni", n, N, (n - 1) / (N * n * n) * numerator, variance)


def cyclic_single_matrix_T(evals: Outputs, k: int) -> TotalIndexEstimate:
    """Squared-difference estimator on the single-matrix cyclic plan.

    Pairs row i of A with row i whose coordinate j is borrowed from row i+1,
    wrapping the last row onto the first, so one matrix supplies both sides
    of every elementary effect.
    """
    return _squared_difference_T(_outputs(evals, "cyclic_single", 1, k), "cyclic_single", 1, k)


def run_estimator(spec: DesignSpec, evals: Outputs) -> TotalIndexEstimate:
    """Run the estimator named by ``spec.kind``'s design table row over an evaluation set or ``(segments, N)`` array."""
    rule = designs.DESIGN_KINDS[spec.kind]
    estimator = globals()[rule.estimator]   # looked up per call, so a rebound module attribute (a tracer) runs
    return estimator(evals, spec.k) if rule.n is not None else estimator(evals, spec.k, spec.n)


def estimate_total_effects(
    spec: DesignSpec, fn: testfns.FunctionSpec, seed: int | None = None, repetition: int = 0
) -> TotalIndexEstimate:
    """Library entry point: estimate T-hat of an analytic function.

    Draws the Sobol' bases of :func:`sample_plan` (optionally scrambled by
    the per-repetition column permutation derived from ``seed``), evaluates
    the function on the plan in tiles, each a read-only, Fortran-ordered
    ``(rows, k)`` array of at most 2**17 values: whole segments when they
    fit, else row ranges of one segment (``designs._plan_outputs``), and
    runs the matching estimator, holding its outputs and a few tiles.  For
    outputs computed elsewhere, use :func:`run_estimator` on them.
    """
    if fn.k != spec.k:
        raise ValueError(f"function dimension {fn.k} does not match design k = {spec.k}")
    if spec.N < 2:   # the estimators' own check, made before any model run
        raise EstimationError(f"estimators need N >= 2 rows per matrix (got N = {spec.N})")
    y = designs._plan_outputs(spec, _draw_rows(spec, seed, repetition), lambda points: testfns.evaluate(fn, points))
    return run_estimator(spec, y)


def sample_plan(spec: DesignSpec, seed: int | None = None, repetition: int = 0) -> "designs.EvaluationPlan":
    """Draw the scrambled Sobol' design of ``spec`` and assemble its evaluation plan.

    The one draw of a single design: the pool is the first N points in
    n*k dimensions, its columns optionally scrambled by a seeded
    per-repetition permutation; the k left-most (permuted) columns form
    matrix A, the next k matrix B, and so on.  Blocks are nested, so a
    design at N holds the first N rows of the same design at 2N.  The plan
    holds every point, for external models; internal evaluation is tiled.
    It is :func:`designs.assemble_plan` over the drawn bases.
    """
    return designs.assemble_plan(spec, _draw_rows(spec, seed, repetition)(0, spec.N))


def _draw_rows(spec: DesignSpec, seed: int | None, repetition: int):
    """The row source of :func:`sample_plan`'s draw: ``(r0, r1)`` to rows r0 .. r1 - 1 of its n bases, generated."""
    n_cols = spec.n * spec.k
    if 1 << (int(spec.N).bit_length() - 1) != spec.N or spec.N > 1 << qmc._MAX_P:   # before any model run
        raise ValueError(f"N must be a power of two up to 2**{qmc._MAX_P} to draw generator blocks")
    if n_cols > qmc._MAX_DIM:
        raise ValueError(f"{spec.kind} design at k = {spec.k} needs {n_cols} generator dimensions (max {qmc._MAX_DIM})")
    perm = None if seed is None else qmc.draw_permutation(n_cols, seed, repetition)
    return lambda r0, r1: designs.pool_matrices(qmc.sobol_rows(n_cols, r0, r1, perm), spec.n, spec.k)


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
    "Outputs",
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
