"""Total-effect index estimators over the outputs of an evaluation plan.

Every estimator returns a :class:`TotalIndexEstimate` and reads the outputs
in either of two forms: the ``(segments, N)`` float array whose rows follow
:func:`designs.plan_layout` (what internal evaluation produces, read without
a copy), or an :class:`EvaluationSet` keyed by the plan's matrix labels (what
``EvaluationPlan.split_outputs`` gives an external model), stacked into that
array.  An array may be a stack ``(..., segments, N)``, such as a sweep's
repetitions: every reduction runs over the trailing axes, so entry r of the
estimate equals that of ``y[r]`` alone, bit for bit.  The array is checked
once: a missing, misshapen or non-finite row raises :class:`EstimationError`
naming the first such label, with the same text for both forms.  Every estimator is a few array expressions over that
array.  The squared-difference ones (Saltenis, multi-matrix, cyclic) read the
couples of :func:`designs.factor_segments`, the same design table that lays
out the plan; D3, Owen and Lamboni read fixed slices of the layout.
``effects_used`` is the table's couple count times N; N >= 2.  Every estimator holds its temporaries in factor chunks of
at most one tile of values, counting the whole stack, or one factor's couples
x N values when larger (:func:`_factor_chunks`), never a gathered copy of the
whole array.  Internal evaluation goes by cache-sized plan tiles.
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
from .designs import DesignSpec, EstimationError, checked_vector

EvaluationSet = Mapping[str, np.ndarray]
# what an estimator reads: an evaluation set or the (segments, N) output array
Outputs = EvaluationSet | np.ndarray
_EPS4 = 4.0 * np.finfo(float).eps   # the zero-variance tolerance's factor, read once (np.finfo costs about 0.7 us)


@dataclass(frozen=True)
class TotalIndexEstimate:
    """Per-factor total-effect estimates with their building blocks."""

    total: np.ndarray          # T-hat, length k, or (..., k) over stacked outputs
    numerator: np.ndarray      # per-factor numerator, T-hat = numerator / variance
    variance: float | np.ndarray   # V-hat(Y) used for normalisation, one per leading index when stacked
    effects_used: np.ndarray   # elementary effects consumed per factor

    @property
    def k(self) -> int:
        return self.total.shape[-1]


@np.errstate(invalid="ignore", over="ignore")   # the finiteness sum: +inf with -inf, or an overflow, is no warning
def _outputs(evals: Outputs, kind: str, n: int, k: int) -> np.ndarray:
    """The outputs as one ``(..., segments, N)`` array in :func:`designs.plan_layout` order.

    ``evals`` is an evaluation set, stacked here, or already that array, used
    as it is (a C-contiguous float array is not copied).  Either way a bad
    row raises the same :class:`EstimationError`, naming its layout label.
    """
    if designs.DESIGN_KINDS[kind].n is None and n < 2:
        raise EstimationError(f"{kind} estimator needs n >= 2 base matrices")
    layout = designs.plan_layout(kind, n, k)
    if isinstance(evals, np.ndarray):
        y = np.ascontiguousarray(evals, dtype=float)
        if y.ndim < 2 or y.shape[-2] > len(layout):
            raise EstimationError(f"output array has shape {y.shape}, expected ({len(layout)}, N)")
        if y.shape[-2] < len(layout):
            raise EstimationError(f"evaluation set is missing vector {layout[y.shape[-2]][0]!r}")
        # the sum carries any NaN or infinity: only a sum of finite values that overflows needs the full mask
        if not np.isfinite(np.add.reduce(y, axis=None)) and not (finite := np.isfinite(y).all(axis=-1)).all():
            # a stack names the first bad row of its first bad entry, as that entry's own call does
            raise EstimationError(f"vector {layout[np.argmin(finite) % len(layout)][0]!r} holds NaN or infinite values")
    else:
        rows = []   # checked in layout order, so the first missing or bad vector is the one named
        for label, *_ in layout:
            if label not in evals:
                raise EstimationError(f"evaluation set is missing vector {label!r}")
            rows.append(checked_vector(label, evals[label], len(rows[0]) if rows else None))
        y = np.array(rows)
    if y.shape[-1] < 2:
        raise EstimationError(f"estimators need N >= 2 rows per matrix (got N = {y.shape[-1]})")
    return y


def _factor_chunks(k: int, per_factor: int) -> list[slice]:
    """Consecutive factors whose temporaries, ``per_factor`` values each, fill at most one tile, or one factor."""
    width = max(1, qmc._TILE_VALUES // per_factor)
    return [slice(j, min(j + width, k)) for j in range(0, k, width)]


def _checked_variance(y: np.ndarray, context: str) -> float | np.ndarray:
    """Population (1/N) V-hat(Y) over a vector or ``(rows, N)`` array ``y``, a float, or per entry of a stack.

    The values must not all be equal.  Equal values whose mean does not round exactly leave rounding noise (three
    0.1s give 1.9e-34), so a variance up to (4 eps max|y|)^2 counts as zero.
    """
    axes, size = (None, y.size) if y.ndim <= 2 else ((-2, -1), y.shape[-2] * y.shape[-1])
    # np.var's own ufunc steps, without its Python wrapper: the same bits
    mean = np.add.reduce(y, axis=axes, keepdims=True)
    x = np.abs(y)
    bound = _EPS4 * x.max(axis=axes)   # max|y|, read before x's buffer takes the deviations
    x = np.subtract(y, np.true_divide(mean, size, out=mean), out=x)
    v = np.add.reduce(np.multiply(x, x, out=x), axis=axes) / size
    noise = v <= bound**2   # one flag, or one per entry of a stack
    if noise if axes is None else noise.any():
        raise EstimationError(f"zero output variance in {context}; indices undefined")
    return float(v) if axes is None else v


def _per_factor(variance: float | np.ndarray) -> float | np.ndarray:   # to meet (..., k) arrays: a stack's as a column
    return variance[..., None] if isinstance(variance, np.ndarray) else variance


def _estimate(kind: str, n: int, N: int, numerator: np.ndarray, variance: float | np.ndarray) -> TotalIndexEstimate:
    """T-hat = numerator / variance, with the design's couples times N effects per factor."""
    left, _ = designs.factor_segments(kind, n, numerator.shape[-1])
    return TotalIndexEstimate(
        total=numerator / _per_factor(variance),
        numerator=numerator,
        variance=variance,
        effects_used=np.full(numerator.shape, left.shape[1] * N),
    )


def _squared_difference_T(y: np.ndarray, kind: str, n: int, k: int) -> TotalIndexEstimate:
    """The squared-difference estimator over the couples of ``kind``'s design table entry.

    ``y`` is the plan's ``(..., segments, N)`` output array (:func:`_outputs`).
    numerator_j = 1/2 mean over factor j's couples and rows of
    (f(left) - f(right))^2, normalised by the variance of matrix A.
    """
    variance = _checked_variance(y[..., :1, :], "matrix A")
    left, right = designs.factor_segments(kind, n, k)
    numerator = np.empty((*y.shape[:-2], k))
    for j in _factor_chunks(k, right[0].size * y.size // y.shape[-2]):
        diff = y.take(right[j], axis=-2)   # C-ordered, so each (couples, N) sum adds as in one array's
        # asymmetric and cyclic: every left segment is matrix A, so broadcast its row
        np.subtract(y.take(left[j], axis=-2) if left.any() else y[..., :1, None, :], diff, out=diff)
        numerator[..., j] = np.add.reduce(np.square(diff, out=diff), axis=(-2, -1))
        del diff   # released before the next chunk is gathered
    return _estimate(kind, n, y.shape[-1], numerator / (2.0 * right[0].size * y.shape[-1]), variance)


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
    N = y.shape[-1]
    base = y[..., :2, :] - np.add.reduce(y[..., :2, :], axis=-1, keepdims=True) / N   # A and B centred, as y.mean
    hybrids = y[..., 2:, :].reshape(*y.shape[:-2], 2, k, N)   # A_B(j) and B_A(j)
    # gram[..., u, v, j]: side u's row dotted with side v's (side 0: A_B(j), or A in column k; side 1: B_A(j), or B);
    # cross[..., u, v, j]: A (u = 0) or B (u = 1) dotted with factor j's hybrid of side v
    gram, cross = np.empty((*y.shape[:-2], 2, 2, k + 1)), np.empty((*y.shape[:-2], 2, 2, k))
    gram[..., k] = np.vecdot(base[..., :, None, :], base[..., None, :, :])
    for j in _factor_chunks(k, 2 * y.size // y.shape[-2]):   # each chunk centres only its own hybrids
        h = hybrids[..., j, :] - np.add.reduce(hybrids[..., j, :], axis=-1, keepdims=True) / N
        gram[..., j] = np.vecdot(h[..., :, None, :, :], h[..., None, :, :, :])
        cross[..., j] = np.vecdot(base[..., :, None, None, :], h[..., None, :, :, :])
    norms = gram.diagonal(0, -3, -2).swapaxes(-1, -2)   # (..., 2, k + 1)
    if not norms.all():   # a zero norm: a constant row
        raise EstimationError("correlation of a constant vector is undefined")
    # the clip to [-1, 1] guards float round-off only; the estimator itself satisfies |rho| <= 1
    r = np.minimum(np.maximum(cross / np.sqrt(norms[..., :, k:, None] * norms[..., None, :, :k]), -1.0), 1.0)
    p = np.minimum(np.maximum(gram[..., 0, 1, :] / np.sqrt(norms[..., 0, :] * norms[..., 1, :]), -1.0), 1.0)
    # c_dmj over (A, A_B(j)) and (B, B_A(j)), c_dj over (B, A_B(j)) and (A, B_A(j)), p_j over (A, B), (A_B(j), B_A(j))
    c_dmj, c_dj = 0.5 * (r[..., 0, 0, :] + r[..., 1, 1, :]), 0.5 * (r[..., 1, 0, :] + r[..., 0, 1, :])
    p_j = 0.5 * (p[..., k:] + p[..., :k])
    if (spurious := np.abs(p_j) >= 1.0).any():
        j = int(np.argmax(spurious.reshape(-1, k).any(axis=0))) + 1
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
    variance = _checked_variance(y[..., :2, :], "matrices A and B")
    c_dmj, _, p_j, c_aj, c_amj = _d3_terms(y, k)
    total = 1.0 - c_dmj + p_j * c_aj / (1.0 - c_aj * c_amj)
    return _estimate("symmetric2", 2, y.shape[-1], total * _per_factor(variance), variance)


def owen_T(evals: Outputs, k: int) -> TotalIndexEstimate:
    """Three-matrix product estimator on the Owen design (A, B, B_A(j), C_B(j)).

    numerator_j = V-hat(Y) - 1/N sum_i (f(b_i) - f(c_b,i^(j)))(f(b_a,i^(j)) - f(a_i)),
    with V-hat(Y) pooled over the independent runs of A and B.
    """
    y = _outputs(evals, "owen", 3, k)
    variance = _checked_variance(y[..., :2, :], "matrices A and B")
    f_ba, f_cb = y[..., 2 : k + 2, :], y[..., k + 2 :, :]   # hybrids B_A(j), C_B(j)
    products = np.empty((*y.shape[:-2], k))
    for j in _factor_chunks(k, y.size // y.shape[-2]):
        products[..., j] = np.add.reduce((y[..., 1:2, :] - f_cb[..., j, :]) * (f_ba[..., j, :] - y[..., :1, :]), -1)
    numerator = _per_factor(variance) - products / y.shape[-1]   # np.mean's steps
    return _estimate("owen", 3, y.shape[-1], numerator, variance)


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
    N = y.shape[-1]
    variance = _checked_variance(y[..., :n, :], "pooled base matrices")
    # hybrids by base m, donor q != m, factor j
    hybrids = y[..., n:, :].reshape(*y.shape[:-2], n, n - 1, k, N)
    numerator = np.empty((*y.shape[:-2], k))
    for j in _factor_chunks(k, n * y.size // y.shape[-2]):
        # sum over donors q of (f(h_m) - f(h_m<-q)), added in q order, the order of a sum over the donor axis
        inner = y[..., :n, None, :] - hybrids[..., 0, j, :]
        for q in range(1, n - 1):
            inner += y[..., :n, None, :] - hybrids[..., q, j, :]
        inner /= n - 1
        np.square(inner, out=inner)
        # as the sum over the (m, row) axes of all k factors at once: each (m, j) row summed pairwise, rows added in
        # m order; a one-factor chunk would merge the axes into one pairwise sum, so at k > 1 it spells that order out
        numerator[..., j] = (np.add.reduce(inner, axis=(-3, -1)) if inner.shape[-2] > 1 or k == 1
                             else np.add.accumulate(np.add.reduce(inner, axis=-1), axis=-2)[..., -1, :])
    return _estimate("lamboni", n, N, (n - 1) / (N * n * n) * numerator, variance)


def cyclic_single_matrix_T(evals: Outputs, k: int) -> TotalIndexEstimate:
    """Squared-difference estimator on the single-matrix cyclic plan.

    Pairs row i of A with row i whose coordinate j is borrowed from row i+1,
    wrapping the last row onto the first, so one matrix supplies both sides
    of every elementary effect.
    """
    return _squared_difference_T(_outputs(evals, "cyclic_single", 1, k), "cyclic_single", 1, k)


def run_estimator(spec: DesignSpec, evals: Outputs) -> TotalIndexEstimate:
    """Run the estimator named by ``spec.kind``'s table row over an evaluation set or ``(..., segments, N)`` array."""
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
    rows_of = designs._draw_rows(spec, seed, repetition)
    y = designs._plan_outputs(spec, rows_of, lambda points: testfns.evaluate(fn, points))
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
    pool = designs._draw_rows(spec, seed, repetition)(0, spec.N)
    return designs.assemble_plan(spec, designs.pool_matrices(pool, spec.n, spec.k))


def estimate_csv(estimate: TotalIndexEstimate) -> str:
    """CSV rendering of an estimate (factor,T_hat,numerator,effects_used)."""
    if estimate.total.ndim != 1:
        raise ValueError(f"estimate_csv renders one estimate, not a stack of shape {estimate.total.shape}")
    rows = zip(estimate.total.tolist(), estimate.numerator.tolist(), estimate.effects_used.tolist())
    lines = [f"{j},{t!r},{u!r},{int(e)}" for j, (t, u, e) in enumerate(rows, start=1)]
    return "\n".join(["factor,T_hat,numerator,effects_used", *lines]) + "\n"


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
