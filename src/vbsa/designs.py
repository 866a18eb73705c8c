"""Sampling designs for total-effect estimation and their closed-form metrics.

A design arranges base matrices (A, B, C, ...) and one-column hybrids such as
A_B(j) into an evaluation plan.  Every plan-capable kind is one entry of
:data:`DESIGN_KINDS`: its base-matrix count, the estimator that reads its
outputs, the base matrices the plan holds and the (base, donor) couples whose
hybrids follow them.  From that entry :func:`plan_layout` derives the ordered
segments of the plan, and from the layout come the three things a design is
used for: the points (:func:`assemble_plan`), the elementary effects, i.e.
couples of segments differing only in factor j (:func:`factor_segments`, read
by the estimators), and the cost metrics (:func:`design_metrics`).  Internal
evaluation goes by cache-sized tiles of at most ``_TILE_VALUES`` values
(rows x k): whole segments when they fit, else row ranges of one segment
(:func:`_plan_outputs`).  Competing designs are compared through their economy
``e = E_T / N_T`` (elementary effects per model run) and explorativity
``chi = nN / N_T`` (fraction of non-repeated coordinates among all coordinates
the design consumes).
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, replace
from itertools import combinations, groupby

import numpy as np

from .qmc import _MAX_DIM, _MAX_P, _TILE_VALUES, _in_unit_cube, l2_star_discrepancy, sobol_rows

REFERENCE_KINDS = ("couples", "stars", "winding_stairs")

_BASE_NAMES = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

# Donor index of the cyclic single-matrix hybrid: the base's own column j,
# rotated up one row.
SHIFT = -1


class EstimationError(ValueError):
    """Raised when an estimator's inputs are degenerate (constant vectors, etc.)."""


def checked_vector(label: str, vec, n_rows: int | None = None) -> np.ndarray:
    """``vec`` as a finite float vector, of length ``n_rows`` when given.

    Raises :class:`EstimationError` naming ``label`` for any other shape and
    for NaN or infinite entries.
    """
    vec = np.asarray(vec, dtype=float)
    if vec.ndim != 1 or (n_rows is not None and len(vec) != n_rows):
        raise EstimationError(f"vector {label!r} has shape {vec.shape}, expected ({n_rows or 'N'},)")
    # the sum carries any NaN or infinity: only a sum of finite values that overflows needs the full mask
    if not np.isfinite(np.add.reduce(vec)) and not np.isfinite(vec).all():
        raise EstimationError(f"vector {label!r} holds NaN or infinite values")
    return vec


def base_label(index: int) -> str:
    """Label of the ``index``-th base matrix: A, B, C, ..."""
    return _BASE_NAMES[index]


def hybrid_label(base: str, donor: str, j: int) -> str:
    """Label of the hybrid taking column ``j`` (1-based) of ``donor`` into ``base``."""
    return f"{base}_{donor}({j})"


def cyclic_label(j: int) -> str:
    """Label of the single-matrix variant where column ``j`` is shifted down one row."""
    return f"A_next({j})"


@dataclass(frozen=True)
class DesignKind:
    """The layout rule of one design kind.

    ``n`` is the fixed base-matrix count, or None for any n >= 2; then the
    :mod:`vbsa.estimators` function named ``estimator`` also takes n.  A plan
    holds the first ``bases`` base matrices (all n when None), then, for each
    (base, donor) couple in ``couples`` (every ordered couple of distinct
    matrices when None), the hybrids j = 1..k.  Each hybrid is paired with its
    base matrix when the plan holds it; ``hybrid_pairs`` also pairs hybrids
    sharing base and factor.  ``title`` names the kind in tables and plots
    when it differs from the kind.
    """

    n: int | None
    estimator: str
    bases: int | None = None
    couples: tuple[tuple[int, int], ...] | None = None
    hybrid_pairs: bool = False
    title: str | None = None

    def matrices(self, n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
        """Base matrices a plan over n matrices holds, and its (base, donor) couples."""
        couples = self.couples
        if couples is None:
            couples = tuple((m, q) for m in range(n) for q in range(n) if q != m)
        return (n if self.bases is None else self.bases), couples


DESIGN_KINDS: dict[str, DesignKind] = {
    "asymmetric": DesignKind(n=2, estimator="saltenis_T", bases=1, couples=((0, 1),)),
    "symmetric2": DesignKind(n=2, estimator="glen_isaacs_d3_T", couples=((0, 1), (1, 0))),
    "multimatrix": DesignKind(n=None, estimator="multimatrix_T", hybrid_pairs=True, title="symmetric"),
    "owen": DesignKind(n=3, estimator="owen_T", bases=2, couples=((1, 0), (2, 1))),
    "lamboni": DesignKind(n=None, estimator="lamboni_T"),
    "cyclic_single": DesignKind(n=1, estimator="cyclic_single_matrix_T", couples=((0, SHIFT),)),
}
PLAN_KINDS = tuple(DESIGN_KINDS)


@functools.lru_cache(maxsize=256)
def plan_layout(kind: str, n: int, k: int) -> tuple[tuple[str, int, int | None, int], ...]:
    """Ordered segments of a plan, N rows each: base matrices first, then hybrids by couple and factor.

    A segment ``(label, m, donor, j)`` is base matrix m with column j taken
    from matrix ``donor``; ``donor`` is None (and j 0) for the base matrix
    itself and :data:`SHIFT` for the cyclic hybrid.
    """
    bases, couples = DESIGN_KINDS[kind].matrices(n)
    layout = [(base_label(m), m, None, 0) for m in range(bases)]
    for m, q in couples:
        for j in range(1, k + 1):
            if q == SHIFT:
                label = cyclic_label(j)
            else:
                label = hybrid_label(base_label(m), base_label(q), j)
            layout.append((label, m, q, j))
    return tuple(layout)


@functools.lru_cache(maxsize=256)
def factor_segments(kind: str, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Left and right plan segments of every factor's elementary-effect couples.

    Two read-only ``(k, couples)`` arrays of :func:`plan_layout` segments;
    row j - 1 holds factor j's couples.  Base matrix by base matrix: each
    hybrid against its base when the plan holds it, then (``hybrid_pairs``)
    every two hybrids of that base.
    """
    rule = DESIGN_KINDS[kind]
    bases, couples = rule.matrices(n)
    pairs = []
    for m in range(n):
        # segments of factor 1: base m is segment m, couple c's hybrid is bases + c*k
        hybrids = [bases + c * k for c, (base, _) in enumerate(couples) if base == m]
        if m < bases:
            pairs.extend((m, h) for h in hybrids)
        if rule.hybrid_pairs:
            pairs.extend(combinations(hybrids, 2))
    first = np.array(pairs, dtype=np.int64).reshape(-1, 2).T[:, None, :]
    # factor j's hybrid of a couple sits j - 1 segments after factor 1's
    segments = first + np.where(first < bases, 0, np.arange(k)[:, None])
    segments.flags.writeable = False
    return segments[0], segments[1]


@dataclass(frozen=True)
class DesignSpec:
    """A sampling-design descriptor: kind, base-matrix count, rows per matrix, factors."""

    kind: str
    n: int
    N: int
    k: int

    def __post_init__(self) -> None:
        if self.kind not in DESIGN_KINDS:
            raise ValueError(f"unknown design kind {self.kind!r}; expected one of {PLAN_KINDS}")
        if self.N < 1 or self.k < 1:
            raise ValueError("N and k must be >= 1")
        fixed_n = DESIGN_KINDS[self.kind].n
        if fixed_n is not None and self.n != fixed_n:
            raise ValueError(f"design kind {self.kind!r} requires n = {fixed_n}")
        if fixed_n is None and self.n < 2:
            raise ValueError(f"design kind {self.kind!r} requires n >= 2")


@dataclass(frozen=True)
class DesignMetrics:
    """Closed-form cost and exploration metrics of a design."""

    kind: str
    n: int
    N: int
    total_points: int          # N_T
    total_effects: int         # E_T
    economy: float             # e = E_T / N_T
    explorativity: float       # chi
    discrepancy: float | None = None

    @property
    def original_points(self) -> int:
        """Points carrying only original coordinates (nN)."""
        return self.n * self.N

    @property
    def title(self) -> str:
        """Name of the design in tables and plots."""
        return getattr(DESIGN_KINDS.get(self.kind), "title", None) or self.kind


@dataclass(frozen=True)
class EvaluationPlan:
    """All points a design requires, as the spec and its points alone.

    ``points`` stacks the segments of :func:`plan_layout` in order, N rows
    each: segment s is ``points.reshape(segments, N, k)[s]``, read-only and
    Fortran-ordered like the tiles a model gets from :func:`_plan_outputs`.  The couples
    of segments the estimators read are :func:`factor_segments`.
    """

    spec: DesignSpec
    points: np.ndarray

    def split_outputs(self, y: np.ndarray) -> dict[str, np.ndarray]:
        """Slice a vector of model outputs over the whole plan by matrix label."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.points.shape[0],):
            raise ValueError(f"output vector length {y.shape} does not match plan size {self.points.shape[0]}")
        layout = plan_layout(self.spec.kind, self.spec.n, self.spec.k)
        return {label: row for (label, *_), row in zip(layout, y.reshape(-1, self.spec.N))}


def pool_matrices(pool: np.ndarray, n: int, k: int) -> list[np.ndarray]:
    """The n base matrices of a column pool: columns m*k .. (m+1)*k - 1 feed matrix m."""
    return [pool[:, m * k : (m + 1) * k] for m in range(n)]


@functools.lru_cache(maxsize=256)
def _chunk_runs(kind: str, n: int, k: int, per_chunk: int, segments: tuple | None = None) -> tuple[tuple, ...]:
    """The writes of each chunk of ``per_chunk`` :func:`plan_layout` segments into one reused buffer.

    The segments are the layout's, or those of its indices ``segments`` (None: all) in that order.
    One ``(first, size, base_runs, donor_runs)`` per chunk, with segments
    counted from the chunk's first.  A base run ``(a, b, m)`` is segments
    a..b-1, which all start as base matrix m; a donor run ``(a, b, m, donor,
    col)`` is hybrids of one couple in consecutive j, segment a + i taking column
    col + i of ``donor`` (of m rotated up one row for :data:`SHIFT`).  A
    buffer slot that holds the same base as in the previous chunk gets no
    base run: a leading donor run with ``donor == m`` restores the column the
    previous chunk's donor wrote there, so the slot takes two columns, not k.
    """

    def runs(keys) -> list[tuple]:
        out, a = [], 0
        for key, group in groupby(keys):
            b = a + len(list(group))
            if key is not None:
                out.append((a, b, key))
            a = b
        return out

    layout = plan_layout(kind, n, k) if segments is None else [plan_layout(kind, n, k)[s] for s in segments]
    chunks, last = [], []   # (base, donor column or None) of each slot, as the previous chunk left it
    for lo in range(0, len(layout), per_chunk):
        part = layout[lo : lo + per_chunk]
        now = [(m, None if donor is None else j - 1) for _, m, donor, j in part]
        kept = [s < len(last) and last[s][0] == m for s, (m, _) in enumerate(now)]
        base_runs = tuple(runs([None if keep else m for keep, (m, _) in zip(kept, now)]))
        # a kept slot's restored column steps one per slot along a run, like a couple's donor columns
        restores = runs([(m, last[s][1] - s) if kept[s] and last[s][1] is not None else None
                         for s, (m, _) in enumerate(now)])
        # a couple's hybrids are in ascending j, so a run is the slots where j steps one per slot
        hybrids = runs([None if donor is None else (m, donor, j - s) for s, (_, m, donor, j) in enumerate(part)])
        donor_runs = tuple([(a, b, m, m, a + shift) for a, b, (m, shift) in restores]
                           + [(a, b, m, donor, part[a][3] - 1) for a, b, (m, donor, _) in hybrids])
        chunks.append((lo, len(part), base_runs, donor_runs))
        last = now
    return tuple(chunks)


def _segment_chunks(spec: DesignSpec, rows_of, per_chunk: int, rows: int | None = None, storage=None, segments=None):
    """Write runs of ``per_chunk`` segments, ``rows`` rows at a time, into one reused buffer; yield (first, r0, chunk).

    ``chunk[:, s]`` is rows r0 .. r0 + ``chunk.shape[2]`` - 1 of segment first + s, each factor's column one
    contiguous row, so ``chunk.reshape(k, -1).T`` is the chunk's ``(rows, k)`` points, Fortran-ordered.  Row
    ranges of ``rows`` (all N when None) go outer and chunks inner, so consecutive chunks hold the same rows; the
    first chunk of each range writes its bases in full.  The buffer is the caller's ``storage``, a float array of
    at least k x per_chunk x rows values, or a new array when None.  ``rows_of(r0, r1)`` gives rows r0 .. r1 - 1 of
    the n bases, checked or generated: each range and its next row (row 0 after the last) for :data:`SHIFT`.  Each
    run of segments sharing a base is one broadcast from the base, and each couple's run of hybrids writes its donor
    columns through one strided diagonal view of the buffer, so the Python work per chunk is per run, not per segment;
    a slot that keeps its base from the previous chunk only restores and rewrites donor columns (:func:`_chunk_runs`).
    ``segments`` (None: all) are the :func:`plan_layout` indices written, ``first`` counting among them.
    """
    N = spec.N
    rows = N if rows is None else rows
    per_chunk = min(per_chunk, len(plan_layout(spec.kind, spec.n, spec.k) if segments is None else segments))
    storage = np.empty(spec.k * per_chunk * rows) if storage is None else storage
    for r0 in range(0, N, rows):
        h = min(rows, N - r0)
        wraps = r0 + h == N   # the SHIFT donor's last row is row 0
        mats = None   # the previous range's rows are released before the next are drawn
        mats = rows_of(r0, min(r0 + h + 1, N))
        buffer = storage[: spec.k * per_chunk * h].reshape(spec.k, per_chunk, h)
        col_stride, seg_stride, row_stride = buffer.strides
        for lo, size, base_runs, donor_runs in _chunk_runs(spec.kind, spec.n, spec.k, per_chunk, segments):
            chunk = buffer[:, :size]
            for a, b, m in base_runs:
                chunk[:, a:b] = mats[m].T[:, None, :h]
            for a, b, m, donor, col in donor_runs:
                # element [i, r] is row r0 + r, column col + i of segment a + i
                diag = np.ndarray(
                    (b - a, h), buffer=buffer, offset=a * seg_stride + col * col_stride,
                    strides=(seg_stride + col_stride, row_stride),
                )
                if donor == SHIFT:
                    columns = mats[m].T[col : col + b - a]
                    diag[:, : h - wraps] = columns[:, 1 : h + 1 - wraps]
                    if wraps:
                        diag[:, -1] = rows_of(0, 1)[m].T[col : col + b - a, 0]
                else:
                    diag[...] = mats[donor].T[col : col + b - a, :h]
            yield lo, r0, chunk


def assemble_plan(spec: DesignSpec, base_matrices: list[np.ndarray]) -> EvaluationPlan:
    """Assemble the ordered evaluation plan for ``spec``, every point of it in one array.

    The :func:`plan_layout` segments: base matrices first (A, B, ...), then hybrids grouped by base matrix, donor
    and factor, so plans are reproducible row-for-row.  Each base matrix, the caller's or drawn by
    :func:`vbsa.estimators.sample_plan`, must be (N, k) in [0, 1).  ``points`` is the read-only, Fortran-ordered
    view of a new one-chunk buffer of the writer (:func:`_segment_chunks`): each factor's column is contiguous.
    """
    if len(base_matrices) != spec.n:
        raise ValueError(f"design kind {spec.kind!r} needs {spec.n} base matrices, got {len(base_matrices)}")
    mats = [np.asarray(m, dtype=float) for m in base_matrices]
    for i, vals in enumerate(mats):
        if vals.shape != (spec.N, spec.k):
            raise ValueError(f"base matrix shape {vals.shape} does not match (N, k) = {(spec.N, spec.k)}")
        if not _in_unit_cube(vals):
            raise ValueError(f"base matrix {i} has coordinates outside [0, 1)")
    rows_of = lambda r0, r1: [m[r0:r1] for m in mats]
    ((_, _, points),) = _segment_chunks(spec, rows_of, len(plan_layout(spec.kind, spec.n, spec.k)))
    points = points.reshape(spec.k, -1).T
    points.flags.writeable = False
    return EvaluationPlan(spec=spec, points=points)


_tiles = threading.local()   # .storage: this thread's tile buffer for _plan_outputs, grown only, at most _TILE_VALUES


def _plan_outputs(spec: DesignSpec, rows_of, model, segments: tuple[int, ...] | None = None) -> np.ndarray:
    """``model``'s (segments, N) outputs over the plan, in tiles of at most ``_TILE_VALUES`` values (rows x k).

    A tile is as many whole segments as fit; when one segment does not fit, its rows are cut into the fewest
    equal ranges that do, and a tile is one range of one segment.  Every plan row is evaluated exactly once.
    The model gets each tile as a read-only, Fortran-ordered ``(rows, k)`` view: writing into it raises.  Its
    outputs pass :func:`checked_vector`, so a wrong length, NaN or infinity raises at that tile, before the next.
    The tiles are written into one buffer per thread, kept from call to call, so a tile is valid only until the
    model returns; a model that evaluates a plan itself gets a buffer of its own for that.  Besides the outputs,
    the call holds the buffer and one range's rows from the row source ``rows_of`` (:func:`_segment_chunks`).
    Unchecked precondition: the rows are generated Sobol' points, from ``estimators._draw_rows``, or slices of the
    stacked row prefixes of one repetition's pool for a group of sweep cells, from ``bench._group_outputs``, or of
    an adaptive block, from ``adaptive.adaptive_run``.  Given ``segments``, :func:`plan_layout` indices, y holds theirs.
    """
    N, k = spec.N, spec.k
    y = np.empty((len(plan_layout(spec.kind, spec.n, k) if segments is None else segments), N))
    ranges = -(-N // max(1, _TILE_VALUES // k))
    rows = -(-N // ranges)
    per_chunk = min(len(y), max(1, _TILE_VALUES // (rows * k)))
    storage, _tiles.storage = getattr(_tiles, "storage", None), None   # taken until this call returns
    if storage is None or storage.size < k * per_chunk * rows:
        storage = np.empty(k * per_chunk * rows)
    for lo, r0, chunk in _segment_chunks(spec, rows_of, per_chunk, rows, storage, segments):
        points = chunk.reshape(k, -1).T
        points.flags.writeable = False
        size, h = chunk.shape[1:]
        y[lo : lo + size, r0 : r0 + h] = checked_vector("model output", model(points), size * h).reshape(size, h)
    _tiles.storage = storage
    return y


def design_metrics(spec: DesignSpec) -> DesignMetrics:
    """N_T, E_T, economy and explorativity of a plan-capable design.

    Every segment of the layout costs N runs and every couple of segments
    yields N elementary effects, so N_T and E_T are N times per-row counts
    of the kind's entry in :data:`DESIGN_KINDS`; chi = nN / N_T.
    """
    bases, couples = DESIGN_KINDS[spec.kind].matrices(spec.n)
    nt = spec.N * (bases + spec.k * len(couples))
    et = spec.N * spec.k * factor_segments(spec.kind, spec.n, 1)[0].shape[1]   # couples per factor
    return DesignMetrics(
        kind=spec.kind,
        n=spec.n,
        N=spec.N,
        total_points=nt,
        total_effects=et,
        economy=et / nt,
        explorativity=spec.n * spec.N / nt,
    )


def reference_metrics(kind: str, k: int, n_t: int | None = None) -> DesignMetrics:
    """Metrics-only reference designs: couples, stars and winding stairs.

    No plan assembly exists for these; they anchor the explorativity-economy
    comparison.  ``winding_stairs`` interpolates between its minimal trajectory
    (N_T = k + 1) and the asymptotic regime; pass ``n_t`` to pick a point.
    """
    if kind not in REFERENCE_KINDS:
        raise ValueError(f"unknown reference design {kind!r}; expected one of {REFERENCE_KINDS}")
    if kind == "couples":
        nt = n_t if n_t is not None else 2
        et = nt // 2
        chi = (k + 1) / (2.0 * k)
    elif kind == "stars":
        nt = n_t if n_t is not None else k + 1
        et = nt * k // (k + 1)
        chi = 2.0 / (k + 1)
    else:
        nt = n_t if n_t is not None else k + 1
        et = nt - 1
        chi = (nt + k - 1) / (nt * k)
    return DesignMetrics(
        kind=kind, n=1, N=nt, total_points=nt, total_effects=et,
        economy=et / nt, explorativity=chi,
    )


def _matched_N(spec: DesignSpec, target: int) -> int:
    """Power of two N at which ``spec``'s design costs nearest ``target`` runs; ties go to the smaller N."""
    cost_per_row = design_metrics(replace(spec, N=1)).total_points
    return min((1 << p for p in range(_MAX_P + 1)), key=lambda n: abs(cost_per_row * n - target))


def budget_table(k: int, target_nt: int) -> list[DesignMetrics]:
    """Design alternatives meeting an affordable total run count.

    Emits the asymmetric two-matrix row plus, for each base-matrix count
    n = 2..10, the symmetric multi-matrix row whose power-of-two N brings
    N_T closest to ``target_nt``.  When several n land on the same N only the
    closest-to-target row is kept, matching how such trade-off tables are
    usually reported.  Rows carry the L2-star discrepancy of the pooled nN
    original (unscrambled) base-matrix points, or None when the pool's n*k
    columns exceed the Sobol' direction table, and are sorted by decreasing N.
    """
    if target_nt < k + 1:
        raise ValueError(f"target_nt = {target_nt} is below the minimal design cost {k + 1}")

    def nearest(kind: str, n: int) -> DesignMetrics:
        return design_metrics(DesignSpec(kind=kind, n=n, N=_matched_N(DesignSpec(kind, n, 1, k), target_nt), k=k))

    sym_rows: dict[int, DesignMetrics] = {}
    for n in range(2, 11):
        metrics = nearest("multimatrix", n)
        incumbent = sym_rows.get(metrics.N)
        if incumbent is None or abs(metrics.total_points - target_nt) < abs(
            incumbent.total_points - target_nt
        ):
            sym_rows[metrics.N] = metrics
    # one symmetric row per N, so a stable sort keeps the asymmetric row first
    rows = sorted([nearest("asymmetric", 2), *sym_rows.values()], key=lambda r: -r.N)

    out = []
    for row in rows:
        discrepancy = None
        if row.n * k <= _MAX_DIM:
            discrepancy = l2_star_discrepancy(np.vstack(pool_matrices(sobol_rows(row.n * k, 0, row.N), row.n, k)))
        out.append(replace(row, discrepancy=discrepancy))
    return out


def budget_table_csv(rows: list[DesignMetrics]) -> str:
    """CSV rendering of a budget table (kind,N,n,N_T,E_T,nN,D,chi)."""
    lines = ["kind,N,n,N_T,E_T,nN,D,chi"]
    for r in rows:
        d = "" if r.discrepancy is None else repr(r.discrepancy)
        lines.append(
            f"{r.title},{r.N},{r.n},{r.total_points},{r.total_effects},{r.original_points},{d},{r.explorativity!r}"
        )
    return "\n".join(lines) + "\n"


__all__ = [
    "DESIGN_KINDS",
    "DesignKind",
    "DesignMetrics",
    "DesignSpec",
    "EvaluationPlan",
    "PLAN_KINDS",
    "REFERENCE_KINDS",
    "SHIFT",
    "assemble_plan",
    "base_label",
    "budget_table",
    "budget_table_csv",
    "cyclic_label",
    "design_metrics",
    "factor_segments",
    "hybrid_label",
    "plan_layout",
    "pool_matrices",
    "reference_metrics",
]
