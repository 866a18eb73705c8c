"""Convergence benchmarking: scrambled repetitions, matched costs, MAE, exports.

The protocol: every repetition draws one column permutation of the Sobol'
pool (shared by all estimators in that repetition, the fairest comparison),
block sizes run over powers of two, and every competing design is run at the
power-of-two N whose total cost lands nearest the asymmetric reference cost
``(k + 1) 2**p`` (ties to the smaller N).  Accuracy is summarised as the mean
over repetitions of the per-factor mean absolute deviation from the analytic
total indices.

Within a repetition, each estimator's consecutive block sizes are evaluated
in groups: as many whole cells as fit in one plan tile (``_TILE_VALUES``
values) share one plan write and one model call over their stacked bases,
the columns the group reads, gathered from the pool's row prefixes.  Every
plan row is still evaluated once, for its own cell, and each cell's
estimator reads its own columns of a block of repetitions' outputs, stacked,
in one call, so the records are each cell's and repetition's own, bit for bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import adaptive as adaptive_mod
from . import designs, estimators, qmc, testfns
from .designs import DesignMetrics, DesignSpec, reference_metrics
from .testfns import FunctionSpec

# Each estimator name with the design kind it runs on and its base-matrix count (a fixed n,
# or None for any n >= 2): every kind's own estimator, then one fixing an n its kind leaves free.
ESTIMATOR_DESIGNS: dict[str, tuple[str, int | None]] = {
    **{rule.sweep_name: (kind, rule.n) for kind, rule in designs.DESIGN_KINDS.items()},
    "saltenis_symmetric": ("lamboni", 2),   # two-matrix symmetric squared differences
}
ESTIMATOR_NAMES = tuple(ESTIMATOR_DESIGNS)


@dataclass(frozen=True)
class EstimatorConfig:
    """One competing method: estimator name plus its base-matrix count (default: the fixed n, else 2)."""

    name: str
    n: int | None = None

    def __post_init__(self) -> None:
        if self.name not in ESTIMATOR_DESIGNS:
            raise ValueError(f"unknown estimator {self.name!r}; expected one of {ESTIMATOR_NAMES}")
        fixed_n = ESTIMATOR_DESIGNS[self.name][1]
        if self.n is None:
            object.__setattr__(self, "n", fixed_n or 2)
        elif fixed_n is not None and self.n != fixed_n:
            raise ValueError(f"estimator {self.name!r} uses n = {fixed_n}")
        self.design(1, 1)   # the design kind's own n rule

    def design(self, N: int, k: int) -> DesignSpec:
        return DesignSpec(kind=ESTIMATOR_DESIGNS[self.name][0], n=self.n, N=N, k=k)


def _check_sweep(repetitions: int, p_values: range) -> None:
    """The sweep checks of :class:`ExperimentConfig` and :func:`adaptive_experiment`, in one order."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if min(p_values, default=p_values.start) < 0:
        raise ValueError("p_min must be >= 0")
    if not p_values:
        raise ValueError("p range is empty")


@dataclass(frozen=True)
class ExperimentConfig:
    """A full convergence experiment for one test function."""

    function: FunctionSpec
    estimators: tuple[EstimatorConfig, ...]
    p_min: int = 2
    p_max: int = 14
    repetitions: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        _check_sweep(self.repetitions, self.p_values)
        if self.p_max > qmc._MAX_P:   # beyond the generator's largest block; checked before any cell runs
            raise ValueError(f"p_max = {self.p_max} exceeds the supported maximum {qmc._MAX_P}")
        if not self.estimators:
            raise ValueError("need at least one estimator")
        repeated = [e for i, e in enumerate(self.estimators) if e in self.estimators[:i]]
        if repeated:
            raise ValueError(f"estimator {repeated[0].name!r} with n = {repeated[0].n} is listed twice")

    @property
    def p_values(self) -> range:
        return range(self.p_min, self.p_max + 1)


@dataclass(frozen=True)
class ConvergenceRecord:
    """One benchmark cell: per-repetition estimates or a per-p aggregate (rep None)."""

    function: str
    estimator: str
    n: int
    p: int
    N: int
    n_t: int
    rep: int | None
    t_hat: np.ndarray | None = field(repr=False, default=None)
    mae: float = math.nan


@dataclass(frozen=True)
class CellError:
    """A failed benchmark cell; sweeps continue and report these at the end."""

    estimator: str
    n: int
    p: int
    rep: int
    message: str


def mae(estimates: np.ndarray, analytic: np.ndarray) -> float:
    """Mean over repetitions of the per-repetition mean absolute factor deviation."""
    est = np.atleast_2d(np.asarray(estimates, dtype=float))
    ref = np.asarray(analytic, dtype=float)
    if est.shape[1] != len(ref):
        raise ValueError(f"estimate columns {est.shape[1]} do not match analytic length {len(ref)}")
    return float(np.mean(np.abs(est - ref).mean(axis=1)))


def matched_block_size(config: EstimatorConfig, k: int, reference_cost: int) -> int:
    """Power-of-two N whose design cost is closest to the reference; ties to smaller N."""
    return designs._matched_N(config.design(1, k), reference_cost)


_Cell = tuple[int, DesignSpec, int]   # one sweep cell: p, the design at the matched N, its N_T


def _rep_record(
    fn: FunctionSpec, name: str, p: int, spec: DesignSpec, n_t: int, rep: int, total: np.ndarray,
    analytic_total: np.ndarray,
) -> ConvergenceRecord:
    """One repetition's record of a cell, its MAE taken by np.mean's steps over the factors."""
    deviation = float(np.add.reduce(np.abs(total - analytic_total))) / fn.k
    return ConvergenceRecord(fn.family, name, spec.n, p, spec.N, n_t, rep, t_hat=total, mae=deviation)


def _group_records(cfg: ExperimentConfig, analytic_total: np.ndarray, pool: np.ndarray, perms: list,
                   est: EstimatorConfig, group: list[_Cell], reps: range) -> tuple[list, list[CellError]]:
    """The records and cell errors of a group of cells over a block of repetitions, one estimator call per cell.

    A cell's bases are the first N rows of its repetition's permuted pool.  Every pool column's row prefixes of the
    cells are stacked once per block (a lone cell's are a view of the pool); each repetition gathers only the n k
    columns its permutation puts first, one contiguous row each: the F-ordered ``(N, n k)`` pool of one plan over
    them (:func:`designs._plan_outputs`), whose segments write row by row.  A cell's column range of the outputs is
    its own plan's, and goes into its ``(repetitions, segments, N)`` stack.  A stack that raises is estimated again
    one repetition at a time, so each error is that repetition's own and the others keep their records.
    """
    specs = [spec for _, spec, _ in group]
    ends = np.cumsum([spec.N for spec in specs]).tolist()
    plan = replace(specs[0], N=ends[-1])
    prefixes = pool.T[:, : plan.N] if len(specs) == 1 else np.concatenate([pool.T[:, : s.N] for s in specs], axis=1)
    stacks = [np.empty((len(reps), len(designs.plan_layout(s.kind, s.n, s.k)), s.N)) for s in specs]
    for i, rep in enumerate(reps):
        rows = prefixes[perms[rep].perm[: plan.n * plan.k]].T   # F-ordered like the pool: the columns the group reads
        y = designs._plan_outputs(plan, lambda r0, r1: rows[r0:r1],
                                  lambda points: testfns.evaluate(cfg.function, points))
        for stack, end in zip(stacks, ends):
            stack[i] = y[:, end - stack.shape[-1] : end]
    records, errors = [], []
    for (p, spec, n_t), stack in zip(group, stacks):
        try:
            totals = list(zip(reps, estimators.run_estimator(spec, stack).total))
        except estimators.EstimationError:
            totals = []
            for rep, y in zip(reps, stack):
                try:
                    totals.append((rep, estimators.run_estimator(spec, y).total))
                except estimators.EstimationError as exc:   # degenerate cells must not abort the sweep
                    errors.append(CellError(est.name, est.n, p, rep, str(exc)))
        records.extend(_rep_record(cfg.function, est.name, p, spec, n_t, rep, total, analytic_total)
                       for rep, total in totals)
    return records, errors


def _cell_groups(cells: list[_Cell]) -> list[list[_Cell]]:
    """One estimator's consecutive ``(p, spec, N_T)`` cells, packed into groups that share one plan tile.

    A group is as many whole cells as fit in ``_TILE_VALUES`` values (N_T x k), the rule by which
    :func:`designs._plan_outputs` packs segments.  A cell bigger than a tile is a group of its own, and so is every
    cyclic cell: its :data:`designs.SHIFT` donor wraps to the cell's own row 0.
    """
    groups: list[list[_Cell]] = []
    values = 0
    for cell in cells:
        _, spec, n_t = cell
        size = n_t * spec.k
        if groups and spec.kind != "cyclic_single" and values + size <= designs._TILE_VALUES:
            groups[-1].append(cell)
            values += size
        else:
            groups.append([cell])
            values = size
    return groups


def convergence_experiment(
    cfg: ExperimentConfig, workers: int = 1
) -> tuple[list[ConvergenceRecord], list[CellError]]:
    """Run the full repetition/block sweep; deterministic for a given config.

    Every cell reads a prefix of one pool, n k columns at the roster's largest n by its largest cell's N rows, each
    repetition gathering the n k columns its permutation puts first.  Groups of cells (:func:`_cell_groups`) run in
    blocks of as many repetitions as fit one tile of the group's outputs (``_TILE_VALUES`` // the sum of its N_T, at
    least one), on ``workers`` threads; records sort by estimator, p and rep, errors by rep, p and roster order.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    k = cfg.function.k
    analytic_total = testfns.analytic_indices(cfg.function).total
    reps = range(cfg.repetitions)
    blocks = []   # (estimator, cells evaluated together, repetitions estimated together)
    for e in cfg.estimators:
        cells = []
        for p in cfg.p_values:
            spec = e.design(matched_block_size(e, k, (k + 1) * 2**p), k)
            cells.append((p, spec, designs.design_metrics(spec).total_points))
        for group in _cell_groups(cells):
            size = max(1, designs._TILE_VALUES // sum(n_t for _, _, n_t in group))
            blocks.extend((e, group, reps[r : r + size]) for r in range(0, cfg.repetitions, size))
    n_max = max(e.n for e in cfg.estimators)
    if n_max * k > qmc._MAX_DIM:   # before the pool is drawn and any model run
        raise ValueError(f"n = {n_max} matrices at k = {k} need {n_max * k} generator dimensions (max {qmc._MAX_DIM})")
    pool = qmc.sobol_rows(n_max * k, 0, max(spec.N for _, group, _ in blocks for _, spec, _ in group))
    perms = [qmc.draw_permutation(n_max * k, cfg.seed, rep) for rep in reps]

    run = lambda block: _group_records(cfg, analytic_total, pool, perms, *block)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            per_block = list(ex.map(run, blocks))
    else:
        per_block = [run(block) for block in blocks]

    records = [rec for recs, _ in per_block for rec in recs]
    errors = [err for _, errs in per_block for err in errs]
    series = [(e.name, e.n) for e in cfg.estimators]
    records.sort(key=lambda r: (series.index((r.estimator, r.n)), r.p, r.rep))
    errors.sort(key=lambda e: (e.rep, e.p, series.index((e.estimator, e.n))))
    return _with_aggregates(records, series, cfg.p_values), errors


def _with_aggregates(
    records: list[ConvergenceRecord], series: list[tuple[str, int]], p_values: range
) -> list[ConvergenceRecord]:
    """Per-repetition records followed by one aggregate per (estimator, n) series and p, of its records' mean MAE."""
    cells: dict[tuple[str, int, int], list[ConvergenceRecord]] = {}
    for r in records:
        if r.rep is not None:
            cells.setdefault((r.estimator, r.n, r.p), []).append(r)
    aggregates = []
    for name, n in series:
        for p in p_values:
            cell = cells.get((name, n, p))
            if cell:
                aggregates.append(replace(cell[0], rep=None, t_hat=None, mae=float(np.mean([r.mae for r in cell]))))
    return records + aggregates


def adaptive_experiment(
    fn: FunctionSpec,
    p_values: range,
    repetitions: int,
    seed: int,
) -> tuple[list[ConvergenceRecord], list[str]]:
    """Adaptive allocation vs the plain asymmetric estimator at full reported cost.

    Per p and repetition, the plain series is :func:`estimate_total_effects`
    at N = 2**p and the adaptive one :func:`vbsa.adaptive.adaptive_run`; both
    draw the pool of :func:`estimators.sample_plan` with the same seed and
    repetition and evaluate it in cache-sized plan tiles, the adaptive one block
    by block, so the plain design is the first 2**p rows of the adaptive one.  Both are
    reported against the budget ``(k + 1) 2**p``; the runs the adaptive one
    spent are in the ledger lines (:func:`vbsa.adaptive.ledger_csv_header`).
    Each repetition draws its pool once, at the largest p's 2**(p + 1) rows, and holds it while all its p run (the
    held-block rule of :func:`qmc.sobol_rows`); the output keeps p_values' (p, rep) order.
    """
    _check_sweep(repetitions, p_values)
    for p in (min(p_values), max(p_values)):   # every p between passes when both ends do
        adaptive_mod._check_budget_exponent(fn.k, p)
    analytic_total = testfns.analytic_indices(fn).total
    n_pool = 2 ** (max(p_values) + 1)
    cells = {}   # (p, rep): the cell's records and ledger lines
    for rep in range(repetitions):
        held = designs._draw_rows(DesignSpec("asymmetric", 2, n_pool, fn.k), seed, rep)(0, n_pool)
        for p in p_values:
            spec = DesignSpec(kind="asymmetric", n=2, N=2**p, k=fn.k)
            n_t = designs.design_metrics(spec).total_points
            plain = estimators.estimate_total_effects(spec, fn, seed, rep)
            adapted, ledger = adaptive_mod.adaptive_run(fn, p, seed=seed, repetition=rep)
            cells[p, rep] = ([_rep_record(fn, name, p, spec, n_t, rep, est.total, analytic_total)
                              for name, est in (("saltenis", plain), ("adaptive", adapted))],
                             adaptive_mod.ledger_csv_rows(p, rep, ledger))
        del held   # released before the next repetition's block is drawn
    records = [r for p in p_values for rep in range(repetitions) for r in cells[p, rep][0]]
    ledger_lines = [line for p in p_values for rep in range(repetitions) for line in cells[p, rep][1]]
    return _with_aggregates(records, [("saltenis", 2), ("adaptive", 2)], p_values), ledger_lines


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------


def records_csv(records: list[ConvergenceRecord]) -> str:
    """Full-precision CSV of benchmark records.

    Per-repetition records expand to one line per factor carrying that
    repetition's mean absolute deviation; aggregate records have empty
    rep/factor/T_hat fields and carry the MAE over repetitions.
    """
    if not records:
        raise ValueError("no records to export")
    lines = ["function,estimator,n,p,N,N_T,rep,factor,T_hat,mae"]
    for r in records:
        head = f"{r.function},{r.estimator},{r.n},{r.p},{r.N},{r.n_t}"
        if r.rep is None:
            lines.append(f"{head},,,,{r.mae!r}")
        else:
            head, tail = f"{head},{r.rep},", f",{r.mae!r}"
            lines.extend(f"{head}{j},{t!r}{tail}" for j, t in enumerate(r.t_hat.tolist(), start=1))
    return "\n".join(lines) + "\n"


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")
_MARKERS = ("circle", "triangle", "square", "diamond", "cross", "circle", "triangle", "square")


def _svg_marker(shape: str, x: float, y: float, color: str) -> str:
    if shape == "circle":
        return f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.5" fill="{color}"/>'
    if shape == "triangle":
        pts = f"{x:.2f},{y - 4:.2f} {x - 3.6:.2f},{y + 3:.2f} {x + 3.6:.2f},{y + 3:.2f}"
        return f'<polygon points="{pts}" fill="{color}"/>'
    if shape == "square":
        return f'<rect x="{x - 3:.2f}" y="{y - 3:.2f}" width="6" height="6" fill="{color}"/>'
    if shape == "diamond":
        pts = f"{x:.2f},{y - 4:.2f} {x + 4:.2f},{y:.2f} {x:.2f},{y + 4:.2f} {x - 4:.2f},{y:.2f}"
        return f'<polygon points="{pts}" fill="{color}"/>'
    return (
        f'<path d="M {x - 3:.2f} {y - 3:.2f} L {x + 3:.2f} {y + 3:.2f} '
        f'M {x - 3:.2f} {y + 3:.2f} L {x + 3:.2f} {y - 3:.2f}" stroke="{color}" stroke-width="1.5"/>'
    )


def _svg_axes(
    box: tuple[int, ...], xlabel: str, ylabel: str, xticks: list[tuple[float, str]], yticks: list[tuple[float, str]]
) -> tuple[list[str], list[str], list[str]]:
    """A plot's frame, ticks and axis labels, as three lists of SVG elements that each plot orders itself.

    ``box`` is (width, height, left, right, top, bottom margins); a tick is its pixel position and its text.
    """
    width, height, ml, mr, mt, mb = box
    frame = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{width - ml - mr}" height="{height - mt - mb}" '
        'fill="none" stroke="black"/>',
    ]
    ticks = []
    for x, text in xticks:
        ticks.append(f'<line x1="{x:.2f}" y1="{height - mb}" x2="{x:.2f}" y2="{height - mb + 5}" stroke="black"/>')
        ticks.append(f'<text x="{x:.2f}" y="{height - mb + 18}" text-anchor="middle">{text}</text>')
    for y, text in yticks:
        ticks.append(f'<line x1="{ml - 5}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" stroke="black"/>')
        ticks.append(f'<text x="{ml - 8}" y="{y + 4:.2f}" text-anchor="end">{text}</text>')
    labels = [
        f'<text x="{(ml + width - mr) / 2:.2f}" y="{height - 10}" text-anchor="middle">{xlabel}</text>',
        f'<text x="18" y="{(mt + height - mb) / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {(mt + height - mb) / 2:.2f})">{ylabel}</text>',
    ]
    return frame, ticks, labels


def _log_axis(lo: float, hi: float):
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    if hi_e == lo_e:
        hi_e += 1
    return lo_e, hi_e


def mae_plot_svg(records: list[ConvergenceRecord], title: str = "") -> str:
    """Log-log MAE versus total cost, one polyline and marker set per estimator."""
    aggs = [r for r in records if r.rep is None and r.mae > 0]
    if not aggs:
        raise ValueError("no aggregate records to plot")
    series: dict[str, list[tuple[int, float]]] = {}
    for r in aggs:
        free_n = r.estimator in ESTIMATOR_DESIGNS and ESTIMATOR_DESIGNS[r.estimator][1] is None
        label = f"{r.estimator}(n={r.n})" if free_n else r.estimator
        series.setdefault(label, []).append((r.n_t, r.mae))

    width, height, ml, mr, mt, mb = 640, 440, 70, 170, 40, 55
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    xe0, xe1 = _log_axis(min(xs), max(xs))
    ye0, ye1 = _log_axis(min(ys), max(ys))

    def px(v: float) -> float:
        return ml + (math.log10(v) - xe0) / (xe1 - xe0) * (width - ml - mr)

    def py(v: float) -> float:
        return height - mb - (math.log10(v) - ye0) / (ye1 - ye0) * (height - mt - mb)

    frame, ticks, labels = _svg_axes((width, height, ml, mr, mt, mb), "total cost N_T", "MAE",
                                     [(px(10.0**e), f"1e{e}") for e in range(xe0, xe1 + 1)],
                                     [(py(10.0**e), f"1e{e}") for e in range(ye0, ye1 + 1)])
    out = frame + ([f'<text x="{ml}" y="{mt - 12}" font-size="13">{title}</text>'] if title else []) + ticks + labels
    for i, (label, pts) in enumerate(series.items()):
        pts = sorted(pts)
        color = _PALETTE[i % len(_PALETTE)]
        marker = _MARKERS[i % len(_MARKERS)]
        path = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        out.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in pts:
            out.append(_svg_marker(marker, px(x), py(y), color))
        ly = mt + 16 + 18 * i
        lx = width - mr + 12
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        out.append(_svg_marker(marker, lx + 11, ly - 4, color))
        out.append(f'<text x="{lx + 28}" y="{ly}">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def design_scatter_svg(rows: list[DesignMetrics], k: int) -> str:
    """Explorativity versus economy scatter for design alternatives.

    Adds the couples/stars/winding-stairs reference designs alongside the
    plan-capable rows; the winding-stairs entry spans its minimal-trajectory
    and asymptotic explorativity values.
    """
    named = [(f"{r.title} n={r.n}", r) for r in rows]
    named += [(kind, reference_metrics(kind, k)) for kind in ("couples", "stars")]
    named += [("winding stairs (short)", reference_metrics("winding_stairs", k, n_t=k + 1)),
              ("winding stairs (long)", reference_metrics("winding_stairs", k, n_t=4096))]
    pts = [(label, m.economy, m.explorativity) for label, m in named]

    width, height, ml, mr, mt, mb = 620, 440, 70, 40, 40, 55
    emax = max(x for _, x, _ in pts) * 1.1
    cmax = max(y for _, _, y in pts) * 1.15

    def px(v: float) -> float:
        return ml + v / emax * (width - ml - mr)

    def py(v: float) -> float:
        return height - mb - v / cmax * (height - mt - mb)

    xvals, yvals = [emax * i / 6 for i in range(7)], [cmax * i / 6 for i in range(7)]   # six intervals per axis
    frame, ticks, labels = _svg_axes((width, height, ml, mr, mt, mb), "economy e", "explorativity chi",
                                     [(px(v), f"{v:.2f}") for v in xvals], [(py(v), f"{v:.2f}") for v in yvals])
    out = frame + labels + ticks
    for i, (label, e, c) in enumerate(pts):
        color = _PALETTE[i % len(_PALETTE)]
        out.append(f'<circle cx="{px(e):.2f}" cy="{py(c):.2f}" r="4" fill="{color}"/>')
        out.append(f'<text x="{px(e) + 6:.2f}" y="{py(c) - 5:.2f}">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def export(
    records: list[ConvergenceRecord],
    out_dir: str | Path,
    fmt: str = "both",
    basename: str = "convergence",
    title: str = "",
) -> list[Path]:
    """Write benchmark records as CSV and/or an SVG MAE-vs-cost plot."""
    if not records:
        raise ValueError("no records to export")
    if fmt not in ("csv", "svg", "both"):
        raise ValueError(f"unknown export format {fmt!r}")
    written = []
    if fmt in ("csv", "both"):
        written.append(_write(out_dir, f"{basename}.csv", records_csv(records)))
    if fmt in ("svg", "both"):
        written.append(_write(out_dir, f"{basename}.svg", mae_plot_svg(records, title=title)))
    return written


def _write(out_dir: str | Path, name: str, text: str) -> Path:
    """Write ``text`` to ``out_dir/name``, making the directory first; return the path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    path.write_text(text)
    return path


def errors_csv(errors: list[CellError]) -> str:
    lines = ["estimator,n,p,rep,message"]
    for e in errors:
        msg = e.message.replace("\n", " ").replace(",", ";")
        lines.append(f"{e.estimator},{e.n},{e.p},{e.rep},{msg}")
    return "\n".join(lines) + "\n"


__all__ = [
    "CellError",
    "ConvergenceRecord",
    "ESTIMATOR_DESIGNS",
    "ESTIMATOR_NAMES",
    "EstimatorConfig",
    "ExperimentConfig",
    "adaptive_experiment",
    "convergence_experiment",
    "design_scatter_svg",
    "errors_csv",
    "export",
    "mae",
    "mae_plot_svg",
    "matched_block_size",
    "records_csv",
]
