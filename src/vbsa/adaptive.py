"""Adaptive run allocation for the asymmetric squared-difference estimator.

The run budget ``(k + 1) 2**p`` is spent in power-of-two blocks.  After a
warm-up at ``N = 2**(p + 2 - k)`` rows, factors are ranked by the standard
deviation of their elementary effects; before each doubling, the least
important factors can be dropped for good when doubling the sample would
still leave the next-ranked factor noisier (the sqrt(2) rule).  Runs saved
on dropped factors let the surviving factors climb beyond ``2**p`` rows while
staying inside the budget; the cost ledger records what was actually spent.

The rows are those of the asymmetric plan :func:`vbsa.estimators.sample_plan`
draws at ``N = 2**(p + 1)``, the most rows a factor can reach; only its
2k-column pool is held (:func:`vbsa.qmc.sobol_rows`).  The warm-up and every
doubling run one block: the next rows of A and of each active factor's hybrid
A_B(j), in ascending j, drawn by :func:`vbsa.designs._draw_rows` at the
block's offset, go through the tiles of :func:`vbsa.designs._plan_outputs`,
then a ledger entry follows; dropped factors' rows are never written.  Outputs
and elementary effects fill arrays preallocated for those rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import designs, qmc, testfns
from .designs import DesignSpec
from .estimators import EstimationError, TotalIndexEstimate, _checked_variance


@dataclass(frozen=True)
class BlockRecord:
    """One ledger entry: stage 0 is the warm-up, stages s >= 1 the doublings."""

    stage: int
    rows_reached: int
    active_factors: tuple[int, ...]   # 1-based, factors still accumulating effects
    runs_this_block: int
    runs_total: int
    std_effects: tuple[float, ...] = ()   # per-factor spread when the block closed


@dataclass(frozen=True)
class AdaptiveLedger:
    """Spending record of one adaptive run against its budget."""

    budget: int
    blocks: tuple[BlockRecord, ...]

    @property
    def runs_spent(self) -> int:
        return self.blocks[-1].runs_total

    @property
    def savings(self) -> int:
        return self.budget - self.runs_spent


def std_elementary_effects(diffs: np.ndarray) -> np.ndarray:
    """Population standard deviation of each row of a ``(factors, rows)`` array of elementary-effect differences."""
    diffs = np.asarray(diffs, dtype=float)
    if diffs.ndim != 2 or diffs.shape[1] < 2:
        raise EstimationError("elementary-effect vectors need length >= 2")
    # np.std's own ufunc steps, without its Python wrapper: the same bits
    mean = np.add.reduce(diffs, axis=1, keepdims=True)
    x = np.subtract(diffs, np.true_divide(mean, diffs.shape[1], out=mean))
    return np.sqrt(np.add.reduce(np.square(x, out=x), axis=1) / diffs.shape[1])


def _check_budget_exponent(k: int, p: int) -> None:
    """Reject a k or budget exponent p that :func:`adaptive_run` cannot serve, before any model run."""
    if k < 2 or p < k - 1:   # the budget must pay for a warm-up block of 2**(p + 2 - k) >= 2 rows
        raise ValueError(f"budget exponent p = {p} leaves no warm-up block for k = {k} (need k >= 2 and p >= {k - 1})")
    if p >= qmc._MAX_P:
        raise ValueError(f"budget exponent p = {p} needs a pool of 2**{p + 1} rows (need p <= {qmc._MAX_P - 1})")


def adaptive_run(
    fn: testfns.FunctionSpec,
    p: int,
    seed: int | None = None,
    repetition: int = 0,
    rule_enabled: bool = True,
    model: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[TotalIndexEstimate, AdaptiveLedger]:
    """Run the adaptive allocation for ``fn`` against the budget ``(k + 1) 2**p``.

    Deterministic given ``(fn, p, seed, repetition)``.  With the drop rule
    disabled the budget gate stops the doubling exactly at ``2**p`` rows for
    every factor, reproducing the plain asymmetric estimator on the same
    scrambled sequence.  ``model`` substitutes an arbitrary evaluator of the
    same dimension (points array in, output vector out) for the analytic
    family, e.g. a wrapped external code; it gets read-only, Fortran-ordered
    tiles of at most 2**17 values that mix rows of A and of active hybrids.
    """
    k = fn.k
    _check_budget_exponent(k, p)
    budget = (k + 1) * 2**p
    # The last block can reach 2**(p+1) rows when enough factors were dropped.
    n_max = 2 ** (p + 1)
    # Held, never read: every block's rows come from it (the held-block rule of qmc.sobol_rows).
    held = designs._draw_rows(DesignSpec("asymmetric", 2, n_max, k), seed, repetition)(0, n_max)
    model = model if model is not None else lambda points: testfns.evaluate(fn, points)

    f_a = np.empty(n_max)
    diffs = np.empty((k, n_max))
    reached = np.zeros(k, dtype=np.int64)   # rows of elementary effects per factor
    stds = np.empty(k)   # their spreads; only the factors a block grew are recomputed
    active = tuple(range(1, k + 1))
    n_rows = spent = 0
    blocks: list[BlockRecord] = []

    for stage in range(k):   # stage 0 is the warm-up block
        if rule_enabled and 1 <= stage <= k - 2:
            # decreasing importance, ties broken by ascending factor index
            order = sorted(range(1, k + 1), key=lambda j: (-stds[j - 1], j))
            upper = stds[order[k - stage - 2] - 1]   # rank k - stage - 1
            lower = stds[order[k - stage - 1] - 1]   # rank k - stage
            if upper / math.sqrt(2.0) > lower:
                active = tuple(j for j in active if j not in order[k - stage - 1 :])
        new_rows = n_rows if stage else 2 ** (p + 2 - k)
        cost = (1 + len(active)) * new_rows
        if spent + cost > budget:
            break
        lo, n_rows = n_rows, n_rows + new_rows
        block = DesignSpec("asymmetric", 2, new_rows, k)   # rows lo .. n_rows - 1 of the held block
        y = designs._plan_outputs(block, designs._draw_rows(block, seed, repetition, lo), model, (0, *active))
        grown = [j - 1 for j in active]
        f_a[lo:n_rows] = y[0]
        diffs[grown, lo:n_rows] = y[0] - y[1:]
        reached[grown] = n_rows
        spent += cost
        stds[grown] = std_elementary_effects(diffs[grown, :n_rows])
        blocks.append(BlockRecord(stage, n_rows, active, cost, spent, tuple(stds.tolist())))

    variance = _checked_variance(f_a[:n_rows], "evaluated base rows")
    numerator = np.array([np.add.reduce(np.square(d[:r])) / r for d, r in zip(diffs, reached)]) / 2.0  # np.mean's steps
    estimate = TotalIndexEstimate(
        total=numerator / variance,
        numerator=numerator,
        variance=variance,
        effects_used=reached,
    )
    return estimate, AdaptiveLedger(budget=budget, blocks=tuple(blocks))


def ledger_csv_rows(p: int, rep: int, ledger: AdaptiveLedger) -> list[str]:
    """Flatten one ledger into CSV data lines (see :func:`ledger_csv_header`)."""
    rows = []
    for b in ledger.blocks:
        act = " ".join(str(j) for j in b.active_factors)
        rows.append(f"{p},{rep},{b.stage},{b.rows_reached},{act},{b.runs_this_block},{b.runs_total},{ledger.budget}")
    return rows


def ledger_csv_header() -> str:
    return "p,rep,stage,rows,active_factors,runs_block,runs_total,budget"


__all__ = [
    "AdaptiveLedger",
    "BlockRecord",
    "adaptive_run",
    "ledger_csv_header",
    "ledger_csv_rows",
    "std_elementary_effects",
]
