"""Correctness checks on a workload's outputs, and the stored reference.

For every seed: each cell must produce a finite T-hat of the right length and
no ``CellError``, and each aggregate MAE must equal the MAE recomputed from the
per-repetition estimates.  Seed-independent outputs (budget table,
discrepancy) must match the reference.  For the default seed, each group's
aggregate MAE and its T-hat vectors (through their mean over repetitions) must
also match the reference.  Every comparison uses criterion 09's absolute
tolerance of 1e-12.  A failed check fails every cell of its group.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from worker import DEFAULT_SEED
from workloads import Outcome

TOLERANCE = 1e-12

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def reference_entry(outcome: Outcome) -> dict:
    """The reference record of one workload at the default seed."""
    groups = {}
    for key, g in sorted(outcome.groups.items()):
        groups[key] = {
            "mae": g.mae,
            "t_hat_mean": [float(v) for v in np.mean(np.vstack(g.t_hats), axis=0)],
        }
    return {"groups": groups, "fixed": outcome.fixed}


def load_reference(workload: str) -> dict | None:
    if not REFERENCE_PATH.exists():
        return None
    return json.loads(REFERENCE_PATH.read_text())["workloads"].get(workload)


def write_reference(workload: str, outcome: Outcome) -> None:
    data = {"seed": DEFAULT_SEED, "tolerance": TOLERANCE, "workloads": {}}
    if REFERENCE_PATH.exists():
        data = json.loads(REFERENCE_PATH.read_text())
    data["workloads"][workload] = reference_entry(outcome)
    data["workloads"] = dict(sorted(data["workloads"].items()))
    REFERENCE_PATH.write_text(json.dumps(data, indent=1) + "\n")


def _close(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= TOLERANCE))


def check(workload: str, seed: int, outcome: Outcome) -> tuple[int, int, list[str]]:
    """Return (cells attempted, cells failed, failure messages)."""
    ref = load_reference(workload)
    attempted = failed = 0
    messages: list[str] = []

    def fail(n_cells: int, msg: str) -> None:
        nonlocal failed
        failed += n_cells
        messages.append(msg)

    for key, g in sorted(outcome.groups.items()):
        cells = len(g.t_hats) + len(g.errors)
        attempted += cells
        if g.errors:
            fail(cells, f"{key}: {len(g.errors)} CellError(s): {g.errors[0]}")
            continue
        k = len(g.truth)
        if not all(t.shape == (k,) and np.all(np.isfinite(t)) for t in g.t_hats):
            fail(cells, f"{key}: non-finite or misshapen T_hat")
            continue
        t = np.vstack(g.t_hats)
        if g.mae is not None and not _close(g.mae, np.mean(np.abs(t - g.truth).mean(axis=1))):
            fail(cells, f"{key}: aggregate MAE {g.mae!r} does not match the per-repetition estimates")
            continue
        if seed != DEFAULT_SEED:
            continue
        want = None if ref is None else ref["groups"].get(key)
        if want is None:
            fail(cells, f"{key}: missing from the reference")
        elif (g.mae is None) != (want["mae"] is None) or (g.mae is not None and not _close(g.mae, want["mae"])):
            fail(cells, f"{key}: aggregate MAE {g.mae!r} != reference {want['mae']!r}")
        elif not _close(t.mean(axis=0), want["t_hat_mean"]):
            fail(cells, f"{key}: T_hat differs from the reference")
    if seed == DEFAULT_SEED and ref is not None and set(ref["groups"]) - set(outcome.groups):
        missing = sorted(set(ref["groups"]) - set(outcome.groups))
        attempted += len(missing)
        fail(len(missing), f"reference groups not produced: {missing[:3]}")

    for name, values in outcome.fixed.items():
        attempted += 1
        want = None if ref is None else ref["fixed"].get(name)
        if want is None or not _close(values, want):
            fail(1, f"{name} differs from the reference")
    return attempted, failed, messages
