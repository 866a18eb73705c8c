"""A fixed calibration loop that measures how fast the host runs right now.

The host's speed drifts by up to a factor of two in phases that last from
seconds to minutes, and raw times drift with it.  Each sample times this loop
just before and just after its workload, and ``run.py`` multiplies the
sample's times by :func:`speed_factor` of the loop's median pass time, so that
they read as seconds on a host where a pass takes ``REFERENCE_S``.  The
workloads follow the loop only in part, each with its own exponent
(``workloads.Workload.speed_exponent``).  The loop
does not touch ``vbsa``, so a change to ``vbsa`` cannot move it.  Like the
workloads, it mixes interpreter work (string keys, dict updates, float sums)
with numpy calls on small and medium arrays.
"""

from __future__ import annotations

import time

import numpy as np

# A typical pass time on the 2-vCPU Xeon guest the benchmark was tuned on.
REFERENCE_S = 0.045
# Set-up (importing numpy and vbsa, building inputs) is the same kind of work
# on every workload; 0.8 gave the smallest spread of its median on all four.
SETUP_EXPONENT = 0.8


def _loop() -> float:
    rng = np.random.default_rng(20231)
    big = rng.random(1 << 16)
    small = rng.random((8, 6))
    acc = 0.0
    labels: dict[str, int] = {}
    rows = []
    for i in range(4000):
        key = f"c{i % 97}/{i % 13}"
        labels[key] = labels.get(key, 0) + 1
        row = small[i % 8] * 0.5 + 1.0
        acc += float(row.sum()) + float(np.dot(small[:, i % 6], small[:, (i + 1) % 6]))
        rows.append(row)
        if i % 400 == 0:
            acc += float(np.sort(big)[i % 1000])
    acc += float(np.vstack(rows).mean())
    return acc


def speed_factor(pass_s: float, exponent: float) -> float:
    """The factor that turns a time taken while a pass took ``pass_s`` into
    one at the reference speed, for work whose time goes as the pass time to
    the power ``exponent``."""
    return (REFERENCE_S / pass_s) ** exponent


def calibrate(passes: int = 5) -> list[float]:
    """Seconds taken by each of ``passes`` passes of the fixed loop."""
    times = []
    for _ in range(passes):
        t = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t)
    return times
