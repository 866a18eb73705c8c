"""One sample of one workload, in a fresh process: set up, run, check, report.

Prints one JSON object on its last stdout line.  ``run.py`` starts this
script once per sample; run it by hand to look at a single sample:

    python3 perfbench/worker.py --workload sweep_pairwise --seed 1 --trace 1

``--write-reference`` stores the workload's outputs at the default seed as
the reference later runs are checked against.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

DEFAULT_SEED = 1
# Never used while the benchmark or a change was tuned; re-check claims on it.
HELD_OUT_SEED = 20231


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", type=Path, help="write the traced spans here as JSON")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "vbsa" / "__init__.py").is_file():
        print(f"vbsa sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(BENCH_DIR))

    t_setup = time.perf_counter()
    import numpy as np
    import vbsa
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    setup_s = time.perf_counter() - t_setup

    import checks
    from calib import calibrate

    if args.write_reference:
        if args.seed != DEFAULT_SEED:
            print(f"the reference is written at the default seed {DEFAULT_SEED}", file=sys.stderr)
            return 2
        checks.write_reference(args.workload, workload.run(inputs))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer, install, layer_metrics

        tracer = Tracer()
        install(tracer)

    # The host's speed right before and right after the workload; run.py
    # scales this sample's times by it.
    before = calibrate()
    t0 = time.perf_counter()
    outcome = workload.run(inputs)
    wall_s = time.perf_counter() - t0
    after = calibrate()

    attempted, failed, messages = checks.check(args.workload, args.seed, outcome)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "calib_s": statistics.median(before + after),
        "speed_exponent": workload.speed_exponent,
        "model_runs": outcome.reported_runs,
        "output_chars": outcome.output_chars,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "messages": messages[:10],
        "numpy": np.__version__,
        "vbsa": vbsa.__version__,
    }
    if tracer is not None:
        evaluated = tracer.counts.get("testfns.evaluate.rows", 0.0)
        result["layers"] = layer_metrics(tracer, wall_s, outcome.reported_runs)
        # Model-run accounting: every row given to the model must be a run
        # the outputs report, and no reported run may go unevaluated.
        result["attempted"] += 1
        if evaluated != outcome.reported_runs:
            result["failed"] += 1
            result["messages"].append(
                f"model evaluated {evaluated:.0f} rows but the outputs report {outcome.reported_runs}"
            )
        if args.spans_out is not None:
            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            args.spans_out.write_text(json.dumps({"spans": tracer.spans}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
