"""The vbsa benchmark: run one named workload for a fixed time and report.

    python3 perfbench/run.py --workload sweep_pairwise --seed 1 --seconds 20 --trace 0

Each sample is a fresh ``worker.py`` process (one thread, ``workers=1``) that
imports ``vbsa`` from ``src/``, builds the workload's inputs from the seed,
runs it, and checks its outputs.  Samples start one after another until the
next one would end after ``--seconds``.

The host's speed drifts by up to a factor of two in phases of seconds to
minutes, so raw times of the same code move by more than any useful bound.
Each sample therefore also times a fixed calibration loop (``calib.py``,
independent of ``vbsa``) just before and just after the workload, and its
times are scaled by ``calib.speed_factor`` of the loop's median pass time and
the workload's speed exponent: the scaled times read as seconds at the
reference speed.  With ``--trace 0`` the end-to-end metrics are reported,
each the median over the samples: ``wall_s`` and ``setup_s`` scaled,
``model_runs_per_s`` the model runs over the scaled wall time, and
``peak_rss_mb``.  The raw times are printed beside them.  With ``--trace 1``
samples alternate traced and untraced; the per-layer metrics are medians over
the traced ones (span times are raw) and ``trace_overhead_s`` is the traced
minus the untraced median scaled wall time.

Human-readable lines come first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
writes its manifest, samples and metrics to ``perfbench/out/``, and a traced
run the spans of its last traced sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import SETUP_EXPONENT, speed_factor
from worker import BENCH_DIR, DEFAULT_SEED, HELD_OUT_SEED, ROOT

OUT_DIR = BENCH_DIR / "out"
MIN_SAMPLES = 3          # per kind (untraced, and traced when tracing)
RUN_LIMIT_S = 150.0      # stop starting samples past this, even below MIN_SAMPLES
DEADLINE_S = 170.0       # a sample still running at this point of the run is killed
# One thread per sample: the workloads are measured single-threaded.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Workload and metric names come from here.
SPEC_PATH = ROOT / "BENCHMARK.json"


def _manifest(args: argparse.Namespace, numpy_version: str | None) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "vbsa").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "vbsa_git_sha": sha,
        "vbsa_src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "argv": sys.argv,
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def _sample(args: argparse.Namespace, traced: bool, spans_out: Path | None, timeout: float) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(int(traced)),
    ]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=timeout,
            env={**os.environ, **CHILD_ENV}, check=False,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"sample exceeded {timeout:.0f} s", "elapsed": timeout}
    elapsed = time.perf_counter() - started
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"sample exited {proc.returncode}: {' | '.join(tail)}", "elapsed": elapsed}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed"] = elapsed
    result["traced"] = traced
    return result


def _spread(values: list[float]) -> str:
    return f"n={len(values)} min={min(values):.6g} max={max(values):.6g}"


def main(argv: list[str] | None = None) -> int:
    if not SPEC_PATH.is_file():
        print(f"{SPEC_PATH} not found", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "vbsa" / "__init__.py").is_file():
        print(f"vbsa sources not found under {src}", file=sys.stderr)
        return 2
    # Compile bytecode and warm the file cache: a user pays this once, not per run.
    warm = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import vbsa", str(src)],
        capture_output=True, text=True, timeout=DEADLINE_S, check=False,
    )
    if warm.returncode != 0:
        print(f"importing vbsa failed: {warm.stderr.strip()}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_out = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.json" if args.trace else None

    start = time.perf_counter()
    samples: list[dict] = []
    errors: list[str] = []
    while True:
        traced = bool(args.trace) and len(samples) % 2 == 0
        s = _sample(args, traced, spans_out if traced else None, DEADLINE_S - (time.perf_counter() - start))
        if "error" in s:
            errors.append(s["error"])
            break
        samples.append(s)
        untraced_n = sum(not x["traced"] for x in samples)
        traced_n = len(samples) - untraced_n
        fewest = min(untraced_n, traced_n) if args.trace else untraced_n
        next_end = time.perf_counter() - start + s["elapsed"]
        if next_end > (args.seconds if fewest >= MIN_SAMPLES else RUN_LIMIT_S) and fewest >= 1:
            break

    untraced = [x for x in samples if not x["traced"]]
    if not untraced or (args.trace and len(untraced) == len(samples)):
        print(f"no complete sample of {args.workload}: {errors}", file=sys.stderr)
        return 1

    def scaled(x: dict, key: str) -> float:
        exponent = SETUP_EXPONENT if key == "setup_s" else x["speed_exponent"]
        return x[key] * speed_factor(x["calib_s"], exponent)

    samples_of = {
        "wall_s": [scaled(x, "wall_s") for x in untraced],
        "model_runs_per_s": [x["model_runs"] / scaled(x, "wall_s") for x in untraced],
        "peak_rss_mb": [x["peak_rss_mb"] for x in untraced],
        "setup_s": [scaled(x, "setup_s") for x in untraced],
    }
    e2e = {name: statistics.median(values) for name, values in samples_of.items()}
    raw_of = {key: [x[key] for x in untraced] for key in ("wall_s", "setup_s", "calib_s")}
    attempted = sum(x["attempted"] for x in samples) + len(errors)
    failed = sum(x["failed"] for x in samples) + len(errors)
    messages = errors + [m for x in samples for m in x["messages"]]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  samples {len(samples)}")
    for name, unit in end_to_end:
        values = samples_of[name]
        print(f"  {name:<18} {e2e[name]:<12.6g} {unit:<4} median, {_spread(values)}")
    for key, values in raw_of.items():
        print(f"  {'raw ' + key:<18} {statistics.median(values):<12.6g} {'s':<4} median, {_spread(values)}")
    print(f"  {'fail_rate':<18} {failed / attempted:<12.6g} {'1':<4} {failed} of {attempted} cells failed")
    for m in messages[:10]:
        print(f"  FAIL {m}")

    if args.trace:
        traced_samples = [x for x in samples if x["traced"]]
        layers = {
            name: statistics.median(x["layers"][name] for x in traced_samples)
            for name, _ in per_layer if name != "trace_overhead_s"
        }
        layers["trace_overhead_s"] = (
            statistics.median(scaled(x, "wall_s") for x in traced_samples) - e2e["wall_s"]
        )
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in per_layer}
        print(f"  per-layer medians over {len(traced_samples)} traced samples:")
        for name, unit in per_layer:
            print(f"    {name:<44} {layers[name]:.6g} {unit}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in end_to_end}

    report = {
        "manifest": _manifest(args, samples[0].get("numpy")),
        "metrics": metrics,
        "fail_rate": failed / attempted,
        "messages": messages,
        "samples": samples,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
