"""Measure a change against its parent commit with the repository's benchmark.

    python3 scripts/bench_pair.py --out BENCH_prNN.json [--parent HEAD~1]

The benchmark's files (``src/``, ``perfbench/`` and ``BENCHMARK.json``) of
the parent commit (by ``git archive``) and of the working tree, the change,
are copied side by side into a temporary directory, removed afterwards.
Both sides thus run from paths of one length with nothing else in their
trees: on a 2-CPU x86-64 host, the same code run from the repository itself
read up to 8% slower on the sweeps than from such a copy.  For every
workload and seed, the script runs ``perfbench/run.py --trace 0`` of each
side in ten pairs, alternating which side runs first, each run as long as
the benchmark's ``run_seconds``.  It clears every ``__pycache__`` of both
sides before every run, so each run compiles its modules afresh.

The output file holds the host, the commands, every run, and per workload
and seed: each side's median of each end-to-end metric (the schema that
``tests/test_bench_files.py`` reads), its quartiles, the change's wins (pairs
in which the change is better), and the change's median over the parent's.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 20231)   # the benchmark's default and held-out seeds
FILES = ("src", "perfbench", "BENCHMARK.json")   # what perfbench/run.py reads of a tree
PAIRS = 10   # the fewest pairs that can support a claimed gain


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def _extract(rev: str, dest: Path) -> None:
    """The benchmark's files of commit ``rev`` under ``dest``."""
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), rev, *FILES], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def _copy_working_tree(dest: Path) -> None:
    """The benchmark's files of the working tree under ``dest``, without run outputs or bytecode."""
    skip = shutil.ignore_patterns("__pycache__", "out")   # perfbench/out holds earlier runs' outputs
    for name in FILES:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name, ignore=skip)
        else:
            shutil.copy2(ROOT / name, dest / name)


def _clear_pycache(*trees: Path) -> None:
    for tree in trees:
        for cache in list(tree.rglob("__pycache__")):
            shutil.rmtree(cache, ignore_errors=True)


def _run(tree: Path, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py`` run of ``tree``: its last stdout line, parsed."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "correct": result["correct"], "failed": result["failed"]}


def _summary(runs: dict, metrics: list[dict]) -> dict:
    """Medians (the BENCH schema), quartiles, wins and ratios of one workload and seed's paired runs."""
    out = {}
    for side in ("parent", "change"):
        entry = {m["name"]: statistics.median(r["metrics"][m["name"]] for r in runs[side]) for m in metrics}
        entry["correct"] = all(r["correct"] for r in runs[side])
        entry["failed"] = sum(r["failed"] for r in runs[side])
        out[side] = entry
    out["quartiles"] = {side: {m["name"]: statistics.quantiles([r["metrics"][m["name"]] for r in runs[side]], n=4)
                               for m in metrics} for side in ("parent", "change")}
    wins, ratios = {}, {}
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "higher" else -1)
        pairs = zip(runs["parent"], runs["change"])
        wins[name] = sum(sign * (c["metrics"][name] - p["metrics"][name]) > 0 for p, c in pairs)
        ratios[name] = out["change"][name] / out["parent"][name]
    out["wins"] = wins
    out["change_over_parent"] = ratios
    # a metric is worse beyond its bound when the change's median is that fraction worse than the parent's
    out["within_bounds"] = all((ratios[m["name"]] - 1.0) * (1 if m["better"] == "lower" else -1) <= m["bound"]
                               for m in metrics)
    out["runs"] = runs
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, type=Path, help="BENCH file to write")
    ap.add_argument("--parent", default="HEAD", help="parent commit (default: HEAD, against the working tree)")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    parent_sha = _git("rev-parse", args.parent)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))   # a killed run still removes both copies
    work = Path(tempfile.mkdtemp(prefix="bench_pair_"))
    try:
        trees = {"parent": work / "parent", "change": work / "change"}
        _extract(parent_sha, trees["parent"])
        _copy_working_tree(trees["change"])
        results = {}
        for workload in (w["name"] for w in spec["workloads"]):
            for seed in SEEDS:
                runs = {"parent": [], "change": []}
                for i in range(PAIRS):
                    for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                        _clear_pycache(*trees.values())
                        runs[side].append(_run(trees[side], workload, seed))
                results.setdefault(workload, {})[f"seed {seed}"] = _summary(runs, metrics)
                print(workload, seed, json.dumps({s: results[workload][f"seed {seed}"][s] for s in runs}), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = {
        "host": {"machine": platform.machine(), "processor": platform.processor(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "system": platform.platform()},
        "commands": {"script": " ".join([Path(sys.argv[0]).name, *sys.argv[1:]]),
                     "run": "perfbench/run.py --workload W --seed S --trace 0", "run_seconds": spec["run_seconds"]},
        "parent": parent_sha,
        "change": _git("rev-parse", "HEAD") + (" + working tree" if _git("status", "--porcelain") else ""),
        "method": (f"{PAIRS} pairs per workload and seed, alternating which side runs first; both sides run from "
                   "copies of their benchmark files side by side; every __pycache__ of both sides cleared before every "
                   "run; per side, the median over its runs of each run's metric"),
        "workloads": results,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
