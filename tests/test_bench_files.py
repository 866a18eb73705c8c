"""Every committed ``BENCH_*.json`` covers the benchmark it cites.

A speed-up claim cites a BENCH file with parent and change measured on the
same host.  Each file must name every ``BENCHMARK.json`` workload at the
default and held-out seeds, with all four end-to-end metrics for both sides,
and a claim must name a metric and workload that the benchmark defines.
``BENCHMARK.json`` is only read.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SEEDS = ("seed 1", "seed 20231")
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


@pytest.fixture(scope="module")
def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_bench_files_exist():
    assert BENCH_FILES, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_covers_every_workload_and_metric(path, benchmark_spec):
    bench = json.loads(path.read_text())
    metrics = [m["name"] for m in benchmark_spec["end_to_end"]]
    for workload in (w["name"] for w in benchmark_spec["workloads"]):
        for seed in SEEDS:
            entry = bench["workloads"][workload][seed]
            for side in ("parent", "change"):
                for metric in metrics:
                    value = entry[side][metric]
                    assert isinstance(value, (int, float)) and math.isfinite(value), (workload, seed, side, metric)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_claim_names_a_benchmark_metric_and_workload(path, benchmark_spec):
    claim = json.loads(path.read_text()).get("claim", {})   # a file without a claim passes
    if claim:
        assert claim["metric"] in {m["name"] for m in benchmark_spec["end_to_end"]}
        assert claim["workload"] in {w["name"] for w in benchmark_spec["workloads"]}
