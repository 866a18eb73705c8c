"""Seeded ``vbsa bench`` and ``vbsa adaptive`` runs write the same bytes from change to change.

The hashes were taken before sweep cells were evaluated in tile-sized groups,
so they pin every output file of these runs to the per-cell evaluation.  The
bench run leaves out ``glen_isaacs``: its correlations go through numpy's
BLAS dot, whose summation order depends on the CPU kernel BLAS picks, so its
last bits may differ between hosts.  Every other estimator's outputs come
from numpy's own loops.  The p range starts at 0 so that errors.csv holds
cells of several estimators and block sizes.
"""

import hashlib

import pytest

from vbsa import cli

BENCH = ["bench", "--function", "A2", "--k", "3",
         "--estimators", "saltenis,saltenis_symmetric,owen,multimatrix,lamboni,cyclic", "--n", "3,4",
         "--p-min", "0", "--p-max", "7", "--reps", "3", "--seed", "1"]
BENCH_SHA256 = {
    "convergence.csv": "718859e4f52484dfc5c1b056ef397e51092546c4988b5433cc82207068219781",
    "convergence.svg": "1049b48a20fb204ed48d082264b626452dd870274a77d85f9d3c55794f54ecd8",
    "errors.csv": "33c3771300deffc7153bdb72b23f6bb4b6f78204fd56207e092a91b658604acd",
}
ADAPTIVE = ["adaptive", "--function", "A2", "--k", "4", "--p-min", "3", "--p-max", "6", "--reps", "2", "--seed", "1"]
ADAPTIVE_SHA256 = {
    "adaptive_convergence.csv": "9b5773d642acaf6807f263ef2e047ce193e0c4ca5f495c2c277ff9e830580f44",
    "adaptive_convergence.svg": "cc9c051f7d665052e7a48e1b4f0de0ce26ed9c01e003627b7246d0334096d14d",
    "adaptive_ledger.csv": "255e79083f00c71ec7e0873862bd9d9d230e4cb25bf5e3d9ef522fb708e2a9a7",
}


def _sha256s(directory):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("workers", ["1", "2"])
def test_bench_files_match_golden_hashes(tmp_path, capsys, workers):
    code = cli.run(BENCH + ["--workers", workers, "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_CELL_ERRORS   # the p = 0 .. 3 cells with N = 1
    assert _sha256s(tmp_path) == BENCH_SHA256


def test_adaptive_files_match_golden_hashes(tmp_path, capsys):
    assert cli.run(ADAPTIVE + ["--out-dir", str(tmp_path)]) == cli.EXIT_OK
    assert _sha256s(tmp_path) == ADAPTIVE_SHA256
