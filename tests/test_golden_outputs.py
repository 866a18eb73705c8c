"""Seeded ``vbsa bench`` and ``vbsa adaptive`` runs, ``vbsa metrics``, and large estimates, give the same bytes
from change to change.

The hashes were taken before sweep cells were evaluated in tile-sized groups,
so they pin every output file of these runs to the per-cell evaluation.  The
bench run leaves out ``glen_isaacs``: its correlations go through numpy's
BLAS dot, whose summation order depends on the CPU kernel BLAS picks, so its
last bits may differ between hosts.  Every other estimator's outputs come
from numpy's own loops.  The p range starts at 0 so that errors.csv holds
cells of several estimators and block sizes.
"""

import hashlib

import numpy as np
import pytest

from vbsa import cli, estimators
from vbsa.designs import DesignSpec
from vbsa.testfns import function_spec

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


METRICS = ["metrics", "--k", "6", "--budget", "500"]
METRICS_SHA256 = {
    "budget_table.csv": "23055472c04cd35bc51b809e8adfaf5bee3838d12058af13332a659f7d177f7e",
    "design_scatter.svg": "7281739751b0eba39d21a1cbafcbd4fa2089884899a14ed89974e2d6d54634de",
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


def test_metrics_files_match_golden_hashes(tmp_path, capsys):
    assert cli.run(METRICS + ["--out-dir", str(tmp_path)]) == cli.EXIT_OK
    assert _sha256s(tmp_path) == METRICS_SHA256


# (kind, n, seed): sha256 of the (segments, N) outputs, and of the T_hat, numerator and variance bytes, of
# estimate_total_effects on B1 at k = 12, N = 2**14: two row ranges per segment.  Taken when the Sobol' pool
# was drawn whole and the estimators built their temporaries over all factors at once.  The D3 estimate
# (symmetric2) goes through BLAS dot, as above, so only its outputs are pinned.
ESTIMATE_SHA256 = {
    ("asymmetric", 2, None): ("7aecb412cad43642f7f47678692a54eebb57519c24809212e14fd5ae92062143",
                              "d57e08057f0af9b4151c86decf3f59fda5a3d74c19433dac5d65fceedb25de0f"),
    ("asymmetric", 2, 7): ("bf00f7f057a75800549d1050ec6ae76fb5ae73a4a94543f23c44cf01f885e39b",
                           "69f8887e72339eddca431e56ecf9a298edeedb2246d3701b28ef42d8b2f9dfb6"),
    ("symmetric2", 2, None): ("1ee4f23bd809f5cf0a0e15ec199eeff8a040abf506836d9762f3216e36a9f03d", None),
    ("symmetric2", 2, 7): ("b65879ef560193dd30d1db22b143581dae89c8f0edec35c550ef989c8ab5f01c", None),
    ("multimatrix", 3, None): ("71c706c687b5eab224375a8734806a22002df5b5ecffdaa6315f457b6f8eede4",
                               "e78f64affcd7742f1d031c8c04e4052d4a102a06d5b52109e0ec3e9f15f2fa84"),
    ("multimatrix", 3, 7): ("be86ec5f4d5ad3d57259febee87bee47ab83391728b4ebba300b71bc20467eb8",
                            "9f61b8792642abed22e68131814637af16bd72e0800c0fe57fa2274fbc2e727b"),
    ("owen", 3, None): ("969869557a97359569dfd493de86da9d5724536f209ccd927bc57c591d8d25e7",
                        "670098734b1c2b21c5bae942d1f467f527b1d57eaedcbb9e15e32ee3cdd4f9d6"),
    ("owen", 3, 7): ("14b2d3dd78068984431f4e216b3090f93249ad947509645b979973a7eca975cf",
                     "f940b5f838f28a5b3b925130cc3c822ca59b999e8140e5b52e2006145cc1a190"),
    ("lamboni", 3, None): ("71c706c687b5eab224375a8734806a22002df5b5ecffdaa6315f457b6f8eede4",
                           "62999ea7af17186ff8c73d58bd8b74914eff46e8c0d885703837fe95b98b4418"),
    ("lamboni", 3, 7): ("be86ec5f4d5ad3d57259febee87bee47ab83391728b4ebba300b71bc20467eb8",
                        "e72fc6959190ee9831f9b30dcaf2d2b7e43d12f681cc69840740df84e564eb8f"),
    ("cyclic_single", 1, None): ("e24c08f218f9df83625ef9dc0d28a9896dd8aebff43b8a737675712b30d540dd",
                                 "5c6801789fc02c56ff8785851c2fc2f6c00b9eb3a67d0d2bd83f8f519df998d3"),
    ("cyclic_single", 1, 7): ("a95f68db7dc6f7ebbb86d5a5dbf2ad316b0c2d1b6d857e666c5ddb4224bd2251",
                              "3197e7b2c07e200fba24bbb84377c2c6f4c97d074d7a0f6a32aec5185710d56e"),
}


@pytest.mark.parametrize("kind,n,seed", list(ESTIMATE_SHA256))
def test_multi_range_estimate_matches_golden_hashes(monkeypatch, kind, n, seed):
    outputs = []
    run_estimator = estimators.run_estimator
    monkeypatch.setattr(estimators, "run_estimator", lambda spec, y: outputs.append(y) or run_estimator(spec, y))
    est = estimators.estimate_total_effects(DesignSpec(kind, n, 2**14, 12), function_spec("B1", 12), seed, 2)
    estimate = est.total.tobytes() + est.numerator.tobytes() + np.float64(est.variance).tobytes()
    want_outputs, want_estimate = ESTIMATE_SHA256[kind, n, seed]
    assert hashlib.sha256(outputs[0].tobytes()).hexdigest() == want_outputs
    if want_estimate is not None:
        assert hashlib.sha256(estimate).hexdigest() == want_estimate
