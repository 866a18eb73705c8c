"""Command-line interface tests; the README examples are exercised here too."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from vbsa import cli

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, capsys=None):
    code = cli.run(args)
    return code


class TestBasics:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            cli.run(["--help"])
        assert exc.value.code == 0

    def test_version_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            cli.run(["--version"])
        assert exc.value.code == 0

    def test_module_run_prints_no_runtime_warning(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "vbsa.cli", "--version"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.run(["metrics", "--k", "6", "--budget", "500", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.run([])
        assert exc.value.code == 2


class TestMetrics:
    def test_budget_beyond_the_direction_table(self, tmp_path, capsys):
        code = cli.run(["metrics", "--k", "12", "--budget", "4000", "--out-dir", str(tmp_path)])
        assert code == 0
        assert "symmetric,4,10,4360,21600,40,," in capsys.readouterr().out

    def test_published_budget_table(self, tmp_path, capsys):
        code = cli.run(["metrics", "--k", "6", "--budget", "500", "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "asymmetric,64,2,448,384,128," in out
        assert "symmetric,16,3,624,864,48," in out
        table = (tmp_path / "budget_table.csv").read_text()
        assert len(table.strip().splitlines()) == 8
        assert (tmp_path / "design_scatter.svg").read_text().startswith("<svg")


class TestAnalyticIndex:
    def test_c1_k2_table(self, tmp_path, capsys):
        code = cli.run(["analytic-index", "--function", "C1", "--k", "2",
                        "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "factor,S,T" in out
        assert "0.571428571428571" in out  # T = 4/7 (to within one ulp)
        assert (tmp_path / "analytic_indices.csv").exists()

    def test_g_without_coefficients_fails_cleanly(self, capsys):
        code = cli.run(["analytic-index", "--function", "G", "--k", "3"])
        assert code == 1
        assert "requires" in capsys.readouterr().err


class TestEstimate:
    def test_writes_csv(self, tmp_path, capsys):
        code = cli.run(["estimate", "--function", "A2", "--k", "6", "--design", "asymmetric",
                        "--N", "64", "--seed", "1", "--out-dir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "estimate.csv").read_text().strip().splitlines()
        assert lines[0] == "factor,T_hat,numerator,effects_used"
        assert len(lines) == 7

    def test_bad_block_size_fails_cleanly(self, tmp_path, capsys):
        code = cli.run(["estimate", "--function", "A2", "--k", "6", "--design", "asymmetric",
                        "--N", "63", "--out-dir", str(tmp_path)])
        assert code == 1

    def test_single_row_plan_fails_naming_n(self, tmp_path, capsys):
        code = cli.run(["estimate", "--function", "A2", "--k", "6", "--design", "lamboni",
                        "--N", "1", "--out-dir", str(tmp_path)])
        assert code == 1
        assert "estimators need N >= 2 rows per matrix (got N = 1)" in capsys.readouterr().err


class TestDiscrepancy:
    def test_block_discrepancy(self, capsys):
        code = cli.run(["discrepancy", "--dims", "6", "--p", "5"])
        assert code == 0
        assert "L2-star discrepancy" in capsys.readouterr().out

    def test_pooled_matrices(self, capsys):
        code = cli.run(["discrepancy", "--dims", "6", "--p", "0", "--pool", "10"])
        assert code == 0
        out = capsys.readouterr().out
        # ten copies of the all-halves first point
        assert "points = 10" in out
        assert float(out.rsplit("= ", 1)[1]) == pytest.approx(0.1069, abs=2e-3)

    def test_csv_input(self, tmp_path, capsys):
        path = tmp_path / "pts.csv"
        path.write_text("0.5\n")
        code = cli.run(["discrepancy", "--csv", str(path)])
        assert code == 0
        assert float(capsys.readouterr().out.rsplit("= ", 1)[1]) == pytest.approx(0.2887, abs=1e-4)

    def test_missing_arguments(self, capsys):
        assert cli.run(["discrepancy"]) == 2

    @pytest.mark.parametrize("text, message", [
        ("", "non-empty"),
        ("0.1,0.2\nnan,0.3\n", "unit cube"),
        ("0.1,0.2\n1.5,0.3\n", "unit cube"),
    ], ids=["empty", "nan-row", "out-of-cube-row"])
    def test_bad_csv_fails_with_one_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "pts.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # a leaked numpy warning fails the test
            code = cli.run(["discrepancy", "--csv", str(path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("vbsa discrepancy: ") and message in lines[0]


class TestBench:
    ARGS = ["bench", "--function", "C2", "--k", "2", "--estimators", "saltenis",
            "--p-min", "3", "--p-max", "5", "--reps", "3", "--seed", "1"]

    def test_writes_csv_and_svg(self, tmp_path, capsys):
        code = cli.run(self.ARGS + ["--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "convergence.csv").exists()
        assert (tmp_path / "convergence.svg").exists()

    def test_idempotent_reruns(self, tmp_path):
        cli.run(self.ARGS + ["--out-dir", str(tmp_path)])
        first = (tmp_path / "convergence.csv").read_bytes()
        first_svg = (tmp_path / "convergence.svg").read_bytes()
        cli.run(self.ARGS + ["--out-dir", str(tmp_path)])
        assert (tmp_path / "convergence.csv").read_bytes() == first
        assert (tmp_path / "convergence.svg").read_bytes() == first_svg

    def test_cell_errors_exit_three(self, tmp_path, capsys):
        code = cli.run(["bench", "--function", "C2", "--k", "2", "--estimators", "glen_isaacs",
                        "--p-min", "0", "--p-max", "0", "--reps", "2", "--seed", "1",
                        "--out-dir", str(tmp_path)])
        assert code == 3
        assert (tmp_path / "errors.csv").exists()

    def test_multimatrix_n_list(self, tmp_path):
        code = cli.run(["bench", "--function", "C2", "--k", "2",
                        "--estimators", "lamboni", "--n", "2,3",
                        "--p-min", "4", "--p-max", "4", "--reps", "2", "--seed", "0",
                        "--format", "csv", "--out-dir", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "convergence.csv").read_text()
        assert ",lamboni,2," in text and ",lamboni,3," in text

    @pytest.mark.parametrize("n", ["1", "0"])
    def test_n_below_two_rejected(self, tmp_path, capsys, n):
        code = cli.run(["bench", "--function", "C2", "--k", "2", "--estimators", "lamboni", "--n", n,
                        "--p-min", "4", "--p-max", "4", "--reps", "2", "--out-dir", str(tmp_path)])
        assert code == 1
        assert "needs n >= 2" in capsys.readouterr().err
        assert not (tmp_path / "convergence.csv").exists()

    @pytest.mark.parametrize("estimators,n", [("lamboni", "2,2"), ("saltenis,saltenis", "2")])
    def test_repeated_design_rejected(self, tmp_path, capsys, estimators, n):
        code = cli.run(["bench", "--function", "C2", "--k", "2", "--estimators", estimators, "--n", n,
                        "--p-min", "4", "--p-max", "4", "--reps", "2", "--out-dir", str(tmp_path)])
        assert code == 1
        assert "listed twice" in capsys.readouterr().err
        assert not (tmp_path / "convergence.csv").exists()


class TestAdaptiveCommand:
    def test_writes_ledger_and_convergence(self, tmp_path):
        code = cli.run(["adaptive", "--function", "A2", "--k", "6",
                        "--p-min", "7", "--p-max", "8", "--reps", "2", "--seed", "1",
                        "--out-dir", str(tmp_path)])
        assert code == 0
        ledger = (tmp_path / "adaptive_ledger.csv").read_text().strip().splitlines()
        assert ledger[0] == "p,rep,stage,rows,active_factors,runs_block,runs_total,budget"
        assert len(ledger) > 1
        assert (tmp_path / "adaptive_convergence.csv").exists()


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 6\nbudget = 500\n")
        code = cli.run(["--config", str(cfg), "metrics", "--out-dir", str(tmp_path)])
        assert code == 0
        assert "asymmetric,64" in capsys.readouterr().out
        # explicit flag wins over the file value
        cfg.write_text("k = 6\nbudget = 100\n")
        code = cli.run(["--config", str(cfg), "metrics", "--budget", "500",
                        "--out-dir", str(tmp_path)])
        assert code == 0
        assert "asymmetric,64" in capsys.readouterr().out

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("zaphod = 42\n")
        with pytest.raises(SystemExit) as exc:
            cli.run(["--config", str(cfg), "metrics", "--k", "6", "--budget", "500"])
        assert exc.value.code == 2

    def test_missing_config_file_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.run(["--config", "/nonexistent.cfg", "metrics", "--k", "6", "--budget", "500"])
        assert exc.value.code == 2


class TestOutDirEnvVar:
    def test_env_default_used(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("VBSA_OUT_DIR", str(tmp_path))
        code = cli.run(["metrics", "--k", "6", "--budget", "500"])
        assert code == 0
        assert (tmp_path / "budget_table.csv").exists()
