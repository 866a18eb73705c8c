"""Command-line interface tests; the README examples are exercised here too."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from vbsa import bench, cli, designs, testfns

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


    @pytest.mark.parametrize("flags,message", [
        (["--k", "0", "--budget", "100"], "--k must be >= 1"),
        (["--k", "-2", "--budget", "100"], "--k must be >= 1"),
        (["--k", "6", "--budget", "3"], "--budget 3 is below the minimal design cost 7 at --k 6"),
        (["--k", "6", "--budget", "-1"], "--budget -1 is below the minimal design cost 7 at --k 6"),
    ], ids=["k-zero", "k-negative", "budget-below-cost", "budget-negative"])
    def test_bad_flags_named_before_any_work(self, tmp_path, capsys, monkeypatch, flags, message):
        monkeypatch.setattr(designs, "budget_table", lambda k, target: pytest.fail("budget table before the check"))
        assert cli.run(["metrics", *flags, "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"metrics: {message}"]
        assert list(tmp_path.iterdir()) == []

    def test_budget_of_the_minimal_cost_accepted(self, tmp_path, capsys):
        assert cli.run(["metrics", "--k", "6", "--budget", "7", "--out-dir", str(tmp_path)]) == 0
        assert "asymmetric,1,2,7," in capsys.readouterr().out


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

    @pytest.mark.parametrize("command", ["analytic-index", "estimate"])
    def test_non_finite_coefficients_fail_before_any_model_run(self, tmp_path, capsys, command):
        extra = ["--design", "asymmetric", "--N", "64", "--out-dir", str(tmp_path)] if command == "estimate" else []
        code = cli.run([command, "--function", "G", "--k", "2", "--coeffs", "inf,1" if extra else "nan,1", *extra])
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"vbsa {command}: G-function coefficients must be finite and non-negative"]
        assert not any(tmp_path.iterdir())


class TestBadLists:
    """A malformed comma list is a usage error that names its flag, from the command line or a config file."""

    @pytest.mark.parametrize("args,flag", [
        (["analytic-index", "--function", "G", "--k", "2", "--coeffs", "a,b"], "--coeffs"),
        (["bench", "--function", "A2", "--estimators", "lamboni", "--n", "3,x"], "--n"),
        (["bench", "--function", "A2", "--estimators", "bogus"], "--estimators"),
        (["bench", "--function", "A2", "--estimators", "saltenis,"], "--estimators"),
        (["bench", "--function", "A2", "--estimators", "saltenis,,owen"], "--estimators"),
    ], ids=["coeffs", "bench-n", "bench-unknown-estimator", "bench-trailing-comma", "bench-empty-estimator"])
    def test_usage_error_without_traceback(self, args, flag):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "vbsa.cli", *args],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert f"argument {flag}: bad list" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("names", ["bogus", "saltenis,", "saltenis,,owen"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_estimator_names_make_no_model_run(self, tmp_path, capsys, monkeypatch, names, source):
        monkeypatch.setattr(testfns, "evaluate", lambda fn, points: pytest.fail("model run with a bad roster"))
        out = tmp_path / "out"
        args = ["bench", "--function", "A2", "--k", "2", "--p-max", "3", "--reps", "1", "--out-dir", str(out)]
        if source == "flag":
            args += ["--estimators", names]
        else:
            (tmp_path / "run.cfg").write_text(f"estimators = {names}\n")
            args = ["--config", str(tmp_path / "run.cfg"), *args]
        with pytest.raises(SystemExit) as exc:
            cli.run(args)
        assert exc.value.code == 2
        assert f"argument --estimators: bad list {names!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_value_goes_through_the_same_converter(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("coeffs = 1,two\n")
        for override in ([], ["--coeffs", "1,2"]):   # converted even when an explicit flag overrides it
            with pytest.raises(SystemExit) as exc:
                cli.run(["--config", str(cfg), "analytic-index", "--function", "G", "--k", "2", *override])
            assert exc.value.code == 2
            assert "argument --coeffs: bad list '1,two'" in capsys.readouterr().err


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

    def test_single_row_plan_fails_naming_n(self, tmp_path, capsys, monkeypatch):
        rows = []
        evaluate = testfns.evaluate
        monkeypatch.setattr(testfns, "evaluate", lambda fn, points: rows.append(len(points)) or evaluate(fn, points))
        code = cli.run(["estimate", "--function", "A2", "--k", "6", "--design", "lamboni",
                        "--N", "1", "--out-dir", str(tmp_path)])
        assert code == 1
        assert "estimators need N >= 2 rows per matrix (got N = 1)" in capsys.readouterr().err
        assert rows == []   # failed before the first model run

    def test_design_wider_than_the_generator_named_before_any_model_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(testfns, "evaluate", lambda fn, points: pytest.fail("model run before the width check"))
        code = cli.run(["estimate", "--function", "G", "--coeffs", ",".join(["1"] * 40), "--k", "40",
                        "--design", "asymmetric", "--N", "64", "--out-dir", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "vbsa estimate: asymmetric design at k = 40 needs 80 generator dimensions (max 64)"]
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag,name", [("--seed", "seed"), ("--rep", "repetition")])
    def test_negative_seed_or_repetition_named(self, tmp_path, capsys, flag, name):
        code = cli.run(["estimate", "--function", "A2", "--k", "6", "--design", "asymmetric", "--N", "8",
                        "--seed", "1", flag, "-1", "--out-dir", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == f"vbsa estimate: {name} must be >= 0\n"

    def test_negative_repetition_refused_without_a_seed(self, tmp_path, capsys):
        code = cli.run(["estimate", "--function", "A2", "--k", "6", "--design", "asymmetric", "--N", "8",
                        "--rep", "-1", "--out-dir", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == "vbsa estimate: repetition must be >= 0\n"
        assert not (tmp_path / "estimate.csv").exists()


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

    @pytest.mark.parametrize("flags,message", [
        (["--dims", "0", "--p", "3"], "--dims must be >= 1"),
        (["--dims", "3", "--p", "3", "--pool", "0"], "--pool must be >= 1"),
        (["--dims", "40", "--p", "2", "--pool", "2"], "--dims 40 times --pool 2 exceeds the 64 generator dimensions"),
        (["--dims", "3", "--p", "-1"], "--p must be between 0 and 24"),
        (["--dims", "3", "--p", "30"], "--p must be between 0 and 24"),
    ], ids=["dims", "pool", "dims-times-pool", "p-negative", "p-too-large"])
    def test_bad_block_flags_named(self, capsys, flags, message):
        assert cli.run(["discrepancy", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"discrepancy: {message}"]

    @pytest.mark.parametrize("text, message", [
        ("", "non-empty"),
        ("0.1,0.2\nnan,0.3\n", "unit cube"),
        ("0.1,0.2\n1.5,0.3\n", "unit cube"),
        ("0.1,0.2\n0.3\n", "different numbers of values"),
    ], ids=["empty", "nan-row", "out-of-cube-row", "ragged"])
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

    def test_negative_p_min_rejected(self, tmp_path, capsys):
        code = cli.run(["bench", "--function", "C2", "--k", "2", "--estimators", "saltenis",
                        "--p-min", "-1", "--p-max", "3", "--reps", "2", "--out-dir", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["vbsa bench: p_min must be >= 0"]
        assert not (tmp_path / "convergence.csv").exists() and not (tmp_path / "errors.csv").exists()

    def test_roster_wider_than_the_generator_named_before_any_model_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(testfns, "evaluate", lambda fn, points: pytest.fail("model run before the width check"))
        code = cli.run(["bench", "--function", "B1", "--k", "40", "--p-min", "2", "--p-max", "3", "--reps", "1",
                        "--out-dir", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "vbsa bench: n = 2 matrices at k = 40 need 80 generator dimensions (max 64)"]
        assert not any(tmp_path.iterdir())

    def test_cyclic_only_roster_at_k_40_runs(self, tmp_path):
        # one matrix per cyclic design: 40 of the 64 generator dimensions
        code = cli.run(["bench", "--function", "B1", "--k", "40", "--estimators", "cyclic", "--p-min", "2",
                        "--p-max", "3", "--reps", "1", "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "convergence.csv").exists()

    def test_p_max_beyond_the_generator_named_before_any_model_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(testfns, "evaluate", lambda fn, points: pytest.fail("model run before the p_max check"))
        code = cli.run(["bench", "--function", "A2", "--k", "3", "--p-min", "25", "--p-max", "25", "--reps", "1",
                        "--out-dir", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["vbsa bench: p_max = 25 exceeds the supported maximum 24"]
        assert not any(tmp_path.iterdir())

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
        assert "requires n >= 2" in capsys.readouterr().err
        assert not (tmp_path / "convergence.csv").exists()

    @pytest.mark.parametrize("estimators,n", [("lamboni", "2,2"), ("saltenis,saltenis", "2")])
    def test_repeated_design_rejected(self, tmp_path, capsys, estimators, n):
        code = cli.run(["bench", "--function", "C2", "--k", "2", "--estimators", estimators, "--n", n,
                        "--p-min", "4", "--p-max", "4", "--reps", "2", "--out-dir", str(tmp_path)])
        assert code == 1
        assert "listed twice" in capsys.readouterr().err
        assert not (tmp_path / "convergence.csv").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, workers):
        code = cli.run(self.ARGS + ["--workers", workers, "--out-dir", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["vbsa bench: workers must be >= 1"]
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

    @pytest.mark.parametrize(
        "flags,message",
        [(["--p-min", "7", "--p-max", "8", "--reps", "0"], "repetitions must be >= 1"),
         (["--p-min", "6", "--p-max", "5", "--reps", "2"], "p range is empty"),
         (["--p-min", "-1", "--p-max", "6", "--reps", "1"], "p_min must be >= 0"),
         (["--p-min", "3", "--p-max", "8", "--reps", "1"],
          "budget exponent p = 3 leaves no warm-up block for k = 6 (need k >= 2 and p >= 5)"),
         (["--p-min", "20", "--p-max", "24", "--reps", "1"],
          "budget exponent p = 24 needs a pool of 2**25 rows (need p <= 23)")],
        ids=["no-repetitions", "empty-p-range", "negative-p-min", "no-warm-up", "pool-too-large"],
    )
    def test_empty_sweep_rejected(self, tmp_path, capsys, monkeypatch, flags, message):
        # every check comes before the first cell: a model run fails the test at once
        monkeypatch.setattr(testfns, "evaluate", lambda fn, points: pytest.fail("model run before the sweep checks"))
        code = cli.run(["adaptive", "--function", "A2", "--k", "6", *flags, "--out-dir", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"vbsa adaptive: {message}"]
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flags,message",
        [(["--p-min", "-1", "--p-max", "-2", "--reps", "2"], "p_min must be >= 0"),
         (["--p-min", "-1", "--p-max", "-2", "--reps", "0"], "repetitions must be >= 1"),
         (["--p-min", "6", "--p-max", "5", "--reps", "2"], "p range is empty")],
        ids=["negative-and-empty", "every-check-fails", "empty"],
    )
    def test_bench_and_adaptive_print_the_same_line(self, tmp_path, capsys, flags, message):
        # one check, in one order, behind both commands' sweeps
        lines = []
        for command in (["bench", "--estimators", "saltenis"], ["adaptive"]):
            code = cli.run([command[0], "--function", "A2", "--k", "6", *command[1:], *flags,
                            "--out-dir", str(tmp_path)])
            assert code == 1
            lines.append(capsys.readouterr().err.splitlines())
        assert lines == [[f"vbsa bench: {message}"], [f"vbsa adaptive: {message}"]]


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# budget table\n\nk = 6\n   \n  # indented comment\nbudget = 500\n")
        code = cli.run(["--config", str(cfg), "metrics", "--out-dir", str(tmp_path)])
        assert code == 0
        assert "asymmetric,64" in capsys.readouterr().out
        # explicit flag wins over the file value
        cfg.write_text("k = 6\nbudget = 100\n")
        code = cli.run(["--config", str(cfg), "metrics", "--budget", "500",
                        "--out-dir", str(tmp_path)])
        assert code == 0
        assert "asymmetric,64" in capsys.readouterr().out

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("zaphod = 42\n")
        with pytest.raises(SystemExit) as exc:
            cli.run(["--config", str(cfg), "metrics", "--k", "6", "--budget", "500"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --zaphod 42" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["p_min", "p-min"])
    def test_underscore_and_dash_keys_accepted(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"function = A2\n{key} = 7\np_max = 7\nreps = 1\nformat = csv\n")
        code = cli.run(["--config", str(cfg), "adaptive", "--out-dir", str(tmp_path)])
        assert code == 0
        assert "adaptive p=7 " in capsys.readouterr().out

    def test_keys_abbreviate_like_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 6\nbud = 500\n")   # a unique prefix of --budget, as on the command line
        code = cli.run(["--config", str(cfg), "metrics", "--out-dir", str(tmp_path)])
        assert code == 0
        assert "asymmetric,64" in capsys.readouterr().out

    def test_missing_config_file_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.run(["--config", "/nonexistent.cfg", "metrics", "--k", "6", "--budget", "500"])
        assert exc.value.code == 2

    def test_config_given_with_equals_applies_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("p_min = 3\np_max = 4\nreps = 2\n")
        code = cli.run([f"--config={cfg}", "bench", "--function", "A2", "--k", "6", "--out-dir", str(tmp_path)])
        assert code == 0
        assert "p = 3..4, 2 repetitions" in capsys.readouterr().out

    def test_missing_config_file_given_with_equals_is_named(self, tmp_path, capsys):
        missing = tmp_path / "absent.cfg"
        with pytest.raises(SystemExit) as exc:
            cli.run([f"--config={missing}", "metrics", "--k", "6", "--budget", "500"])
        assert exc.value.code == 2
        assert f"config file {missing} does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("equals", [False, True])
    def test_abbreviated_config_flag_refused_before_any_work(self, tmp_path, equals):
        cfg, out = tmp_path / "run.cfg", tmp_path / "out"
        cfg.write_text("k = 6\nbudget = 500\n")
        flag = [f"--conf={cfg}"] if equals else ["--conf", str(cfg)]
        with pytest.raises(SystemExit) as exc:   # the file would go unread: no abbreviation of --config
            cli.run([*flag, "metrics", "--k", "6", "--budget", "500", "--out-dir", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("config,argv,message", [
        (None, ["metrics", "--out-dir", "{out}", "--config"], "--config needs a file path"),
        ("k = 6\nbudget 500\n", ["--config", "{cfg}", "metrics", "--out-dir", "{out}"],
         "{cfg}:2: expected 'key = value', got 'budget 500'"),
        ("k = 6\n", ["--config", "{cfg}"], "--config requires a subcommand"),
        ("directory", ["--config", "{cfg}", "metrics", "--out-dir", "{out}"],
         "config file {cfg} cannot be read: Is a directory"),
        (b"\xff\xfek = 6\n", ["--config", "{cfg}", "metrics", "--out-dir", "{out}"],
         "config file {cfg} cannot be read: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ], ids=["no-path", "line-without-equals", "no-subcommand", "directory", "not-utf-8"])
    def test_unusable_config_is_a_usage_error(self, tmp_path, capsys, monkeypatch, config, argv, message):
        monkeypatch.setattr(designs, "budget_table", lambda k, target: pytest.fail("work before the config check"))
        paths = {"cfg": tmp_path / "run.cfg", "out": tmp_path / "out"}
        if config == "directory":
            paths["cfg"].mkdir()
        elif isinstance(config, bytes):
            paths["cfg"].write_bytes(config)
        elif config is not None:
            paths["cfg"].write_text(config)
        with pytest.raises(SystemExit) as exc:
            cli.run([arg.format(**paths) for arg in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"vbsa: error: {message.format(**paths)}" and "Traceback" not in err
        assert not paths["out"].exists()

    @pytest.mark.parametrize("before_command", [True, False])
    def test_repeated_config_refused(self, tmp_path, capsys, before_command):
        (tmp_path / "k.cfg").write_text("k = 6\n")
        (tmp_path / "b.cfg").write_text("budget = 500\n")
        configs, out = ["--config", str(tmp_path / "k.cfg"), "--config", str(tmp_path / "b.cfg")], tmp_path / "out"
        argv = [*configs, "metrics"] if before_command else ["metrics", *configs]
        with pytest.raises(SystemExit) as exc:
            cli.run([*argv, "--out-dir", str(out)])
        assert exc.value.code == 2
        assert "--config may be given only once" in capsys.readouterr().err
        assert not out.exists()


class TestOutputFiles:
    """``cli.run`` writes every file a subcommand renders, in order, and reports each by a ``wrote`` line."""

    BENCH = ["bench", "--function", "A2", "--k", "3", "--p-max", "3", "--reps", "2", "--seed", "1"]
    ADAPTIVE = ["adaptive", "--function", "A2", "--k", "3", "--p-min", "3", "--p-max", "4", "--reps", "2"]

    @pytest.mark.parametrize("fmt", ["csv", "svg", "both"])
    @pytest.mark.parametrize("argv,basename,extra", [
        (BENCH + ["--p-min", "2"], "convergence", []),
        (BENCH + ["--p-min", "0"], "convergence", ["errors.csv"]),   # the p = 0 cells have N = 1 and error
        (ADAPTIVE, "adaptive_convergence", ["adaptive_ledger.csv"]),
    ], ids=["bench", "bench-cell-errors", "adaptive"])
    def test_format_chooses_the_files(self, tmp_path, capsys, fmt, argv, basename, extra):
        out = tmp_path / "out"
        code = cli.run([*argv, "--format", fmt, "--out-dir", str(out)])
        assert code == (cli.EXIT_CELL_ERRORS if "errors.csv" in extra else cli.EXIT_OK)
        names = [f"{basename}.{ext}" for ext in ("csv", "svg") if fmt in (ext, "both")] + extra
        assert sorted(path.name for path in out.iterdir()) == sorted(names)
        wrote = [line for line in capsys.readouterr().out.splitlines() if line.startswith("wrote ")]
        assert wrote == [f"wrote {out / name}" for name in names]

    @pytest.mark.parametrize("argv", [
        ["estimate", "--function", "A2", "--k", "3", "--design", "owen", "--N", "16"],
        ["metrics", "--k", "4", "--budget", "200"],
        ["analytic-index", "--function", "C1", "--k", "2"],
    ], ids=["estimate", "metrics", "analytic-index"])
    def test_wrote_lines_name_exactly_the_files_written(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert cli.run([*argv, "--out-dir", str(out)]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        wrote = [line.removeprefix("wrote ") for line in lines if line.startswith("wrote ")]
        assert lines[-len(wrote):] == [f"wrote {path}" for path in wrote]   # after every content line
        assert wrote and sorted(wrote) == sorted(str(path) for path in out.iterdir())

    @pytest.mark.parametrize("command", ["bench", "adaptive"])
    def test_unknown_format_refused_before_any_model_run(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(testfns, "evaluate", lambda fn, points: pytest.fail("model run with a bad --format"))
        out = tmp_path / "out"
        argv = self.BENCH + ["--p-min", "2"] if command == "bench" else self.ADAPTIVE
        with pytest.raises(SystemExit) as exc:
            cli.run([*argv, "--format", "png", "--out-dir", str(out)])
        assert exc.value.code == 2
        assert "argument --format: invalid choice: 'png'" in capsys.readouterr().err
        assert not out.exists()

    def test_a_refused_plot_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        # every file is rendered before the first is written: the CSV is not left without its plot
        def refuse(records, title=""):
            raise ValueError("no aggregate records to plot")
        monkeypatch.setattr(bench, "mae_plot_svg", refuse)
        out = tmp_path / "out"
        assert cli.run([*self.BENCH, "--p-min", "2", "--out-dir", str(out)]) == cli.EXIT_FAILURE
        captured = capsys.readouterr()
        assert "wrote" not in captured.out
        assert captured.err == "vbsa bench: no aggregate records to plot\n"
        assert not out.exists()


class TestOutDirEnvVar:
    def test_env_default_used(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("VBSA_OUT_DIR", str(tmp_path))
        code = cli.run(["metrics", "--k", "6", "--budget", "500"])
        assert code == 0
        assert (tmp_path / "budget_table.csv").exists()
