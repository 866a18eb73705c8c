"""Command-line entry point.

Subcommands: ``bench`` (convergence experiments), ``estimate`` (one total-index
estimate), ``metrics`` (design budget table and explorativity/economy scatter),
``discrepancy`` (L2-star discrepancy of point sets), ``analytic-index`` (exact
S/T tables) and ``adaptive`` (budget-reallocation experiment).  Any flag can
also be supplied through ``--config FILE`` holding flat ``key = value`` lines
keyed by flag name; explicit flags override the file.  Each subcommand renders
its files as text and :func:`run` alone writes them, into ``--out-dir``, whose
default comes from ``VBSA_OUT_DIR`` when set.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, adaptive, bench, designs, estimators, qmc, testfns

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_CELL_ERRORS = 3


def _default_out_dir() -> str:
    return os.environ.get("VBSA_OUT_DIR", ".")


def _list_of(convert, choices=None):
    """An argparse ``type=`` converter: comma list of ``convert``'s values as a tuple, each in ``choices`` if given."""
    def parse(text: str) -> tuple:
        try:
            values = tuple(convert(x) for x in text.split(","))
            if choices is not None and not set(values) <= set(choices):
                raise ValueError(f"{next(v for v in values if v not in choices)!r} is not one of {', '.join(choices)}")
            return values
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad list {text!r}: {exc}") from None
    return parse


def _function_from_args(args: argparse.Namespace) -> testfns.FunctionSpec:
    return testfns.function_spec(args.function, args.k, args.coeffs)


def _add_function_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--function", required=True, choices=testfns.FAMILIES,
                        help="test-function family")
    parser.add_argument("--k", type=int, default=6, help="number of input factors (default 6)")
    parser.add_argument("--coeffs", type=_list_of(float), default=None,
                        help="comma-separated G-function coefficients (overrides family defaults)")


def _add_out_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-dir", default=_default_out_dir(),
                        help="output directory (default $VBSA_OUT_DIR or .)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vbsa",
        allow_abbrev=False,   # --conf is no --config; subcommand flags still abbreviate
        description="Variance-based sensitivity analysis: total-effect estimators, "
                    "sampling designs and convergence benchmarks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", default=None, help="flat key = value file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="run a convergence benchmark")
    _add_function_flags(p_bench)
    p_bench.add_argument("--estimators", type=_list_of(str.strip, bench.ESTIMATOR_NAMES), default=("saltenis",),
                         help="comma list from: " + ",".join(bench.ESTIMATOR_NAMES))
    p_bench.add_argument("--n", type=_list_of(int), default=(2,),
                         help="comma list of base-matrix counts for multimatrix/lamboni (default 2)")
    p_bench.add_argument("--p-min", type=int, default=2)
    p_bench.add_argument("--p-max", type=int, default=14)
    p_bench.add_argument("--reps", type=int, default=50)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--workers", type=int, default=1)
    p_bench.add_argument("--format", default="both", choices=("csv", "svg", "both"))
    _add_out_flags(p_bench)

    p_est = sub.add_parser("estimate", help="one total-effect estimate for a design")
    _add_function_flags(p_est)
    p_est.add_argument("--design", required=True, choices=designs.PLAN_KINDS)
    p_est.add_argument("--n", type=int, default=None, help="base-matrix count (defaults per kind)")
    p_est.add_argument("--N", type=int, required=True, help="rows per base matrix (power of two)")
    p_est.add_argument("--seed", type=int, default=None, help="column-scramble seed (unscrambled if absent)")
    p_est.add_argument("--rep", type=int, default=0, help="scramble repetition index")
    _add_out_flags(p_est)

    p_met = sub.add_parser("metrics", help="design budget table and chi-vs-e scatter")
    p_met.add_argument("--k", type=int, required=True)
    p_met.add_argument("--budget", type=int, required=True, help="affordable total run count N_T")
    _add_out_flags(p_met)

    p_dis = sub.add_parser("discrepancy", help="L2-star discrepancy of a Sobol' block or CSV points")
    p_dis.add_argument("--dims", type=int, default=None, help="dimensions of the generated block")
    p_dis.add_argument("--p", type=int, default=None, help="block exponent (2**p points)")
    p_dis.add_argument("--pool", type=int, default=1,
                       help="pool this many consecutive base matrices of --dims columns each")
    p_dis.add_argument("--csv", default=None, help="read points from a CSV file instead")

    p_ana = sub.add_parser("analytic-index", help="exact S/T table for a test function")
    _add_function_flags(p_ana)
    p_ana.add_argument("--out-dir", default=None, help="also write analytic_indices.csv here")

    p_ada = sub.add_parser("adaptive", help="adaptive budget allocation vs the plain estimator")
    _add_function_flags(p_ada)
    p_ada.add_argument("--p-min", type=int, required=True)
    p_ada.add_argument("--p-max", type=int, required=True)
    p_ada.add_argument("--reps", type=int, default=50)
    p_ada.add_argument("--seed", type=int, default=0)
    p_ada.add_argument("--format", default="both", choices=("csv", "svg", "both"))
    _add_out_flags(p_ada)

    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Splice ``--config[=]FILE`` key = value lines in as ``--key value`` flags after the subcommand; flags win."""
    found = [i for i, a in enumerate(argv) if a == "--config" or a.startswith("--config=")]
    if not found:
        return argv
    if len(found) > 1:
        parser.error("--config may be given only once")
    at = found[0]
    argv = [*argv[:at], *argv[at].split("=", 1), *argv[at + 1 :]]
    if at + 1 >= len(argv):
        parser.error("--config needs a file path")
    path = Path(argv[at + 1])
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        parser.error(f"config file {path} does not exist")
    except (OSError, UnicodeDecodeError) as exc:   # a directory, no read permission, bytes that are not UTF-8
        parser.error(f"config file {path} cannot be read: {getattr(exc, 'strerror', None) or exc}")
    flags = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            parser.error(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        flags.extend(["--" + key.replace("_", "-"), value])
    rest = argv[:at] + argv[at + 2 :]
    pos = next((i + 1 for i, a in enumerate(rest) if not a.startswith("-")), None)   # just after the subcommand
    if pos is None:
        parser.error("--config requires a subcommand")
    return rest[:pos] + flags + rest[pos:]


def _records_files(records: list[bench.ConvergenceRecord], fmt: str, basename: str, title: str) -> dict[str, str]:
    """The files ``--format`` asks for: ``basename.csv`` and/or the MAE plot ``basename.svg``."""
    files = {}
    if fmt in ("csv", "both"):
        files[f"{basename}.csv"] = bench.records_csv(records)
    if fmt in ("svg", "both"):
        files[f"{basename}.svg"] = bench.mae_plot_svg(records, title=title)
    return files


def _cmd_bench(args: argparse.Namespace) -> tuple[int, dict[str, str]]:
    fn = _function_from_args(args)
    configs = tuple(bench.EstimatorConfig(name, n) for name in args.estimators   # a fixed n is the default
                    for n in ((None,) if bench.ESTIMATOR_DESIGNS[name][1] else args.n))
    cfg = bench.ExperimentConfig(function=fn, estimators=configs, p_min=args.p_min, p_max=args.p_max,
                                 repetitions=args.reps, seed=args.seed)
    records, errors = bench.convergence_experiment(cfg, workers=args.workers)
    files = _records_files(records, args.format, "convergence",
                           f"{fn.family}, k={fn.k}, {args.reps} repetitions") if records else {}
    if errors:
        files["errors.csv"] = bench.errors_csv(errors)
    print(f"benchmarked {fn.family} (k={fn.k}) with {len(configs)} estimator(s), "
          f"p = {args.p_min}..{args.p_max}, {args.reps} repetitions")
    for r in records:
        if r.rep is None:
            print(f"  {r.estimator}(n={r.n}) p={r.p} N_T={r.n_t}: MAE = {r.mae:.6g}")
    if errors:
        print(f"{len(errors)} cell(s) errored; see errors.csv", file=sys.stderr)
    return (EXIT_CELL_ERRORS if errors else EXIT_OK), files


def _cmd_estimate(args: argparse.Namespace) -> tuple[int, dict[str, str]]:
    fn = _function_from_args(args)
    n = args.n if args.n is not None else designs.DESIGN_KINDS[args.design].n or 2
    spec = designs.DesignSpec(kind=args.design, n=n, N=args.N, k=args.k)
    result = estimators.estimate_total_effects(spec, fn=fn, seed=args.seed, repetition=args.rep)
    csv_text = estimators.estimate_csv(result)
    print(csv_text, end="")
    print(f"V_hat = {result.variance!r}")
    return EXIT_OK, {"estimate.csv": csv_text}


def _cmd_metrics(args: argparse.Namespace) -> tuple[int, dict[str, str]]:
    if args.k < 1 or args.budget <= args.k:   # before any design or discrepancy work
        print("metrics: --k must be >= 1" if args.k < 1 else f"metrics: --budget {args.budget} is below the minimal "
              f"design cost {args.k + 1} at --k {args.k}", file=sys.stderr)
        return EXIT_USAGE, {}
    rows = designs.budget_table(args.k, args.budget)
    csv_text, svg_text = designs.budget_table_csv(rows), bench.design_scatter_svg(rows, args.k)
    print(csv_text, end="")
    return EXIT_OK, {"budget_table.csv": csv_text, "design_scatter.svg": svg_text}


def _cmd_discrepancy(args: argparse.Namespace) -> tuple[int, dict[str, str]]:
    if args.csv is not None:
        with warnings.catch_warnings():   # an empty file fails in the discrepancy check instead
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                pts = np.loadtxt(args.csv, delimiter=",", ndmin=2)
            except ValueError as exc:
                # numpy's own text advises `usecols`, which this command does not take
                if "number of columns changed" not in str(exc):
                    raise
                raise ValueError(f"rows of {args.csv} have different numbers of values") from None
    else:
        problem = ("provide --dims and --p, or --csv" if args.dims is None or args.p is None
                   else "--dims must be >= 1" if args.dims < 1
                   else "--pool must be >= 1" if args.pool < 1
                   else f"--p must be between 0 and {qmc._MAX_P}" if not 0 <= args.p <= qmc._MAX_P
                   else f"--dims {args.dims} times --pool {args.pool} exceeds the {qmc._MAX_DIM} generator dimensions"
                   if args.dims * args.pool > qmc._MAX_DIM else None)
        if problem:
            print(f"discrepancy: {problem}", file=sys.stderr)
            return EXIT_USAGE, {}
        pool = qmc.sobol_rows(args.dims * args.pool, 0, 2**args.p)
        pts = np.vstack(designs.pool_matrices(pool, args.pool, args.dims))
    d = qmc.l2_star_discrepancy(pts)
    print(f"points = {pts.shape[0]}, dims = {pts.shape[1]}, L2-star discrepancy = {d!r}")
    return EXIT_OK, {}


def _cmd_analytic_index(args: argparse.Namespace) -> tuple[int, dict[str, str]]:
    fn = _function_from_args(args)
    csv_text = testfns.indices_csv(fn)
    print(csv_text, end="")
    return EXIT_OK, {} if args.out_dir is None else {"analytic_indices.csv": csv_text}


def _cmd_adaptive(args: argparse.Namespace) -> tuple[int, dict[str, str]]:
    fn = _function_from_args(args)
    records, ledger_lines = bench.adaptive_experiment(fn, range(args.p_min, args.p_max + 1), args.reps, args.seed)
    files = _records_files(records, args.format, "adaptive_convergence", f"adaptive vs plain, {fn.family}, k={fn.k}")
    files["adaptive_ledger.csv"] = adaptive.ledger_csv_header() + "\n" + "\n".join(ledger_lines) + "\n"
    for r in records:
        if r.rep is None:
            print(f"  {r.estimator} p={r.p} budget={r.n_t}: MAE = {r.mae:.6g}")
    return EXIT_OK, files


_COMMANDS = {
    "bench": _cmd_bench,
    "estimate": _cmd_estimate,
    "metrics": _cmd_metrics,
    "discrepancy": _cmd_discrepancy,
    "analytic-index": _cmd_analytic_index,
    "adaptive": _cmd_adaptive,
}


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, dispatch and return the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(_apply_config_file(parser, argv))
    try:
        code, files = _COMMANDS[args.command](args)
        if files:   # every file a command renders is written here, in order, once all are rendered
            Path(args.out_dir).mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            path = Path(args.out_dir) / name
            path.write_text(text)
            print(f"wrote {path}")
        return code
    except (ValueError, OSError) as exc:   # EstimationError is a ValueError
        print(f"vbsa {args.command}: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
