"""Variance-based global sensitivity analysis: total-effect estimators,
quasi-Monte Carlo sampling designs and a convergence benchmarking harness."""

__version__ = "0.1.0"

# ``cli`` is left out: ``python -m vbsa.cli`` warns when the package has already imported it.
from . import adaptive, bench, designs, estimators, qmc, testfns
from .adaptive import adaptive_run
from .bench import ExperimentConfig, EstimatorConfig, convergence_experiment, mae
from .designs import DesignSpec, assemble_plan, budget_table, design_metrics
from .estimators import (
    TotalIndexEstimate,
    cyclic_single_matrix_T,
    estimate_total_effects,
    glen_isaacs_d3_T,
    lamboni_T,
    multimatrix_T,
    owen_T,
    saltenis_T,
)
from .qmc import l2_star_discrepancy, permute_columns, sobol_block
from .testfns import FunctionSpec, analytic_indices, evaluate, function_spec

__all__ = [
    "DesignSpec",
    "EstimatorConfig",
    "ExperimentConfig",
    "FunctionSpec",
    "TotalIndexEstimate",
    "adaptive",
    "adaptive_run",
    "analytic_indices",
    "assemble_plan",
    "bench",
    "budget_table",
    "cli",
    "convergence_experiment",
    "cyclic_single_matrix_T",
    "design_metrics",
    "designs",
    "estimate_total_effects",
    "estimators",
    "evaluate",
    "function_spec",
    "glen_isaacs_d3_T",
    "l2_star_discrepancy",
    "lamboni_T",
    "mae",
    "multimatrix_T",
    "owen_T",
    "permute_columns",
    "qmc",
    "saltenis_T",
    "sobol_block",
    "testfns",
]
