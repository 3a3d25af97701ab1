"""Experiment harness: workloads, drivers, tables, reports, CLI."""

from .experiments import (
    DEFAULT_NS,
    ExperimentResult,
    run_ablation,
    run_chord_comparison,
    run_churn_degradation,
    run_end_to_end_accuracy,
    run_forest_statistics,
    run_gossip_ave_convergence,
    run_gossip_max_convergence,
    run_local_drr_statistics,
    run_lower_bound_experiment,
    run_phase_breakdown,
    run_table1,
)
from .report import write_markdown_report, write_markdown_report_from_store
from .tables import format_float, format_markdown_table
from .workloads import WORKLOADS, make_values, workload_names

__all__ = [
    "DEFAULT_NS",
    "ExperimentResult",
    "run_ablation",
    "run_chord_comparison",
    "run_churn_degradation",
    "run_end_to_end_accuracy",
    "run_forest_statistics",
    "run_gossip_ave_convergence",
    "run_gossip_max_convergence",
    "run_local_drr_statistics",
    "run_lower_bound_experiment",
    "run_phase_breakdown",
    "run_table1",
    "write_markdown_report",
    "write_markdown_report_from_store",
    "format_float",
    "format_markdown_table",
    "WORKLOADS",
    "make_values",
    "workload_names",
]
