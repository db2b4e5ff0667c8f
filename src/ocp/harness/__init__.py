"""Experiment harness: configuration, orchestration, artifacts, CLI."""

from .config import ConfigError, ExperimentConfig, build_config, load_config_file
from .experiments import (rate_study, run_single, run_table, solve_single,
                          sparsity_fraction, sparsity_study, table_cells)
from .reports import BenchmarkRow

__all__ = [
    "BenchmarkRow", "ConfigError", "ExperimentConfig", "build_config",
    "load_config_file", "rate_study", "run_single", "run_table",
    "solve_single", "sparsity_fraction", "sparsity_study", "table_cells",
]
