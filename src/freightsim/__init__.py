"""Seeded Monte-Carlo simulation of intermodal freight transport costs."""

from .analysis import (CrossoverReport, SensitivityGrid, YearSummary,
                       deterministic_crossover_year, empirical_crossover,
                       sensitivity_grid, summarize)
from .config import (ConfigError, ScenarioConfig, config_fingerprint,
                     config_to_json, load_config, resolve_registry)
from .evolution import (RateModel, ResultSet, TripRecord,
                        compute_shared_means, evolve_mode_state,
                        run_replicate, run_scenario)
from .modes import (ModeRegistry, ModeSpec, adjust_reference_cost,
                    builtin_modes, derive_autonomous, validate_registry)
from .report import PlotSpec, ramp_color, render_scatter_svg, write_records_csv
from .stochastics import (LogNormalParams, RngStream, derive_stream,
                          lognormal_from_moments, sample_lognormal)
from .tripsim import (CostTable, assign_modes, cost_trips,
                      generate_leg_distances, leg_cost, simulate_trip)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "CostTable", "CrossoverReport", "LogNormalParams",
    "ModeRegistry", "ModeSpec", "PlotSpec", "RateModel", "ResultSet",
    "RngStream", "ScenarioConfig", "SensitivityGrid", "TripRecord",
    "YearSummary", "adjust_reference_cost", "assign_modes", "builtin_modes",
    "compute_shared_means", "config_fingerprint", "config_to_json",
    "cost_trips", "derive_autonomous", "derive_stream",
    "deterministic_crossover_year", "empirical_crossover", "evolve_mode_state",
    "generate_leg_distances", "leg_cost", "load_config",
    "lognormal_from_moments", "ramp_color", "render_scatter_svg",
    "resolve_registry", "run_replicate", "run_scenario", "sample_lognormal",
    "sensitivity_grid", "simulate_trip", "summarize", "validate_registry",
    "write_records_csv",
]
