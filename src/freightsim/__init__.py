"""Seeded Monte-Carlo simulation of intermodal freight transport costs.

The package exports the pipeline: config, run, analysis, report and modes.
The engine's internals (streams, trip draws and costing, rate steps) are
imported from their submodules: ``freightsim.stochastics``,
``freightsim.tripsim`` and ``freightsim.evolution``.
"""

from .analysis import (CrossoverReport, SensitivityGrid, YearSummary,
                       deterministic_crossover_year, empirical_crossover,
                       sensitivity_grid, summarize)
from .config import (ConfigError, ScenarioConfig, config_fingerprint,
                     config_to_json, load_config, resolve_registry)
from .evolution import ResultSet, TripRecord, run_scenario
from .modes import (ModeRegistry, ModeSpec, adjust_reference_cost,
                    builtin_modes, derive_autonomous, validate_registry)
from .report import PlotSpec, ramp_color, render_scatter_svg, write_records_csv

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "CrossoverReport", "ModeRegistry", "ModeSpec", "PlotSpec",
    "ResultSet", "ScenarioConfig", "SensitivityGrid", "TripRecord",
    "YearSummary", "adjust_reference_cost", "builtin_modes",
    "config_fingerprint", "config_to_json", "derive_autonomous",
    "deterministic_crossover_year", "empirical_crossover", "load_config",
    "ramp_color", "render_scatter_svg", "resolve_registry", "run_scenario",
    "sensitivity_grid", "summarize", "validate_registry", "write_records_csv",
]
