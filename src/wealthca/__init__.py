"""Wealth-optimal binary patterns: SPD payoff, GA search, template CA."""

from .grid import Coord, Pattern, PatternError, parse, serialize, transform
from .payoff import (Characteristic, PayoffParams, DEFAULT_PARAMS,
                     cell_total_payoff, cell_utility, characteristic,
                     expected_wealth, tps, wealth)
from .templates import (Template, TemplateSet, builtin_set, extract_templates,
                        match_except_center, match_full, symmetry_orbit)
from .ga import GaConfig, GaResult, Solution, run_ga
from .ca import CaConfig, CaRunResult, CaState, run_ca
from .analysis import (ExperimentSummary, OracleResult, StructureReport,
                       brute_force_oracle, construct_optimal_odd,
                       count_dominoes, count_points, detect_singularities,
                       optimal_tps, point_filled, run_experiment,
                       structure_report, tps_formula_odd, wealth_formula_odd)

__version__ = "0.1.0"
