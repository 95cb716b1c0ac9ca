"""Adversary-robust MDS coded cache placement for heterogeneous networks."""

from .model import (CoverageProfile, GameConfig, LibraryConfig, Placement,
                    PopularityDist, RateBreakdown, load_config,
                    quantize_placement, zipf_popularity)
from .geometry import (NetworkGeometry, coverage_areas, coverage_profile,
                       deployment_counts)
from .rate import adversary_rate, legit_rate, total_rate
from .game import (EquilibriumResult, ThresholdResult, best_response,
                   detect_thresholds, equilibrium_placement, evaluate,
                   no_adversary_placement, sweep_equilibria, worst_case_rate)
from .simulator import SimReport, simulate

__all__ = [
    "CoverageProfile", "EquilibriumResult", "GameConfig", "LibraryConfig",
    "NetworkGeometry", "Placement", "PopularityDist", "RateBreakdown",
    "SimReport", "ThresholdResult", "adversary_rate", "best_response",
    "coverage_areas", "coverage_profile", "deployment_counts",
    "detect_thresholds", "equilibrium_placement", "evaluate", "legit_rate",
    "load_config", "no_adversary_placement", "quantize_placement", "simulate",
    "sweep_equilibria", "total_rate", "worst_case_rate", "zipf_popularity",
]

__version__ = "0.1.0"
