"""Residue-matrix fractals and temperature-2 tile self-assembly."""

from .matrix import (BOTTOM, Coefficients, ResidueMatrix, closed_form,
                     delannoy_matrix, is_prime, lucas_binomial, pascal_matrix,
                     path_cost_oracle)
from .selfsim import (LemmaReport, SelfSimReport, check_lemmas,
                      check_self_similarity, fractal_set)
from .tam import (Assembly, Direction, DirectednessResult, TileSystem,
                  TileType, assemble_bounded, is_directed_empirically,
                  replay_is_valid)
from .tilegen import (LocalRule, build_full_system, build_tile,
                      carpet_system, delannoy_rule, horizon_is_stable,
                      prune_reachable, rule_matrix, scan_windows, window_at)
from .conformance import (ConformanceReport, InductionReport,
                          check_induction_clauses, verify_self_assembly)

__version__ = "0.1.0"

__all__ = [
    "BOTTOM", "Coefficients", "ResidueMatrix", "closed_form",
    "delannoy_matrix", "is_prime", "lucas_binomial", "pascal_matrix",
    "path_cost_oracle",
    "LemmaReport", "SelfSimReport", "check_lemmas", "check_self_similarity",
    "fractal_set",
    "Assembly", "Direction", "DirectednessResult", "TileSystem", "TileType",
    "assemble_bounded", "is_directed_empirically", "replay_is_valid",
    "LocalRule", "build_full_system", "build_tile",
    "carpet_system", "delannoy_rule", "horizon_is_stable", "prune_reachable",
    "rule_matrix", "scan_windows", "window_at",
    "ConformanceReport", "InductionReport", "check_induction_clauses",
    "verify_self_assembly",
    "__version__",
]
