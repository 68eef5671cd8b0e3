"""Residue-matrix fractals and temperature-2 tile self-assembly.

Exports load their submodule on first use (PEP 562), so `import fractile`
loads no submodule and no numpy."""

from importlib import import_module

_EXPORTS = {
    "matrix": ("BOTTOM", "Coefficients", "ResidueMatrix", "closed_form",
               "delannoy_matrix", "is_prime", "path_cost_oracle"),
    "selfsim": ("LemmaReport", "SelfSimReport", "check_lemmas",
                "check_self_similarity"),
    "tam": ("Assembly", "DirectednessResult", "TileSystem",
            "TileType", "assemble_bounded", "is_directed_empirically",
            "replay_is_valid"),
    "tilegen": ("LocalRule", "build_full_system", "build_tile",
                "carpet_system", "delannoy_rule", "horizon_is_stable",
                "prune_reachable", "rule_matrix", "scan_windows",
                "window_at"),
    "conformance": ("ConformanceReport", "InductionReport",
                    "check_induction_clauses", "verify_self_assembly"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
