"""Coalition analysis for model-sharing federation games.

Exact expected MSEs for local, uniform, coarse-grained and fine-grained
federation (mean estimation and linear regression), closed-form optimal
personalization weights, hedonic stability verdicts with witnesses,
constructive stable arrangements for two-size populations, and a seeded
Monte Carlo oracle.

``import fedgame`` loads no submodule: each export is imported from its
module on first access, through ``_EXPORTS``.  The closed forms need only the
standard library; ``fedgame.montecarlo`` needs numpy, and its exports are
left out of ``__all__``.
"""

import importlib

__version__ = "0.1.0"

# export name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "Prescription", "ProfilePartition", "RegimeClassification",
        "classify_equal_samples", "construct_individually_stable_uniform",
        "construct_strict_core_coarse", "regime_predicates", "two_size_game_config",
    ), "constructive"),
    **dict.fromkeys((
        "ErrorReport", "coalition_errors", "coalition_member_mse", "mse_coarse",
        "mse_fine", "mse_local", "mse_uniform", "player_errors", "two_size_errors",
    ), "errors"),
    **dict.fromkeys((
        "CapExceededError", "Coalition", "Coarse", "CoarseOptimal", "FederationScheme",
        "Fine", "FineOptimal", "GameConfig", "LinRegSpec", "Local", "Partition",
        "TwoSizeGame", "Uniform", "ValidationError", "enumerate_coalitions",
        "enumerate_partitions", "exact_config", "exact_scheme",
    ), "model"),
    **dict.fromkeys((
        "Deviation", "PreferenceOrder", "StabilityVerdict", "TwoSizeDeviation",
        "find_stable_partitions", "is_core_stable", "is_individually_stable",
        "is_strict_core_stable", "two_size_blocking_search",
        "two_size_individually_stable", "two_size_weak_blocking_search",
    ), "stability"),
    **dict.fromkeys((
        "FineWeights", "explicit_row", "optimal_coarse_mse", "optimal_fine_mse",
        "optimal_v", "optimal_w",
    ), "weights"),
    # numpy: left out of __all__, so that a star import does not load it
    **dict.fromkeys((
        "DistributionSpec", "McEstimate", "TrialPlan", "agreement_battery",
        "empirical_mse_linreg", "empirical_mse_mean",
    ), "montecarlo"),
}

_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = [name for name, module in _EXPORTS.items() if module != "montecarlo"]


def __getattr__(name: str):
    module = name if name in _SUBMODULES else _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importlib, not ``from . import``: that form probes this hook again
    loaded = importlib.import_module(f".{module}", __name__)
    return loaded if name == module else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | _SUBMODULES)
