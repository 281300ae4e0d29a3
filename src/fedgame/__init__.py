"""Coalition analysis for model-sharing federation games.

Exact expected MSEs for local, uniform, coarse-grained and fine-grained
federation (mean estimation and linear regression), closed-form optimal
personalization weights, hedonic stability verdicts with witnesses,
constructive stable arrangements for two-size populations, and a seeded
Monte Carlo oracle.

The closed forms need only the standard library.  ``fedgame.montecarlo``
needs numpy, so it and its exports are imported on first access.
"""

import importlib

from .constructive import (
    Prescription,
    ProfilePartition,
    RegimeClassification,
    classify_equal_samples,
    construct_individually_stable_uniform,
    construct_strict_core_coarse,
    regime_predicates,
    two_size_game_config,
)
from .errors import (
    ErrorReport,
    coalition_errors,
    coalition_member_mse,
    mse_coarse,
    mse_fine,
    mse_local,
    mse_uniform,
    player_errors,
    two_size_errors,
)
from .model import (
    CapExceededError,
    Coalition,
    Coarse,
    CoarseOptimal,
    FederationScheme,
    Fine,
    FineOptimal,
    GameConfig,
    LinRegSpec,
    Local,
    Partition,
    TwoSizeGame,
    Uniform,
    ValidationError,
    enumerate_coalitions,
    enumerate_partitions,
    exact_config,
    exact_scheme,
)
from .stability import (
    Deviation,
    PreferenceOrder,
    StabilityVerdict,
    TwoSizeDeviation,
    find_stable_partitions,
    is_core_stable,
    is_individually_stable,
    is_strict_core_stable,
    two_size_blocking_search,
    two_size_individually_stable,
    two_size_weak_blocking_search,
)
from .weights import (
    FineWeights,
    explicit_row,
    optimal_coarse_mse,
    optimal_fine_mse,
    optimal_v,
    optimal_w,
)

__version__ = "0.1.0"

_MONTECARLO_EXPORTS = frozenset({
    "DistributionSpec",
    "McEstimate",
    "TrialPlan",
    "agreement_battery",
    "empirical_mse_linreg",
    "empirical_mse_mean",
})


def __getattr__(name: str):
    if name == "montecarlo" or name in _MONTECARLO_EXPORTS:
        # importlib, not ``from . import``: that form probes this hook again
        montecarlo = importlib.import_module(".montecarlo", __name__)
        return montecarlo if name == "montecarlo" else getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MONTECARLO_EXPORTS | {"montecarlo"})
