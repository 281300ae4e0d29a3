"""Constructive stability algorithms and regime classifiers.

Equal-sample populations classify by comparing n against mu_e/sigma_sq;
two-size populations get the constructive individually-stable arrangement
for uniform federation and the strictly-core-stable arrangement for
optimal coarse-grained federation.  Outputs are coalition profiles
(counts of small and large players); a labeling expander produces concrete
partitions for exhaustive oracle checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import two_size_errors
from .model import (
    CoarseOptimal,
    FederationScheme,
    GameConfig,
    Number,
    Partition,
    TwoSizeGame,
    Uniform,
    ValidationError,
    _is_count,
    check_profiles,
    check_two_size_config,
    scheme_name,
)
from .stability import PreferenceOrder, _exact_params

REGIME_ALL_SMALL = "all-small"
REGIME_ALL_LARGE = "all-large"
REGIME_BOUNDARY = "boundary"
REGIME_MIXED = "mixed"


@dataclass(frozen=True)
class Prescription:
    """One partition (or family) together with the stability notion it attains."""

    description: str
    notion: str
    unique: bool
    partition: Optional[Partition] = None


@dataclass(frozen=True)
class RegimeClassification:
    regime: str
    prescriptions: tuple[Prescription, ...]


@dataclass(frozen=True)
class ProfilePartition:
    """Partition of a two-size population given as (small, large) profiles."""

    game: TwoSizeGame
    profiles: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        check_profiles(self.game, self.profiles)
        object.__setattr__(self, "profiles", tuple(map(tuple, self.profiles)))

    def to_partition(self) -> Partition:
        """Labeled expansion: smalls are players 0..S-1, larges S..S+L-1."""
        next_small = 0
        next_large = self.game.S
        blocks = []
        for s, l in self.profiles:
            members = list(range(next_small, next_small + s)) + list(
                range(next_large, next_large + l)
            )
            next_small += s
            next_large += l
            blocks.append(members)
        return Partition.from_blocks(blocks)


def two_size_game_config(game: TwoSizeGame, mu_e: Number, sigma_sq: Number) -> GameConfig:
    """Labeled config matching ``ProfilePartition.to_partition`` numbering."""
    return GameConfig(
        players=tuple([game.n_s] * game.S + [game.n_l] * game.L),
        mu_e=mu_e,
        sigma_sq=sigma_sq,
    )


def classify_equal_samples(
    n: int, m: int, config: GameConfig, scheme: FederationScheme
) -> RegimeClassification:
    """Stable sets when every player holds n samples.

    Uniform federation: grand coalition below the mu_e/sigma_sq threshold,
    all singletons above it, and total indifference exactly at it.  Optimal
    coarse-grained federation: the grand coalition is always the unique
    core partition.
    """
    if not _is_count(n) or config.players != (n,) * m:
        raise ValidationError(
            f"equal-sample classification needs config players {m} x {n!r} samples, "
            f"got {config.players}"
        )
    if not isinstance(scheme, (Uniform, CoarseOptimal)):
        raise ValidationError(
            f"equal-sample classification covers uniform and optimal "
            f"coarse-grained federation, not {scheme_name(scheme)}"
        )
    grand = Prescription("grand coalition", "core", True, Partition.grand(m))
    if isinstance(scheme, CoarseOptimal):
        regime = REGIME_ALL_SMALL if n * config.sigma_sq < config.mu_e else (
            REGIME_BOUNDARY if n * config.sigma_sq == config.mu_e else REGIME_ALL_LARGE
        )
        return RegimeClassification(regime, (grand,))
    threshold = n * config.sigma_sq
    if threshold < config.mu_e:
        return RegimeClassification(REGIME_ALL_SMALL, (grand,))
    if threshold > config.mu_e:
        alone = Prescription("all singletons", "core", True, Partition.singletons(m))
        return RegimeClassification(REGIME_ALL_LARGE, (alone,))
    every = Prescription("every partition", "core", False, None)
    return RegimeClassification(REGIME_BOUNDARY, (every,))


def construct_individually_stable_uniform(
    game: TwoSizeGame,
    config: GameConfig,
    prefs: PreferenceOrder = PreferenceOrder(),
) -> ProfilePartition:
    """Individually stable arrangement for uniform federation, n_l above threshold.

    Groups all smalls, admits the largest number of larges that still weakly
    prefer membership over being alone, and falls back to smalls-only when
    the smalls strictly prefer that.  Remaining larges stay single.
    """
    check_two_size_config(game, config)
    mu_e, sigma_sq = _exact_params(config, prefs)
    if not game.n_l * sigma_sq > mu_e:
        raise ValidationError(
            "constructive individual stability requires n_l > mu_e/sigma_sq"
        )
    if game.S < 1:
        raise ValidationError("constructive individual stability requires S >= 1")

    def err(s: int, l: int) -> tuple[Number | None, Number | None]:
        return two_size_errors(game, s, l, mu_e, sigma_sq, Uniform())

    _, alone_large = err(0, 1)
    best_l = 0
    for l in range(game.L, 0, -1):  # descending scan; L is small at desk scale
        _, with_l = err(game.S, l)
        if prefs.weakly_less(with_l, alone_large):
            best_l = l
            break
    smalls_only, _ = err(game.S, 0)
    federated_small, _ = err(game.S, best_l) if best_l else (smalls_only, None)
    if prefs.strictly_less(smalls_only, federated_small):
        best_l = 0  # smalls strictly prefer staying by themselves
    profiles = [(game.S, best_l)] + [(0, 1)] * (game.L - best_l)
    return ProfilePartition(game, tuple(profiles))


def construct_strict_core_coarse(
    game: TwoSizeGame,
    config: GameConfig,
    prefs: PreferenceOrder = PreferenceOrder(),
) -> ProfilePartition:
    """Strictly core stable arrangement under optimal coarse-grained federation.

    When the smalls strictly prefer the smalls-only coalition to the grand
    coalition the split {pi(S,0), pi(0,L)} is strictly core stable;
    otherwise (including the indifference case) the grand coalition is.
    """
    check_two_size_config(game, config)
    if game.S < 1 or game.L < 1:
        raise ValidationError("strict-core construction requires S >= 1 and L >= 1")
    mu_e, sigma_sq = _exact_params(config, prefs)
    grand_small, _ = two_size_errors(game, game.S, game.L, mu_e, sigma_sq, CoarseOptimal())
    split_small, _ = two_size_errors(game, game.S, 0, mu_e, sigma_sq, CoarseOptimal())
    if prefs.strictly_less(split_small, grand_small):
        return ProfilePartition(game, ((game.S, 0), (0, game.L)))
    return ProfilePartition(game, ((game.S, game.L),))


def regime_predicates(
    game: TwoSizeGame,
    config: GameConfig,
    prefs: PreferenceOrder = PreferenceOrder(),
) -> RegimeClassification:
    """Uniform-federation regime claims for a two-size population."""
    check_two_size_config(game, config)
    mu_e, sigma_sq = _exact_params(config, prefs)
    small_t = game.n_s * sigma_sq
    large_t = game.n_l * sigma_sq
    m = game.S + game.L
    if small_t > mu_e:  # implies large_t > mu_e
        alone = Prescription(
            "all singletons", "core", True, Partition.singletons(m) if m else None
        )
        return RegimeClassification(REGIME_ALL_LARGE, (alone,))
    if large_t <= mu_e:
        grand = Prescription(
            "grand coalition", "core", False, Partition.grand(m) if m else None
        )
        return RegimeClassification(REGIME_ALL_SMALL, (grand,))
    if small_t == mu_e:
        family = Prescription(
            "any arrangement with every large player alone", "core", False, None
        )
        return RegimeClassification(REGIME_BOUNDARY, (family,))
    if game.S == 0:
        # no smalls present, so every player sits above the threshold
        alone = Prescription("all singletons", "core", True, Partition.singletons(m))
        return RegimeClassification(REGIME_ALL_LARGE, (alone,))
    constructed = construct_individually_stable_uniform(game, config, prefs)
    built = Prescription(
        "constructed small-block arrangement",
        "individual",
        False,
        constructed.to_partition(),
    )
    return RegimeClassification(REGIME_MIXED, (built,))
