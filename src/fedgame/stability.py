"""Core, strict-core and individual stability of coalition structures.

Verdicts carry concrete witnesses that re-verify against the error module.
Checks are exhaustive over candidate coalitions (player count capped) and,
for two-size populations, count-symmetric so they scale to large counts.

Comparisons run in one of two modes: relative-epsilon floating point
(default) or exact rational arithmetic, selected on ``PreferenceOrder``.
Errors here are O(1)-scale rationals, so a relative epsilon with a small
absolute floor recognizes the designed boundary ties (n = mu_e/sigma_sq).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

# coalition_member_mse is not called here; it stays importable from this
# module for code that wraps the member-error layer by module attribute.
from .errors import coalition_errors, coalition_member_mse, two_size_errors  # noqa: F401
from .model import (
    CapExceededError,
    Coalition,
    FederationScheme,
    Fine,
    GameConfig,
    MAX_COALITION_PLAYERS,
    MAX_PARTITION_PLAYERS,
    Number,
    Partition,
    TwoSizeGame,
    ValidationError,
    _check_finite,
    check_profiles,
    check_two_size_config,
    enumerate_partitions,
    exact_config,
    exact_scheme,
    validate,
)

_STRICT_FLOOR = 1e-15

FLOAT_MODE = "float-epsilon"
EXACT_MODE = "exact-rational"

NOTIONS = ("core", "strict", "individual")


@dataclass(frozen=True)
class PreferenceOrder:
    """Comparison policy for "prefers" between expected errors."""

    epsilon: float = 1e-9
    exact: bool = False

    def __post_init__(self) -> None:
        _check_finite("preference epsilon", self.epsilon)
        if self.epsilon < 0:
            raise ValidationError("preference epsilon must be non-negative")

    def strictly_less(self, new: Number, old: Number) -> bool:
        if self.exact:
            return new < old
        return new < old * (1.0 - self.epsilon) - _STRICT_FLOOR

    def weakly_less(self, new: Number, old: Number) -> bool:
        if self.exact:
            return new <= old
        return new <= old * (1.0 + self.epsilon)

    @property
    def mode(self) -> str:
        return EXACT_MODE if self.exact else FLOAT_MODE


@dataclass(frozen=True)
class Deviation:
    """A single player moving to ``target`` (which includes the player)."""

    player: int
    target: Coalition


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    witness: Optional[Coalition | Deviation]
    comparisons_mode: str


class _ErrorTable:
    """Memoized per-coalition member errors, keyed by membership bitmask."""

    def __init__(
        self, config: GameConfig, scheme: FederationScheme, prefs: PreferenceOrder
    ) -> None:
        if isinstance(scheme, Fine):
            raise ValidationError(
                "fine-grained rows are tied to one partition; stability search "
                "needs local, uniform, coarse, coarse-optimal or fine-optimal"
            )
        if prefs.exact:
            config = exact_config(config)
            scheme = exact_scheme(scheme)
        self.config = config
        self.scheme = scheme
        self._players = range(len(config.players))
        self._memo: dict[int, dict[int, Number]] = {}

    def errors(self, mask: int) -> dict[int, Number]:
        cached = self._memo.get(mask)
        if cached is None:
            members = [j for j in self._players if mask >> j & 1]
            cached = coalition_errors(members, self.scheme, self.config)
            self._memo[mask] = cached
        return cached

    def partition_errors(self, partition: Partition) -> dict[int, Number]:
        current: dict[int, Number] = {}
        for coalition in partition.coalitions:
            current.update(self.errors(coalition.mask))
        return current


def _require_cap(m: int, cap: int, what: str) -> None:
    if m > cap:
        raise CapExceededError(f"{what}: player count {m} exceeds cap {cap}")


def _check_partition(partition: Partition, config: GameConfig) -> None:
    if partition.player_count != len(config.players):
        raise ValidationError(
            f"partition covers {partition.player_count} players, "
            f"config has {len(config.players)}"
        )


def _blocking_coalition(
    partition: Partition, table: _ErrorTable, prefs: PreferenceOrder, strict_notion: bool
) -> Optional[Coalition]:
    """First blocking coalition in ascending-bitmask order, if any.

    strict_notion=False: every member strictly gains (core blocking).
    strict_notion=True: every member weakly gains, at least one strictly.
    """
    m = partition.player_count
    current = table.partition_errors(partition)
    for mask in range(1, 1 << m):
        errs = table.errors(mask)
        if strict_notion:
            if all(prefs.weakly_less(errs[j], current[j]) for j in errs) and any(
                prefs.strictly_less(errs[j], current[j]) for j in errs
            ):
                return Coalition.from_mask(mask)
        else:
            if all(prefs.strictly_less(errs[j], current[j]) for j in errs):
                return Coalition.from_mask(mask)
    return None


def _verdict_table(
    partition: Partition,
    scheme: FederationScheme,
    config: GameConfig,
    prefs: PreferenceOrder,
    what: str,
) -> _ErrorTable:
    """Check a verdict's inputs, then give it an empty, lazily filled table."""
    validate(config)
    _check_partition(partition, config)
    _require_cap(partition.player_count, MAX_COALITION_PLAYERS, what)
    return _ErrorTable(config, scheme, prefs)


def is_core_stable(
    partition: Partition,
    scheme: FederationScheme,
    config: GameConfig,
    prefs: PreferenceOrder = PreferenceOrder(),
) -> StabilityVerdict:
    """No coalition exists that every member strictly prefers."""
    table = _verdict_table(partition, scheme, config, prefs, "core stability")
    witness = _blocking_coalition(partition, table, prefs, strict_notion=False)
    return StabilityVerdict(witness is None, witness, prefs.mode)


def is_strict_core_stable(
    partition: Partition,
    scheme: FederationScheme,
    config: GameConfig,
    prefs: PreferenceOrder = PreferenceOrder(),
) -> StabilityVerdict:
    """No coalition all members weakly prefer with one strict preference."""
    table = _verdict_table(partition, scheme, config, prefs, "strict core stability")
    witness = _blocking_coalition(partition, table, prefs, strict_notion=True)
    return StabilityVerdict(witness is None, witness, prefs.mode)


def _individual_deviation(
    partition: Partition,
    table: _ErrorTable,
    prefs: PreferenceOrder,
    allow_singleton_deviation: bool,
) -> Optional[Deviation]:
    current = table.partition_errors(partition)
    for i in range(partition.player_count):
        own = partition.coalition_of(i)
        for coalition in partition.coalitions:
            if i in coalition:
                continue
            joined_mask = coalition.mask | (1 << i)
            errs = table.errors(joined_mask)
            if prefs.strictly_less(errs[i], current[i]) and all(
                prefs.weakly_less(errs[j], current[j]) for j in coalition
            ):
                return Deviation(player=i, target=Coalition.from_mask(joined_mask))
        if allow_singleton_deviation and len(own) > 1:
            alone = table.errors(1 << i)
            if prefs.strictly_less(alone[i], current[i]):
                return Deviation(player=i, target=Coalition((i,)))
    return None


def is_individually_stable(
    partition: Partition,
    scheme: FederationScheme,
    config: GameConfig,
    prefs: PreferenceOrder = PreferenceOrder(),
    allow_singleton_deviation: bool = True,
) -> StabilityVerdict:
    """No player strictly gains by joining an existing coalition (members
    weakly agreeing) or, unless disabled, by leaving to be alone."""
    table = _verdict_table(partition, scheme, config, prefs, "individual stability")
    witness = _individual_deviation(partition, table, prefs, allow_singleton_deviation)
    return StabilityVerdict(witness is None, witness, prefs.mode)


def find_stable_partitions(
    config: GameConfig,
    scheme: FederationScheme,
    notion: str,
    prefs: PreferenceOrder = PreferenceOrder(),
) -> list[Partition]:
    """All partitions satisfying the notion, in canonical enumeration order."""
    validate(config)
    if notion not in NOTIONS:
        raise ValidationError(f"unknown stability notion {notion!r}, expected {NOTIONS}")
    m = len(config.players)
    _require_cap(m, MAX_PARTITION_PLAYERS, "stable-partition search")
    table = _ErrorTable(config, scheme, prefs)
    stable: list[Partition] = []
    for partition in enumerate_partitions(m):
        if notion == "core":
            bad = _blocking_coalition(partition, table, prefs, strict_notion=False)
        elif notion == "strict":
            bad = _blocking_coalition(partition, table, prefs, strict_notion=True)
        else:
            bad = _individual_deviation(partition, table, prefs, True)
        if bad is None:
            stable.append(partition)
    return stable


# --- two-size (count-symmetric) searches -------------------------------------


@dataclass(frozen=True)
class TwoSizeDeviation:
    """A single small/large player moving from one profile to another."""

    role: str  # "small" | "large"
    source: tuple[int, int]
    target: tuple[int, int]  # profile after the move, including the mover


def _exact_params(config: GameConfig, prefs: PreferenceOrder) -> tuple[Number, Number]:
    if prefs.exact:
        config = exact_config(config)
    return config.mu_e, config.sigma_sq


def _two_size_blocking(
    game: TwoSizeGame,
    arrangement: Sequence[tuple[int, int]],
    scheme: FederationScheme,
    config: GameConfig,
    prefs: PreferenceOrder,
    strict_notion: bool,
) -> Optional[tuple[int, int]]:
    """First coalition profile (s, l) that blocks the arrangement, if any.

    strict_notion=False: every participant strictly gains (core blocking).
    strict_notion=True: every participant weakly gains, at least one strictly.
    Players are symmetric within a size class, so a profile blocks when
    enough willing smalls and larges exist to populate it.  Candidates are
    scanned with s descending from S and l ascending from 0.
    """
    check_two_size_config(game, config)
    check_profiles(game, arrangement)
    mu_e, sigma_sq = _exact_params(config, prefs)
    gains = prefs.weakly_less if strict_notion else prefs.strictly_less
    # per role (0 small, 1 large): (count, current error) of each block with it
    held: list[list[tuple[int, Number]]] = [[], []]
    for profile in arrangement:
        current = two_size_errors(game, *profile, mu_e, sigma_sq, scheme)
        for role in (0, 1):
            if profile[role]:
                held[role].append((profile[role], current[role]))

    def strict_gainers(role: int, need: int, new: Number) -> Optional[int]:
        """How many players of the role strictly gain from ``new``, or None
        when fewer than ``need`` of them gain at all."""
        willing = strict = 0
        for count, cur in held[role]:
            if gains(new, cur):
                willing += count
                if not strict_notion or prefs.strictly_less(new, cur):
                    strict += count
        return strict if willing >= need else None

    for s_cand in range(game.S, -1, -1):
        for l_cand in range(0, game.L + 1):
            if s_cand + l_cand == 0:
                continue
            new = two_size_errors(game, s_cand, l_cand, mu_e, sigma_sq, scheme)
            strict = 0
            for role, need in ((0, s_cand), (1, l_cand)):
                gainers = strict_gainers(role, need, new[role]) if need else 0
                if gainers is None:
                    break
                strict += gainers
            else:
                if strict:
                    return (s_cand, l_cand)
    return None


def two_size_blocking_search(
    game: TwoSizeGame,
    arrangement: Sequence[tuple[int, int]],
    scheme: FederationScheme,
    config: GameConfig,
    prefs: PreferenceOrder = PreferenceOrder(),
) -> Optional[tuple[int, int]]:
    """First coalition profile where every participant strictly gains."""
    return _two_size_blocking(game, arrangement, scheme, config, prefs, strict_notion=False)


def two_size_weak_blocking_search(
    game: TwoSizeGame,
    arrangement: Sequence[tuple[int, int]],
    scheme: FederationScheme,
    config: GameConfig,
    prefs: PreferenceOrder = PreferenceOrder(),
) -> Optional[tuple[int, int]]:
    """First profile all participants weakly prefer, at least one strictly."""
    return _two_size_blocking(game, arrangement, scheme, config, prefs, strict_notion=True)


def two_size_individually_stable(
    game: TwoSizeGame,
    arrangement: Sequence[tuple[int, int]],
    scheme: FederationScheme,
    config: GameConfig,
    prefs: PreferenceOrder = PreferenceOrder(),
    allow_singleton_deviation: bool = True,
) -> Optional[TwoSizeDeviation]:
    """Profile-level individual-stability check; None means stable.

    Valid for any player counts because members of a size class are
    interchangeable: a labeled deviation exists iff a profile deviation does.
    """
    check_two_size_config(game, config)
    check_profiles(game, arrangement)
    mu_e, sigma_sq = _exact_params(config, prefs)

    def errs(s: int, l: int) -> tuple[Number | None, Number | None]:
        return two_size_errors(game, s, l, mu_e, sigma_sq, scheme)

    blocks = [(p, errs(p[0], p[1])) for p in arrangement]
    for idx, ((s_k, l_k), (cur_s, cur_l)) in enumerate(blocks):
        for role, count, cur in (("small", s_k, cur_s), ("large", l_k, cur_l)):
            if not count:
                continue
            for t_idx, ((s_t, l_t), (t_s, t_l)) in enumerate(blocks):
                if t_idx == idx:
                    continue
                new_s = s_t + (role == "small")
                new_l = l_t + (role == "large")
                err_s_new, err_l_new = errs(new_s, new_l)
                mover_err = err_s_new if role == "small" else err_l_new
                if not prefs.strictly_less(mover_err, cur):
                    continue
                ok_small = not s_t or prefs.weakly_less(err_s_new, t_s)
                ok_large = not l_t or prefs.weakly_less(err_l_new, t_l)
                if ok_small and ok_large:
                    return TwoSizeDeviation(role, (s_k, l_k), (new_s, new_l))
            if allow_singleton_deviation and s_k + l_k > 1:
                alone = (1, 0) if role == "small" else (0, 1)
                err_s_new, err_l_new = errs(*alone)
                mover_err = err_s_new if role == "small" else err_l_new
                if prefs.strictly_less(mover_err, cur):
                    return TwoSizeDeviation(role, (s_k, l_k), alone)
    return None
