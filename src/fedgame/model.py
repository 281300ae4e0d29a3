"""Domain types, validation and enumeration for federation coalition games.

A game is a population of players, each holding ``n_i`` samples, plus two
distribution summaries: ``mu_e`` (expected sampling-noise variance) and
``sigma_sq`` (variance of the true parameters across players).  Everything
else in the package is a pure function of these values.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, Mapping, Sequence, Union

Number = Union[int, float, Fraction]

# Enumeration caps.  Bell(13) ~ 27.6M partitions is the largest exhaustive
# search we are willing to stream; subsets cap at 2^20.
MAX_PARTITION_PLAYERS = 13
MAX_COALITION_PLAYERS = 20

ROW_SUM_TOL = 1e-12


class ValidationError(ValueError):
    """An input violates a documented invariant."""


class CapExceededError(ValueError):
    """An enumeration was requested beyond its hard player cap."""


@dataclass(frozen=True)
class LinRegSpec:
    """Linear-regression task: dimension and the aggregate bias coefficient.

    ``sigma_bias_sq`` is the sum over dimensions of (second moment of the
    input coordinate) times (variance of the coefficient); only this product
    sum enters any closed form, so per-dimension vectors are not stored.
    """

    d: int
    sigma_bias_sq: Number


@dataclass(frozen=True)
class GameConfig:
    """Population of sample counts plus distribution summary parameters."""

    players: tuple[int, ...]
    mu_e: Number
    sigma_sq: Number
    linreg: LinRegSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "players", tuple(self.players))

    @property
    def player_count(self) -> int:
        return len(self.players)


def _is_count(value: object) -> bool:
    """A strict integer: ``bool`` is an ``int`` subclass but not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_finite(name: str, value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name}: must be a real number, got {value!r}")
    if not isinstance(value, (int, Fraction)) and not math.isfinite(value):
        raise ValidationError(f"{name}: must be finite, got {value!r}")


def validate(config: GameConfig) -> None:
    """Raise ValidationError naming the failing field if config is invalid."""
    if len(config.players) == 0:
        raise ValidationError("players: empty population")
    for n in config.players:
        if not _is_count(n) or n < 1:
            raise ValidationError(f"players: sample count {n!r} must be a positive integer")
    _check_finite("mu_e", config.mu_e)
    if not config.mu_e > 0:
        raise ValidationError(f"mu_e: must be positive, got {config.mu_e!r}")
    _check_finite("sigma_sq", config.sigma_sq)
    if config.sigma_sq < 0:
        raise ValidationError(f"sigma_sq: must be non-negative, got {config.sigma_sq!r}")
    lr = config.linreg
    if lr is not None:
        if not _is_count(lr.d) or lr.d < 1:
            raise ValidationError(f"linreg.d: must be a positive integer, got {lr.d!r}")
        _check_finite("linreg.sigma_bias_sq", lr.sigma_bias_sq)
        if lr.sigma_bias_sq < 0:
            raise ValidationError("linreg.sigma_bias_sq: must be non-negative")
        for n in config.players:
            if n <= lr.d + 1:
                raise ValidationError(
                    f"players: n must exceed d+1 for linear regression (n={n}, d={lr.d})"
                )


def check_row_sum(row: Mapping[int, Number], what: str) -> None:
    """A weight row must sum to 1 within ROW_SUM_TOL; a NaN entry fails."""
    total = sum(row.values())
    if not abs(total - 1) <= ROW_SUM_TOL:
        raise ValidationError(f"{what} sums to {total!r}, expected 1")


@dataclass(frozen=True, order=True)
class Coalition:
    """A non-empty set of player indices, stored sorted."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        members = tuple(sorted(set(self.members)))
        if not members:
            raise ValidationError("coalition: must be non-empty")
        if members[0] < 0:
            raise ValidationError(f"coalition: negative player index in {members}")
        object.__setattr__(self, "members", members)

    def __contains__(self, player: int) -> bool:
        return player in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def mask(self) -> int:
        bits = 0
        for j in self.members:
            bits |= 1 << j
        return bits

    @classmethod
    def from_mask(cls, mask: int) -> "Coalition":
        members = []
        j = 0
        while mask:
            if mask & 1:
                members.append(j)
            mask >>= 1
            j += 1
        return cls(tuple(members))


@dataclass(frozen=True)
class Partition:
    """Disjoint coalitions covering players 0..m-1, sorted by least member."""

    coalitions: tuple[Coalition, ...]

    def __post_init__(self) -> None:
        coals = tuple(sorted(self.coalitions, key=lambda c: c.members[0]))
        object.__setattr__(self, "coalitions", coals)
        seen: set[int] = set()
        total = 0
        for c in coals:
            for j in c:
                if j in seen:
                    raise ValidationError(f"partition: player {j} appears in two coalitions")
                seen.add(j)
            total += len(c)
        if seen != set(range(total)):
            raise ValidationError(
                f"partition: members {sorted(seen)} do not cover 0..{total - 1}"
            )

    @property
    def player_count(self) -> int:
        return sum(len(c) for c in self.coalitions)

    def coalition_of(self, player: int) -> Coalition:
        for c in self.coalitions:
            if player in c:
                return c
        raise ValidationError(f"partition: player {player} not present")

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence[int]]) -> "Partition":
        return cls(tuple(Coalition(tuple(b)) for b in blocks))

    @classmethod
    def grand(cls, m: int) -> "Partition":
        return cls.from_blocks([range(m)])

    @classmethod
    def singletons(cls, m: int) -> "Partition":
        return cls.from_blocks([[j] for j in range(m)])


@dataclass(frozen=True)
class TwoSizeGame:
    """Symmetric population: S small players (n_s samples), L large (n_l)."""

    n_s: int
    n_l: int
    S: int
    L: int

    def __post_init__(self) -> None:
        for name in ("n_s", "n_l", "S", "L"):
            if not _is_count(getattr(self, name)):
                raise ValidationError(f"two-size game: {name} must be an integer")
        if self.n_s < 1 or self.n_l < 1:
            raise ValidationError("two-size game: sample counts must be positive")
        if not self.n_s < self.n_l:
            raise ValidationError(f"two-size game: need n_s < n_l, got {self.n_s} >= {self.n_l}")
        if self.S < 0 or self.L < 0 or self.S + self.L < 1:
            raise ValidationError("two-size game: need S, L >= 0 and S + L >= 1")


def check_profiles(game: TwoSizeGame, profiles: Sequence[tuple[int, int]]) -> None:
    """A two-size arrangement: non-empty (small, large) pairs of integer
    counts, none negative, whose totals are exactly the game's (S, L)."""
    bad = [
        p for p in profiles
        if len(p) != 2 or not all(_is_count(c) and c >= 0 for c in p) or sum(p) < 1
    ]
    totals = (sum(s for s, _ in profiles), sum(l for _, l in profiles)) if not bad else None
    if totals != (game.S, game.L):
        got = f"profile {bad[0]!r}" if bad else f"totals {totals}"
        raise ValidationError(
            f"malformed arrangement ({got}): need non-empty pairs of non-negative "
            f"integer counts whose totals cover the game's ({game.S},{game.L})"
        )


def check_two_size_config(game: TwoSizeGame, config: GameConfig) -> None:
    """A two-size game's config: valid, mean estimation (no linreg spec),
    and players exactly S x n_s then L x n_l samples."""
    validate(config)
    if config.linreg is not None:
        raise ValidationError(
            "two-size games cover mean estimation only; config has a linreg spec"
        )
    if config.players != (game.n_s,) * game.S + (game.n_l,) * game.L:
        raise ValidationError(
            f"config players are not the two-size game's {game.S} x {game.n_s} "
            f"then {game.L} x {game.n_l} samples"
        )


# --- federation schemes -----------------------------------------------------


@dataclass(frozen=True)
class Local:
    """Every player keeps its own local model."""


@dataclass(frozen=True)
class Uniform:
    """One sample-count-weighted global model per coalition."""


@dataclass(frozen=True)
class Coarse:
    """Each player blends global and local models with its scalar weight."""

    weights: Mapping[int, Number]

    def __post_init__(self) -> None:
        for j, w in self.weights.items():
            _check_finite(f"coarse weight for player {j}", w)
            if not (0 <= w <= 1):
                raise ValidationError(f"coarse weight for player {j} outside [0,1]: {w!r}")


@dataclass(frozen=True)
class CoarseOptimal:
    """Coarse blending with each player's error-minimizing weight."""


@dataclass(frozen=True)
class Fine:
    """Each player combines member models with an explicit weight row."""

    rows: Mapping[int, Mapping[int, Number]]

    def __post_init__(self) -> None:
        for j, row in self.rows.items():
            check_row_sum(row, f"fine row for player {j}")


@dataclass(frozen=True)
class FineOptimal:
    """Fine-grained combination with each player's optimal weight row."""


FederationScheme = Union[Local, Uniform, Coarse, CoarseOptimal, Fine, FineOptimal]


def scheme_name(scheme: FederationScheme) -> str:
    return {
        Local: "local",
        Uniform: "uniform",
        Coarse: "coarse",
        CoarseOptimal: "coarse-optimal",
        Fine: "fine",
        FineOptimal: "fine-optimal",
    }[type(scheme)]


# --- exact-rational coercion ------------------------------------------------


def exact_config(config: GameConfig) -> GameConfig:
    """Copy of config with distribution parameters coerced to Fraction.

    Floats convert to their exact binary value; pass Fraction/int parameters
    for decimal-exact analysis.
    """
    lr = config.linreg
    if lr is not None:
        lr = LinRegSpec(d=lr.d, sigma_bias_sq=Fraction(lr.sigma_bias_sq))
    return replace(
        config,
        mu_e=Fraction(config.mu_e),
        sigma_sq=Fraction(config.sigma_sq),
        linreg=lr,
    )


def exact_scheme(scheme: FederationScheme) -> FederationScheme:
    """Copy of scheme with any explicit weights coerced to Fraction."""
    if isinstance(scheme, Coarse):
        return Coarse({j: Fraction(w) for j, w in scheme.weights.items()})
    if isinstance(scheme, Fine):
        return Fine(
            {j: {i: Fraction(v) for i, v in row.items()} for j, row in scheme.rows.items()}
        )
    return scheme


# --- enumeration ------------------------------------------------------------


def enumerate_partitions(m: int) -> Iterator[Partition]:
    """Yield every set partition of {0..m-1} in restricted-growth-string order.

    The order is deterministic: position i either joins an existing block
    (in block order) or opens a new one, which is exactly lexicographic
    order on restricted growth strings.
    """
    if m < 1:
        raise ValidationError(f"enumerate_partitions: need m >= 1, got {m}")
    if m > MAX_PARTITION_PLAYERS:
        raise CapExceededError(
            f"enumerate_partitions: m={m} exceeds cap {MAX_PARTITION_PLAYERS}"
        )

    blocks: list[list[int]] = []

    def rec(i: int) -> Iterator[Partition]:
        if i == m:
            yield Partition.from_blocks([list(b) for b in blocks])
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1)
        blocks.pop()

    return rec(0)


def enumerate_coalitions(m: int) -> Iterator[Coalition]:
    """Yield all 2^m - 1 non-empty subsets of {0..m-1} by ascending bitmask."""
    if m < 1:
        raise ValidationError(f"enumerate_coalitions: need m >= 1, got {m}")
    if m > MAX_COALITION_PLAYERS:
        raise CapExceededError(
            f"enumerate_coalitions: m={m} exceeds cap {MAX_COALITION_PLAYERS}"
        )
    return (Coalition.from_mask(mask) for mask in range(1, 1 << m))
